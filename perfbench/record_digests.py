#!/usr/bin/env python3
"""Record the default-seed output digests that run.py checks.

    python3 perfbench/record_digests.py

Runs the first PREFIX requests of every workload at the default seed in a
worker, checks them, and writes one digest of (exit code, stdout, stderr)
per request to digests.json. Re-record only when a change to the
program's output is intended, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import checker
import run
import workloads

PREFIX = 10


def main() -> int:
    os.chdir(run.ROOT)
    run.BUILD.mkdir(parents=True, exist_ok=True)
    recorded = {"seed": run.DEFAULT_SEED, "prefix": PREFIX, "workloads": {}}
    for name in workloads.WORKLOADS:
        requests, path = run.write_requests(name, run.DEFAULT_SEED)
        _, results_path = run.run_stream(path, f"{name}-digests", "inf", trace=False, limit=PREFIX)
        digests = []
        for req, (rc, _latency, out, err) in zip(requests, run.read_results(results_path)):
            reason = checker.check(req, rc, out, err)
            if reason is not None:
                print(f"error: {name}: {' '.join(req.argv)}: {reason}", file=sys.stderr)
                return 1
            digests.append(checker.digest(rc, out, err))
        recorded["workloads"][name] = digests
    run.DIGESTS_PATH.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
