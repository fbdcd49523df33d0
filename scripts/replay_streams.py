#!/usr/bin/env python3
"""Replay the seed-1 request stream of each benchmark workload through
``quatlef.cli.main`` and compare its bytes with a record.

    replay_streams.py --record [--workload NAME ...]
    replay_streams.py --check [--workload NAME ...]

Each stream is built by ``perfbench/workloads.generate`` and replayed in a
fresh process of its own, with the checkout root as working directory, as
the benchmark runs it. The bytes of a request are
``json.dumps([exit code, stdout, stderr])``. A workload's record holds the
request count, the sha256 of its requests' bytes in order and, to locate a
change, the first 8 hex digits of each request's own sha256.

--record writes the records of the named workloads (default: all four)
into tests/golden/streams.json, keeping the others. --check replays the
named workloads and prints, for each one that differs from its record,
the index and argv of each request that differs and their count; it exits
1 when any differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "golden" / "streams.json"
WORKLOADS = ("zeta-sweep", "level-scan", "class-sum", "oracles")
SEED = 1
# relative to the checkout root, as in perfbench/run.py, so that the
# descriptor paths in the argv are the benchmark's
BUILD = Path(".bench_build") / "perfbench"


def _replay_here(name: str) -> dict:
    """Replay one workload in this process: its record and each argv."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads
    from quatlef.cli import main

    stream, digests, argvs = hashlib.sha256(), [], []
    for request in workloads.generate(name, SEED, BUILD):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(request.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a differing request, not a dead replay
                rc = "exception"
                err.write(traceback.format_exc())
        data = json.dumps([rc, out.getvalue(), err.getvalue()]).encode()
        stream.update(data)
        digests.append(hashlib.sha256(data).hexdigest()[:8])
        argvs.append(request.argv)
    record = {"requests": len(digests), "sha256": stream.hexdigest(), "digests": digests}
    return {"record": record, "argv": argvs}


def replay(name: str) -> dict:
    """Replay one workload in a fresh process: its record and each argv."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--replay", name],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"replay of {name} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def mismatches(recorded: dict, replayed: dict) -> list[int]:
    """The indices of the requests whose digests differ between two
    records of a workload, each request present in only one included."""
    old, new = recorded["digests"], replayed["digests"]
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    return differ + list(range(min(len(old), len(new)), max(len(old), len(new))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="write the records")
    mode.add_argument("--check", action="store_true", help="compare with the records")
    mode.add_argument("--replay", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to replay (repeatable; default: all four)")
    args = parser.parse_args()
    if args.replay:
        print(json.dumps(_replay_here(args.replay)))
        return 0

    names = args.workload or WORKLOADS
    records = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    if args.record:
        for name in names:
            records[name] = replay(name)["record"]
            print(f"{name}: {records[name]['requests']} requests,"
                  f" sha256 {records[name]['sha256']}")
        RECORD.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    failed = False
    for name in names:
        if name not in records:
            print(f"{name}: no record in {RECORD.relative_to(ROOT)}")
            failed = True
            continue
        replayed = replay(name)
        got = replayed["record"]
        if got == records[name]:
            print(f"{name}: {got['requests']} requests, sha256 {got['sha256']}, as recorded")
            continue
        failed = True
        differ = mismatches(records[name], got)
        for i in differ:
            argv = replayed["argv"][i] if i < len(replayed["argv"]) else "(not replayed)"
            print(f"{name}: request {i} differs: {json.dumps(argv)}")
        print(f"{name}: {len(differ)} of {got['requests']} requests differ"
              f" (recorded: {records[name]['requests']}); sha256 {got['sha256']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
