"""One benchmark worker process: time set-up, then run a request stream.

    worker.py --setup-only
    worker.py REQUESTS RESULTS SECONDS TRACE [LIMIT]

Set-up is timed first, before anything else is imported, so that it
covers exactly the import of ``quatlef.cli`` and building its parser.
The request loop is a closed loop with one client: it sends the next
argv from REQUESTS (one JSON ``[argv, ends_round]`` per line) to
``quatlef.cli.main`` when the previous one returns, with stdout and
stderr captured. Once SECONDS have passed it stops at the next end of a
round, so that every run measures whole rounds of the workload's fixed
request mix; it also stops after LIMIT requests when LIMIT is given.
SECONDS may be ``inf``. Each result line in RESULTS is
``[exit code, latency ns, stdout, stderr]``; the last line of the
worker's own stdout is a JSON summary. The package's caches start cold
and are never cleared or inspected outside the traced statistics.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import quatlef.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    import json

    import refclock

    refclock.warm_up()
    if sys.argv[1] == "--setup-only":
        reference = sorted(refclock.sample_ns() for _ in range(5))[2]
        print(json.dumps([setup_s, reference]))
        return 0

    import contextlib
    import io
    import resource
    import traceback

    requests_path, results_path, seconds, trace = sys.argv[1:5]
    limit = int(sys.argv[5]) if len(sys.argv) > 5 else None
    run = cli.main
    installed = None
    if trace == "1":
        import tracer

        installed = tracer.Installed(tracer.Tracer(), tracer.load_layers())
        run = installed.tracer.span("cli.main", cli.main)

    clock = time.perf_counter_ns
    completed = 0
    samples = []  # [requests completed before it, reference ns]
    sampling_ns = 0
    with open(requests_path, encoding="utf-8") as source, open(
        results_path, "w", encoding="utf-8"
    ) as sink:
        loop_start = clock()
        deadline = loop_start + float(seconds) * 1e9
        round_ended = False
        next_sample = loop_start
        for line in source:
            now = clock()
            if completed == limit or (round_ended and now >= deadline):
                break
            if now >= next_sample:
                samples.append([completed, refclock.sample_ns()])
                next_sample = clock()
                sampling_ns += next_sample - now
                next_sample += refclock.SAMPLE_EVERY_NS
            argv, round_ended = json.loads(line)
            out, err = io.StringIO(), io.StringIO()
            began = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = run(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a crash is a failed request, not a dead run
                    rc = "exception"
                    err.write(traceback.format_exc())
            latency = clock() - began
            completed += 1
            if installed is not None and rc != 0:
                installed.tracer.count("cli.main.errors")
            sink.write(json.dumps([rc, latency, out.getvalue(), err.getvalue()]) + "\n")
        ended = clock()
        samples.append([completed, refclock.sample_ns()])
        loop_ns = ended - loop_start - sampling_ns

    summary = {
        "setup_s": setup_s,
        "loop_ns": loop_ns,
        "completed": completed,
        "references": samples,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if installed is not None:
        summary["layers"] = installed.metrics(loop_ns)
        summary["span_ms"] = installed.span_ms()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
