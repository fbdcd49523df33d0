#!/usr/bin/env python3
"""quatlef benchmark: four seeded CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is loaded from ``src/`` next to this directory, and every
file the run writes goes under ``.bench_build/`` at the checkout root.

With ``--trace 0`` a fresh worker process imports ``quatlef.cli`` (timed
as set-up; set-up is also timed in several set-up-only processes and the
median reported) and sends the workload's requests in a closed loop with
one client for S seconds. With ``--trace 1`` the same loop runs with span
wrappers around the package's public functions, and the requests it
completed are replayed untraced to measure the tracing overhead. Every
output is checked after the loop; a failed check counts the request as
failed. The last line of stdout is the JSON result.

The end-to-end times are scaled to a fixed host speed with the reference
computation of ``refclock``, timed in the same process around every
request and every set-up; the unscaled figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import checker
import tracer
import refclock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# relative to the checkout root, which main() makes the working directory,
# so that generated argv (descriptor paths) do not depend on where it is
BUILD = Path(".bench_build") / "perfbench"
DIGESTS_PATH = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 10
WORKER_TIMEOUT = 120

END_TO_END = (
    ("req_per_s", "requests/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> str:
    """Run one worker process to completion; return its last stdout line."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the package is compiled from source in every worker, so set-up time
    # does not depend on whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_stream(requests_path: Path, tag: str, seconds, trace: bool, limit=None):
    results_path = BUILD / f"{tag}.results.jsonl"
    args = [str(requests_path), str(results_path), str(seconds), "1" if trace else "0"]
    if limit is not None:
        args.append(str(limit))
    return json.loads(_worker(args, timeout=WORKER_TIMEOUT)), results_path


def read_results(results_path: Path):
    """[exit code, latency ns, stdout, stderr] per request, one at a time,
    so that large outputs are never all held in memory."""
    with open(results_path, encoding="utf-8") as handle:
        for line in handle:
            yield json.loads(line)


def _setup_samples() -> list[list[float]]:
    """[set-up s, reference ns] of SETUP_SAMPLES set-up-only workers."""
    return [json.loads(_worker(["--setup-only"], timeout=60)) for _ in range(SETUP_SAMPLES)]


def _expected_digests(name: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not DIGESTS_PATH.is_file():
        return []
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded["workloads"].get(name, [])


def _check(name: str, seed: int, requests, results_path: Path) -> tuple[list[str], list[float]]:
    """One line per failed request (bad exit code, bad output or digest),
    and every request's latency in ms."""
    digests = _expected_digests(name, seed)
    failures, latencies = [], []
    for index, (rc, latency, out, err) in enumerate(read_results(results_path)):
        latencies.append(latency / 1e6)
        reason = checker.check(requests[index], rc, out, err)
        if reason is None and index < len(digests):
            if checker.digest(rc, out, err) != digests[index]:
                reason = "output differs from the recorded default-seed digest"
        if reason is not None:
            failures.append(f"#{index} {' '.join(requests[index].argv)}: {reason}")
    return failures, latencies


def _scaled(summary: dict, latencies: list[float]) -> list[float]:
    """A worker's request latencies scaled to the reference host speed."""
    references = refclock.request_references(summary["references"], len(latencies))
    return [ms * refclock.scale(ref) for ms, ref in zip(latencies, references)]


def _latency_metrics(latencies: list[float]) -> tuple[dict, str]:
    """Throughput and latency figures of one run's request latencies (ms)."""
    total_ms = sum(latencies)
    latencies = sorted(latencies)
    count = len(latencies)
    if count > 10:
        tail = latencies[count - 11]
        note = f"p{100 * (count - 10) / count:.1f} of {count} requests, 10 beyond it"
    else:
        tail = latencies[-1]
        note = f"max of {count} requests (fewer than 11)"
    metrics = {
        "req_per_s": count / (total_ms / 1e3),
        "req_p50_ms": statistics.median(latencies),
        "req_tail_ms": tail,
    }
    return metrics, note


def write_requests(name: str, seed: int):
    requests = workloads.generate(name, seed, BUILD)
    path = BUILD / f"{name}.requests.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for req in requests:
            handle.write(json.dumps([req.argv, req.ends_round]) + "\n")
    return requests, path


def _print_properties(name: str, requests, attempted: int) -> None:
    print(f"workload {name}: {workloads.WHY[name]}")
    props = workloads.input_properties(requests[:attempted])
    print("input properties: " + json.dumps(props))


def _print_layers(name: str, layer_metrics: dict, span_ms: dict) -> None:
    layers = tracer.load_layers()
    print("self-time share of the loop by module:")
    for module in sorted(tracer.modules(layers), key=lambda m: -layer_metrics[f"share.{m}"]):
        print(f"  share.{module:<12} {layer_metrics[f'share.{module}']:8.4f}")
    print("layers this workload is predicted to load or to leave idle:")
    for layer in layers:
        role = "dominant" if name in layer["dominant_on"] else "predicted ~0"
        if name in layer["dominant_on"] or name in layer["predicted_zero_on"]:
            self_ms = tracer.layer_self_ms(layer, layer_metrics)
            print(f"  {layer['layer']:<26} {role:<13} self {self_ms:10.2f} ms")
    suites = {key: value for key, value in span_ms.items() if key.startswith("verify.")}
    if suites:
        print("verify suites, inclusive span time (children included):")
        for key, value in suites.items():
            print(f"  {key:<30} {value:10.2f} ms")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    BUILD.mkdir(parents=True, exist_ok=True)
    requests, requests_path = write_requests(name, seed)
    tag = f"{name}-trace{int(trace)}"  # later runs overwrite, so files do not pile up
    if trace:
        ends = [i + 1 for i, req in enumerate(requests) if req.ends_round]
        limit = ends[workloads.TRACE_ROUNDS[name] - 1]
        summary, results_path = run_stream(requests_path, tag, seconds, trace=True, limit=limit)
        plain, plain_path = run_stream(
            requests_path, tag + "-replay", "inf", trace=False, limit=summary["completed"]
        )
        metrics = dict(summary["layers"])
        span_ms = summary["span_ms"]
    else:
        setups = _setup_samples()
        summary, results_path = run_stream(requests_path, tag, seconds, trace=False)
    failures, latencies = _check(name, seed, requests, results_path)
    if trace:
        plain_ms = [latency / 1e6 for _, latency, _, _ in read_results(plain_path)]
        traced_total = sum(_scaled(summary, latencies))
        metrics["trace.overhead_frac"] = traced_total / sum(_scaled(plain, plain_ms)) - 1
    else:
        metrics, tail_note = _latency_metrics(_scaled(summary, latencies))
        raw, _ = _latency_metrics(latencies)
        setups.append([summary["setup_s"], summary["references"][0][1]])
        metrics["setup_s"] = statistics.median(s * refclock.scale(ref) for s, ref in setups)
        raw["setup_s"] = statistics.median(s for s, _ in setups)
        metrics["peak_rss_mb"] = summary["maxrss_kib"] / 1024
        speeds = [refclock.REFERENCE_NS / ns for _, ns in summary["references"]]

    _print_properties(name, requests, len(latencies))
    if trace:
        _print_layers(name, metrics, span_ms)
        units = {spec[0]: spec[1] for spec in tracer.metric_specs(tracer.load_layers())}
    else:
        print(f"req_tail_ms is the {tail_note}")
        print(f"setup_s is the median of {len(setups)} fresh-process set-ups")
        print(
            f"host speed relative to the reference, over {len(speeds)} samples:"
            f" median {statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}"
        )
        print("unscaled: " + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()))
        units = dict(END_TO_END)
    for key, value in metrics.items():
        print(f"  {key:<48} {value:14.6g} {units[key]}")
    print(f"failed {len(failures)} of {len(latencies)} requests")
    for line in failures[:10]:
        print(f"  FAIL {line[:300]}")
    return {
        "correct": not failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quatlef" / "cli.py").is_file():
        print(f"error: no quatlef sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
