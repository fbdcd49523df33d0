#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

They check that the output checker rejects tampered output and accepts
the program's real output, that generators are deterministic per seed,
that the tracer's self-time arithmetic is right on a synthetic span
tree, that BENCHMARK.json lists exactly the metrics the benchmark
prints, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import arith
import checker
import refclock
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from quatlef.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _flip_digit(text: str, at: int) -> str:
    """text with the at-th decimal digit changed."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = positions[at]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _first(self, name: str, kind: str, fmt: str | None = None):
        for req in workloads.generate(name, 1, self.tmp):
            if req.kind == kind and (fmt is None or req.meta.get("format") == fmt):
                return req
        raise AssertionError(f"no {kind} request in {name}")

    def test_real_outputs_pass(self):
        for name in workloads.WORKLOADS:
            for req in workloads.generate(name, 1, self.tmp)[:6]:
                with self.subTest(argv=req.argv):
                    self.assertIsNone(checker.check(req, *_cli(req.argv)))

    def test_flipped_zeta_digit_fails(self):
        for fmt in ("json", "csv"):
            req = self._first("zeta-sweep", "zeta", fmt)
            rc, out, err = _cli(req.argv)
            line = next(x for x in out.splitlines() if '"value"' in x or x.startswith("1,"))
            value = line.split('"value": ')[-1].split(",")[-1]
            for at in (0, -1):
                tampered = out.replace(line, line.replace(value, _flip_digit(value, at)))
                with self.subTest(fmt=fmt, digit=at):
                    self.assertIsNotNone(checker.check(req, rc, tampered, err))

    def test_tampered_reports_fail(self):
        cases = [
            ("level-scan", "lefschetz", "json", '"value": "', 0),
            ("level-scan", "euler-char", "json", '"value": "', 0),
            ("level-scan", "index", "json", '"index": ', 0),
            ("level-scan", "genus", "json", '"genus": ', 0),
            ("level-scan", "genus", "csv", "b1,", 0),
            ("class-sum", "table", None, ",true,", 0),
            ("oracles", "adelic", None, '"value": ', 2),
        ]
        for name, kind, fmt, marker, at in cases:
            req = self._first(name, kind, fmt)
            rc, out, err = _cli(req.argv)
            start = out.index(marker) + len(marker)
            if kind == "table":  # skip the index column to reach lefschetz
                start = out.index(",", start) + 1
            tampered = out[:start] + _flip_digit(out[start:], at)
            with self.subTest(kind=kind, fmt=fmt):
                self.assertIsNone(checker.check(req, rc, out, err))
                self.assertIsNotNone(checker.check(req, rc, tampered, err))

    def test_malformed_requests(self):
        req = self._first("level-scan", "malformed")
        rc, out, err = _cli(req.argv)
        self.assertIsNone(checker.check(req, rc, out, err))
        self.assertIsNotNone(checker.check(req, 0, out, err))
        self.assertIsNotNone(checker.check(req, rc, out, err + err))

    def test_digest_mismatch_fails(self):
        req = self._first("zeta-sweep", "zeta")
        rc, out, err = _cli(req.argv)
        recorded = json.loads(run.DIGESTS_PATH.read_text())["workloads"]["zeta-sweep"]
        self.assertEqual(checker.digest(rc, out, err), recorded[0])
        self.assertNotEqual(checker.digest(rc, out + " ", err), recorded[0])


class GeneratorTests(unittest.TestCase):
    def test_seeds(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                first = [r.argv for r in workloads.generate(name, 7, Path(tmp))]
                again = [r.argv for r in workloads.generate(name, 7, Path(tmp))]
                other = [r.argv for r in workloads.generate(name, 8, Path(tmp))]
                with self.subTest(workload=name):
                    self.assertEqual(first, again)
                    self.assertNotEqual(first, other)

    def test_zeta_fields_are_distinct_and_span_the_conductor_range(self):
        with tempfile.TemporaryDirectory() as tmp:
            reqs = workloads.generate("zeta-sweep", 3, Path(tmp))
        ds = [r.meta["d"] for r in reqs]
        self.assertEqual(len(ds), len(set(ds)))
        conductors = [r.meta["conductor"] for r in reqs]
        self.assertLess(min(conductors), 150)
        self.assertGreater(max(conductors), 4000)

    def test_zeta_cost_mix_does_not_depend_on_the_seed(self):
        # per slot, the mean conductor of the first few rounds stays close
        # to the band's mean whatever the seed
        slots = len(workloads._ZETA_SLOTS)
        with tempfile.TemporaryDirectory() as tmp:
            for seed in range(1, 6):
                reqs = workloads.generate("zeta-sweep", seed, Path(tmp))
                for slot in range(slots):
                    band = [r.meta["conductor"] for r in reqs[slot::slots]]
                    first = band[:8]
                    with self.subTest(seed=seed, slot=slot):
                        self.assertAlmostEqual(
                            sum(first) / len(first) / (sum(band) / len(band)), 1, delta=0.1
                        )

    def test_multiquadratic_descriptor(self):
        data = workloads.multiquadratic_descriptor()
        for p, pairs in data["splitting"].items():
            self.assertEqual(sum(f * e for f, e in pairs), 4, p)
        self.assertEqual(data["splitting"]["2"], [[2, 2]])
        self.assertEqual(data["splitting"]["5"], [[2, 2]])
        self.assertEqual(data["splitting"]["31"], [[1, 1]] * 4)
        # zeta_K = zeta_Q(sqrt2) zeta_Q(sqrt5) zeta_Q(sqrt10) / zeta^2
        for j, text in enumerate(data["zeta_neg"], start=1):
            product = Fraction(1)
            for d in (2, 5, 10):
                product *= arith.field_zeta_neg(d, j)[-1]
            self.assertEqual(Fraction(text), product / arith.riemann_zeta_neg(j) ** 2)

    def test_reference_zeta_matches_program(self):
        from quatlef.numberfield import TotallyRealField, dedekind_zeta_neg

        for d in (2, 5, 13, 101):
            field = TotallyRealField.real_quadratic(d)
            want = [dedekind_zeta_neg(field, j) for j in range(1, 5)]
            self.assertEqual(arith.field_zeta_neg(d, 4), want)


class TracerTests(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # outer [0,100] > inner [10,40] > leaf [20,25]; outer > other [50,60]
        ticks = iter([0, 10, 20, 25, 40, 50, 60, 100])
        t = tracer.Tracer(clock=lambda: next(ticks))
        leaf = t.span("leaf", lambda: None)
        inner = t.span("inner", lambda: leaf())
        other = t.span("other", lambda: None)
        outer = t.span("outer", lambda: (inner(), other()))
        outer()
        self_ns = {name: total[1] for name, total in t.totals.items()}
        self.assertEqual(self_ns, {"leaf": 5, "inner": 25, "other": 10, "outer": 60})
        self.assertEqual(t.totals["outer"][2], 100)
        self.assertEqual(t.stack, [])

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(per_layer, tracer.metric_specs(tracer.load_layers()))
        end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        self.assertEqual(end_to_end, list(run.END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class RefclockTests(unittest.TestCase):
    def test_request_references_use_samples_on_both_sides(self):
        # samples before requests 0, 2 and 3 and after the last one (3);
        # request 2 sees 10, 20 before it and 40, 80 after it
        samples = [[0, 10], [2, 20], [3, 40], [4, 80]]
        self.assertEqual(refclock.request_references(samples, 4), [20, 20, 30, 40])

    def test_scale(self):
        self.assertEqual(refclock.scale(2 * refclock.REFERENCE_NS), 0.5)


class ContractTests(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "perfbench")
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oracles", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
