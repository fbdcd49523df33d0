"""Span tracing of the package from outside it.

``install`` wraps each public function named in ``layers.json`` and
rebinds every ``quatlef.*`` module global that refers to the same object,
because the modules import each other's names directly; classes are
traced through their ``__init__`` and verify suites through the
``SUITES`` table. Spans nest on a stack: when a span closes, its duration
is added to its parent's child time and its self time (duration minus
child time) to its name's total, which is the same arithmetic as
deriving self time from a stored span tree. Spans are folded into these
totals as they close instead of being kept one by one, because a traced
zeta-sweep run closes millions of ``bernoulli`` spans.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

LAYERS_PATH = Path(__file__).with_name("layers.json")

# unit and direction of each per-layer statistic
STATS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "distinct_ratio": ("ratio", "higher"),
    "classes": ("count", "lower"),
    "states": ("count", "lower"),
    "errors": ("count", "lower"),
}

# states scanned by one uncached call of each enumeration oracle
_STATES = {
    "brute_force_sl": lambda m, n_mod: n_mod ** (m * m),
    "brute_force_sp": lambda n, q: q ** (4 * n * n),
    "brute_force_unitary": lambda n, q: q ** (2 * n * n),
    "brute_force_ramified_sl1": lambda q: q**4,
}


def load_layers() -> list[dict]:
    return json.loads(LAYERS_PATH.read_text(encoding="utf-8"))["layers"]


def modules(layers: list[dict]) -> list[str]:
    return list(dict.fromkeys(layer["module"] for layer in layers))


def layer_self_ms(layer: dict, metrics: dict) -> float:
    """Self time of one layer: its functions' or suites' self_ms summed."""
    names = list(layer.get("functions", {})) + list(layer.get("suites", []))
    return sum(metrics.get(f"{layer['module']}.{name}.self_ms", 0.0) for name in names)


def metric_specs(layers: list[dict]) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in layers:
        module = layer["module"]
        for function, stats in layer.get("functions", {}).items():
            specs += [(f"{module}.{function}.{stat}", *STATS[stat]) for stat in stats]
        for suite in layer.get("suites", []):
            specs.append((f"verify.{suite}.self_ms", *STATS["self_ms"]))
        if "suites" in layer:
            specs.append(("verify.checks", "count", "higher"))
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    specs += [(f"share.{module}", "ratio", "lower") for module in modules(layers)]
    return specs


class Tracer:
    """Nested spans folded into per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list[int]] = []  # [start, child time] per open span
        self.totals: dict[str, list[int]] = {}  # name -> [calls, self ns, span ns]
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once it returns."""
        total = self.totals.setdefault(name, [0, 0, 0])
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                total[0] += 1
                total[1] += duration - frame[1]
                total[2] += duration
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "quatlef" or name.startswith("quatlef."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class Installed:
    """The tracer wired into the imported package, plus cache baselines."""

    def __init__(self, tracer: Tracer, layers: list[dict]):
        self.tracer = tracer
        self.layers = layers
        self.caches: dict[str, tuple] = {}
        self.distinct: set = set()
        # id -> (object, index of its value): hashes each level or algebra
        # once, and keeps it alive so that its id is not reused
        self.alive: dict[int, tuple] = {}
        self.index: dict = {}
        for layer in layers:
            module = sys.modules[f"quatlef.{layer['module']}"]
            for function in layer.get("functions", {}):
                if layer["module"] != "cli":  # the worker spans cli.main itself
                    self._wrap(layer["module"], module, function)
            if "suites" in layer:
                self._wrap_suites(module)

    def _wrap(self, module_name: str, module, function: str) -> None:
        name = f"{module_name}.{function}"
        original = getattr(module, function)
        if isinstance(original, type):
            original.__init__ = self.tracer.span(name, original.__init__)
            return
        after = None
        if function == "m_factor":
            after = self._record_m_factor
        elif function == "h1_signature_classes":
            after = lambda args, result: self.tracer.count(f"{name}.classes", len(result))
        elif function in _STATES:
            after = self._states_counter(name, original, _STATES[function])
        if hasattr(original, "cache_info"):
            self.caches[name] = (original, original.cache_info())
        _rebind(original, self.tracer.span(name, original, after))

    def _record_m_factor(self, args, result) -> None:
        j, level, algebra = args[:3]
        self.distinct.add((j, self._value_index(level), self._value_index(algebra)))

    def _value_index(self, obj) -> int:
        entry = self.alive.get(id(obj))
        if entry is None:
            entry = self.alive[id(obj)] = (obj, self.index.setdefault(obj, len(self.index)))
        return entry[1]

    def _states_counter(self, name: str, original, states):
        misses = [original.cache_info().misses]

        def after(args, result):
            now = original.cache_info().misses
            if now > misses[0]:
                self.tracer.count(f"{name}.states", states(*args))
            misses[0] = now

        return after

    def _wrap_suites(self, verify) -> None:
        def count_checks(args, result):
            self.tracer.count("verify.checks", len(result))

        for suite, fn in list(verify.SUITES.items()):
            traced = self.tracer.span(f"verify.{suite}", fn, count_checks)
            verify.SUITES[suite] = traced
            _rebind(fn, traced)

    def span_ms(self) -> dict[str, float]:
        """Inclusive span time of every traced name that was called."""
        return {name: total[2] / 1e6 for name, total in self.tracer.totals.items() if total[0]}

    def metrics(self, loop_ns: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac."""
        totals, counts = self.tracer.totals, self.tracer.counts
        out: dict[str, float] = {}
        module_self = dict.fromkeys(modules(self.layers), 0)
        for name, (_calls, self_ns, _span_ns) in totals.items():
            module_self[name.split(".", 1)[0]] += self_ns
        for name, _unit, _better in metric_specs(self.layers):
            base, _, stat = name.rpartition(".")
            calls, self_ns, _span_ns = totals.get(base, (0, 0, 0))
            if stat == "calls":
                value = calls
            elif stat == "self_ms":
                value = self_ns / 1e6
            elif stat == "hit_ratio":
                original, before = self.caches[base]
                after = original.cache_info()
                hits, misses = after.hits - before.hits, after.misses - before.misses
                value = hits / (hits + misses) if hits + misses else 0.0
            elif stat == "distinct_ratio":
                value = len(self.distinct) / calls if calls else 0.0
            elif name.startswith("share."):
                value = module_self[stat] / loop_ns
            elif name == "trace.overhead_frac":
                continue
            else:
                value = counts.get(name, 0)
            out[name] = value
        return out
