"""The traced benchmark run wraps the functions named in
``perfbench/layers.json``; a rename in the package must not leave a name
there that no longer resolves, and what the tracer assumes of a traced
function must still hold of it."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from quatlef import lefschetz, verify

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.json"


def _layers() -> list[dict]:
    return json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]


def test_every_traced_function_exists():
    missing = [
        f"{layer['module']}.{name}"
        for layer in _layers()
        for name in layer.get("functions", {})
        if not callable(
            getattr(importlib.import_module(f"quatlef.{layer['module']}"), name, None)
        )
    ]
    assert missing == []


def test_every_traced_suite_exists():
    suites = [name for layer in _layers() for name in layer.get("suites", ())]
    assert suites
    assert sorted(set(suites) - set(verify.SUITES)) == []


def test_every_cache_statistic_reads_a_cache():
    """hit_ratio compares a function's cache_info() before and after the
    run, and states counts its cache misses."""
    uncached = [
        f"{layer['module']}.{name}"
        for layer in _layers()
        for name, stats in layer.get("functions", {}).items()
        if {"hit_ratio", "states"} & set(stats)
        and not hasattr(
            getattr(importlib.import_module(f"quatlef.{layer['module']}"), name), "cache_info"
        )
    ]
    assert uncached == []


def test_m_factor_takes_j_level_algebra_first():
    """distinct_ratio reads the first three arguments of each m_factor call
    as (j, level, algebra)."""
    parameters = list(inspect.signature(lefschetz.m_factor).parameters)
    assert parameters[:3] == ["j", "level", "algebra"]


def test_cli_import_loads_every_traced_module():
    """The traced worker imports quatlef.cli alone, then looks each traced
    module up in sys.modules, quatlef.verify included."""
    modules = sorted({f"quatlef.{layer['module']}" for layer in _layers()})
    assert "quatlef.verify" in modules
    code = f"import quatlef.cli, sys; print(sorted(set({modules!r}) - set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
