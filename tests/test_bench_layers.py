"""The traced benchmark run wraps the functions named in
``perfbench/layers.json``; a rename in the package must not leave a name
there that no longer resolves."""

import importlib
import json
from pathlib import Path

from quatlef import verify

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


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
