"""Smoke tests of the scripts in ``scripts/``: each runs as its own
process over a short level range and prints a known row."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, row",
    [
        # level 5 over the Fuchsian algebra ramified at 2 and 3
        ("shimura_genus_table.py", "5\t-20\t11\t22\t11\t30\t50"),
        # level 3 of the split algebra at n = 2
        ("betti_growth_scan.py", "3\t36\t12130560\t0.000682"),
    ],
)
def test_script_prints_known_row(script, row):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--max-level", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert row in proc.stdout.splitlines()
