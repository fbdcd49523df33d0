"""Smoke tests of the scripts in ``scripts/``: each runs as its own
process over a short level range and prints a known row or refuses bad
input in one error line, and the stream replay agrees with its record."""

import importlib.util
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


@pytest.mark.parametrize(
    "argv",
    [
        # an odd number of ramified places
        ["shimura_genus_table.py", "--ram", "2"],
        ["shimura_genus_table.py", "--ram", "2,5", "--weights", "3"],
        ["betti_growth_scan.py", "--n", "0"],
    ],
)
def test_script_refuses_bad_input_in_one_error_line(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:], "--max-level", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in proc.stderr


def test_replayed_streams_match_their_record():
    workloads = ("zeta-sweep", "level-scan", "class-sum", "oracles")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "replay_streams.py"), "--check",
         *(arg for name in workloads for arg in ("--workload", name))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == list(workloads)
    assert all(line.endswith(", as recorded") for line in proc.stdout.splitlines())


def test_replay_locates_each_differing_request():
    spec = importlib.util.spec_from_file_location("replay_streams", SCRIPTS / "replay_streams.py")
    replay_streams = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay_streams)
    recorded = {"digests": ["0a1b2c3d", "4e5f6071", "8293a4b5", "c6d7e8f9"]}
    changed = {"digests": ["0a1b2c3d", "4e5f6072", "8293a4b5", "c6d7e8f9"]}
    assert replay_streams.mismatches(recorded, recorded) == []
    assert replay_streams.mismatches(recorded, changed) == [1]
    # a request present on one side only differs too
    assert replay_streams.mismatches(recorded, {"digests": changed["digests"][:2]}) == [1, 2, 3]
    assert replay_streams.mismatches({"digests": []}, recorded) == [0, 1, 2, 3]
