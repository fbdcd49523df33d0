"""Byte-for-byte contract of the command line.

``tests/golden/corpus.json`` holds the exit code, stdout and stderr of
every invocation in ``CASES``. A refactor must reproduce all three
exactly; a deliberate change of output re-records the corpus with

    PYTHONPATH=src python tests/test_golden.py

and shows the new bytes in its diff. An argv entry starting with ``@/``
names a fixture file in ``tests/golden/``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from quatlef.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"

# one algebra per base field that is valid there, and a Fuchsian one for genus
_FIELDS = {
    "q": ("q", ["--ram", "2,3"], "1", "5", "", ["--ram", "2,3"]),
    "quad5": ("quad:5", ["--ram-real", "2"], "2", "3", "2,0;2,0", ["--ram", "2", "--ram-real", "1"]),
    "quad2": ("quad:2", ["--ram", "2", "--ram-real", "1"], "2", "3", "0,2", ["--ram", "2", "--ram-real", "1"]),
    "ext5": ("external:@/q5.json", ["--ram-real", "2"], "2", "11", "2,0;0,2", ["--ram", "2", "--ram-real", "1"]),
}


def _field_cases() -> dict[str, list[str]]:
    cases = {}
    for tag, (field, algebra, n, level, signature, fuchsian) in _FIELDS.items():
        # the descriptor has two zeta values and splitting data above 2, 5, 11
        jmax, levels = ("2", "10:11") if tag == "ext5" else ("3", "2:12")
        setting = ["--field", field, *algebra, "--n", n, "--level", level]
        for fmt in ("json", "csv"):
            cases[f"zeta-{tag}-{fmt}"] = ["zeta", "--field", field, "--jmax", jmax, "--format", fmt]
            cases[f"lefschetz-{tag}-{fmt}"] = ["lefschetz", *setting, "--format", fmt]
            cases[f"euler-char-{tag}-{fmt}"] = [
                "euler-char", *setting, "--signature", signature, "--format", fmt
            ]
            cases[f"index-{tag}-{fmt}"] = ["index", *setting, "--format", fmt]
            cases[f"genus-{tag}-{fmt}"] = [
                "genus", "--field", field, *fuchsian, "--level", level,
                "--weights", "2,4,6", "--format", fmt,
            ]
        cases[f"table-{tag}"] = ["table", "--field", field, *algebra, "--n", n, "--levels", levels]
    return cases


CASES = {
    **_field_cases(),
    "lefschetz-trace-w": ["lefschetz", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "5", "--trace-w=-1/2"],
    "lefschetz-hilbert": ["lefschetz", "--field", "q", "--hilbert=-1,-3", "--n", "2", "--level", "5"],
    "lefschetz-prime-level": ["lefschetz", "--field", "quad:5", "--split", "--n", "1", "--level", "11:1:1:a^2,3:2:1"],
    "lefschetz-torsion-override": ["lefschetz", "--field", "q", "--split", "--n", "2", "--level", "2", "--assume-torsion-free"],
    "lefschetz-config": ["lefschetz", "--config", "@/config.json"],
    "lefschetz-complex-place": ["lefschetz", "--field", "external:@/imaginary.json", "--split", "--n", "2", "--level", "3"],
    "euler-char-complex-place": ["euler-char", "--field", "external:@/imaginary.json", "--split", "--n", "1", "--level", "5"],
    "euler-char-adelic": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature", "2,0;2,0", "--adelic-terms", "10000"],
    "euler-char-adelic-csv": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature", "2,0;2,0", "--adelic-terms", "10000", "--format", "csv"],
    "table-complex-place": ["table", "--field", "external:@/imaginary.json", "--split", "--n", "1", "--levels", "2:6"],
    "table-split-n2": ["table", "--field", "q", "--split", "--n", "2", "--levels", "3:9", "--trace-w", "3"],
    "table-fuchsian-quad5": ["table", "--field", "quad:5", "--ram", "2", "--ram-real", "1", "--n", "1", "--levels", "3:9"],
    # the class-sum path: 81 signature classes per row over Q(sqrt2, sqrt5)
    "table-biquadratic-n4": ["table", "--field", "external:@/q_sqrt2_sqrt5.json", "--ram-real", "4", "--n", "4", "--levels", "3:4"],
    # the largest class count of the benchmark: 625 signature classes per row
    "table-biquadratic-n8": ["table", "--field", "external:@/q_sqrt2_sqrt5.json", "--ram-real", "4", "--n", "8", "--levels", "3:4"],
    "table-quad5-odd-n-trace": ["table", "--field", "quad:5", "--ram-real", "2", "--n", "5", "--levels", "3:6", "--trace-w=-1/3"],
    # conductors at and beyond the top of the benchmark's zeta range
    "zeta-quad10007-json": ["zeta", "--field", "quad:10007", "--jmax", "6"],
    "zeta-quad4999-csv": ["zeta", "--field", "quad:4999", "--jmax", "8", "--format", "csv"],
    # the generalized Bernoulli route at d = 1 mod 4 and at d = 2p (conductor 4d)
    "zeta-quad4993-jmax8": ["zeta", "--field", "quad:4993", "--jmax", "8"],
    "zeta-quad5006-csv": ["zeta", "--field", "quad:5006", "--jmax", "8", "--format", "csv"],
    "verify": ["verify"],
    "verify-suites": ["verify", "--suite", "volumes,binomial"],
    "err-torsion": ["lefschetz", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "2"],
    "err-torsion-genus": ["genus", "--field", "q", "--ram", "2,3", "--level", "2"],
    "err-parity": ["lefschetz", "--field", "q", "--ram", "2", "--n", "1", "--level", "5"],
    "err-field-spec": ["zeta", "--field", "r", "--jmax", "2"],
    "err-jmax": ["zeta", "--field", "q", "--jmax", "0"],
    "err-level-spec": ["index", "--field", "quad:5", "--split", "--n", "1", "--level", "11:2:1"],
    "err-missing-flag": ["euler-char", "--field", "q", "--split", "--level", "3"],
    "err-conflicting-algebra": ["index", "--field", "q", "--split", "--ram", "2,3", "--n", "1", "--level", "5"],
    "err-not-fuchsian": ["genus", "--field", "q", "--split", "--level", "5"],
    "err-definite-n1": ["lefschetz", "--field", "quad:5", "--ram-real", "2", "--n", "1", "--level", "3"],
    "err-signature": ["euler-char", "--field", "q", "--ram", "2,3", "--n", "2", "--level", "5", "--signature", "1,1"],
    # bad signature classes, one fault each, then two faults at once
    "err-signature-negative": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature=4,-2;2,0"],
    "err-signature-mixed-sums": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature=2,0;2,2"],
    "err-signature-wrong-n": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature=3,0;3,0"],
    "err-signature-count": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature=2,0"],
    "err-signature-two-faults": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3", "--signature=3,0"],
    # the float adelic path: a float overflow and an infinite product, then the series cap
    "err-adelic-overflow": ["euler-char", "--field", "q", "--split", "--n", "18", "--level", "3", "--adelic-terms", "10000"],
    "err-adelic-infinite": ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "12", "--level", "3", "--signature", "12,0;12,0", "--adelic-terms", "10000"],
    "err-series-cap": ["euler-char", "--field", "q", "--split", "--n", "2", "--level", "3", "--adelic-terms", "100000000000"],
    # 11 series of 909091 terms: 10^7 + 1 in all
    "err-series-total-cap": ["euler-char", "--field", "q", "--split", "--n", "11", "--level", "3", "--adelic-terms", "909091"],
    "err-external-zeta": ["lefschetz", "--field", "external:@/q5.json", "--ram-real", "2", "--n", "3", "--level", "11"],
    "err-external-prime": ["index", "--field", "external:@/q5.json", "--split", "--n", "1", "--level", "3"],
    "err-trace-w": ["lefschetz", "--field", "q", "--split", "--n", "1", "--level", "3", "--trace-w", "x"],
    "err-table-cap": ["table", "--field", "q", "--split", "--n", "1", "--levels", "2:20002"],
    # n = 200 meets the cap on n first; r = 4 and n = 20 give 11^4 classes
    "err-class-cap": ["table", "--field", "quad:5", "--ram-real", "2", "--n", "200", "--levels", "3:3"],
    "err-class-cap-r4": ["table", "--field", "external:@/q_sqrt2_sqrt5.json", "--ram-real", "4", "--n", "20", "--levels", "3:3"],
    "err-verify-suite": ["verify", "--suite", "nope"],
    # the zeta caps: j itself, then conductor times 2j; the cap on n in the closed form
    "err-zeta-index-cap": ["zeta", "--field", "q", "--jmax", "101"],
    "err-zeta-power-sum-cap": ["zeta", "--field", "quad:999997", "--jmax", "3", "--format", "csv"],
    "err-closed-form-n-cap": ["lefschetz", "--field", "quad:5", "--ram-real", "2", "--n", "101", "--level", "3"],
    # values beyond Python's 4300-digit limit on integer text, in JSON and CSV
    "err-digit-limit-lefschetz": ["lefschetz", "--field", "quad:5", "--ram-real", "2", "--n", "40", "--level", "3"],
    "err-digit-limit-lefschetz-csv": ["lefschetz", "--field", "quad:5", "--ram-real", "2", "--n", "40", "--level", "3", "--format", "csv"],
    "err-digit-limit-index": ["index", "--field", "quad:5", "--ram-real", "2", "--n", "40", "--level", "3"],
    "err-digit-limit-index-csv": ["index", "--field", "quad:5", "--ram-real", "2", "--n", "40", "--level", "3", "--format", "csv"],
    "err-digit-limit-table": ["table", "--field", "q", "--split", "--n", "20", "--levels", "1000003:1000003"],
    # integer text beyond the same limit, in a level and in a field spec
    "err-digit-limit-level-text": ["index", "--field", "q", "--split", "--n", "1", "--level", "1" + "0" * 4400],
    "err-digit-limit-field-text": ["zeta", "--field", "quad:" + "1" * 4400, "--jmax", "1"],
    # the same limit on a JSON integer literal, in a config and in a descriptor
    "err-digit-limit-config-literal": ["index", "--config", "@/config_long_level.json"],
    "err-digit-limit-descriptor-literal": ["zeta", "--field", "external:@/long_degree.json", "--jmax", "1"],
    # text that is no integer; JSON numbers for text flags arrive as text
    "err-level-not-integer": ["index", "--field", "q", "--split", "--n", "1", "--level", "3:x:1"],
    "err-config-hilbert-number": ["lefschetz", "--config", "@/config_hilbert_number.json"],
    "err-config-signature-number": ["euler-char", "--config", "@/config_signature_number.json"],
    # the conductor cap, checked before the squarefree test trial-divides d
    "err-conductor-cap": ["zeta", "--field", "quad:100000007", "--jmax", "1"],
    "err-conductor-cap-huge": ["zeta", "--field", "quad:1000000000000000003", "--jmax", "1"],
    # a 19-digit prime level, then a level with two prime factors near 10^9
    "lefschetz-large-prime-level": ["lefschetz", "--field", "q", "--split", "--n", "2", "--level", "1000000000000000003"],
    "err-level-unfactored": ["index", "--field", "q", "--split", "--n", "2", "--level", "1000000016000000063"],
    # a config value outside its flag's choices, the adelic floor at 0, a boolean degree
    "err-config-format": ["zeta", "--config", "@/config_bad_format.json"],
    "err-adelic-terms-zero": ["euler-char", "--field", "q", "--split", "--n", "2", "--level", "3", "--adelic-terms", "0"],
    "err-descriptor-bool": ["lefschetz", "--field", "external:@/bool_degree.json", "--split", "--n", "1", "--level", "3"],
    # argparse's own text: every help page and usage errors
    "help": ["--help"],
    **{
        f"help-{command}": [command, "--help"]
        for command in ("zeta", "lefschetz", "euler-char", "index", "genus", "table", "verify")
    },
    "err-usage-unknown-flag": ["lefschetz", "--bogus"],
    "err-usage-bad-int": ["table", "--n", "x"],
    "err-usage-bad-choice": ["zeta", "--format", "xml"],
}


def run_case(argv: list[str]) -> dict:
    argv = [arg.replace("@/", f"{GOLDEN}/") for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its help and usage text to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case():
    assert sorted(_corpus()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    recorded = _corpus()[name]
    assert recorded["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit"] == recorded["exit"]
    assert got["stdout"] == recorded["stdout"]
    assert got["stderr"] == recorded["stderr"]


if __name__ == "__main__":
    corpus = {name: {"argv": argv, **run_case(argv)} for name, argv in CASES.items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(corpus)} cases in {CORPUS}\n")
