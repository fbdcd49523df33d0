import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlef import cli, finitegrp, lefschetz, numberfield, verify
from quatlef.errors import InvariantError, ValidationError
from quatlef.finitegrp import local_index_factor
from quatlef.quaternion import QuaternionAlgebra
from quatlef.cli import (_COMMAND_FLAGS, _FLAGS, _json_text, _parse_field,
                         _read_flags, build_parser, main)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_euler_char_adelic_cross_check(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "euler-char",
            "--field",
            "q",
            "--ram",
            "2,3",
            "--n",
            "1",
            "--level",
            "5",
            "--adelic-terms",
            "100000",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    numeric = payload["adelic_numeric"]
    assert numeric["terms"] == 100000
    assert abs(numeric["value"] + 20) < 20 * 1e-4


def test_index_command(capsys):
    code, out, _ = run_cli(
        capsys, ["index", "--field", "q", "--split", "--n", "1", "--level", "4"]
    )
    assert code == 0
    assert json.loads(out)["index"] == 48


def test_prime_ideal_level_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "euler-char",
            "--field",
            "quad:5",
            "--ram-real",
            "2",
            "--n",
            "2",
            "--level",
            "3:2:1",
            "--signature",
            "2,0;2,0",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == "119556"


def test_torsion_override(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "lefschetz",
            "--field",
            "q",
            "--ram",
            "2,3",
            "--n",
            "1",
            "--level",
            "2",
            "--assume-torsion-free",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == "-2"


def test_table_split_matches_sl2(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--field", "q", "--split", "--n", "1", "--levels", "3:10"],
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 8
    for line in lines:
        cells = line.split(",")
        n_level = int(cells[0])
        index = int(cells[3])
        assert cells[4] == str(-index // 12) or cells[4] == f"-{index}/12"


def test_output_is_deterministic(capsys):
    argv = ["lefschetz", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        [
            "index",
            "--field",
            "q",
            "--split",
            "--n",
            "1",
            "--level",
            "6",
            "--out",
            str(target),
        ],
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["index"] == 144


def test_config_file_supplies_flags(capsys, tmp_path):
    config = {
        "field": "q",
        "ram": "2,3",
        "n": 1,
        "level": "5",
        "trace_w": "1",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["lefschetz", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["value"] == "-20"


def test_cli_flags_override_config(capsys, tmp_path):
    config = {"field": "q", "ram": "2,3", "n": 1, "level": "5"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["lefschetz", "--config", str(path), "--level", "7"]
    )
    assert code == 0
    assert json.loads(out)["value"] == "-56"


def test_config_accepts_list_algebra_forms(capsys, tmp_path):
    cfg = tmp_path / "a.json"
    cfg.write_text(
        json.dumps(
            {"field": "q", "ram_primes": [2, 3], "ram_real": 0, "n": 1, "level": "5"}
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, ["lefschetz", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["value"] == "-20"
    # the string form of the ram_primes alias sets --ram too
    cfg.write_text(
        json.dumps({"field": "q", "ram_primes": "2,3", "n": 1, "level": "5"}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, ["lefschetz", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["value"] == "-20"

    cfg2 = tmp_path / "b.json"
    cfg2.write_text(
        json.dumps({"field": "q", "hilbert": [-1, -1], "n": 2, "level": "3"}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, ["lefschetz", "--config", str(cfg2)])
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"]["ram_finite"] == ["2:1:1"]
    assert payload["algebra"]["ram_real"] == 1


def test_explicit_ram_real_zero_beats_config(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"field": "quad:5", "ram_real": 2, "n": 2, "level": "3"}),
        encoding="utf-8",
    )
    # ram {inert 2} with r=0 violates parity; exit 2 proves the explicit 0 won
    code, _, err = run_cli(
        capsys,
        ["lefschetz", "--config", str(cfg), "--ram-real", "0", "--ram", "2"],
    )
    assert code == 2 and "even" in err


def test_table_empty_range_is_header_only(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "--field", "q", "--split", "--n", "1", "--levels", "9:8"],
    )
    assert code == 0
    assert out.splitlines() == [
        "level,norm,torsion_ok,index,lefschetz,chi_components,genus,b1,note"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--field", "q", "--split", "--n", "0", "--levels", "2:2"],
         "error: matrix size n must be >= 1"),
        (["table", "--field", "q", "--split", "--n", "101", "--levels", "2:2"],
         "error: matrix size n = 101 exceeds the cap of n <= 100"),
        # totally definite over Q(sqrt5): both real places ramify
        (["table", "--field", "quad:5", "--ram-real", "2", "--n", "1", "--levels", "2:2"],
         "error: totally definite algebras need n >= 2 (strong approximation)"),
        # an empty range has no row at all
        (["table", "--field", "q", "--split", "--n", "0", "--levels", "9:8"],
         "error: matrix size n must be >= 1"),
    ],
)
def test_table_checks_the_setting_before_the_first_row(capsys, argv, message):
    # level 2 fails the torsion check, so no row would reach a closed form
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


class _CountingNorm(int):
    """A level norm that counts the powers taken of it."""

    powers = 0

    def __pow__(self, exponent, *modulus):
        _CountingNorm.powers += 1
        return int.__pow__(self, exponent, *modulus)


@pytest.mark.parametrize("argv, parts", [
    (["lefschetz", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "5"], 1),
    (["genus", "--field", "q", "--ram", "2,3", "--level", "5"], 1),
    (["euler-char", "--field", f"external:{REPO_ROOT / 'tests' / 'golden' / 'imaginary.json'}",
      "--split", "--n", "1", "--level", "5"], 0),
])
def test_csv_report_builds_the_level_part_once(capsys, monkeypatch, argv, parts):
    """A CSV report of one level builds its level part, one integer per
    prime of the level, once in the closed form, and not at all at a complex
    place, where the value is 0; it takes no power of N(L)."""
    norm, level_part, built = numberfield.Ideal.norm, lefschetz._Primes.level_part, []
    monkeypatch.setattr(numberfield.Ideal, "norm", lambda level: _CountingNorm(norm(level)))
    monkeypatch.setattr(_CountingNorm, "powers", 0)
    monkeypatch.setattr(lefschetz._Primes, "level_part",
                        lambda self, factors: built.append(factors) or level_part(self, factors))
    code, _out, err = run_cli(capsys, [*argv, "--format", "csv"])
    assert (code, err) == (0, "")
    assert (len(built), _CountingNorm.powers) == (parts, 0)


@pytest.mark.parametrize("command", ["lefschetz", "euler-char"])
def test_complex_place_csv_report_reads_no_level_norm(capsys, monkeypatch, command):
    """At a complex place the closed form is 0, so a CSV report never takes
    N(L), which at this level has a million digits."""
    read = []
    monkeypatch.setattr(numberfield.Ideal, "norm", lambda level: read.append(level))
    argv = [command, "--field", f"external:{REPO_ROOT / 'tests' / 'golden' / 'imaginary.json'}",
            "--split", "--n", "2", "--level", "3:2:1^1000000", "--format", "csv"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert "value,0" in out.splitlines()
    assert read == []


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**500, max_value=10**500),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\r\téü€\u2028😀', max_size=6),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(payload=_JSON_PAYLOADS)
@example(payload={})
@example(payload=[])
@example(payload={"a": {}, "b": [], "c": [{}, []]})
@example(payload={"values": [{"j": 1, "value": "-1/12"}, {"j": 2, "value": "1/120"}]})
@example(payload={"adelic_numeric": {"value": -17861996.40166765, "rel_tolerance": 1e-05,
                                     "terms": 200000}})
@example(payload={"zero_reason": None, "warnings": [], "ok": True, "big": -(10**499)})
def test_json_text_matches_json_dumps(payload):
    """The report writer gives the bytes of json.dumps(indent=2, sort_keys=True)
    for every payload type: nested dicts and lists, empty ones included;
    str with non-ASCII, control characters, quotes and backslashes; bool;
    None; int of any size below the digit limit; finite float."""
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": {2: None}}, float("inf"),
                                   float("nan"), 1j, Fraction(1, 2), b"x"])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text({"key": [value]})


def test_json_int_past_the_digit_limit_is_one_error_line(capsys):
    """An index of more than 4300 digits, which the library returns, is
    refused by ``index`` in the package's one line."""
    field = numberfield.TotallyRealField.real_quadratic(5)
    algebra = QuaternionAlgebra(field, (), 2)
    index = lefschetz.congruence_index(algebra, 40, numberfield.ideal_from_integer(field, 3))
    assert math.log10(index) > 4300
    argv = ["index", "--field", "quad:5", "--ram-real", "2", "--n", "40", "--level", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: a value has more than 4300 digits, the limit for writing an integer as"
        " text; a smaller --n or --level shortens it\n"
    )


def _digit_limit_line(limit: int) -> str:
    return (f"error: a value has more than {limit} digits, the limit for writing an integer"
            " as text; a smaller --n or --level shortens it\n")


def test_index_refused_before_any_lift(capsys, monkeypatch):
    """An index that surely passes the digit limit is refused before
    local_index_factor builds its lift, however long the exponent."""
    def no_lift(q, kind, n, e):
        raise AssertionError(f"local_index_factor({q}, {kind!r}, {n}, {e}) was called")

    monkeypatch.setattr(finitegrp, "local_index_factor", no_lift)
    for level in ("3:1:1^3000000", f"3:1:1^{10**4000}", "2:1:1^2000,3:1:1^2000"):
        argv = ["index", "--field", "q", "--split", "--n", "1", "--level", level]
        assert run_cli(capsys, argv) == (2, "", _digit_limit_line(4300))
    # the cap on n is still met first
    argv = ["index", "--field", "q", "--split", "--n", "1000", "--level", "3"]
    code, _, err = run_cli(capsys, argv)
    assert (code, err) == (2, "error: matrix size n = 1000 exceeds the cap of n <= 100\n")


@pytest.mark.parametrize(
    "flags, prime, norm, kind, n, limit",
    [
        (["--field", "q", "--split"], "3:1:1", 3, "split", 1, 4300),
        (["--field", "q", "--ram", "2,3"], "3:1:1", 3, "ramified", 2, 640),
        (["--field", "quad:5", "--ram-real", "2"], "3:2:1", 9, "split", 3, 640),
    ],
)
def test_index_prints_up_to_the_digit_limit(capsys, flags, prime, norm, kind, n, limit):
    """At the largest exponent whose index has at most limit digits, index
    prints it; one more exponent is refused, and with no limit it prints."""
    lo, hi = 1, 4 * limit  # the largest k with local_index_factor below 10^limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if local_index_factor(norm, kind, n, mid) < 10**limit else (lo, mid - 1)
    argv = ["index", *flags, "--n", str(n), "--format", "csv", "--level"]
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        index = local_index_factor(norm, kind, n, lo)
        assert run_cli(capsys, [*argv, f"{prime}^{lo}"]) == (0, f"key,value\nindex,{index}\n", "")
        # refused by the bound, or, inside its margin (the first case), by either writer
        for fmt in ("csv", "json"):
            refused = run_cli(capsys, [*argv, f"{prime}^{lo + 1}", "--format", fmt])
            assert refused == (2, "", _digit_limit_line(limit))
        sys.set_int_max_str_digits(0)
        index = local_index_factor(norm, kind, n, lo + 1)
        code, out, _ = run_cli(capsys, [*argv, f"{prime}^{lo + 1}"])
        assert (code, out) == (0, f"key,value\nindex,{index}\n")
    finally:
        sys.set_int_max_str_digits(default)


def test_index_keeps_one_reduction_order_per_prime(capsys):
    """The kept reduction order of a prime serves every exponent of it."""
    finitegrp._reduction_order.cache_clear()
    for k in (2, 7):
        argv = ["index", "--field", "q", "--split", "--n", "1", "--level", f"3:1:1^{k}"]
        code, out, _ = run_cli(capsys, argv)
        assert (code, json.loads(out)["index"]) == (0, 24 * 27 ** (k - 1))
    info = finitegrp._reduction_order.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_closed_form_refused_before_any_zeta_value(capsys, monkeypatch):
    """A lefschetz, euler-char or table value that surely passes the digit
    limit is refused before any zeta value or power is built, however long
    the exponent, a table's index and level parts included; the library
    still returns such values."""
    q = numberfield.TotallyRealField.rationals()
    split = QuaternionAlgebra(q, (), 0)
    level = numberfield.Ideal(q, ((numberfield.PrimeIdeal(3), 5000),))
    inp = lefschetz.LefschetzInput(q, split, 1, level)
    assert math.log10(abs(lefschetz.lefschetz_number(inp).value.numerator)) > 4300
    component = lefschetz.euler_char_fixed_component(split, 1, level, lefschetz.SignatureClass())
    assert math.log10(abs(component.value.numerator)) > 4300

    def no_kernel(algebra, n):
        raise AssertionError(f"_Primes(n = {n}) was built")

    monkeypatch.setattr(lefschetz, "_Primes", no_kernel)
    monkeypatch.setattr(finitegrp, "local_index_factor", _no_value)
    big, external = "1" + "0" * 1500, f"external:{_GOLDEN / 'q_sqrt2_sqrt5.json'}"
    q_split = ["--field", "q", "--split", "--n", "1"]
    for argv in (
        ["lefschetz", *q_split, "--level", "3:1:1^1000000"],
        ["lefschetz", *q_split, "--level", f"3:1:1^{10**4000}", "--trace-w", "1/7"],
        ["lefschetz", "--field", "quad:19997", "--split", "--n", "100", "--level", "3"],
        ["lefschetz", "--field", "q", "--split", "--n", "100", "--level", "2",
         "--assume-torsion-free"],
        ["lefschetz", "--field", external, "--split", "--n", "8", "--level", "3:2:1:a^1000"],
        ["euler-char", *q_split, "--level", "3:1:1^1000000"],
        ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level",
         "3:2:1^100000", "--signature", "2,0;2,0", "--adelic-terms", "10000"],
        ["table", "--field", "quad:19997", "--split", "--n", "100", "--levels", "3:3"],
        ["table", "--field", "q", "--split", "--n", "1", "--levels", f"{big}:{big}"],
    ):
        formats = [[]] if argv[0] == "table" else [["--format", "csv"], ["--format", "json"]]
        for fmt in formats:
            assert run_cli(capsys, [*argv, *fmt]) == (2, "", _digit_limit_line(4300)), argv


_LEVEL_COMMANDS = sorted(name for name, flags in _COMMAND_FLAGS.items() if "--level" in flags)


def _no_value(*args):
    raise AssertionError(f"a value was built from {args}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", _LEVEL_COMMANDS)
def test_every_level_command_refused_before_any_value(capsys, monkeypatch, command, fmt):
    """Every command that takes a level, in either format, refuses a level
    whose output would not print before it builds a closed form, a zeta value
    or an index lift: a command that skipped the digit-limit gate would call
    one of these."""
    monkeypatch.setattr(lefschetz, "_Primes", _no_value)
    monkeypatch.setattr(finitegrp, "local_index_factor", _no_value)
    n = ["--n", "1"] if "--n" in _COMMAND_FLAGS[command] else []
    argv = [command, "--field", "q", "--ram", "2,3", *n, "--level", "5:1:1^1000000"]
    assert run_cli(capsys, [*argv, "--format", fmt]) == (2, "", _digit_limit_line(4300))


@pytest.mark.parametrize("command, n", [("lefschetz", "2"), ("euler-char", "1")])
def test_complex_place_json_refused_before_the_level_norm(capsys, monkeypatch, command, n):
    """At a complex place the value is the 0 that is never refused, but the
    JSON report prints N(L) and N(L)^(n(2n+1)): a level whose power would not
    print is refused before the kernel or the norm is built."""
    monkeypatch.setattr(lefschetz, "_Primes", _no_value)
    monkeypatch.setattr(numberfield.Ideal, "norm", _no_value)
    argv = [command, "--field", _IMAGINARY, "--split", "--n", n, "--level", "3:2:1^1000000"]
    assert run_cli(capsys, [*argv, "--format", "json"]) == (2, "", _digit_limit_line(4300))


def test_genus_refusals_come_before_the_digit_limit(capsys, monkeypatch, tmp_path):
    """With a bound that refuses every genus, the library's refusals still
    come first, in its order: the Fuchsian check, the torsion gate, the zeta
    table; only a request that passes them all meets the digit limit."""
    monkeypatch.setattr(lefschetz, "_zetas_log10", lambda field, n: 10.0**6)
    path = tmp_path / "q_no_zeta.json"
    path.write_text(json.dumps({"degree": 1, "abs_discriminant": 1, "num_real_places": 1,
                                "zeta_neg": [], "splitting": {"2": [[1, 1]], "3": [[1, 1]],
                                                              "5": [[1, 1]]}}))
    genus = ["genus", "--field", "q", "--ram", "2,3", "--level"]
    torsion = ("error: level divides (2), so the congruence group has 2-torsion;"
               " pass assume_torsion_free to evaluate the formula anyway\n")
    for argv, expected in (
        (["genus", "--field", "q", "--split", "--level", "5"],
         (2, "", "error: algebra must be a division algebra split at exactly one real place\n")),
        ([*genus, "2"], (3, "", torsion)),
        ([*genus, "2", "--assume-torsion-free"], (2, "", _digit_limit_line(4300))),
        ([*genus, "5"], (2, "", _digit_limit_line(4300))),
        (["genus", "--field", f"external:{path}", "--ram", "2,3", "--level", "5"],
         (2, "", "error: external zeta table has no entry for j=1\n")),
    ):
        assert run_cli(capsys, argv) == expected, argv


_GENUS_REQUEST = ["genus", "--field", "q", "--ram", "2,3", "--level", "5"]
_FUCHSIAN_TABLE = ["table", "--field", "quad:13", "--ram", "3", "--ram-real", "1", "--n", "1",
                   "--levels", "20:40"]


@pytest.mark.parametrize("argv, fault, line", [
    (_GENUS_REQUEST, (3, 1), "chi=-60, g=11"),
    (_GENUS_REQUEST, (1, 7), "chi=-20/7, g=11"),
    (_FUCHSIAN_TABLE, (3, 1), "chi=-29952000, g=4992001"),
    (_FUCHSIAN_TABLE, (1, 7), "chi=-9984000/7, g=4992001"),
], ids=["genus-tripled", "genus-sevenths", "table-tripled", "table-sevenths"])
def test_genus_disagreeing_with_the_kernel_exits_1(capsys, monkeypatch, argv, fault, line):
    """A kernel whose value is off by fault = (times, over) fails the genus
    check of a genus report and of a Fuchsian table row: exit 1, nothing on
    stdout, one error line."""
    kernel, times, over = lefschetz._Primes.closed_form, *fault

    def faulty(self, off, level_parts):
        num, den = kernel(self, off, level_parts)
        return times * num, over * den

    monkeypatch.setattr(lefschetz._Primes, "closed_form", faulty)
    expected = f"error: genus formula disagrees with the closed form: {line}\n"
    assert run_cli(capsys, argv) == (1, "", expected)


@pytest.mark.parametrize("argv, genus", [(_GENUS_REQUEST, "17/7"),
                                         (_FUCHSIAN_TABLE, "4992007/7")],
                         ids=["genus", "table"])
def test_non_integral_genus_exits_1(capsys, monkeypatch, argv, genus):
    """A zeta_F(-1) a seventh of its value gives a genus that is not an
    integer: exit 1, nothing on stdout, one error line."""
    zeta = lefschetz.dedekind_zeta_neg
    monkeypatch.setattr(lefschetz, "dedekind_zeta_neg", lambda field, j: zeta(field, j) / 7)
    assert run_cli(capsys, argv) == (1, "", f"error: genus came out non-integral: {genus}\n")


# an n that no float holds, refused by its cap before a bound is worked out from it
_HUGE_N = "1" + "0" * 200
_HUGE_N_CAP = f"error: matrix size n = {_HUGE_N} exceeds the cap of n <= 100\n"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["lefschetz", "--field", "q", "--split", "--n", "100", "--level", "2"], 3,
         "error: level divides (2), so the congruence group has 2-torsion; pass"
         " assume_torsion_free to evaluate the formula anyway\n"),
        (["lefschetz", "--field", "quad:999997", "--split", "--n", "100", "--level", "3"], 2,
         "error: conductor 999997 times index 200 exceeds the cap of 4000000 power-sum"
         " terms\n"),
        (["lefschetz", "--field", "external:@/q_sqrt2_sqrt5.json", "--split", "--n", "9",
          "--level", "3:2:1:a^1000"], 2, "error: external zeta table has no entry for j=9\n"),
        (["euler-char", "--field", "q", "--split", "--n", "1", "--level", "3:1:1^1000000",
          "--signature", "1,0"], 2, "error: signature class has 1 entries, expected 0\n"),
        (["table", "--field", "q", "--split", "--n", "100", "--levels",
          "1000036000099:1000036000099"], 2,
         "error: cannot factor 1000036000099: the cofactor 1000036000099 has no prime"
         " factor up to 1000000 and is not a prime power\n"),
        (["genus", "--field", "q", "--split", "--level", "5:1:1^1000000"], 2,
         "error: algebra must be a division algebra split at exactly one real place\n"),
        (["genus", "--field", "quad:5", "--ram-real", "2", "--level", "3:2:1^1000000"], 2,
         "error: algebra must be a division algebra split at exactly one real place\n"),
        (["genus", "--field", "external:@/imaginary.json", "--split", "--level",
          "3:2:1^1000000", "--format", "csv"], 2, "error: base field is not totally real\n"),
        (["index", "--field", "q", "--split", "--n", _HUGE_N, "--level", "3"], 2, _HUGE_N_CAP),
        (["index", "--field", "q", "--split", "--n", _HUGE_N, "--level", "3", "--format", "csv"],
         2, _HUGE_N_CAP),
        (["euler-char", "--field", "q", "--ram", "2,3", "--n", _HUGE_N, "--level",
          "5:1:1^1000000", "--format", "json"], 2, _HUGE_N_CAP),
        (["lefschetz", "--field", "q", "--ram", "2,3", "--n", _HUGE_N, "--level",
          "5:1:1^1000000", "--format", "json"], 2, _HUGE_N_CAP),
    ],
)
def test_unprintable_value_keeps_the_earlier_refusals(capsys, argv, code, message):
    """A non-Fuchsian genus, the cap on n, the torsion gate, the zeta caps, a
    class that does not fit and a level that cannot be factored refuse
    before the digit bound, as they did before it."""
    argv = [arg.replace("@", str(_GOLDEN)) for arg in argv]
    assert run_cli(capsys, argv) == (code, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["lefschetz", "--field", "@IMAGINARY", "--split", "--n", "2", "--level", "3:2:1^5000"],
        ["euler-char", "--field", "@IMAGINARY", "--split", "--n", "1", "--level", "3:2:1^5000"],
        ["lefschetz", "--field", "q", "--split", "--n", "1", "--level", "3:1:1^5000",
         "--trace-w", "0"],
    ],
)
def test_zero_value_is_never_refused(capsys, argv):
    """The 0 of a complex place or of --trace-w 0 prints at any level."""
    argv = [_IMAGINARY if arg == "@IMAGINARY" else arg for arg in argv]
    code, out, err = run_cli(capsys, [*argv, "--format", "csv"])
    assert (code, out.splitlines()[:2], err) == (0, ["key,value", "value,0"], "")


def _longest_digit_run(text: str) -> int:
    return max(map(len, re.findall(r"\d+", text)), default=0)


@pytest.mark.parametrize(
    "argv",
    [
        lambda k: ["lefschetz", "--field", "q", "--split", "--n", "1", "--level", f"3:1:1^{k}",
                   "--format", "csv"],
        lambda k: ["lefschetz", "--field", "q", "--ram", "2,3", "--n", "2", "--level",
                   f"5:1:1^{k}", "--trace-w", "1/7", "--format", "csv"],
        lambda k: ["lefschetz", "--field", "quad:13", "--ram", "3", "--ram-real", "1", "--n",
                   "3", "--level", f"7:2:1^{k}", "--format", "json"],
        lambda k: ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "3", "--level",
                   f"3:2:1^{k}", "--signature", "3,0;3,0", "--format", "csv"],
        lambda k: ["euler-char", "--field", f"external:{_GOLDEN / 'q_sqrt2_sqrt5.json'}",
                   "--split", "--n", "2", "--level", f"3:2:1:a^{k}", "--format", "csv"],
        lambda k: ["table", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--levels",
                   f"{3**k}:{3**k}"],
        lambda k: ["genus", "--field", "q", "--ram", "2,3", "--level", f"5:1:1^{k}",
                   "--format", "csv"],
        lambda k: ["genus", "--field", "quad:13", "--ram", "3", "--ram-real", "1", "--level",
                   f"7:2:1^{k}", "--format", "json"],
        lambda k: ["lefschetz", "--field", _IMAGINARY, "--split", "--n", "2", "--level",
                   f"3:2:1^{k}", "--format", "json"],
        lambda k: ["euler-char", "--field", _IMAGINARY, "--split", "--n", "1", "--level",
                   f"5:1:1:a^{k}", "--format", "json"],
    ],
)
def test_closed_form_prints_up_to_the_digit_limit(capsys, argv):
    """Under a digit limit of 640, the largest exponent whose output, written
    with no limit, has no integer longer than the limit prints that output,
    and the next exponent is refused: the bound refuses nothing that would
    print."""
    default, limit = sys.get_int_max_str_digits(), 640

    def unlimited(k):
        sys.set_int_max_str_digits(0)
        try:
            return run_cli(capsys, argv(k))
        finally:
            sys.set_int_max_str_digits(default)

    lo, hi = 1, 4 * limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _longest_digit_run(unlimited(mid)[1]) <= limit else (lo, mid - 1)
    printed = unlimited(lo)
    assert printed[0] == 0 and _longest_digit_run(unlimited(lo + 1)[1]) > limit
    sys.set_int_max_str_digits(limit)
    try:
        assert run_cli(capsys, argv(lo)) == printed
        assert run_cli(capsys, argv(lo + 1)) == (2, "", _digit_limit_line(limit))
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--field", "q", "--jmax", "2"],
        ["lefschetz", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "5"],
        ["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level", "3",
         "--signature", "2,0;2,0", "--adelic-terms", "10000"],
        ["index", "--field", "q", "--split", "--n", "1", "--level", "4"],
        ["genus", "--field", "q", "--ram", "2,3", "--level", "5", "--weights", "2"],
    ],
)
def test_csv_report_builds_no_json_payload(capsys, monkeypatch, argv):
    def no_payload(*args, **kwargs):
        raise AssertionError("the JSON payload was built")

    monkeypatch.setattr(cli, "_payload", no_payload)
    code, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
    assert code == 0 and out.startswith(("key,value\n", "j,zeta_1_minus_2j\n"))


def test_config_unknown_key_rejected(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"field": "q", "bogus": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["zeta", "--config", str(path), "--jmax", "1"])
    assert code == 2
    assert "unknown config keys" in err

    path.write_text(json.dumps({"n": [1]}), encoding="utf-8")
    argv = ["lefschetz", "--config", str(path), "--field", "q", "--split", "--level", "3"]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.splitlines() == ["error: config key 'n' must be a string, number or boolean, not list"]

    path.write_text(json.dumps({"n": 1.5}), encoding="utf-8")
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.splitlines() == ["error: config key 'n' must be an integer, not 1.5"]

    path.write_text(json.dumps({"format": "xml"}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["zeta", "--config", str(path), "--field", "q", "--jmax", "1"])
    assert code == 2
    assert err.splitlines() == ["error: config key 'format' must be one of json, csv, not \"xml\""]


def test_config_boolean_keys_reject_strings(capsys, tmp_path):
    # a truthy string must not override the torsion gate (exit 3 otherwise)
    path = tmp_path / "cfg.json"
    config = {"field": "q", "assume_torsion_free": "false", "split": True, "n": 1, "level": "2"}
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["lefschetz", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: config key 'assume_torsion_free' must be true or false, not \"false\""
    ]

    path.write_text(json.dumps({**config, "assume_torsion_free": False, "split": "no"}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["lefschetz", "--config", str(path)])
    assert code == 2
    assert err.splitlines() == ["error: config key 'split' must be true or false, not \"no\""]

    # JSON false and null both leave the torsion gate on
    for off in (False, None):
        path.write_text(json.dumps({**config, "assume_torsion_free": off}), encoding="utf-8")
        code, _, err = run_cli(capsys, ["lefschetz", "--config", str(path)])
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


_HILBERT_HALF = "error: --hilbert expects a,b, not '5'\n"
_SIGNATURE_HALF = "error: --signature expects p,q pairs separated by ';', not '5'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lefschetz", "--field", "q", "--hilbert", "5", "--n", "1", "--level", "5"], _HILBERT_HALF),
        (
            ["euler-char", "--field", "q", "--split", "--n", "1", "--level", "3", "--signature", "5"],
            _SIGNATURE_HALF,
        ),
    ],
)
def test_pair_flag_without_its_second_half_names_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", message)


def test_config_numbers_for_text_flags_arrive_as_text(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    # argparse gives --hilbert and --signature as text; so does the config
    for command, config, message in (
        ("lefschetz", {"field": "q", "hilbert": 5, "n": 1, "level": "5"}, _HILBERT_HALF),
        (
            "euler-char",
            {"field": "q", "split": True, "n": 1, "level": "3", "signature": 5},
            _SIGNATURE_HALF,
        ),
    ):
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, [command, "--config", str(path)])
        assert (code, out, err) == (2, "", message)
    # "out": 2 names the file "2", not file descriptor 2
    monkeypatch.chdir(tmp_path)
    config = {"field": "q", "split": True, "n": 1, "level": "6", "out": 2}
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["index", "--config", str(path)])
    assert (code, out, err) == (0, "", "")
    assert json.loads((tmp_path / "2").read_text(encoding="utf-8"))["index"] == 144


@pytest.mark.parametrize(
    "argv",
    [
        ["euler-char", "--field", "q", "--split", "--n", "1", "--level", "3", "--signature", "1,x"],
        ["genus", "--field", "q", "--ram", "2,3", "--level", "5", "--weights", "2,x"],
        ["table", "--field", "q", "--split", "--n", "1", "--levels", "3:x"],
    ],
)
def test_non_integer_text_gets_own_message(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: not an integer: 'x'\n")


def test_zeta_caps_refuse_before_any_table(capsys, monkeypatch):
    # j = 1 and 2 are within the caps at conductor 999997, j = 3 is not
    def no_table(chi, k):
        raise AssertionError(f"power sums built for k = {k}")

    monkeypatch.setattr(numberfield, "_power_sums", no_table)
    for argv in (
        ["zeta", "--field", "quad:999997", "--jmax", "3"],
        ["lefschetz", "--field", "quad:999997", "--split", "--n", "3", "--level", "3"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: conductor 999997 times index 6 exceeds the cap of"
            " 4000000 power-sum terms\n"
        )


# VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child
# started from the test process would report that process's peak
_PEAK_RSS_OF_LARGEST_ZETA = (
    "from quatlef.cli import main;"
    " main(['zeta', '--field', 'quad:999997', '--jmax', '2', '--format', 'csv']);"
    " status = open('/proc/self/status').read().splitlines();"
    " print(next(line for line in status if line.startswith('VmHWM:')))"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
def test_largest_zeta_request_peak_memory():
    # the largest request accepted at the conductor cap streams its power
    # sums, so a fresh process peaks near the size of one character table
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_OF_LARGEST_ZETA],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "j,zeta_1_minus_2j" and len(lines) == 4
    _, kib, unit = lines[-1].split()
    assert unit == "kB" and int(kib) < 40 * 1024


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    real = finitegrp.sp_order

    def tampered(n, q):
        value = real(n, q)
        return value + 1 if (n, q) == (2, 2) else value

    monkeypatch.setattr(finitegrp, "sp_order", tampered)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "finite-orders"])
    assert code == 1
    assert "FAIL [finite-orders] sp_order(2,2)" in out


def test_verify_reports_a_raising_suite_and_runs_the_rest(capsys, monkeypatch):
    def broken():
        raise InvariantError("sign law violated")

    monkeypatch.setitem(verify.SUITES, "lefschetz", broken)
    argv = ["verify", "--suite", "volumes,lefschetz,binomial"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    assert out.splitlines() == [
        "volumes: 6 passed, 0 failed",
        "lefschetz: 0 passed, 1 failed",
        "  FAIL [lefschetz] lefschetz: sign law violated",
        "binomial: 60 passed, 0 failed",
        "total: 66 passed, 1 failed",
    ]


def test_verify_runs_a_suite_named_twice_once(capsys, monkeypatch):
    real, calls = verify.SUITES["volumes"], []

    def counted():
        calls.append("volumes")
        return real()

    monkeypatch.setitem(verify.SUITES, "volumes", counted)
    twice = run_cli(capsys, ["verify", "--suite", "volumes,volumes"])
    assert calls == ["volumes"]
    assert twice == run_cli(capsys, ["verify", "--suite", "volumes"])
    assert twice == (0, "volumes: 6 passed, 0 failed\ntotal: 6 passed, 0 failed\n", "")


# imports the command line, runs one argv if given, and prints its exit code
# and which of the modules the package defers have run
_MODULES_RUN = """\
import contextlib, io, json, sys, types
import quatlef.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = quatlef.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
names = ("finitegrp", "lefschetz", "quaternion", "verify")
print(json.dumps([rc, [n for n in names if type(sys.modules["quatlef." + n]) is types.ModuleType]]))
"""


@pytest.mark.parametrize("argv, ran, not_ran", [
    pytest.param([], [], ["finitegrp", "lefschetz", "quaternion", "verify"], id="import"),
    pytest.param(["zeta", "--field", "quad:4001", "--jmax", "4"],
                 [], ["finitegrp", "lefschetz", "quaternion", "verify"], id="zeta"),
    pytest.param(["table", "--field", "q", "--split", "--n", "2", "--levels", "3:60"],
                 ["finitegrp", "lefschetz", "quaternion"], ["verify"], id="table"),
    # a JSON report, so that the stated rel_tolerance is read
    pytest.param(["euler-char", "--field", "quad:5", "--ram-real", "2", "--n", "2", "--level",
                  "3", "--signature", "2,0;2,0", "--adelic-terms", "10000"],
                 [], ["verify"], id="euler-char-adelic"),
    pytest.param(["verify", "--suite", "volumes"], ["verify"], [], id="verify-volumes"),
])
def test_command_runs_only_the_modules_it_calls(argv, ran, not_ran):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", _MODULES_RUN, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    assert rc == 0
    assert set(ran) <= set(modules)
    assert not set(not_ran) & set(modules)


# which of the modules the package defers have run after unknown names are
# looked up, underscored or not, and after __all__ and dir()
_UNKNOWN_NAMES = """\
import sys, types
import quatlef
found = [hasattr(quatlef, name) for name in ("nope", "_nope", "__wrapped__")]
listed = len(quatlef.__all__), "lefschetz_number" in dir(quatlef)
names = ("finitegrp", "lefschetz", "quaternion", "verify")
print(found, listed, [n for n in names if type(sys.modules["quatlef." + n]) is types.ModuleType])
"""


def test_unknown_package_attribute_runs_no_module():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", _UNKNOWN_NAMES],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False] (45, True) []\n"


# README's external descriptor of Q(sqrt5) against the native field: the
# golden fixture holds two zeta values and the splitting above 2, 5 and 11
_Q5_DESCRIPTOR = f"external:{REPO_ROOT / 'tests' / 'golden' / 'q5.json'}"
_Q5_SETTING = ["--ram-real", "2", "--n", "2", "--level", "11"]


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--jmax", "2"],
        ["lefschetz", *_Q5_SETTING, "--trace-w=-1/3"],
        ["euler-char", *_Q5_SETTING, "--signature", "2,0;0,2"],
        ["index", *_Q5_SETTING],
        ["genus", "--ram", "2", "--ram-real", "1", "--level", "11", "--weights", "2,4"],
    ],
)
def test_external_descriptor_matches_native_field(capsys, argv):
    payloads = []
    for field in ("quad:5", _Q5_DESCRIPTOR):
        code, out, err = run_cli(capsys, [argv[0], "--field", field, *argv[1:]])
        assert (code, err) == (0, "")
        payloads.append(json.loads(out))
    native, external = payloads
    assert native.pop("field") != external.pop("field")
    assert native == external


def test_external_descriptor_table_matches_native_field(capsys):
    tables = []
    for field in ("quad:5", _Q5_DESCRIPTOR):
        argv = ["table", "--field", field, "--ram-real", "2", "--n", "2", "--levels", "10:11"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        tables.append(out)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 3


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "quatlef.cli", "zeta", "--field", "q", "--jmax", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["values"][0]["value"] == "-1/12"


def _run_module(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "quatlef.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=20,
    )


@pytest.mark.parametrize("source", ["--config", "--field"])
def test_deeply_nested_json_is_one_error_line(tmp_path, source):
    path = tmp_path / "nested.json"
    if source == "--config":
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        flags = ["--config", str(path), "--field", "q"]
    else:
        path.write_text('{"a":' * 3000 + "1" + "}" * 3000, encoding="utf-8")
        flags = ["--field", f"external:{path}"]
    proc = _run_module(["lefschetz", *flags, "--split", "--n", "1", "--level", "3"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: JSON nested too deeply to read\n"


_Q5_SHAPE = {"degree": 2, "abs_discriminant": 5, "num_real_places": 2}


@pytest.mark.parametrize(
    "flags, text, message",
    [
        (["--field", "q", "--ram", "2,,3"], None, "empty entry in ramification list"),
        (
            ["--field", "q", "--split", "--level", "3:1"],
            None,
            "bad level segment '3:1'; use N or p:f:e[:label][^k]",
        ),
        (["--field", "q", "--split", "--config"], "[1, 2]", "config file must hold a JSON object"),
        (["--split", "--field"], "[" * 200_000 + "]" * 200_000, "JSON nested too deeply to read"),
        (["--split", "--field"], "[]", "descriptor must be a JSON object"),
        (
            ["--split", "--field"],
            json.dumps({"abs_discriminant": 5, "num_real_places": 2}),
            "descriptor missing key 'degree'",
        ),
        (
            ["--split", "--field"],
            json.dumps({**_Q5_SHAPE, "zeta_neg": 5}),
            "descriptor zeta_neg must be a list",
        ),
        (
            ["--split", "--field"],
            json.dumps({**_Q5_SHAPE, "num_real_places": 3}),
            "number of real places must lie in [0, degree]",
        ),
        (
            ["--split", "--field"],
            json.dumps({**_Q5_SHAPE, "splitting": {"2": [[0, 1]]}}),
            "invalid splitting data above 2",
        ),
        (
            ["--split", "--field"],
            json.dumps({**_Q5_SHAPE, "splitting": {"2": 5}}),
            "descriptor splitting must map each prime to a list of [f, e] pairs",
        ),
        (["--split", "--field"], json.dumps({**_Q5_SHAPE, "x": 1}), "unknown descriptor keys: ['x']"),
        (["--field", "q"], None, "algebra required: pass --split, --hilbert a,b or --ram/--ram-real"),
        (["--field", "q", "--hilbert=0,1"], None, "presentation constants must be nonzero"),
        (
            ["--field", "quad:5", "--hilbert=-1,-1"],
            None,
            "--hilbert presentations are supported over Q only",
        ),
        (
            ["--field", "quad:5", "--ram", "11:c", "--ram-real", "1"],
            None,
            "no prime above 11 with label 'c'",
        ),
    ],
    ids=[
        "empty-ram-entry", "level-segment", "config-list", "field-deep",
        "descriptor-list", "descriptor-no-degree", "descriptor-zeta-number",
        "descriptor-real-places", "descriptor-splitting-pair", "descriptor-splitting-number",
        "descriptor-unknown-key", "no-algebra", "hilbert-zero", "hilbert-over-quadratic",
        "ram-unknown-label",
    ],
)
def test_input_refusal_is_exit_2_and_one_error_line(capsys, tmp_path, flags, text, message):
    """Each refusal of a flag, config file or descriptor: exit 2, nothing on
    stdout and one error line. The last flag given reads the file ``text``."""
    argv = ["lefschetz", "--n", "1", "--level", "3", *flags]
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        argv.append(f"external:{path}" if flags[-1] == "--field" else str(path))
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["genus", "--field", "q", "--ram", "2,3", "--level", "5", "--weights", "3"],
            "weight must be an even integer >= 2",
        ),
        (["zeta", "--field", "quad:4", "--jmax", "1"], "real quadratic field needs squarefree d > 1"),
        (
            ["index", "--field", "q", "--split", "--n", "1", "--level", "1"],
            "level integer must be >= 2",
        ),
        (
            ["euler-char", "--field", _Q5_DESCRIPTOR, *_Q5_SETTING, "--signature", "2,0;2,0",
             "--adelic-terms", "10000"],
            "numeric cross-check needs a natively supported field",
        ),
    ],
    ids=["genus-odd-weight", "zeta-square-d", "index-unit-level", "adelic-external-field"],
)
def test_command_refusal_is_exit_2_and_one_error_line(capsys, argv, message):
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_ram_label_selects_the_prime_above_p(capsys):
    """Both primes above 11 split in Q(sqrt(5)) and have norm 11, so either
    label gives one value; the report names the chosen prime."""
    argv = ["lefschetz", "--field", "quad:5", "--ram-real", "1", "--n", "1", "--level", "3"]
    reports = {}
    for label in ("a", "b"):
        code, out, err = run_cli(capsys, [*argv, "--ram", f"11:{label}"])
        assert code == 0, err
        reports[label] = json.loads(out)
    assert reports["b"]["algebra"]["ram_finite"] == ["11:1:1:b"]
    assert reports["a"]["algebra"]["ram_finite"] == ["11:1:1:a"]
    assert reports["b"]["value"] == reports["a"]["value"] == "-120"


# 1e100000000 stands for a 10^8-digit power of ten: it is refused before
# one is built, by every route a rational arrives
@pytest.mark.parametrize("source", ["--trace-w", "--config", "--field"])
def test_rational_exponent_beyond_digit_limit_is_refused_at_once(tmp_path, source):
    path = tmp_path / "input.json"
    argv = ["lefschetz", "--field", "q", "--split", "--n", "1", "--level", "3"]
    if source == "--trace-w":
        argv.append("--trace-w=1e100000000")
    elif source == "--config":
        path.write_text(json.dumps({"trace_w": "1e100000000"}), encoding="utf-8")
        argv += ["--config", str(path)]
    else:
        golden = REPO_ROOT / "tests" / "golden" / "q5.json"
        descriptor = json.loads(golden.read_text(encoding="utf-8"))
        descriptor["zeta_neg"][0] = "1e100000000"
        path.write_text(json.dumps(descriptor), encoding="utf-8")
        argv[1:3] = ["--field", f"external:{path}"]
    proc = _run_module(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: an input integer has more than")


# zeta_Q(-1) = -1/12 replaced by +1/12 breaks the sign law of the closed form
_TAMPERED_ZETA = (
    "import sys; from fractions import Fraction; import quatlef.lefschetz as lef;"
    " lef.dedekind_zeta_neg = lambda field, j: Fraction(1, 12);"
    " from quatlef.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--field", "q", "--ram", "2,3", "--level", "5"],
        ["euler-char", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "5"],
        # the table row: one closed form, then the genus formula
        ["table", "--field", "q", "--ram", "2,3", "--n", "1", "--levels", "5:5"],
        # a multi-row table, whose zeta product is read once for every row
        ["table", "--field", "q", "--ram", "2,3", "--n", "1", "--levels", "5:12"],
    ],
)
def test_invariant_guard_holds_under_optimize(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_ZETA, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: sign law violated")


@pytest.mark.parametrize(
    "levels, zeta, product",
    [
        ("5:5", Fraction(1, 12), "20"),
        # level 2 fails the torsion check, so level 3 is the first closed form
        ("2:12", Fraction(1, 12), "6"),
        ("5:12", Fraction(1, 7), "240/7"),
    ],
)
def test_table_sign_law_message(capsys, monkeypatch, levels, zeta, product):
    """A tampered zeta product breaks the sign law in the table's integer
    kernel: the error names the first row's closed form in lowest terms."""
    monkeypatch.setattr(lefschetz, "dedekind_zeta_neg", lambda field, j: zeta)
    argv = ["table", "--field", "q", "--ram", "2,3", "--n", "1", "--levels", levels]
    message = f"error: sign law violated: closed-form product {product}, expected sign -1\n"
    assert run_cli(capsys, argv) == (1, "", message)


def test_no_assert_statement_in_package():
    # python -O strips assert statements, so no guard may rely on one
    for path in sorted((REPO_ROOT / "src" / "quatlef").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"


# Fuzz guard: requests in the shapes the benchmark sends, and sometimes a
# config file. Each flag value is valid (first list) about four times in
# five, else out of range or malformed (second list); a required flag is
# left out now and then, an optional one about half the time.
_GOLDEN = REPO_ROOT / "tests" / "golden"
_IMAGINARY = f"external:{_GOLDEN / 'imaginary.json'}"
_FUZZ_VALUES = {
    "field": (["q", "quad:5", "quad:13", f"external:{_GOLDEN / 'q5.json'}", _IMAGINARY],
              ["quad:8", "quad:-3", "r", "external:no-such-file.json"]),
    "jmax": (["1", "2", "3"], ["0", "101", "x"]),
    "n": (["1", "2", "3"], ["0", "101", "3000", "x"]),
    "level": (["3", "5", "6", "7", "11", "2"], ["1", "3:x:1", "11:1:1:a^2"]),
    "levels": (["2:9", "3:6", "5:5"], ["9:2", "2:20002", "3:x"]),
    "format": (["json", "csv"], ["xml"]),
    "trace_w": (["1", "0", "-1/3", "2"], ["x", "1/0", "1e100000000"]),
    "signature": (["2,0;2,0", "0,2", "1,0", "2,0"], ["5", "1,1", "2,0;", ""]),
    "weights": (["2,4", "6"], ["3", "x"]),
    "assume_torsion_free": ([True], []),
}
_FUZZ_ALGEBRAS = (
    [["--split"], ["--ram", "2,3"], ["--ram", "2", "--ram-real", "1"], ["--ram-real", "2"],
     ["--hilbert=3,-1"], ["--ram=5,11"]],
    [["--hilbert", "5"], ["--hilbert", "5,"], ["--ram", "2:z,3"], ["--ram-real", "3"], [],
     ["--split", "--ram", "2,3"]],
)
_FUZZ_COMMANDS = ("zeta", "lefschetz", "euler-char", "index", "genus", "table")


def _mostly_valid(pools: tuple[list, list], absent: int = 0):
    valid, invalid = pools
    return st.sampled_from(valid * 4 + invalid + [None] * absent)


def _fuzz_flag(flag: str, kwargs: dict):
    pools = _FUZZ_VALUES[flag[2:].replace("-", "_")]
    absent = 1 if kwargs.get("required") else 4 * len(pools[0]) + len(pools[1])
    return _mostly_valid(pools, absent).map(
        lambda v: [] if v is None else [flag] if v is True else [f"{flag}={v}"]
    )


def _fuzz_argv(command: str):
    """The command, an algebra unless it is zeta, and its other flags."""
    fragments = [st.just([command])]
    if command != "zeta":
        fragments.append(_mostly_valid(_FUZZ_ALGEBRAS))
    fragments += [
        _fuzz_flag(flag, kwargs)
        for commands, flag, kwargs in _FLAGS
        if command in commands and flag[2:].replace("-", "_") in _FUZZ_VALUES
    ]
    return st.tuples(*fragments).map(lambda parts: sum(parts, []))


# a config holds up to three keys, each with one of its flag's values or
# a value of a wrong type
_FUZZ_CONFIG_VALUES = {key: valid + invalid for key, (valid, invalid) in _FUZZ_VALUES.items()}
_FUZZ_CONFIG_VALUES |= {
    "ram": ["2,3", "5"], "ram_primes": [[2, 3], "2,3"], "hilbert": ["3,-1", "5"],
    "split": [True, False],
}
_FUZZ_CONFIG = st.none() | st.lists(
    st.sampled_from(sorted(_FUZZ_CONFIG_VALUES)).flatmap(
        lambda key: st.tuples(
            st.just(key),
            st.sampled_from(_FUZZ_CONFIG_VALUES[key])
            | st.sampled_from([0, 5, 1.5, True, None, [2, 3], {"p": 2}]),
        )
    ),
    max_size=3,
).map(dict)


def test_over_long_integer_text_refused_in_one_short_line(capsys, tmp_path):
    """A 4,400-digit integer in a rational or a config integer gets the
    read-limit line, not an error that repeats the whole input."""
    big = "9" * 4400
    refusal = [
        "error: an input integer has more than 4300 digits,"
        " the limit for reading an integer from text"
    ]
    config = tmp_path / "cfg.json"
    descriptor = tmp_path / "field.json"
    descriptor.write_text(json.dumps({
        "degree": 1, "abs_discriminant": 1, "num_real_places": 1, "zeta_neg": [big],
    }), encoding="utf-8")
    lefschetz = ["lefschetz", "--field", "q", "--split", "--level", "3"]
    requests = [
        ([*lefschetz, "--n", "1", "--trace-w", big], None),
        ([*lefschetz, "--n", "1", "--trace-w", f"{big}/7"], None),
        ([*lefschetz, "--n", "1", "--config", str(config)], {"trace_w": big}),
        ([*lefschetz, "--config", str(config)], {"n": big}),
        (["zeta", "--field", f"external:{descriptor}", "--jmax", "1"], None),
    ]
    for argv, data in requests:
        if data is not None:
            config.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err.splitlines()) == (2, "", refusal), argv
    # parts each within the limit still parse, and a non-integer keeps its message
    half = "9" * 4300
    code, out, _ = run_cli(capsys, [*lefschetz, "--n", "1", "--trace-w", f"{half}/{half}"])
    assert code == 0 and '"trace_w": "1"' in out
    config.write_text(json.dumps({"n": 1.5}), encoding="utf-8")
    code, _, err = run_cli(capsys, [*lefschetz, "--config", str(config)])
    assert (code, err.splitlines()) == (2, ["error: config key 'n' must be an integer, not 1.5"])


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--field", "q", "--jmax"],
        ["lefschetz", "--field", "q", "--split", "--level", "3", "--n"],
        ["index", "--field", "quad:5", "--level", "3", "--n", "1", "--ram-real"],
        ["euler-char", "--field", "q", "--split", "--n", "1", "--level", "3", "--adelic-terms"],
    ],
    ids=lambda argv: argv[-1],
)
def test_over_long_int_flag_refused_in_one_short_line(capsys, argv):
    """An int flag given 4,400 digits ends in the read-limit line, not in a
    line that repeats the whole input; a non-integer keeps argparse's line."""
    prefix = f"quatlef {argv[0]}: error: argument {argv[-1]}: "
    for value, message in (
        ("9" * 4400, "an input integer has more than 4300 digits,"
                     " the limit for reading an integer from text"),
        ("1.5", "invalid int value: '1.5'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err.splitlines()[-1]) == (2, "", prefix + message)
        assert len(err) < 1000


def _run_main(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one ``main`` call, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=200, deadline=None)
@given(argv=st.sampled_from(_FUZZ_COMMANDS).flatmap(_fuzz_argv), config=_FUZZ_CONFIG)
# requests that once ran for seconds before a refusal, and pair flags
# missing their second half
@example(argv=["lefschetz", "--field", "q", "--split", "--n", "3000", "--level", "3"], config=None)
@example(argv=["lefschetz", "--field", "q", "--split", "--n", "10000", "--level", "3"], config=None)
@example(argv=["lefschetz", "--field", _IMAGINARY, "--split", "--n", "3000", "--level", "3"],
         config=None)
@example(argv=["lefschetz", "--field", _IMAGINARY, "--split", "--n", "10000", "--level", "3"],
         config=None)
@example(argv=["index", "--field", "q", "--split", "--n", "1000", "--level", "3"], config=None)
@example(argv=["index", "--field", "q", "--split", "--n", "1", "--level", "1" + "0" * 4400],
         config=None)
@example(argv=["lefschetz", "--field", "q", "--hilbert", "5", "--n", "1", "--level", "5"],
         config=None)
@example(argv=["euler-char", "--field", "q", "--split", "--n", "1", "--level", "3",
               "--signature", "5"], config=None)
@example(argv=["lefschetz"], config={"field": "q", "hilbert": 5, "n": 1, "level": "5"})
def test_fuzzed_request_ends_in_success_or_one_error_line(fuzz_config_path, argv, config):
    if config is not None:
        fuzz_config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(fuzz_config_path)]
    code, _, err = _run_main(argv)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code in (0, 2, 3)
    assert len(errors) == (code != 0)
    assert "Traceback" not in err


def _either_value_form(argv: list[str]):
    """The argv with each ``--flag=value`` token kept or split in two."""
    return st.tuples(*(
        st.sampled_from([[token], token.split("=", 1)])
        if token.startswith("--") and "=" in token else st.just([token])
        for token in argv
    )).map(lambda parts: sum(parts, []))


@settings(max_examples=100, deadline=None)
@given(argv=st.sampled_from(_FUZZ_COMMANDS).flatmap(_fuzz_argv).flatmap(_either_value_form),
       config=_FUZZ_CONFIG)
def test_flag_reader_leaves_every_byte_as_argparse_gives_it(fuzz_config_path, argv, config):
    """With the flag reader off, so that argparse parses every argv, main
    gives the same exit code, stdout and stderr."""
    if config is not None:
        fuzz_config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(fuzz_config_path)]
    with mock.patch.object(cli, "_read_flags", return_value=None):
        through_argparse = _run_main(argv)
    assert _run_main(argv) == through_argparse


def test_well_formed_requests_never_reach_argparse(capsys, monkeypatch, tmp_path):
    """One request of each subcommand, in both value forms, with the
    store_true flags, a negative --trace-w and a config file, runs with
    argparse unavailable."""
    def no_parser():
        raise AssertionError("argparse parsed a well-formed request")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"field": "q", "ram": "2,3", "n": 1}), encoding="utf-8")
    requests = [
        ["zeta", "--field=quad:5", "--jmax", "2", "--format=csv"],
        ["lefschetz", "--field", "q", "--split", "--n=1", "--level", "5", "--trace-w=-1/3",
         "--assume-torsion-free"],
        ["euler-char", "--config", str(config), "--level=5", "--format", "json"],
        ["index", "--field", "quad:5", "--ram-real=2", "--n", "2", "--level", "3"],
        ["genus", "--field", "q", "--ram", "2,3", "--level", "5", "--weights=2,4",
         "--assume-torsion-free", "--format", "csv"],
        ["table", "--field", "q", "--ram=2,3", "--n", "1", "--levels", "5:7", "--trace-w=-1/3"],
        ["verify", "--suite=volumes,binomial"],
    ]
    assert sorted(request[0] for request in requests) == sorted(_COMMAND_FLAGS)
    for argv in requests:
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_flag_table_uses_only_keywords_the_reader_handles():
    """A flag with nargs, append or a default of its own would be misread by
    _read_flags; such a flag must fail here first."""
    for _, flag, kwargs in _FLAGS:
        assert kwargs.keys() <= {"help", "type", "choices", "required", "default", "action"}, flag
        assert kwargs.get("action", "store_true") == "store_true", flag
        assert kwargs.get("default") is None, flag


def _argparse_values(argv: list[str]) -> dict:
    """The namespace argparse gives an argv it accepts whole, without the
    subparser it records."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            args, extra = build_parser().parse_known_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refused {argv}: {err.getvalue()}")
    assert extra == []
    values = vars(args)
    del values["parser"]
    return values


def _check_reader_agrees(argv: list[str]) -> bool:
    """Whenever the reader accepts an argv, argparse accepts it whole and
    gives the same namespace; True if the reader accepted it."""
    args = _read_flags(argv)
    if args is not None:
        assert vars(args) == _argparse_values(argv), argv
    return args is not None


_READER_VALUES = ["", "-1", "-1/3", "1.5", "x", "xml", "a b", "-x y", "--n", "9" * 4400,
                  "2", "json", "csv", "q", "2,3"]
_ALL_FLAGS = sorted({flag for _, flag, _ in _FLAGS})


def _reader_argv(command: str):
    """The command, then mostly its own whole flags, each bare if store_true
    and else with a value in either form, mostly one the flag takes; and now
    and then a token the reader leaves to argparse: a value flag without its
    value, an abbreviation, another subcommand's flag, -h, --help, --, or a
    positional."""
    own = _COMMAND_FLAGS.get(command) or _COMMAND_FLAGS["lefschetz"]
    noise = st.sampled_from(_READER_VALUES)

    def with_value(flag: str, value):
        return value.map(lambda v: [f"{flag}={v}"]) | value.map(lambda v: [flag, v])

    def whole(flag: str):
        kwargs = own[flag]
        if kwargs.get("action") == "store_true":
            return st.one_of(st.just([flag]), st.just([flag]), with_value(flag, noise))
        takes = (["2", "17"] if "type" in kwargs
                 else list(kwargs.get("choices", ["q", "2,3", "a b", "x"])))
        return with_value(flag, st.sampled_from(takes) | st.sampled_from(takes) | noise)

    other = (st.sampled_from(sorted(own)).map(lambda f: [f])
             | st.sampled_from(sorted(own)).map(lambda f: f[: max(3, len(f) - 2)]).flatmap(
                 lambda f: with_value(f, noise))
             | st.sampled_from(_ALL_FLAGS).flatmap(lambda f: with_value(f, noise))
             | st.sampled_from([["-h"], ["--help"], ["--"]])
             | noise.map(lambda v: [v]))
    fragment = st.one_of(*[st.sampled_from(sorted(own)).flatmap(whole)] * 8, other)
    return st.lists(fragment, max_size=6).map(lambda parts: [command, *sum(parts, [])])


@settings(max_examples=400, deadline=None)
@given(argv=st.sampled_from([*_COMMAND_FLAGS, "bogus", "--field"]).flatmap(_reader_argv))
@example(argv=["lefschetz", "--split=x"])
@example(argv=["lefschetz", "--trace-w", "-1"])
@example(argv=["lefschetz", "--trace-w=-1/3", "--n", "2", "--n=3"])
@example(argv=["zeta", "--format", "xml"])
@example(argv=["zeta", "--field="])
@example(argv=["euler-char", "--signature", ""])
@example(argv=["verify", "--suite"])
def test_flag_reader_agrees_with_argparse(argv):
    _check_reader_agrees(argv)


def test_flag_reader_agrees_with_argparse_on_every_golden_argv():
    """The reader accepts every golden argv but argparse's own cases, the
    help pages and usage errors, and agrees with argparse on each."""
    corpus = json.loads((_GOLDEN / "corpus.json").read_text(encoding="utf-8"))
    left_to_argparse = {name for name, case in corpus.items()
                        if not _check_reader_agrees(case["argv"])}
    assert left_to_argparse == {
        "help", *(f"help-{command}" for command in _COMMAND_FLAGS),
        "err-usage-unknown-flag", "err-usage-bad-int", "err-usage-bad-choice",
    }


@pytest.mark.parametrize("argv, error", [
    (["lefschetz", "--field", "q", "--split", "--n", "1", "--level", "5", "--trace-w="],
     "not a rational: ''"),
    (["lefschetz", "--field", "q", "--split", "--n", "1", "--level", "5", "--trace-w", ""],
     "not a rational: ''"),
    (["table", "--field", "q", "--split", "--n", "1", "--levels", "5:6", "--trace-w="],
     "not a rational: ''"),
    (["verify", "--suite="], "unknown verification suites: ['']"),
    (["verify", "--suite", ""], "unknown verification suites: ['']"),
    (["verify", "--suite=nope,nope"], "unknown verification suites: ['nope']"),
])
def test_empty_trace_w_or_suite_refused(capsys, argv, error):
    assert run_cli(capsys, argv) == (2, "", f"error: {error}\n")


def test_config_trace_w_null_is_the_default_and_empty_is_refused(capsys, tmp_path):
    config = tmp_path / "config.json"
    argv = ["lefschetz", "--field", "q", "--ram", "2,3", "--n", "1", "--level", "5"]
    config.write_text(json.dumps({"trace_w": None}), encoding="utf-8")
    assert run_cli(capsys, [*argv, "--config", str(config)]) == run_cli(capsys, argv)
    config.write_text(json.dumps({"trace_w": ""}), encoding="utf-8")
    assert run_cli(capsys, [*argv, "--config", str(config)]) == (
        2, "", "error: not a rational: ''\n")


def test_native_field_built_once_per_text():
    """q and quad:<d> give one field object per text, so that the caches
    keyed by field find it by identity; a refused spec is never kept."""
    assert _parse_field("quad:5") is _parse_field(" quad:5 ")
    assert _parse_field("q") is _parse_field("q")
    for _ in range(2):
        with pytest.raises(ValidationError, match="squarefree"):
            _parse_field("quad:4")
