"""``quatlef table`` against the library, row by row.

Each table row evaluates the closed form once (``lefschetz._table_row``);
the library functions evaluate it once per call. Every column must still
equal what ``lefschetz_number``, ``euler_char_components``,
``congruence_index`` and ``genus_fuchsian`` give for the same setting.
"""

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from quatlef import lefschetz
from quatlef.cli import main
from quatlef.lefschetz import (
    LefschetzInput,
    check_torsion_necessary,
    congruence_index,
    euler_char_components,
    genus_fuchsian,
    lefschetz_number,
)
from quatlef.numberfield import TotallyRealField, ideal_from_integer, split_prime
from quatlef.quaternion import QuaternionAlgebra

GOLDEN = Path(__file__).resolve().parent / "golden"
Q5_DESCRIPTOR = GOLDEN / "q5.json"

# field spec -> (field, level ranges, largest n its zeta values allow, algebras);
# an algebra is (ramified rational primes, ramified real places). Level 2
# fails the torsion check everywhere. The descriptor splits only 2, 5 and
# 11 and lists zeta at j <= 2.
_FIELDS = {
    "q": (TotallyRealField.rationals(), ["2:7"], 3, {
        "split": ((), 0), "finite": ((3, 5), 0), "fuchsian": ((2, 3), 0),
    }),
    "quad:5": (TotallyRealField.real_quadratic(5), ["2:7"], 3, {
        "split": ((), 0), "finite": ((2, 3), 0), "fuchsian": ((2,), 1),
    }),
    "quad:13": (TotallyRealField.real_quadratic(13), ["2:7"], 3, {
        "split": ((), 0), "finite": ((2, 13), 0), "fuchsian": ((2,), 1),
    }),
    f"external:{Q5_DESCRIPTOR}": (TotallyRealField.from_json_file(Q5_DESCRIPTOR),
                                  ["2:2", "4:5", "10:11"], 2, {
        "split": ((), 0), "finite": ((2, 5), 0), "fuchsian": ((2,), 1),
    }),
}
_TRACES = ("1", "0", "-1/3", "2")

_GRID = [
    (spec, kind, n)
    for spec, (_field, _ranges, n_max, algebras) in _FIELDS.items()
    for kind in algebras
    for n in range(1, n_max + 1)
]


def _algebra_flags(ram: tuple[int, ...], ram_real: int) -> list[str]:
    flags = ["--ram", ",".join(map(str, ram))] if ram else []
    flags += ["--ram-real", str(ram_real)] if ram_real else []
    return flags or ["--split"]


def _table(capsys, argv: list[str]) -> list[list[str]]:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, *rows = csv.reader(io.StringIO(out))
    assert header[4:6] == ["lefschetz", "chi_components"]
    return rows


@pytest.mark.parametrize(
    "spec, kind, n", _GRID, ids=[f"{s.split('/')[-1]}-{k}-n{n}" for s, k, n in _GRID]
)
def test_table_rows_equal_the_library(capsys, spec, kind, n):
    field, ranges, _n_max, algebras = _FIELDS[spec]
    ram, ram_real = algebras[kind]
    algebra = QuaternionAlgebra(
        field, tuple(split_prime(field, p)[0] for p in ram), ram_real
    )
    seen = {"torsion failed": 0, "zero trace, nonzero components": 0, "genus": 0}
    for levels in ranges:
        for trace in _TRACES:
            argv = ["table", "--field", spec, *_algebra_flags(ram, ram_real),
                    "--n", str(n), "--levels", levels, f"--trace-w={trace}"]
            for row in _table(capsys, argv):
                level_int, norm, torsion_ok, index, lef, chis, genus, b1, note = row
                level = ideal_from_integer(field, int(level_int))
                assert int(norm) == level.norm()
                if torsion_ok == "false":
                    assert not check_torsion_necessary(level)
                    assert row[3:] == [""] * 5 + ["torsion check failed"]
                    seen["torsion failed"] += 1
                    continue
                assert (torsion_ok, note) == ("true", "")
                inp = LefschetzInput(field, algebra, n, level, Fraction(trace))
                assert Fraction(lef) == lefschetz_number(inp).value
                components = [c.value for c in euler_char_components(algebra, n, level)]
                assert [Fraction(c) for c in chis.split("|")] == components
                assert int(index) == congruence_index(algebra, n, level)
                if trace == "0" and any(components):
                    seen["zero trace, nonzero components"] += 1
                if n == 1 and algebra.is_fuchsian():
                    report = genus_fuchsian(algebra, level)
                    assert (int(genus), int(b1)) == (report.genus, report.b1)
                    seen["genus"] += 1
                else:
                    assert (genus, b1) == ("", "")
    assert seen["torsion failed"] > 0
    assert seen["zero trace, nonzero components"] > 0
    assert (seen["genus"] > 0) == (n == 1 and algebra.is_fuchsian())


@pytest.mark.parametrize(
    "argv, rows, n",
    [
        # a Fuchsian n = 1 table: level 2 fails the torsion check, so 7 rows
        (["table", "--field", "quad:5", "--ram", "2", "--ram-real", "1", "--n", "1",
          "--levels", "2:9"], 7, 1),
        (["table", "--field", "q", "--split", "--n", "3", "--levels", "3:6"], 4, 3),
        # 4 signature classes per row
        (["table", "--field", f"external:{Q5_DESCRIPTOR}", "--ram-real", "2", "--n", "2",
          "--levels", "10:11"], 2, 2),
    ],
)
def test_table_evaluates_the_closed_form_once_per_row(capsys, monkeypatch, argv, rows, n):
    calls = {"_closed_form": 0, "m_factor": 0}
    for name in calls:
        original = getattr(lefschetz, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lefschetz, name, counting)
    assert main(argv) == 0
    out, _err = capsys.readouterr()
    assert out.count(",true,") == rows
    assert calls == {"_closed_form": rows, "m_factor": rows * n}


def test_large_table_fields_read_back_under_a_raised_field_limit():
    # the chi_components of the 625 signature classes of n = 8 over four
    # real places fill about 300 KB per row, more than the csv module's
    # default field limit of 131072 characters
    corpus = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))
    out = corpus["table-biquadratic-n8"]["stdout"]
    with pytest.raises(csv.Error, match="field larger than field limit"):
        list(csv.reader(io.StringIO(out)))
    default = csv.field_size_limit(len(out))
    try:
        header, *rows = csv.reader(io.StringIO(out))
    finally:
        csv.field_size_limit(default)
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert max(len(row[header.index("chi_components")]) for row in rows) > default
