"""``quatlef table`` against the library and against a per-row oracle.

A table keeps one record per prime power ``p^a`` that divides one of its
levels, built the first time a row with a value meets it: the primes above
``p`` with their exponents, the index factor and their level part, the
integer ``N(P)^((a-1) n(2n+1)) U(N(P), n)``. A row multiplies its
records. Its value comes from the closed-form kernel
``lefschetz._Primes.closed_form``, which takes the norms of the ramified
primes off the level and those level parts and returns one reduced
integer ratio, from which the Lefschetz and component columns are printed
without a ``Fraction``; the library functions take one level's value from
the same kernel. Every column must still equal what ``lefschetz_number``,
``euler_char_components``, ``congruence_index`` and ``genus_fuchsian`` give
for the same setting, and what the per-row ``Fraction`` path below gives
from the formulas themselves.
"""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlef import finitegrp, lefschetz, numberfield
from quatlef.cli import main
from quatlef.lefschetz import (
    LefschetzInput,
    check_torsion_necessary,
    congruence_index,
    euler_char_components,
    genus_fuchsian,
    h1_signature_classes,
    lefschetz_number,
)
from quatlef.numberfield import (
    TotallyRealField,
    dedekind_zeta_neg,
    factorize,
    ideal_from_integer,
    split_prime,
)
from quatlef.quaternion import QuaternionAlgebra, hilbert_ramification_q
from test_cli import _run_main

GOLDEN = Path(__file__).resolve().parent / "golden"
Q5_DESCRIPTOR = GOLDEN / "q5.json"
BIQUADRATIC_DESCRIPTOR = GOLDEN / "q_sqrt2_sqrt5.json"

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
def test_table_computes_each_prime_datum_once(capsys, monkeypatch, argv, rows, n):
    # the table's own calls; the algebra flags are parsed before it starts
    calls = {"local_index_factor": [], "dedekind_zeta_neg": []}
    for module, name in ((finitegrp, "local_index_factor"), (lefschetz, "dedekind_zeta_neg")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    split_prime.cache_clear()
    finitegrp._reduction_order.cache_clear()
    assert main(argv) == 0
    out, _err = capsys.readouterr()
    assert out.count(",true,") == rows
    # each rational prime split once, 2 included
    low, _, high = argv[argv.index("--levels") + 1].partition(":")
    primes = {p for m in range(int(low), int(high) + 1) for p, _a in factorize(m)} | {2}
    assert split_prime.cache_info().misses == len(primes)
    # each reduction order of a distinct (N(P), kind, n) computed once
    orders = {(q, kind, n) for q, kind, n, _a in calls["local_index_factor"]}
    assert orders and finitegrp._reduction_order.cache_info().misses == len(orders)
    # zeta_F(1-2j) once per j <= n, j = n first
    assert [j for _field, j in calls["dedekind_zeta_neg"]] == list(range(n, 0, -1))


def test_table_run_twice_misses_no_cache(capsys):
    """A second run of a table finds every factorisation, reduction order and
    level unit U(N, n) it needs kept by the first."""
    argv = ["table", "--field", "quad:5", "--ram", "2", "--ram-real", "1", "--n", "2",
            "--levels", "3:60"]
    caches = (numberfield.factorize, finitegrp._reduction_order, lefschetz._level_unit)
    assert main(argv) == 0
    first = capsys.readouterr().out
    before = [cache.cache_info() for cache in caches]
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    after = [cache.cache_info() for cache in caches]
    assert [info.misses for info in after] == [info.misses for info in before]
    assert all(late.hits > early.hits for early, late in zip(before, after))


_KERNEL_TABLES = [
    ["table", "--field", "q", "--split", "--n", "2", "--levels", "2:30"],
    ["table", "--field", "quad:5", "--ram", "2,3", "--n", "1", "--levels", "2:30",
     "--trace-w=-1/3"],
    ["table", "--field", "quad:13", "--ram", "3", "--ram-real", "1", "--n", "2",
     "--levels", "3:40"],
    ["table", "--field", "quad:5", "--ram-real", "2", "--n", "4", "--levels", "3:9"],
]


@pytest.mark.parametrize("argv", _KERNEL_TABLES + [
    # a Fuchsian n = 1 table, whose genus column is checked against the value
    ["table", "--field", "q", "--ram", "2,3", "--n", "1", "--levels", "5:9"],
])
def test_table_rows_use_the_kernel(monkeypatch, argv):
    """Every table takes its rows' values from _Primes.closed_form, the
    kernel that the single-level reports use and quatlef verify checks."""
    def refused(*args):
        raise AssertionError("table called the kernel")

    monkeypatch.setattr(lefschetz._Primes, "closed_form", refused)
    with pytest.raises(AssertionError, match="called the kernel"):
        main(argv)


def test_fuchsian_table_builds_no_fraction(capsys, monkeypatch):
    """A Fuchsian n = 1 table prints its rows and checks each row's genus
    from the kernel's integers: with lefschetz's Fraction raising, it prints
    the same bytes."""
    argv = ["table", "--field", "quad:13", "--ram", "3", "--ram-real", "1", "--n", "1",
            "--levels", "20:40"]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} was built")

    monkeypatch.setattr(lefschetz, "Fraction", no_fraction)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert expected.out.count("\n") == 22 and expected.err == ""


def _level_part_oracle(field, n: int, m: int) -> Fraction:
    """N(L)^(n(2n+1)) prod_{P | L} prod_j (1 - N(P)^-2j) for L = (m), one
    Fraction per prime as the formula reads."""
    level = ideal_from_integer(field, m)
    value = Fraction(level.norm() ** (n * (2 * n + 1)))
    for prime, _a in level.factors:
        for j in range(1, n + 1):
            value *= 1 - Fraction(1, prime.norm ** (2 * j))
    return value


@pytest.mark.parametrize("argv", _KERNEL_TABLES)
def test_every_table_row_is_the_kernels_value(capsys, monkeypatch, argv):
    """With the kernel's value tripled, each row that passes the torsion
    check calls it once, with the norms of its ramified primes off the level
    and level parts whose product is its level's part of the closed form,
    and prints three times its Lefschetz number and components: no row
    takes its value another way."""
    rows = _table(capsys, argv)
    kernel, calls = lefschetz._Primes.closed_form, []

    def tripled(self, off, level_parts):
        level_parts = list(level_parts)
        calls.append((self.algebra, self.n, off, math.prod(level_parts)))
        num, den = kernel(self, off, level_parts)
        return 3 * num, den

    monkeypatch.setattr(lefschetz._Primes, "closed_form", tripled)
    tripled_rows = _table(capsys, argv)
    passing = [int(row[0]) for row in rows if row[2] == "true"]
    assert passing and len(calls) == len(passing)
    for m, (algebra, n, off, level_part) in zip(passing, calls):
        assert off == tuple(p.norm for p in algebra.ram_finite if m % p.p), m
        assert level_part == _level_part_oracle(algebra.field, n, m), m
    for row, tripled_row in zip(rows, tripled_rows):
        assert tripled_row[:4] == row[:4]
        if row[2] == "true":
            chis = [str(3 * Fraction(chi)) for chi in row[5].split("|")]
            assert tripled_row[4:6] == [str(3 * Fraction(row[4])), "|".join(chis)]
        else:
            assert tripled_row == row


# The per-row Fraction path: for each level, the ideal from
# ideal_from_integer, each M(j) as zeta_F(1-2j) times a Fraction per prime,
# their product scaled by N(level)^(n(2n+1)) d(D)^(n(n+1)/2), 2^-r, 2^-(nr)
# and the trace, and the index as the product of local_index_factor.
# (ramified rational primes, ramified real places) of each algebra; Q(sqrt10)
# has 2 and 5 ramified over Q, and 3 split, with only one prime above 3 in
# its Fuchsian algebra.
_ORACLE_FIELDS = {
    "q": (TotallyRealField.rationals(), 3, {
        "split": ((), 0), "finite": ((3, 5), 0), "fuchsian": ((2, 3), 0),
    }),
    "quad:5": (TotallyRealField.real_quadratic(5), 3, {
        "split": ((), 0), "finite": ((2, 3), 0), "fuchsian": ((2,), 1),
    }),
    "quad:10": (TotallyRealField.real_quadratic(10), 3, {
        "split": ((), 0), "finite": ((2, 5), 0), "fuchsian": ((3,), 1),
    }),
    f"external:{Q5_DESCRIPTOR}": (TotallyRealField.from_json_file(Q5_DESCRIPTOR), 2, {
        "split": ((), 0), "finite": ((2, 5), 0), "fuchsian": ((2,), 1),
    }),
    # the class-sum shape: Q(sqrt2, sqrt5) ramified at its four real places,
    # whose rows carry the 70 signature classes of r = 4, n = 4; n_max 0
    # keeps it to its one grid entry below
    f"external:{BIQUADRATIC_DESCRIPTOR}": (
        TotallyRealField.from_json_file(BIQUADRATIC_DESCRIPTOR), 0, {"definite": ((), 4)},
    ),
}
_ORACLE_TRACE = Fraction(-2, 3)
# (spec, algebra kind, n, lowest level, highest level)
_ORACLE_GRID = [
    (spec, kind, n, 2, 200)
    for spec, (_field, n_max, algebras) in _ORACLE_FIELDS.items()
    for kind in algebras
    for n in range(1, n_max + 1)
] + [(f"external:{BIQUADRATIC_DESCRIPTOR}", "definite", 4, 3, 12)]


def _oracle_row(algebra, n: int, m: int, trace: Fraction) -> list[str]:
    field = algebra.field
    level = ideal_from_integer(field, m)
    if not check_torsion_necessary(level):
        return [str(m), str(level.norm()), "false"] + [""] * 5 + ["torsion check failed"]
    value = Fraction(
        level.norm() ** (n * (2 * n + 1))
        * algebra.signed_reduced_discriminant() ** (n * (n + 1) // 2)
    )
    for j in range(1, n + 1):
        m_j = dedekind_zeta_neg(field, j)
        for prime, _exp in level.factors:
            m_j *= 1 - Fraction(1, prime.norm ** (2 * j))
        for prime in algebra.ram_finite:
            if level.valuation(prime) == 0:
                m_j *= 1 + Fraction((-1) ** j, prime.norm**j)
        value *= m_j
    r = algebra.r
    chis = [value / 2 ** (n * r) * c.binomial_factor(n) for c in h1_signature_classes(r, n)]
    index = 1
    for prime, exp in level.factors:
        kind = "ramified" if prime in algebra.ram_finite else "split"
        index *= finitegrp.local_index_factor(prime.norm, kind, n, exp)
    genus_b1 = ["", ""]
    if n == 1 and algebra.is_fuchsian():
        genus = 1 - value / 2**r / 2
        assert genus.denominator == 1
        genus_b1 = [str(genus), str(2 * genus)]
    lef = value * trace / 2**r
    return [str(m), str(level.norm()), "true", str(index), str(lef),
            "|".join(map(str, chis)), *genus_b1, ""]


def _oracle_levels(field: TotallyRealField, lo: int, hi: int) -> list[int]:
    """The levels of lo..hi the field can factor: a descriptor splits only
    the primes it lists."""
    if field.kind != "external":
        return list(range(lo, hi + 1))
    listed = {p for p, _pairs in field.splitting_table}
    return [m for m in range(lo, hi + 1) if {p for p, _a in factorize(m)} <= listed]


@pytest.mark.parametrize(
    "spec, kind, n, lo, hi", _ORACLE_GRID,
    ids=[f"{s.split('/')[-1]}-{k}-n{n}" for s, k, n, _lo, _hi in _ORACLE_GRID],
)
def test_table_equals_the_per_row_fraction_path(capsys, spec, kind, n, lo, hi):
    field, _n_max, algebras = _ORACLE_FIELDS[spec]
    ram, ram_real = algebras[kind]
    algebra = QuaternionAlgebra(
        field, tuple(split_prime(field, p)[0] for p in ram), ram_real
    )
    levels = _oracle_levels(field, lo, hi)
    # a contiguous range where the field factors every level, else one
    # table per level
    ranges = [(lo, hi)] if len(levels) == hi - lo + 1 else [(m, m) for m in levels]
    got = []
    for first, last in ranges:
        argv = ["table", "--field", spec, *_algebra_flags(ram, ram_real), "--n", str(n),
                "--levels", f"{first}:{last}", f"--trace-w={_ORACLE_TRACE}"]
        got += _table(capsys, argv)
    assert got == [_oracle_row(algebra, n, m, _ORACLE_TRACE) for m in levels]


_SQUAREFREE = [d for d in range(2, 41) if all(d % (p * p) for p in (2, 3, 5))]


@st.composite
def _table_requests(draw):
    """(argv, algebra, n, levels, trace) of one table over Q or Q(sqrt d),
    d <= 40 squarefree, with a split, finitely ramified, Fuchsian or (over Q)
    Hilbert-symbol algebra."""
    d = draw(st.sampled_from([1, *_SQUAREFREE]))
    field = TotallyRealField.rationals() if d == 1 else TotallyRealField.real_quadratic(d)
    spec = "q" if d == 1 else f"quad:{d}"
    kind = draw(st.sampled_from(["split", "finite", "fuchsian"] + ["hilbert"] * (d == 1)))
    if kind == "hilbert":
        a, b = draw(st.lists(st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6]), min_size=2,
                             max_size=2, unique=True))
        flags, algebra = [f"--hilbert={a},{b}"], hilbert_ramification_q(a, b)
    else:
        ram = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2, max_size=2,
                            unique=True))
        # over Q(sqrt d) the Fuchsian algebra ramifies at one prime and one real place
        ram, ram_real = {"split": ((), 0), "finite": (ram, 0)}.get(
            kind, (ram, 0) if d == 1 else (ram[:1], 1))
        flags = _algebra_flags(ram, ram_real)
        algebra = QuaternionAlgebra(
            field, tuple(split_prime(field, p)[0] for p in ram), ram_real
        )
    # a totally definite algebra needs n >= 2
    n = draw(st.integers(2 if algebra.is_totally_definite() else 1, 3))
    lo = draw(st.integers(3, 400))
    levels = range(lo, min(400, lo + draw(st.integers(0, 19))) + 1)
    trace = draw(st.sampled_from(["1", "2", "-1/3", "3/2", "0"]))
    argv = ["table", "--field", spec, *flags, "--n", str(n),
            "--levels", f"{levels[0]}:{levels[-1]}", f"--trace-w={trace}"]
    return argv, algebra, n, levels, Fraction(trace)


@settings(max_examples=40, deadline=None)
@given(request=_table_requests())
def test_table_kernel_equals_the_per_row_fraction_path(request):
    argv, algebra, n, levels, trace = request
    code, out, err = _run_main(argv)
    assert (code, err) == (0, "")
    _header, *rows = csv.reader(io.StringIO(out))
    assert rows == [_oracle_row(algebra, n, m, trace) for m in levels]


@st.composite
def _one_level_tables(draw):
    """(argv, algebra, n, m, trace) of a one-row table at a level m drawn as a
    product of prime powers p^a, a <= 3, over Q, Q(sqrt5), Q(sqrt10) or
    Q(sqrt13), so that its primes are split, inert or ramified in the field,
    with an algebra whose ramified primes lie on the level, off it, or both."""
    d = draw(st.sampled_from([1, 5, 10, 13]))
    field = TotallyRealField.rationals() if d == 1 else TotallyRealField.real_quadratic(d)
    pool = [2, 3, 5, 7, 11, 13]
    ram = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    # an odd count of ramified primes takes one ramified real place; over
    # Q(sqrt d) an even count may take both
    ram_real = len(ram) % 2 or (draw(st.sampled_from([0, 2])) if d > 1 else 0)
    algebra = QuaternionAlgebra(field, tuple(split_prime(field, p)[0] for p in ram), ram_real)
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    m = math.prod(p ** draw(st.integers(1, 3)) for p in primes)
    m = 4 if m == 2 else m  # (2) fails the torsion condition
    n = draw(st.integers(2 if algebra.is_totally_definite() else 1, 3))
    trace = draw(st.sampled_from(["1", "-1/3", "5/2"]))
    argv = ["table", "--field", "q" if d == 1 else f"quad:{d}", *_algebra_flags(ram, ram_real),
            "--n", str(n), "--levels", f"{m}:{m}", f"--trace-w={trace}"]
    return argv, algebra, n, m, Fraction(trace)


@settings(max_examples=60, deadline=None)
@given(request=_one_level_tables())
def test_table_row_equals_the_single_level_reports(request):
    """A row, assembled from its level's per-p^a records, equals the reports
    of lefschetz_number and euler_char_components at that level, which
    assemble the level's value from its ideal."""
    argv, algebra, n, m, trace = request
    code, out, err = _run_main(argv)
    assert (code, err) == (0, "")
    [_header, row] = csv.reader(io.StringIO(out))
    level = ideal_from_integer(algebra.field, m)
    inp = LefschetzInput(algebra.field, algebra, n, level, trace)
    assert Fraction(row[4]) == lefschetz_number(inp).value
    components = [report.value for report in euler_char_components(algebra, n, level)]
    assert [Fraction(chi) for chi in row[5].split("|")] == components


@pytest.mark.parametrize(
    "levels, missing", [("11:11", 2), ("11:13", 2), ("3:3", 3), ("3:11", 3), ("13:13", 13)]
)
def test_table_error_order_for_a_descriptor_without_two(capsys, tmp_path, levels, missing):
    """A descriptor that splits 11 but not 2: a table whose first row
    factors reports the prime 2 missing, and one whose first row needs a
    prime of its own that is missing reports that prime."""
    descriptor = tmp_path / "field.json"
    descriptor.write_text(json.dumps({
        "degree": 2, "abs_discriminant": 5, "num_real_places": 2, "zeta_neg": ["1/30"],
        "splitting": {"11": [[1, 1], [1, 1]]},
    }), encoding="utf-8")
    argv = ["table", "--field", f"external:{descriptor}", "--split", "--n", "1",
            "--levels", levels]
    assert main(argv) == 2
    message = f"error: prime {missing} missing from the external splitting table\n"
    assert capsys.readouterr() == ("", message)


def test_table_at_huge_levels_equals_the_per_row_fraction_path(capsys):
    # levels no sieve could reach, with the Fuchsian genus column; a level
    # with a prime factor near 10^6 costs most of the trial division
    field = TotallyRealField.rationals()
    algebra = QuaternionAlgebra(field, tuple(split_prime(field, p)[0] for p in (2, 3)), 0)
    lo = 10**12
    argv = ["table", "--field", "q", "--ram", "2,3", "--n", "1",
            "--levels", f"{lo}:{lo + 30}", f"--trace-w={_ORACLE_TRACE}"]
    want = [_oracle_row(algebra, 1, m, _ORACLE_TRACE) for m in range(lo, lo + 31)]
    assert _table(capsys, argv) == want


def test_large_table_fields_read_back_under_a_raised_field_limit():
    """Every golden table is the bytes csv.writer writes for its own rows:
    read back and written again with a newline terminator, each stdout is
    unchanged, so no table field needs quoting. The chi_components of the
    625 signature classes of n = 8 over four real places fill about 300 KB
    per row, more than the csv module's default field limit of 131072
    characters."""
    corpus = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))
    tables = {name: case["stdout"] for name, case in corpus.items()
              if name.startswith("table-")}
    assert len(tables) == 10
    large = tables["table-biquadratic-n8"]
    with pytest.raises(csv.Error, match="field larger than field limit"):
        list(csv.reader(io.StringIO(large)))
    default = csv.field_size_limit(max(map(len, tables.values())))
    try:
        header, *rows = csv.reader(io.StringIO(large))
        for name, text in tables.items():
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
            assert buffer.getvalue() == text, name
    finally:
        csv.field_size_limit(default)
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    assert max(len(row[header.index("chi_components")]) for row in rows) > default


# field spec -> (level ranges the field factors, largest n, algebras); level
# 2 fails the torsion check, and n = 8 over the four real places of
# Q(sqrt2, sqrt5) gives the 625 signature classes of the class-sum benchmark
_WRITER_FIELDS = {
    "q": (["2:12", "2:40"], 3, {
        "split": ((), 0), "finite": ((3, 5), 0), "fuchsian": ((2, 3), 0),
    }),
    "quad:5": (["2:12", "2:30"], 3, {
        "split": ((), 0), "finite": ((2, 3), 0), "fuchsian": ((2,), 1),
    }),
    "quad:10": (["2:12"], 3, {
        "split": ((), 0), "finite": ((2, 5), 0), "fuchsian": ((3,), 1),
    }),
    f"external:{Q5_DESCRIPTOR}": (["2:2", "4:5", "10:11"], 2, {
        "split": ((), 0), "finite": ((2, 5), 0), "fuchsian": ((2,), 1),
    }),
    f"external:{BIQUADRATIC_DESCRIPTOR}": (["2:4", "2:7"], 8, {
        "split": ((), 0), "definite": ((), 4), "two places": ((), 2),
    }),
}


@st.composite
def _writer_requests(draw):
    spec = draw(st.sampled_from(sorted(_WRITER_FIELDS)))
    ranges, n_max, algebras = _WRITER_FIELDS[spec]
    ram, ram_real = algebras[draw(st.sampled_from(sorted(algebras)))]
    # a totally definite algebra needs n >= 2
    n = draw(st.integers(2 if ram_real == 4 else 1, n_max))
    levels = draw(st.sampled_from(ranges))
    trace = draw(st.sampled_from(["1", "-1/3", "3/2", "0"]))
    return ["table", "--field", spec, *_algebra_flags(ram, ram_real), "--n", str(n),
            "--levels", levels, f"--trace-w={trace}"]


@settings(max_examples=60, deadline=None)
@given(argv=_writer_requests())
def test_table_bytes_equal_csv_writer(argv):
    """The table writes its rows without quoting any field; csv.writer,
    which quotes a field holding a comma, a quote or a newline, must write
    the same bytes for the same rows."""
    code, text, err = _run_main(argv)
    assert (code, err) == (0, "")
    default = csv.field_size_limit(len(text))
    try:
        rows = list(csv.reader(io.StringIO(text)))
    finally:
        csv.field_size_limit(default)
    assert len(rows) > 1
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(rows)
    assert rewritten.getvalue() == text


def _golden_case(name: str) -> tuple[list[str], dict]:
    """The argv of a golden case, fixture paths resolved, and its record."""
    recorded = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))[name]
    return [arg.replace("@/", f"{GOLDEN}/") for arg in recorded["argv"]], recorded


@pytest.mark.parametrize("case", ["table-biquadratic-n8", "table-fuchsian-quad5"])
def test_table_out_file_holds_the_stdout_bytes(capsys, tmp_path, case):
    argv, recorded = _golden_case(case)
    target = tmp_path / "table.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_bytes() == recorded["stdout"].encode("utf-8")


def test_table_error_writes_no_out_file(capsys, tmp_path):
    """A row beyond the digit limit refuses the whole table: stdout stays
    empty and the --out file is never created."""
    argv, recorded = _golden_case("err-digit-limit-table")
    target = tmp_path / "table.csv"
    assert main([*argv, "--out", str(target)]) == 2
    assert capsys.readouterr() == ("", recorded["stderr"])
    assert not target.exists()
