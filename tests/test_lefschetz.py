from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlef import lefschetz, verify
from quatlef.errors import (
    ExternalFieldError,
    InvariantError,
    NotFuchsianError,
    TorsionError,
    ValidationError,
)
from quatlef.finitegrp import ramified_local_order, sp_order
from quatlef.lefschetz import (
    LefschetzInput,
    SignatureClass,
    betti_growth_exponent,
    betti_lower_bound,
    check_torsion_necessary,
    congruence_index,
    euler_char_adelic_numeric,
    euler_char_components,
    euler_char_fixed_component,
    fixed_point_space_dim,
    genus_fuchsian,
    global_modulus_factor,
    h1_signature_classes,
    lefschetz_number,
    lefschetz_via_decomposition,
    m_factor,
    modular_form_dim,
    vol_sp_compact,
    weyl_quotient,
)
from quatlef.numberfield import (
    Ideal,
    TotallyRealField,
    dedekind_zeta_neg,
    ideal_from_integer,
    split_prime,
)
from quatlef.quaternion import QuaternionAlgebra
from quatlef.verify import decomposition_grid

Q = TotallyRealField.rationals()
Q5 = TotallyRealField.real_quadratic(5)

SPLIT = QuaternionAlgebra(Q, (), 0)
RAM23 = QuaternionAlgebra(Q, tuple(split_prime(Q, p)[0] for p in (2, 3)), 0)
HAM5 = QuaternionAlgebra(Q5, (), 2)
GOLDEN = Path(__file__).resolve().parent / "golden"


def level_q(n):
    return ideal_from_integer(Q, n)


def _factor_product(report, level, scale):
    """two_power * N(level)^(n(2n+1)) * disc_power * scale * prod(m_factors)."""
    level_norm_power = level.norm() ** (report.n * (2 * report.n + 1))
    start = report.two_power * level_norm_power * report.disc_power * scale
    return prod(report.m_factors, start=start)


class TestTorsionCheck:
    def test_level_two_fails(self):
        assert check_torsion_necessary(level_q(2)) is False

    def test_level_three_passes(self):
        assert check_torsion_necessary(level_q(3)) is True

    def test_inert_two_over_quadratic_fails(self):
        prime2 = split_prime(Q5, 2)[0]
        assert check_torsion_necessary(Ideal(Q5, ((prime2, 1),))) is False

    @pytest.mark.parametrize("field", [
        Q,
        TotallyRealField.real_quadratic(17),
        Q5,
        TotallyRealField.real_quadratic(2),
        TotallyRealField.from_json_file(GOLDEN / "q5.json"),
    ], ids=["Q", "quad17", "quad5", "quad2", "q5.json"])
    def test_matches_divisibility_of_two(self, field):
        """The rule on the primes above 2 agrees with level | (2)."""
        two = ideal_from_integer(field, 2)
        above_two = split_prime(field, 2)
        levels = [
            Ideal(field, tuple((prime, exp) for prime, exp in zip(above_two, exps) if exp))
            for exps in product(range(4), repeat=len(above_two))
            if any(exps)
        ]
        for n in range(2, 65):
            try:
                levels.append(ideal_from_integer(field, n))
            except ExternalFieldError:
                continue  # the descriptor splits only 2, 5 and 11
        for level in levels:
            divides_two = all(exp <= two.valuation(prime) for prime, exp in level.factors)
            assert check_torsion_necessary(level) is not divides_two, level

    def test_descriptor_without_two_refused(self):
        field = TotallyRealField.from_descriptor(
            {"degree": 2, "abs_discriminant": 5, "num_real_places": 2,
             "zeta_neg": ["1/30"], "splitting": {"11": [[1, 1], [1, 1]]}}
        )
        level = Ideal(field, ((split_prime(field, 11)[0], 1),))
        with pytest.raises(ExternalFieldError, match="prime 2 missing"):
            check_torsion_necessary(level)

    def test_gate_raises_without_override(self):
        with pytest.raises(TorsionError):
            lefschetz_number(LefschetzInput(Q, SPLIT, 1, level_q(2)))

    def test_gate_override_records_warning(self):
        report = lefschetz_number(
            LefschetzInput(Q, SPLIT, 1, level_q(2), assume_torsion_free=True)
        )
        assert any("FAILED" in w for w in report.warnings)
        # formula applied formally: 2^3 * zeta(-1) * (1 - 1/4) = -1/2
        assert report.value == Fraction(-1, 2)

    def test_passing_check_still_warns(self):
        report = lefschetz_number(LefschetzInput(Q, SPLIT, 1, level_q(3)))
        assert any("unverified" in w for w in report.warnings)


class TestMFactor:
    def test_split_level3(self):
        assert m_factor(1, level_q(3), SPLIT) == Fraction(-2, 27)

    def test_ram23_level5(self):
        assert m_factor(1, level_q(5), RAM23) == Fraction(-2, 75)

    def test_split_level3_j2(self):
        assert m_factor(2, level_q(3), SPLIT) == Fraction(2, 243)

    def test_ramified_prime_dividing_level_gets_no_extra_factor(self):
        # level (2): the ramified prime 2 only contributes (1 - 2^-2)
        value = m_factor(1, level_q(2), RAM23)
        assert value == Fraction(-1, 12) * Fraction(3, 4) * Fraction(2, 3)

    def test_unit_level_rejected(self):
        with pytest.raises(ValidationError):
            m_factor(1, Ideal(Q), SPLIT)

    def test_complex_place_gives_the_reported_zero(self):
        """zeta_F(1-2j) vanishes when F has a complex place, so M(j) is the 0
        that a report prints, not a missing zeta-table entry."""
        field = TotallyRealField.from_json_file(str(GOLDEN / "imaginary.json"))
        level, algebra = ideal_from_integer(field, 3), QuaternionAlgebra(field, (), 0)
        assert m_factor(1, level, algebra) == 0
        assert lefschetz_number(LefschetzInput(field, algebra, 2, level)).m_factors == (0, 0)

    def test_integer_local_part_equals_the_per_prime_product(self):
        # the reference multiplies one Fraction per prime, as the formula reads
        def per_prime(j, level, algebra):
            value = dedekind_zeta_neg(algebra.field, j)
            for prime, _exp in level.factors:
                value *= 1 - Fraction(1, prime.norm ** (2 * j))
            for prime in algebra.ram_finite:
                if level.valuation(prime) == 0:
                    value *= 1 + Fraction((-1) ** j, prime.norm**j)
            return value

        q13 = TotallyRealField.real_quadratic(13)
        settings = [
            (SPLIT, Q), (RAM23, Q), (HAM5, Q5),
            (QuaternionAlgebra(Q5, tuple(split_prime(Q5, p)[0] for p in (2, 3)), 0), Q5),
            (QuaternionAlgebra(q13, tuple(split_prime(q13, p)[0] for p in (2, 13)), 0), q13),
        ]
        for algebra, field in settings:
            for n_level in (2, 3, 6, 12, 30, 143):
                level = ideal_from_integer(field, n_level)
                for j in range(1, 5):
                    want = per_prime(j, level, algebra)
                    assert m_factor(j, level, algebra) == want, (algebra, n_level, j)


class TestLevelUnit:
    """U(N, n), the integer that a level prime of norm N brings to the
    closed form at exponent 1."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_level_unit_is_the_fraction_product(self, n):
        for norm in (2, 3, 4, 5, 7, 8, 9, 11, 25, 27, 49, 121, 169, 1009):
            want = norm ** (n * (2 * n + 1)) * prod(
                1 - Fraction(1, norm ** (2 * j)) for j in range(1, n + 1))
            got = lefschetz._level_unit(norm, n)
            assert type(got) is int and got == want, (norm, n)

    def test_inexact_level_unit_refused_and_not_kept(self, monkeypatch):
        lefschetz._level_unit.cache_clear()
        monkeypatch.setattr(lefschetz, "_local_part", lambda norm, js, in_level: (1, 3 ** 40))
        for _attempt in range(2):
            with pytest.raises(InvariantError, match=r"U\(2, 1\) is not an integer"):
                lefschetz._level_unit(2, 1)
        info = lefschetz._level_unit.cache_info()
        assert (info.hits, info.currsize) == (0, 0)
        monkeypatch.undo()
        assert lefschetz._level_unit(2, 1) == 2 * (2**2 - 1)


class TestLefschetzNumber:
    def test_split_n1_level3(self):
        for lvl, want in ((3, -2), (4, -4), (5, -10)):
            report = lefschetz_number(LefschetzInput(Q, SPLIT, 1, level_q(lvl)))
            assert report.value == want

    def test_ram23_n1_level5(self):
        report = lefschetz_number(LefschetzInput(Q, RAM23, 1, level_q(5)))
        assert report.value == -20

    def test_split_n2_level3(self):
        report = lefschetz_number(LefschetzInput(Q, SPLIT, 2, level_q(3)))
        assert report.value == -36

    def test_zero_iff_trace_zero(self):
        zero = lefschetz_number(
            LefschetzInput(Q, RAM23, 1, level_q(5), trace_w=Fraction(0))
        )
        assert zero.value == 0 and zero.zero_reason is None
        for trace in (Fraction(1), Fraction(-3), Fraction(2, 7)):
            report = lefschetz_number(
                LefschetzInput(Q, RAM23, 1, level_q(5), trace_w=trace)
            )
            assert report.value != 0
            assert report.value == -20 * trace

    def test_report_value_equals_factor_product(self):
        """A report's value is the product of its factors; the table's kernel
        _Primes.closed_form, the fixed ratio of the ramified primes off the
        level times the level's integer part, must give the same value for
        the same level."""
        inputs = decomposition_grid()
        for algebra, n, lvl in ((SPLIT, 1, 3), (RAM23, 1, 5), (SPLIT, 3, 5)):
            inputs.append(LefschetzInput(Q, algebra, n, level_q(lvl)))
        for name, ram_real, lvl in (
            ("q5.json", 2, 11),
            ("q_sqrt2_sqrt5.json", 4, 3),
            ("imaginary.json", 0, 3),  # a complex place
        ):
            field = TotallyRealField.from_json_file(str(GOLDEN / name))
            level = ideal_from_integer(field, lvl)
            algebra = QuaternionAlgebra(field, (), ram_real)
            inputs.append(LefschetzInput(field, algebra, 2, level))
        for field, algebra in ((Q, SPLIT), (Q5, HAM5)):
            level2 = ideal_from_integer(field, 2)
            inp = LefschetzInput(field, algebra, 2, level2, assume_torsion_free=True)
            inputs.append(inp)
        for inp in inputs:
            report = lefschetz_number(LefschetzInput(
                inp.field, inp.algebra, inp.n, inp.level, Fraction(5, 3), inp.assume_torsion_free
            ))
            primes = lefschetz._Primes(inp.algebra, inp.n)
            off = tuple(p.norm for p in inp.algebra.ram_finite if not inp.level.valuation(p))
            kernel = primes.closed_form(off, [primes.level_part(inp.level.factors)])
            table = Fraction(*kernel) / 2**inp.algebra.r * Fraction(5, 3)
            assert report.value == table == _factor_product(report, inp.level, report.trace_w), inp
            assert len(report.m_factors) == inp.n
            real = inp.field.is_totally_real
            assert (report.value != 0) is real
            assert (report.zero_reason is None) is real
        assert [inp.field.is_totally_real for inp in inputs].count(False) == 1

    def test_single_level_reports_use_the_table_kernel(self, monkeypatch):
        """Every single-level report takes its value from _Primes.closed_form,
        the kernel that the table prints from and quatlef verify checks."""
        def refused(*args):
            raise AssertionError("single-level path called the table kernel")

        monkeypatch.setattr(lefschetz._Primes, "closed_form", refused)
        inp = LefschetzInput(Q, RAM23, 1, level_q(5), trace_w=Fraction(3))
        level3, cls = ideal_from_integer(Q5, 3), SignatureClass(((2, 0), (2, 0)))
        reports = [
            lambda: lefschetz_number(inp),
            lambda: betti_lower_bound(inp),
            lambda: genus_fuchsian(RAM23, level_q(5)),
            lambda: euler_char_fixed_component(HAM5, 2, level3, cls),
            lambda: euler_char_components(HAM5, 2, level3),
        ]
        for report in reports:
            with pytest.raises(AssertionError, match="table kernel"):
                report()

    @pytest.mark.parametrize("n", [1, 3])
    def test_report_lists_its_local_primes_once(self, monkeypatch, n):
        """A report builds the level's _local_primes once and takes both its
        value and its n printed M(j) factors from that one list."""
        calls = []
        original = lefschetz._local_primes

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lefschetz, "_local_primes", counting)
        report = lefschetz_number(LefschetzInput(Q, RAM23, n, level_q(5)))
        assert len(calls) == 1
        assert report.m_factors == tuple(m_factor(j, level_q(5), RAM23)
                                         for j in range(1, n + 1))

    def test_totally_definite_needs_n_at_least_2(self):
        with pytest.raises(ValidationError):
            LefschetzInput(Q5, HAM5, 1, ideal_from_integer(Q5, 3))

    def test_unit_level_rejected(self):
        with pytest.raises(ValidationError):
            LefschetzInput(Q, SPLIT, 1, Ideal(Q))

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LefschetzInput(Q, SPLIT, 1, ideal_from_integer(Q5, 3))


class TestSignatureClasses:
    def test_empty(self):
        classes = h1_signature_classes(0, 4)
        assert classes == [SignatureClass(())]

    def test_r1_n2(self):
        classes = h1_signature_classes(1, 2)
        assert {cls.signatures for cls in classes} == {((2, 0),), ((0, 2),)}

    def test_r2_n3_count(self):
        assert len(h1_signature_classes(2, 3)) == 4

    def test_odd_q_rejected(self):
        cls = SignatureClass(((1, 1),))
        with pytest.raises(ValidationError, match=r"signature \(1,1\) has odd q"):
            euler_char_fixed_component(HAM5, 2, ideal_from_integer(Q5, 3), cls)
        with pytest.raises(ValidationError, match=r"signature \(1,1\) has odd q"):
            weyl_quotient(2, 1, cls)

    def test_mixed_sums_rejected(self):
        cls = SignatureClass(((2, 0), (2, 2)))
        with pytest.raises(ValidationError, match="all signatures must sum to the same n"):
            euler_char_fixed_component(HAM5, 2, ideal_from_integer(Q5, 3), cls)
        with pytest.raises(ValidationError, match="all signatures must sum to the same n"):
            weyl_quotient(2, 1, cls)

    def test_class_cap_boundary(self):
        assert len(h1_signature_classes(4, 18)) == 10**4
        with pytest.raises(ValidationError, match="14641 signature classes"):
            h1_signature_classes(4, 20)
        with pytest.raises(ValidationError, match="14641 signature classes"):
            lefschetz._class_binomials(4, 20)

    def test_class_binomials_follow_the_class_order(self):
        for r in range(5):
            for n in range(1, 9):
                classes = h1_signature_classes(r, n)
                want = [cls.binomial_factor(n) for cls in classes]
                assert lefschetz._class_binomials(r, n) == want, (r, n)

    def test_matrix_size_cap_boundary(self, monkeypatch):
        level = level_q(2)
        assert congruence_index(SPLIT, 100, level) > 1
        imaginary = TotallyRealField.from_json_file(str(GOLDEN / "imaginary.json"))
        split_imaginary = QuaternionAlgebra(imaginary, (), 0)
        level_imaginary = ideal_from_integer(imaginary, 3)
        inp = LefschetzInput(imaginary, split_imaginary, 100, level_imaginary)
        assert lefschetz_number(inp).value == 0

        # refused before any group order, power or zeta value is computed
        def no_work(*args):
            raise AssertionError("work done beyond the cap")

        monkeypatch.setattr(lefschetz.finitegrp, "local_index_factor", no_work)
        monkeypatch.setattr(lefschetz, "dedekind_zeta_neg", no_work)
        message = "matrix size n = 101 exceeds the cap of n <= 100"
        with pytest.raises(ValidationError, match=message):
            congruence_index(SPLIT, 101, level)
        with pytest.raises(ValidationError, match=message):
            LefschetzInput(imaginary, split_imaginary, 101, level_imaginary)
        with pytest.raises(ValidationError, match=message):
            euler_char_components(HAM5, 101, ideal_from_integer(Q5, 3))


class TestWeylQuotient:
    def test_examples(self):
        assert weyl_quotient(2, 1, SignatureClass(((2, 0),))) == 4
        assert weyl_quotient(3, 2, SignatureClass(((1, 2), (3, 0)))) == 192

    def test_wrong_n_rejected(self):
        with pytest.raises(ValidationError):
            weyl_quotient(3, 1, SignatureClass(((2, 0),)))


class TestEulerChar:
    def test_r0_single_class_matches_lefschetz(self):
        report = euler_char_fixed_component(RAM23, 1, level_q(5), SignatureClass(()))
        assert report.value == -20

    def test_quadratic_hamilton(self):
        level3 = ideal_from_integer(Q5, 3)
        cls = SignatureClass(((2, 0), (2, 0)))
        report = euler_char_fixed_component(HAM5, 2, level3, cls)
        assert report.value == 119556
        assert _factor_product(report, level3, report.binomial_factor) == report.value
        assert report.binomial_factor == 1

    def test_all_four_classes_equal_here(self):
        level3 = ideal_from_integer(Q5, 3)
        values = [
            euler_char_fixed_component(HAM5, 2, level3, cls).value
            for cls in h1_signature_classes(2, 2)
        ]
        assert values == [119556] * 4

    def test_wrong_class_length_rejected(self):
        with pytest.raises(ValidationError):
            euler_char_fixed_component(HAM5, 2, ideal_from_integer(Q5, 3), SignatureClass(()))

    def test_complex_place_gives_zero(self):
        field = TotallyRealField.from_descriptor({
            "degree": 4, "abs_discriminant": 725, "num_real_places": 2,
            "splitting": {"2": [[4, 1]], "3": [[4, 1]]},
        })
        algebra = QuaternionAlgebra(field, (), 2)
        level = Ideal(field, ((split_prime(field, 3)[0], 1),))
        report = euler_char_fixed_component(
            algebra, 2, level, SignatureClass(((2, 0), (2, 0)))
        )
        assert report.value == 0
        assert report.zero_reason is not None
        inp = LefschetzInput(field, algebra, 2, level)
        assert lefschetz_number(inp).value == 0
        assert lefschetz_via_decomposition(inp) == 0


_REPORT_FIELDS = (
    "value",
    "m_factors",
    "two_power",
    "disc_power",
    "warnings",
    "zero_reason",
    "signature_class",
    "binomial_factor",
)


def _one_by_one(algebra, n, level, assume_torsion_free=False):
    return [
        euler_char_fixed_component(algebra, n, level, cls, assume_torsion_free)
        for cls in h1_signature_classes(algebra.r, n)
    ]


def _assert_components_match(algebra, n, level, assume_torsion_free=False):
    batch = euler_char_components(algebra, n, level, assume_torsion_free)
    single = _one_by_one(algebra, n, level, assume_torsion_free)
    assert [r.signature_class for r in batch] == h1_signature_classes(algebra.r, n)
    for got, want in zip(batch, single, strict=True):
        for name in _REPORT_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
        cls = got.signature_class
        assert got.binomial_factor == prod(comb(n, p) for p, _q in cls), str(cls)
        assert got.value == _factor_product(got, level, got.binomial_factor)
    return batch


class TestEulerCharComponents:
    """The batch equals euler_char_fixed_component class by class."""

    def test_decomposition_grid(self):
        for inp in decomposition_grid():
            _assert_components_match(inp.algebra, inp.n, inp.level)

    def test_complex_place_descriptor(self):
        field = TotallyRealField.from_json_file(str(GOLDEN / "imaginary.json"))
        algebra = QuaternionAlgebra(field, (), 0)
        batch = _assert_components_match(algebra, 2, ideal_from_integer(field, 3))
        assert [r.value for r in batch] == [0]

    def test_level_dividing_two_overridden(self):
        level2 = ideal_from_integer(Q5, 2)
        batch = _assert_components_match(HAM5, 2, level2, assume_torsion_free=True)
        assert len(batch) == 4
        assert all(any("FAILED" in w for w in r.warnings) for r in batch)

    def test_level_dividing_two_rejected(self):
        level2 = ideal_from_integer(Q5, 2)
        with pytest.raises(TorsionError):
            euler_char_components(HAM5, 2, level2)
        with pytest.raises(TorsionError):
            _one_by_one(HAM5, 2, level2)


def _mul(x, y):
    """(u + v φ)(s + t φ) with φ^2 = φ + 1."""
    (u, v), (s, t) = x, y
    return u * s + v * t, u * t + v * s + v * t


def _unit_count(a, b, basis, phi):
    """|O^x| for the order O with this Z_F-basis in the totally definite
    algebra (a, b) over F = Q(√5) when phi, else Q (a, b negative integers).

    A number x of F is written 2x = u + v φ, with v = 0 over Q. A basis
    element is given by 2x for its coordinates on 1, i, j, k (i^2 = a,
    j^2 = b); it has none past its own place in the basis, where it has 1/2
    or 1. nrd = x0^2 - a x1^2 - b x2^2 + ab x3^2, so norm 1 bounds both
    conjugates of every coordinate by 1: |u + v φ| <= 2 at each real place
    gives |v| <= 1 and |u| <= 2."""
    coords = [(u, v) for u in range(-2, 3) for v in (range(-1, 2) if phi else (0,))]
    weights = (1, -a, -b, a * b)
    count = 0
    for x in product(coords, repeat=4):
        squares = [_mul(c, c) for c in x]
        norm = tuple(sum(w * sq[k] for w, sq in zip(weights, squares)) for k in (0, 1))
        if norm != (4, 0):
            continue
        rest = list(x)
        for t in range(3, -1, -1):  # back-substitution on the triangular basis
            (u, v), own = rest[t], basis[t][t][0]
            if u % own or v % own:
                break
            c = (u // own, v // own)
            rest = [(r[0] - m[0], r[1] - m[1]) for r, m in
                    ((r, _mul(c, e)) for r, e in zip(rest, basis[t]))]
        else:
            count += 1
    return count


def _rational(*coords):
    return tuple((c, 0) for c in coords)


# twice the basis of a maximal order: the Hurwitz order of (-1,-1) over Q;
# Z<1, i, (1+j)/2, (i+k)/2> in (-1,-3) over Q; and the icosians,
# Z_F<1, i, (φ + φ^-1 i + j)/2, (1+i+j+k)/2> in (-1,-1) over Q(√5)
HURWITZ = (-1, -1, (_rational(2, 0, 0, 0), _rational(0, 2, 0, 0),
                    _rational(0, 0, 2, 0), _rational(1, 1, 1, 1)), False)
ORDER_3 = (-1, -3, (_rational(2, 0, 0, 0), _rational(0, 2, 0, 0),
                    _rational(1, 0, 1, 0), _rational(0, 1, 0, 1)), False)
ICOSIANS = (-1, -1, (_rational(2, 0, 0, 0), _rational(0, 2, 0, 0),
                     ((0, 1), (-1, 1), (1, 0), (0, 0)), _rational(1, 1, 1, 1)), True)


class TestCountedOracle:
    """A compact component counts lattice classes with level structure.

    For a totally definite algebra with maximal order O and the compact
    class (n, 0) at every real place, the component at a torsion-free prime
    level of norm q is |Sp_n(O/level)| = sp_order(n, q) times the mass of
    the genus of O^n (Eichler; Hashimoto and Koseki, Tohoku Math. J. 41,
    1989). Where that genus has one class, the mass is 1/(n! |O^x|^n), so
    the closed form must equal a count of the units of O. The count shares
    no zeta value, power of 2 or d(D) power with the closed form."""

    def test_unit_counts(self):
        assert _unit_count(*HURWITZ) == 24
        assert _unit_count(*ORDER_3) == 12
        assert _unit_count(*ICOSIANS) == 120

    @pytest.mark.parametrize("algebra, order, n, lvl, want", [
        pytest.param(QuaternionAlgebra(Q, split_prime(Q, 2), 1), HURWITZ, 2, 3, 45,
                     id="ram2-n2-level3"),
        pytest.param(QuaternionAlgebra(Q, split_prime(Q, 2), 1), HURWITZ, 3, 3, 110565,
                     id="ram2-n3-level3"),
        pytest.param(QuaternionAlgebra(Q, split_prime(Q, 3), 1), ORDER_3, 2, 5, 32500,
                     id="ram3-n2-level5"),
        pytest.param(HAM5, ICOSIANS, 2, 3, 119556, id="icosians-n2-level3"),
    ])
    def test_compact_component_is_the_lattice_count(self, algebra, order, n, lvl, want):
        level = ideal_from_integer(algebra.field, lvl)
        compact = SignatureClass(((n, 0),) * algebra.r)
        report = euler_char_fixed_component(algebra, n, level, compact)
        count = Fraction(sp_order(n, level.norm()), factorial(n) * _unit_count(*order) ** n)
        assert report.value == count == want


class TestDecomposition:
    def test_single_class_cases(self):
        for algebra, n, lvl, want in (
            (RAM23, 1, 5, -20),
            (SPLIT, 2, 3, -36),
            (SPLIT, 1, 3, -2),
        ):
            inp = LefschetzInput(Q, algebra, n, level_q(lvl))
            assert lefschetz_via_decomposition(inp) == want

    def test_trace_scales_linearly(self):
        inp = LefschetzInput(
            Q5, HAM5, 2, ideal_from_integer(Q5, 3), trace_w=Fraction(-2, 3)
        )
        assert lefschetz_via_decomposition(inp) == 478224 * Fraction(-2, 3)
        assert lefschetz_via_decomposition(inp) == lefschetz_number(inp).value


def _local_group_order(algebra, n, level, prime):
    """|G_P|: the factor by which raising the level by P multiplies X."""
    q = prime.norm
    if level.valuation(prime):
        return q ** (n * (2 * n + 1))
    if prime in algebra.ram_finite:
        return ramified_local_order(n, q)
    return sp_order(n, q)


def _level_raising_mismatches():
    """The cases of the level-raising grid (4 algebras over Q and Q(√5),
    n <= 3, 2 levels, 5 primes: 120 in all) where X(L P) / X(L) is not
    |G_P|, with X the Lefschetz number at trace 1."""
    p2 = split_prime(Q5, 2)[0]
    algebras = [SPLIT, RAM23, QuaternionAlgebra(Q5, (), 0), QuaternionAlgebra(Q5, (p2,), 1)]
    mismatches = []
    for algebra, n, lvl, p in product(algebras, range(1, 4), (5, 7), (2, 3, 5, 7, 11)):
        field = algebra.field
        level, prime = ideal_from_integer(field, lvl), split_prime(field, p)[0]
        raised = Ideal(field, (*level.factors, (prime, 1)))
        x, x_raised = (
            lefschetz_number(LefschetzInput(field, algebra, n, lev)).value for lev in (level, raised)
        )
        if x_raised / x != _local_group_order(algebra, n, level, prime):
            mismatches.append(f"{algebra.describe()} n={n} L=({lvl}) P={prime}")
    return mismatches


class TestLevelRaising:
    """X(L P) / X(L) = |G_P|, the order of the reduction of the group at P:
    N(P)^(n(2n+1)) when P divides L, ramified_local_order when P is a
    ramified prime entering the level, and |Sp_n(F_N(P))| otherwise (Serre,
    "Cohomologie des groupes discrets", 1971). The orders come from
    finitegrp, which the finite-orders suite checks by enumeration, and
    share no line with the mass formula of the decomposition suite."""

    def test_every_ratio_is_the_local_group_order(self):
        assert _level_raising_mismatches() == []


def _sweep_inputs():
    """verify's torsion-free inputs over Q, every Q(√d) with d <= 300
    squarefree and the golden Q(√2, √5)."""
    fields = [Q, *(
        TotallyRealField.real_quadratic(d) for d in range(2, 301)
        if all(d % (p * p) for p in range(2, 18))
    ), TotallyRealField.from_json_file(GOLDEN / "q_sqrt2_sqrt5.json")]
    return list(verify._torsion_free_inputs(fields))


class TestIntegrality:
    """The integrality check of the signs suite, over d <= 300 and a quartic
    field in place of its d <= 40. Minkowski's lemma (Serre, 1971) makes
    every level of the sweep torsion-free, so the Euler characteristic is an
    integer, and so are its fixed-point components and the Lefschetz
    number."""

    def test_every_value_is_an_integer(self):
        inputs = _sweep_inputs()
        assert len(inputs) == 2023
        assert verify._integrality_failures(inputs) == []


class TestCongruenceIndex:
    @pytest.mark.parametrize("n_mod,expected", [(4, 48), (6, 144)])
    def test_split_levels(self, n_mod, expected):
        assert congruence_index(SPLIT, 1, level_q(n_mod)) == expected

    def test_unit_level_rejected(self):
        with pytest.raises(ValidationError):
            congruence_index(SPLIT, 1, Ideal(Q))


class TestGenus:
    def test_split_rejected(self):
        with pytest.raises(NotFuchsianError):
            genus_fuchsian(SPLIT, level_q(5))

    def test_totally_definite_rejected(self):
        with pytest.raises(NotFuchsianError):
            genus_fuchsian(HAM5, ideal_from_integer(Q5, 3))

    def test_chi_equals_lefschetz_on_more_levels(self):
        for n_mod in (3, 4, 5, 6, 7, 9, 10):
            report = genus_fuchsian(RAM23, level_q(n_mod))
            closed = lefschetz_number(LefschetzInput(Q, RAM23, 1, level_q(n_mod)))
            assert report.chi == 2 - 2 * report.genus == closed.value
            assert report.genus >= 2

    def test_override_needed_for_level2(self):
        with pytest.raises(TorsionError):
            genus_fuchsian(RAM23, level_q(2))
        report = genus_fuchsian(RAM23, level_q(2), assume_torsion_free=True)
        assert report.genus == 2

    def test_warnings(self):
        """The torsion gate's one warning, unverified or overridden, and no
        other: an integral genus is at least 2, so no level that passes the
        torsion check gives a genus below 2 (searched over small quadratic
        Fuchsian settings)."""
        unverified = genus_fuchsian(RAM23, level_q(5))
        assert unverified.warnings == (lefschetz.WARN_TORSION_UNVERIFIED,)
        overridden = genus_fuchsian(RAM23, level_q(2), assume_torsion_free=True)
        assert overridden.warnings == (lefschetz.WARN_TORSION_OVERRIDDEN,)
        settings = 0
        for d in (2, 3, 5, 13):
            field = TotallyRealField.real_quadratic(d)
            primes = [P for p in (2, 3, 5, 7) for P in split_prime(field, p)]
            for ramified in primes:
                algebra = QuaternionAlgebra(field, (ramified,), 1)
                for prime, e in product(primes, (1, 2)):
                    level = Ideal(field, ((prime, e),))
                    if not check_torsion_necessary(level):
                        continue
                    report = genus_fuchsian(algebra, level)
                    assert report.genus >= 2
                    assert report.warnings == (lefschetz.WARN_TORSION_UNVERIFIED,)
                    settings += 1
        assert settings > 100


class TestModularFormDim:
    def test_weight2(self):
        assert modular_form_dim(11, 2) == 11

    def test_weight4(self):
        assert modular_form_dim(11, 4) == 30

    def test_odd_weight_rejected(self):
        with pytest.raises(ValidationError):
            modular_form_dim(11, 3)
        with pytest.raises(ValidationError):
            modular_form_dim(11, 0)


class TestBettiBounds:
    def test_exponents(self):
        assert betti_growth_exponent(1) == 1
        assert betti_growth_exponent(2) == Fraction(2, 3)
        assert betti_growth_exponent(3) == Fraction(3, 5)

    def test_lower_bound_uses_trace_one(self):
        inp = LefschetzInput(Q, RAM23, 1, level_q(5), trace_w=Fraction(9))
        assert betti_lower_bound(inp) == 20


class TestVolumesAndModulus:
    def test_vol_is_pure_pi_power(self):
        for n in range(1, 6):
            assert vol_sp_compact(n).pi_exp == n * (n + 1)

    def test_modulus_equals_norm_product_form(self):
        for algebra, n in ((RAM23, 1), (RAM23, 2), (HAM5, 2), (SPLIT, 3)):
            expected = Fraction(2 ** (n * algebra.field.degree))
            for prime in algebra.ram_finite:
                expected /= Fraction(prime.norm ** (n * (n + 1) // 2))
            assert global_modulus_factor(algebra, n) == expected


class TestFixedPointSpaceDim:
    def test_values(self):
        assert fixed_point_space_dim(RAM23, 1, SignatureClass(())) == 2
        assert fixed_point_space_dim(HAM5, 2, SignatureClass(((2, 0), (2, 0)))) == 0
        assert fixed_point_space_dim(HAM5, 2, SignatureClass(((2, 0), (0, 2)))) == 0

    @given(st.integers(min_value=1, max_value=5))
    def test_always_even(self, n):
        for cls in h1_signature_classes(2, n):
            assert fixed_point_space_dim(HAM5, n, cls) % 2 == 0


class TestAdelicNumeric:
    def test_external_field_rejected(self):
        field = TotallyRealField.from_descriptor({
            "degree": 2, "abs_discriminant": 5, "num_real_places": 2, "zeta_neg": ["1/30"],
            "splitting": {"2": [[2, 1]], "3": [[2, 1]]},
        })
        algebra = QuaternionAlgebra(field, (), 2)
        level = Ideal(field, ((split_prime(field, 3)[0], 1),))
        with pytest.raises(ValidationError):
            euler_char_adelic_numeric(algebra, 2, level, SignatureClass(((2, 0), (2, 0))), 10**5)

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValidationError):
            euler_char_adelic_numeric(RAM23, 1, level_q(5), SignatureClass(()), 100)

    def test_total_series_terms_capped(self, monkeypatch):
        # the n series sum n * terms terms: 10^7 in all runs, one more is
        # refused before any series starts
        real_series = lefschetz.zeta_f_positive_even_numeric
        asked = []

        def short_series(field, j, terms):
            asked.append(terms)
            return real_series(field, j, 10**4)

        monkeypatch.setattr(lefschetz, "zeta_f_positive_even_numeric", short_series)
        euler_char_adelic_numeric(SPLIT, 10, level_q(3), SignatureClass(()), 10**6)
        assert asked == [10**6] * 10
        asked.clear()
        with pytest.raises(
            ValidationError,
            match="11 series of 909091 terms exceed the cap of 10000000 terms in all",
        ):
            euler_char_adelic_numeric(SPLIT, 11, level_q(3), SignatureClass(()), 909091)
        assert asked == []

    def test_one_series_over_cap_keeps_its_message(self):
        with pytest.raises(ValidationError, match="10000001 series terms exceed the cap"):
            euler_char_adelic_numeric(SPLIT, 2, level_q(3), SignatureClass(()), 10**7 + 1)

    @pytest.mark.parametrize(
        "algebra, n, signatures",
        [
            (SPLIT, 18, ()),  # the exact local factor is too large for a float
            (HAM5, 30, ((30, 0), (28, 2))),  # so is |d_F|^(d/2)
            (HAM5, 12, ((12, 0), (12, 0))),  # the float product is infinite
        ],
    )
    def test_overflow_rejected(self, algebra, n, signatures):
        level = ideal_from_integer(algebra.field, 3)
        with pytest.raises(ValidationError, match=f"overflows at n = {n}"):
            euler_char_adelic_numeric(
                algebra, n, level, SignatureClass(signatures), 10**4
            )
