import builtins
import json
import math
import random
import re
import sys
import threading
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlef import numberfield, verify
from quatlef.errors import ExternalFieldError, ValidationError
from quatlef.exact import bernoulli, bernoulli_poly_eval, riemann_zeta_neg
from quatlef.numberfield import (
    Ideal,
    QuadraticCharacter,
    TotallyRealField,
    dedekind_zeta_neg,
    factorize,
    gen_bernoulli,
    ideal_from_integer,
    is_fundamental_discriminant,
    is_prime,
    kronecker_symbol,
    split_prime,
    zeta_f_positive_even_numeric,
    zeta_truncation_bound,
)
from quatlef.quaternion import hilbert_ramification_q

Q = TotallyRealField.rationals()
Q5 = TotallyRealField.real_quadratic(5)
Q2 = TotallyRealField.real_quadratic(2)
Q13 = TotallyRealField.real_quadratic(13)

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL_PRIMES = [p for p in range(2, 120) if is_prime(p)]


def test_kronecker_examples(verified):
    verified("kronecker", "(5/2)", "(5/4)", "(5/10)")


def test_kronecker_rejects_non_fundamental():
    with pytest.raises(ValidationError, match="6 is not a fundamental discriminant"):
        QuadraticCharacter(6)(5)
    with pytest.raises(ValidationError, match="9 is not a fundamental discriminant"):
        QuadraticCharacter(9)(2)


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(12)
    assert is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(6)
    assert not is_fundamental_discriminant(4)


@given(
    st.sampled_from([5, 8, 12, 13, 17, 21]),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_kronecker_multiplicative_and_periodic(disc, m, k):
    assert kronecker_symbol(disc, m * k) == kronecker_symbol(
        disc, m
    ) * kronecker_symbol(disc, k)
    assert kronecker_symbol(disc, m) == kronecker_symbol(disc, m + abs(disc))


# every fundamental discriminant of conductor <= 60, both signs and the trivial 1
SMALL_CHARACTERS = [
    QuadraticCharacter(d) for d in range(-60, 61) if is_fundamental_discriminant(d)
]


def _definitional_gen_bernoulli(k, chi):
    """f^(k-1) * sum_{a=1}^{f} chi(a) B_k(a/f), the definition of B_{k,chi}."""
    f = chi.conductor
    total = Fraction(0)
    for a in range(1, f + 1):
        value = chi(a)
        if value:
            total += value * bernoulli_poly_eval(k, Fraction(a, f))
    return f ** (k - 1) * total


def test_gen_bernoulli_matches_definition():
    assert len(SMALL_CHARACTERS) == 40
    for chi in SMALL_CHARACTERS:
        for k in range(1, 11):
            assert gen_bernoulli(k, chi) == _definitional_gen_bernoulli(k, chi), (chi, k)


def _per_residue_gen_bernoulli(k, chi):
    """B_{k,chi} from power sums rebuilt by one pass over the residues per call."""
    f = chi.conductor
    sums = [0] * (k + 1)
    for a in range(1, f + 1):
        power = chi(a)
        if power:
            for m in range(k + 1):
                sums[m] += power
                power *= a
    return sum(
        math.comb(k, i) * bernoulli(i) * Fraction(f) ** (i - 1) * sums[k - i]
        for i in range(k + 1)
    )


# every fundamental discriminant of conductor <= 200, both signs and the trivial 1
CHARACTERS_200 = [
    QuadraticCharacter(d) for d in range(-200, 201) if is_fundamental_discriminant(d)
]
# the uncached body, so that every call reads _power_sums
_table_gen_bernoulli = gen_bernoulli.__wrapped__


def test_power_sum_table_matches_per_residue_sums():
    assert len(CHARACTERS_200) == 123
    for chi in CHARACTERS_200:
        for k in range(1, 17):
            assert _table_gen_bernoulli(k, chi) == _per_residue_gen_bernoulli(k, chi), (chi, k)


def test_power_sum_table_in_non_monotone_order():
    # interleaved characters, 8 and -8 sharing a conductor: sums built
    # for one must never answer another
    chis = [QuadraticCharacter(d) for d in (5, -4, 8, -8, 5, 12, -3, 8)]
    for k in (16, 2, 9, 1, 12):
        for chi in chis:
            assert _table_gen_bernoulli(k, chi) == _per_residue_gen_bernoulli(k, chi), (chi, k)


def test_character_table_matches_kronecker_symbol():
    # every fundamental discriminant with |D| <= 1000, both signs and D = 1
    discriminants = [d for d in range(-1000, 1001) if is_fundamental_discriminant(d)]
    assert len(discriminants) == 608 and 1 in discriminants
    for d in discriminants:
        expected = [kronecker_symbol(d, a) for a in range(abs(d))]
        assert numberfield._character_table(d) == expected, d


@pytest.mark.parametrize("d", [999997, 999996])
def test_character_table_at_the_conductor_cap(d):
    # 999997 = 757 * 1321; 999996 = (-4)(-3)(-167)(-499)
    table = numberfield._character_table(d)
    assert len(table) == d
    for a in [*range(0, d, 997), *range(d - 50, d)]:
        assert table[a] == kronecker_symbol(d, a), a


def test_power_sums_evaluate_no_kronecker_symbol(monkeypatch):
    calls = []

    def counting_kronecker_symbol(a, n):
        calls.append((a, n))
        return kronecker_symbol(a, n)

    monkeypatch.setattr(numberfield, "kronecker_symbol", counting_kronecker_symbol)
    monkeypatch.setattr(numberfield, "_power_sum_state", None)
    chi = QuadraticCharacter(4993)
    assert numberfield._power_sums(chi, 16)[0] == 0
    values = {k: _table_gen_bernoulli(k, chi) for k in (1, 2, 16)}
    assert calls == []
    for k, value in values.items():
        assert value == _per_residue_gen_bernoulli(k, chi), k


def test_power_sum_table_holds_one_character():
    chis = CHARACTERS_200[-50:]
    for chi in chis:
        assert _table_gen_bernoulli(6, chi) == _per_residue_gen_bernoulli(6, chi), chi
    state = numberfield._power_sum_state
    assert state[:2] == (chis[-1], 0)
    assert sum(isinstance(item, QuadraticCharacter) for item in state) == 1
    # the sums only: no residue or power list is kept
    assert all(type(total) is int for total in state[2])


def test_power_sums_across_block_seams(monkeypatch):
    # blocks of 7 residues put a seam inside every period above 7
    monkeypatch.setattr(numberfield, "_BLOCK", 7)
    monkeypatch.setattr(numberfield, "_power_sum_state", None)
    for chi in CHARACTERS_200:
        for k in range(1, 17):
            assert _table_gen_bernoulli(k, chi) == _per_residue_gen_bernoulli(k, chi), (chi, k)


def _full_period_power_sums(chi, top):
    """T_m = sum_{a=1}^{f} chi(a) (2a - f)^m for m = 0..top, as plain integer sums."""
    f = chi.conductor
    values = [chi(a) for a in range(1, f + 1)]
    return [
        sum(v * (2 * a - f) ** m for a, v in enumerate(values, 1) if v) for m in range(top + 1)
    ]


def _refuse_character_table(discriminant):
    raise AssertionError(f"_character_table({discriminant}) was read")


@pytest.mark.parametrize("block", [numberfield._BLOCK, 7])
def test_power_sums_equal_full_period_sums(monkeypatch, block):
    # blocks of 7 put seams inside the half period of every conductor above 15
    monkeypatch.setattr(numberfield, "_BLOCK", block)
    for chi in CHARACTERS_200:
        full = _full_period_power_sums(chi, 16)
        for k in range(1, 17):
            monkeypatch.setattr(numberfield, "_power_sum_state", None)
            got = numberfield._power_sums(chi, k)
            assert got[: k // 2 + 1] == tuple(full[k % 2 : k + 1 : 2]), (chi, k)


def test_power_sums_paired_parity_double_the_half_period():
    # chi(-1) = (-1)^m: the terms at a and f - a are equal, and a = f/2, f add 0
    for d, k in [(5, 16), (8, 12), (12, 10), (4993, 6), (-3, 15), (-4, 9), (-8, 11), (-20, 7)]:
        chi = QuadraticCharacter(d)
        f = chi.conductor
        half = [
            2 * sum(chi(a) * (2 * a - f) ** m for a in range(1, (f + 1) // 2))
            for m in range(k % 2, k + 1, 2)
        ]
        assert numberfield._power_sums(chi, k)[: k // 2 + 1] == tuple(half), (d, k)
        assert any(half), (d, k)


def test_power_sums_mismatched_parity_vanish_unread(monkeypatch):
    # chi(-1) != (-1)^m: the terms at a and f - a cancel, so no table is read
    monkeypatch.setattr(numberfield, "_character_table", _refuse_character_table)
    for d, k in [(5, 15), (8, 1), (4993, 7), (-3, 16), (-4, 2), (-8, 8)]:
        chi = QuadraticCharacter(d)
        monkeypatch.setattr(numberfield, "_power_sum_state", None)
        assert numberfield._power_sums(chi, k) == (0,) * (k // 2 + 1), (d, k)
        assert _table_gen_bernoulli(k, chi) == 0, (d, k)


def test_power_sums_conductor_one(monkeypatch):
    # f = 1: the one residue a = f = 1 is unpaired, and (2 - 1)^m = 1, so
    # B_{k,chi} = B_k(1) = (-1)^k B_k
    monkeypatch.setattr(numberfield, "_character_table", _refuse_character_table)
    chi = QuadraticCharacter(1)
    for k in range(1, 17):
        monkeypatch.setattr(numberfield, "_power_sum_state", None)
        assert numberfield._power_sums(chi, k) == (1,) * (k // 2 + 1), k
        assert _table_gen_bernoulli(k, chi) == bernoulli(k) * (-1) ** k, k


def test_gen_bernoulli_matches_sympy_polynomials():
    """B_{k,chi} with both the Bernoulli polynomials and the character values
    taken from sympy, over the small characters and conductors with three
    odd primes."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    characters = [*SMALL_CHARACTERS, *map(QuadraticCharacter, (105, 165, -195, -231, -420))]
    values = {
        chi: [int(sympy.kronecker_symbol(chi.fundamental_discriminant, a))
              for a in range(1, chi.conductor + 1)]
        for chi in characters
    }
    # k >= 2 only: sympy's B_1 is +1/2, but its B_k(x) for k >= 2 is the usual one
    for k in range(2, 11):
        # B_k(x) = (1/den) * sum_j num[j] x^j with integer num[j]
        poly = sympy.Poly(sympy.bernoulli(k, x), x)
        den = int(sympy.ilcm(*[c.q for c in poly.all_coeffs()]))
        num = [int(c * den) for c in reversed(poly.all_coeffs())]
        for chi in characters:
            f = chi.conductor
            # f^k * B_k(a/f) * den = sum_j num[j] a^j f^(k-j), an integer
            total = sum(
                value * sum(c * a**j * f ** (k - j) for j, c in enumerate(num))
                for a, value in enumerate(values[chi], start=1)
            )
            assert gen_bernoulli(k, chi) == Fraction(total, den * f), (chi, k)


@pytest.mark.parametrize(
    "name, discriminants, count",
    [("q5.json", (5,), 2), ("q_sqrt2_sqrt5.json", (8, 5, 40), 8)],
    ids=["q5", "q_sqrt2_sqrt5"],
)
def test_golden_descriptor_zeta_table_is_native_arithmetic(name, discriminants, count):
    """zeta_F(1-2j) = zeta(1-2j) prod_D L(1-2j, chi_D), with L(1-k, chi) =
    -B_{k,chi}/k, over the quadratic characters of the biquadratic field or
    the one of Q(sqrt(5))."""
    table = json.loads((GOLDEN / name).read_text(encoding="utf-8"))["zeta_neg"]
    assert len(table) == count
    for j, text in enumerate(table, start=1):
        expected = riemann_zeta_neg(j)
        for D in discriminants:
            expected *= -gen_bernoulli(2 * j, QuadraticCharacter(D)) / (2 * j)
        assert Fraction(text) == expected, j


def test_q5_descriptor_splitting_is_native_arithmetic():
    table = json.loads((GOLDEN / "q5.json").read_text(encoding="utf-8"))["splitting"]
    for p, pairs in table.items():
        native = sorted((prime.f, prime.e) for prime in split_prime(Q5, int(p)))
        assert sorted(map(tuple, pairs)) == native, p


class TestSplitting:
    def test_rationals(self):
        (prime,) = split_prime(Q, 7)
        assert (prime.p, prime.f, prime.e, prime.norm) == (7, 1, 1, 7)

    def test_split_prime_11(self):
        primes = split_prime(Q5, 11)
        assert len(primes) == 2
        assert all(p.norm == 11 for p in primes)
        assert {p.label for p in primes} == {"a", "b"}

    def test_inert_prime_2(self):
        (prime,) = split_prime(Q5, 2)
        assert (prime.f, prime.e, prime.norm) == (2, 1, 4)

    def test_ramified_prime_5(self):
        (prime,) = split_prime(Q5, 5)
        assert (prime.f, prime.e, prime.norm) == (1, 2, 5)

    def test_non_prime_rejected(self):
        with pytest.raises(ValidationError):
            split_prime(Q5, 6)

    def test_primes_built_once_per_field_and_prime(self):
        primes = split_prime(TotallyRealField.real_quadratic(5), 11)
        assert isinstance(primes, tuple)
        assert split_prime(TotallyRealField.real_quadratic(5), 11) is primes
        assert ideal_from_integer(Q5, 11).factors == tuple((prime, 1) for prime in primes)

    @pytest.mark.parametrize(
        "field, p, error",
        [
            (Q5, 6, ValidationError),
            (TotallyRealField.from_descriptor(
                {"degree": 1, "abs_discriminant": 1, "num_real_places": 1,
                 "splitting": {"2": [[1, 1]]}}
            ), 7, ExternalFieldError),
        ],
    )
    def test_refused_prime_is_never_kept(self, field, p, error):
        kept = split_prime.cache_info().currsize
        for _ in range(2):
            with pytest.raises(error):
                split_prime(field, p)
        assert split_prime.cache_info().currsize == kept

    @given(st.sampled_from(SMALL_PRIMES), st.sampled_from([2, 3, 5, 7, 13]))
    def test_quadratic_ef_sums_to_two(self, p, d):
        field = TotallyRealField.real_quadratic(d)
        assert sum(q.e * q.f for q in split_prime(field, p)) == 2


class TestIdeals:
    def test_norms(self):
        assert Ideal(Q).norm() == 1
        assert ideal_from_integer(Q, 12).norm() == 12
        assert ideal_from_integer(Q5, 5).norm() == 25
        assert ideal_from_integer(Q5, 3).norm() == 9

    def test_ideal_from_integer_structure(self):
        ideal = ideal_from_integer(Q, 12)
        exps = {prime.p: exp for prime, exp in ideal.factors}
        assert exps == {2: 2, 3: 1}
        ram = ideal_from_integer(Q5, 5)
        ((prime, exp),) = ram.factors
        assert exp == 2 and prime.e == 2

    def test_small_integer_rejected(self):
        with pytest.raises(ValidationError):
            ideal_from_integer(Q, 1)

    def test_factors_merge_and_sort(self):
        p2 = split_prime(Q, 2)[0]
        ideal = Ideal(Q, ((p2, 1), (p2, 2)))
        assert ideal.factors == ((p2, 3),)

    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=2, max_value=400))
    def test_norm_multiplicative(self, a, b):
        assert (
            ideal_from_integer(Q5, a * b).norm()
            == ideal_from_integer(Q5, a).norm() * ideal_from_integer(Q5, b).norm()
        )


class TestDedekindZeta:
    def test_rationals(self):
        assert dedekind_zeta_neg(Q, 1) == Fraction(-1, 12)

    def test_quadratic_5(self, verified):
        verified("zeta", "zeta_Q(sqrt(5))(-1)", "zeta_Q(sqrt(5))(-3)")

    def test_quadratic_2(self, verified):
        verified("zeta", "zeta_Q(sqrt(2))(-1)")

    def test_sign_law(self, verified):
        verified(
            "zeta",
            *(
                f"sign zeta_{label}(1-2*{j})"
                for label in ("Q", "Q(sqrt(5))", "Q(sqrt(2))")
                for j in range(1, 9)
            ),
        )

    def test_siegel_zagier_divisor_sums(self):
        # Siegel (Goettingen Nachr. 1969), Zagier (Enseign. Math. 22, 1976):
        # for a real quadratic field of discriminant D, zeta(-1) = (1/60)
        # sum_b sigma_1((D - b^2)/4) and zeta(-3) = (1/120) sum_b
        # sigma_3((D - b^2)/4), over b = D mod 2 with b^2 < D. Divisor sums
        # only: no character table and no Bernoulli number.
        bound = 2000
        sigma1, sigma3 = [0] * (bound + 1), [0] * (bound + 1)
        for d in range(1, bound + 1):
            for n in range(d, bound + 1, d):
                sigma1[n] += d
                sigma3[n] += d**3
        checks = 0
        for d in range(2, 2001):
            if any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1)):
                continue
            D = d if d % 4 == 1 else 4 * d
            root = math.isqrt(D - 1)  # the largest b with b^2 < D
            args = [(D - b * b) // 4 for b in range(-root, root + 1) if (D - b) % 2 == 0]
            field = TotallyRealField.real_quadratic(d)
            assert field.abs_discriminant == D
            # j = 2 first, so that one pass of power sums serves both
            assert dedekind_zeta_neg(field, 2) == Fraction(sum(sigma3[n] for n in args), 120), d
            assert dedekind_zeta_neg(field, 1) == Fraction(sum(sigma1[n] for n in args), 60), d
            checks += 2
        assert checks == 2428


class TestNumericZeta:
    def test_riemann_pi_squared_over_six(self):
        got = zeta_f_positive_even_numeric(Q, 1, 10**6)
        assert abs(got - math.pi**2 / 6) < 1e-6

    def test_riemann_zeta_4(self):
        got = zeta_f_positive_even_numeric(Q, 2, 10**4)
        assert got == pytest.approx(1.0823232337, abs=1e-9)

    def test_truncation_bound_honest(self):
        # over Q the bound exceeds the tail by O(N^-2j) only: at j = 2 that is
        # below float rounding, so Q is checked at j = 1
        cases = [(Q, 1)] + [(field, j) for field in (Q2, Q5, Q13) for j in (1, 2)]
        for field, j in cases:
            # zeta_F(2j) from zeta_F(1-2j) by the functional equation
            exact = (
                (-1) ** (j * field.degree)
                * float(dedekind_zeta_neg(field, j))
                * ((2 * math.pi) ** (2 * j) / (2 * math.factorial(2 * j - 1)))
                ** field.degree
                * float(field.abs_discriminant) ** (-(4 * j - 1) / 2)
            )
            for terms in (10**2, 10**3, 10**4):
                got = zeta_f_positive_even_numeric(field, j, terms)
                bound = zeta_truncation_bound(field, j, terms)
                assert abs(got - exact) <= bound, (field, j, terms)

    def test_external_rejected(self):
        ext = TotallyRealField.from_descriptor({
            "degree": 2, "abs_discriminant": 5, "num_real_places": 2, "zeta_neg": ["1/30"],
            "splitting": {"2": [[2, 1]]},
        })
        with pytest.raises(ValidationError):
            zeta_f_positive_even_numeric(ext, 1, 10**4)

    def test_too_few_terms_rejected(self):
        with pytest.raises(ValidationError):
            zeta_f_positive_even_numeric(Q, 1, 50)

    def test_too_many_terms_rejected(self):
        with pytest.raises(ValidationError, match="10000001 series terms exceed"):
            zeta_f_positive_even_numeric(Q, 1, 10**7 + 1)


def _reference_series(discriminant, two_j, terms):
    """sum_{m<=t} m^(-two_j) and sum_{m<=t} chi_D(m) m^(-two_j) for each t
    in terms, one term added at a time in ascending m (D = 0: chi = 1)."""
    table = numberfield._character_table(discriminant) if discriminant else [1]
    period = len(table)
    riemann = twisted = 0.0
    sums = {}
    for m in range(1, max(terms) + 1):
        term = m ** (-two_j)
        riemann += term
        c = table[m % period]
        if c:
            twisted += c * term
        if m in terms:
            sums[m] = (riemann, twisted)
    return sums


class TestDirichletKernel:
    BLOCK = numberfield._SERIES_BLOCK
    # lengths that pass many block ends
    LONG = 2**15
    TERMS = sorted(
        {t + d for t in (100, BLOCK, 3 * BLOCK, LONG, 2 * LONG) for d in (-1, 0, 1)}
    )
    DISCRIMINANTS = (0, 5, 8, 12, 13, 24, 40)

    @pytest.fixture(autouse=True)
    def fresh_prefixes(self, monkeypatch):
        monkeypatch.setattr(numberfield, "_series_prefixes", {})
        numberfield._float_characters.cache_clear()

    @staticmethod
    def _counted(monkeypatch, name, original):
        """Record the first argument of every call of numberfield.<name>."""
        taken = []

        def counting(first, *rest):
            taken.append(first)
            return original(first, *rest)

        monkeypatch.setattr(numberfield, name, counting, raising=False)
        return taken

    def _settle_end(self, discriminant, two_j):
        """The block end at which the settle rule stops the series of
        (discriminant, two_j): the first i * BLOCK whose per-term sum S has
        S +- 2 (i * BLOCK + 1)^(-two_j) == S; None if none below 2^17."""
        ends = range(self.BLOCK, 2**17, self.BLOCK)
        sums = _reference_series(discriminant, two_j, set(ends))
        for end in ends:
            total, bound = sums[end][1], 2.0 * (end + 1) ** -two_j
            if total + bound == total and total - bound == total:
                return end
        return None

    def test_bitwise_equal_to_per_term_sums(self):
        # growing, shrinking and growing again runs a fresh start, a resume
        # from the last kept prefix, from an earlier one, and from an exact
        # one; random batches mix series at different resume points
        rng = random.Random(34)
        calls = self.TERMS + self.TERMS[::-1] + self.TERMS
        for j in (1, 2, 3):
            want = {
                d: _reference_series(d, 2 * j, set(self.TERMS)) for d in self.DISCRIMINANTS
            }
            for terms in calls:
                shape = rng.randrange(3)
                if shape == 0:
                    batch = (0,)
                elif shape == 1:
                    batch = (0, rng.choice(self.DISCRIMINANTS[1:]))
                else:
                    batch = tuple(rng.sample(self.DISCRIMINANTS, rng.randint(1, 4)))
                got = numberfield._dirichlet_series(batch, 2 * j, terms)
                assert got == tuple(want[d][terms][1] for d in batch), (batch, j, terms)
                assert len(numberfield._series_prefixes) <= numberfield._SERIES_KEYS

    def test_resumed_series_builds_no_character_table(self, monkeypatch):
        built = self._counted(monkeypatch, "_character_table", numberfield._character_table)
        terms = self.LONG + 7
        first = numberfield._dirichlet_series((0, 40), 2, terms)
        assert built == [40]
        # a resumed sum, another j and a longer sum all reuse the table
        assert numberfield._dirichlet_series((0, 40), 2, terms + 7) != first
        numberfield._dirichlet_series((0, 40), 4, terms)
        numberfield._dirichlet_series((0, 40), 2, 2 * self.LONG + 1)
        assert built == [40]
        # a series summed to a kept block end needs no table
        numberfield._dirichlet_series((0, 5, 40), 2, self.LONG)
        assert built == [40, 5]
        # the one kept table is the last one a series with terms left read
        numberfield._dirichlet_series((0, 13), 2, terms)
        numberfield._dirichlet_series((0, 40), 2, 3 * self.LONG)
        assert built == [40, 5, 13, 40]
        kept = numberfield._float_characters.cache_info()
        assert kept.currsize == 1
        numberfield._float_characters(40)
        assert numberfield._float_characters.cache_info().hits == kept.hits + 1
        want = _reference_series(40, 2, {3 * self.LONG})[3 * self.LONG]
        assert numberfield._dirichlet_series((0, 40), 2, 3 * self.LONG) == want

    def test_rationals_call_keeps_the_character_tables(self, monkeypatch):
        built = self._counted(monkeypatch, "_character_table", numberfield._character_table)
        numberfield._dirichlet_series((0, 13, 40), 2, self.LONG)
        numberfield._dirichlet_series((0,), 4, 2 * self.LONG)
        numberfield._dirichlet_series((40,), 2, 2 * self.LONG)
        assert built == [13, 40]

    def test_resumed_series_sums_less_than_one_block(self, monkeypatch):
        terms = 10**5
        numberfield._dirichlet_series((0, 13), 2, terms)
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        got = numberfield._dirichlet_series((0, 13), 2, terms - 7)
        assert len(taken) < self.BLOCK
        assert taken == list(range((terms - 7) // self.BLOCK * self.BLOCK + 1, terms - 6))
        assert got == _reference_series(13, 2, {terms - 7})[terms - 7]

    def test_one_pass_serves_series_at_different_resume_points(self, monkeypatch):
        numberfield._dirichlet_series((0,), 2, self.LONG)
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        got = numberfield._dirichlet_series((0, 5, 13), 2, 2 * self.LONG)
        assert taken == list(range(1, 2 * self.LONG + 1))
        want = {d: _reference_series(d, 2, {2 * self.LONG}) for d in (5, 13)}
        assert got == (want[5][2 * self.LONG][0], want[5][2 * self.LONG][1],
                       want[13][2 * self.LONG][1])

    def test_prefixes_are_one_float_array(self):
        # a key keeps one sum per block end up to the block where it settles
        settled = {0: self._settle_end(0, 4), 8: self._settle_end(8, 4)}
        assert settled == {0: 12 * self.BLOCK, 8: 14 * self.BLOCK}
        for terms in (self.BLOCK - 1, self.BLOCK, 10**5):
            numberfield._dirichlet_series((0, 8), 4, terms)
            want = _reference_series(8, 4, set(range(self.BLOCK, terms + 1, self.BLOCK)) | {terms})
            for d, half in ((0, 0), (8, 1)):
                prefixes = numberfield._series_prefixes[(d, 4)]
                assert type(prefixes) is array and prefixes.typecode == "d"
                ends = range(self.BLOCK, min(terms, settled[d]) + 1, self.BLOCK)
                assert len(prefixes) == len(ends) + 1
                # one sum per block end: (8, 4) keeps no Riemann half
                assert list(prefixes) == [0.0] + [want[m][half] for m in ends]
        assert sorted(numberfield._series_prefixes) == [(0, 4), (8, 4)]

    @pytest.mark.parametrize("two_j", [4, 6])
    def test_settled_sums_equal_per_term_sums(self, monkeypatch, two_j):
        # about ten times the settle points: every later term is a no-op
        terms = 15 * 10**4
        want = tuple(_reference_series(d, two_j, {terms})[terms][1] for d in self.DISCRIMINANTS)
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        assert numberfield._dirichlet_series(self.DISCRIMINANTS, two_j, terms) == want
        settled = max(self._settle_end(d, two_j) for d in self.DISCRIMINANTS)
        assert settled == {4: 14 * self.BLOCK, 6: self.BLOCK}[two_j]
        assert len(taken) == settled
        # a settled key sums nothing more
        taken.clear()
        assert numberfield._dirichlet_series(self.DISCRIMINANTS, two_j, 2 * terms) == want
        assert taken == []

    def test_settled_series_leaves_a_later_resume_to_the_pass(self, monkeypatch):
        # (0, 4) settles at 12 blocks; (5, 4), kept at 13 blocks, settles at 14
        numberfield._dirichlet_series((5,), 4, 13 * self.BLOCK)
        numberfield._dirichlet_series((0,), 4, 20000)
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        got = numberfield._dirichlet_series((0, 5), 4, 20000)
        assert taken == list(range(13 * self.BLOCK + 1, 14 * self.BLOCK + 1))
        assert got == _reference_series(5, 4, {20000})[20000]

    def test_two_j_2_never_settles_below_the_cap(self, monkeypatch):
        # from a kept sum of zeta(2), above every partial sum at 2j = 2 and so
        # the likeliest to settle, the last block below the cap is still summed
        cap = numberfield._MAX_SERIES_TERMS
        kept = cap // self.BLOCK
        for d in (0, 40):
            numberfield._series_prefixes[(d, 2)] = array("d", [0.0] + [math.pi**2 / 6] * kept)
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        got = numberfield._dirichlet_series((0, 40), 2, cap)
        assert taken == list(range(kept * self.BLOCK + 1, cap + 1))
        assert got[0] > math.pi**2 / 6

    def test_kept_keys_capped(self):
        terms = self.LONG + 1
        keys = numberfield._SERIES_KEYS // 2 + 3
        for two_j in range(2, 2 * keys + 1, 2):
            numberfield._dirichlet_series((0, 5), two_j, terms)
            assert len(numberfield._series_prefixes) <= numberfield._SERIES_KEYS
        # the least recently used keys went first, and an evicted key sums anew
        assert (0, 2) not in numberfield._series_prefixes
        assert (5, 2) not in numberfield._series_prefixes
        assert {(0, 2 * keys), (5, 2 * keys)} <= numberfield._series_prefixes.keys()
        want = _reference_series(5, 2, {terms})[terms]
        assert numberfield._dirichlet_series((0, 5), 2, terms) == want

    def test_threads_sharing_a_key_keep_whole_prefixes(self, monkeypatch):
        # small blocks give many prefix appends, and threads that start
        # together sum the same fresh keys side by side, switching often
        monkeypatch.setattr(numberfield, "_SERIES_BLOCK", 2)
        terms = 20001
        want = _reference_series(5, 2, set(range(2, terms + 1, 2)) | {terms})
        start = threading.Barrier(4)
        got = []

        def call():
            start.wait()
            got.append(numberfield._dirichlet_series((0, 5), 2, terms))

        threads = [threading.Thread(target=call) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[terms]] * 4
        for d, half in ((0, 0), (5, 1)):
            prefixes = numberfield._series_prefixes[(d, 2)]
            assert prefixes == array("d", [0.0] + [want[m][half] for m in range(2, terms, 2)])

    def test_functional_equation_sums_each_exponent_once(self, monkeypatch):
        """functional-equation sums 10^6 terms of m^(-2) once for its three
        fields, and m^(-4) until the last of their series settles; each of its
        three j = 1 checks then resumes fewer than _SERIES_BLOCK terms past
        the last kept block end, and each j = 2 check finds its sums settled."""
        taken = self._counted(monkeypatch, "pow", builtins.pow)
        verify.suite_functional_equation()
        terms = verify.DEFAULT_TERMS
        settled = max(self._settle_end(d, 4) for d in (0, 5, 8))
        assert settled == 14 * self.BLOCK
        assert len(taken) == terms + 3 * (terms % self.BLOCK) + settled
        # a new field resumes the kept Riemann sum in the same pass as its own
        taken.clear()
        zeta_f_positive_even_numeric(Q13, 1, 5 * 10**5)
        assert len(taken) == 5 * 10**5

    def test_functional_equation_floats_equal_single_field_calls(self, monkeypatch):
        got = []

        def recording(field, j, terms):
            got.append(((field, j, terms), zeta_f_positive_even_numeric(field, j, terms)))
            return got[-1][1]

        monkeypatch.setattr(verify, "zeta_f_positive_even_numeric", recording)
        checks = verify.suite_functional_equation()
        assert len(got) == len(checks) == 6 and all(ok for _name, ok, _detail in checks)
        for args, value in got:
            numberfield._series_prefixes.clear()
            numberfield._float_characters.cache_clear()
            assert zeta_f_positive_even_numeric(*args).hex() == value.hex(), args


class TestExternalField:
    DESCRIPTOR = {
        "degree": 2,
        "abs_discriminant": 5,
        "num_real_places": 2,
        "zeta_neg": ["1/30", "1/60"],
        "splitting": {"2": [[2, 1]], "5": [[1, 2]], "11": [[1, 1], [1, 1]]},
    }

    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(self.DESCRIPTOR), encoding="utf-8")
        ext = TotallyRealField.from_json_file(path)
        assert dedekind_zeta_neg(ext, 1) == Fraction(1, 30)
        assert dedekind_zeta_neg(ext, 2) == Fraction(1, 60)
        assert [p.norm for p in split_prime(ext, 11)] == [11, 11]
        assert split_prime(ext, 2)[0].norm == 4

    def test_matches_native_splitting(self):
        ext = TotallyRealField.from_descriptor(self.DESCRIPTOR)
        for p in (2, 5, 11):
            assert [
                (q.f, q.e) for q in split_prime(ext, p)
            ] == [(q.f, q.e) for q in split_prime(Q5, p)]

    def test_missing_prime_raises(self):
        ext = TotallyRealField.from_descriptor(self.DESCRIPTOR)
        with pytest.raises(ExternalFieldError):
            split_prime(ext, 7)

    def test_missing_zeta_entry_raises(self):
        ext = TotallyRealField.from_descriptor(self.DESCRIPTOR)
        with pytest.raises(ExternalFieldError):
            dedekind_zeta_neg(ext, 3)

    def test_unknown_key_rejected(self):
        bad = dict(self.DESCRIPTOR, surprise=1)
        with pytest.raises(ValidationError):
            TotallyRealField.from_descriptor(bad)

    @pytest.mark.parametrize(
        "change",
        [
            # otherwise a consistent degree-1 descriptor
            {"degree": True, "abs_discriminant": 1, "num_real_places": 1,
             "zeta_neg": ["-1/12"], "splitting": {"2": [[1, 1]]}},
            {"abs_discriminant": True},
            {"num_real_places": False},
            {"splitting": {"2": [[2, True]], "5": [[1, 2]], "11": [[1, 1], [1, 1]]}},
            {"splitting": {"2": [[2, 1]], "5": [[True, 2]], "11": [[1, 1], [1, 1]]}},
        ],
    )
    def test_boolean_integers_rejected(self, change):
        # JSON true is the integer 1 to Python; it must not pass as a degree
        with pytest.raises(ValidationError):
            TotallyRealField.from_descriptor(dict(self.DESCRIPTOR, **change))

    def test_integer_text_read_by_own_reader(self):
        # text entries are integers too, and a non-integer gets the package's words
        as_text = dict(self.DESCRIPTOR, degree="2", splitting={"2": [["2", "1"]]})
        assert TotallyRealField.from_descriptor(as_text).splitting_table == ((2, ((2, 1),)),)
        with pytest.raises(ValidationError, match="^not an integer: 'x'$"):
            TotallyRealField.from_descriptor(dict(self.DESCRIPTOR, degree="x"))

    def test_bad_ef_sum_rejected(self):
        bad = dict(self.DESCRIPTOR, splitting={"3": [[1, 1]]})
        with pytest.raises(ValidationError):
            TotallyRealField.from_descriptor(bad)
        bad = dict(self.DESCRIPTOR, splitting={"5": [1, 2]})
        with pytest.raises(ValidationError, match="list of \\[f, e\\] pairs"):
            TotallyRealField.from_descriptor(bad)

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            # every entry is converted before any value is checked
            ({"degree": 0, "abs_discriminant": 5, "num_real_places": 0,
              "splitting": {"2": [[1, "x"]]}}, "not an integer: 'x'"),
            ({"degree": 2, "abs_discriminant": 0, "num_real_places": 2},
             "absolute discriminant must be >= 1"),
            # zeta entries are converted before the splitting's shape is checked
            ({"degree": 2, "abs_discriminant": 5, "num_real_places": 2,
              "zeta_neg": ["x"], "splitting": {"2": [1, 2]}}, "not a rational: 'x'"),
            ({"degree": 0, "abs_discriminant": 0, "num_real_places": 0,
              "zeta_neg": ["1/30"], "splitting": {"4": [[1, 1]]}}, "degree must be >= 1"),
            ({"degree": 2, "abs_discriminant": 5, "num_real_places": 2,
              "zeta_neg": ["-1/30"], "splitting": {"4": [[1, 1]]}},
             "zeta value for j=1 must be nonzero of sign (-1)^(j*degree); got -1/30"),
            ({"degree": 2, "abs_discriminant": 5, "num_real_places": 2,
              "splitting": {"5": [[1, 1]], "4": [[2, 1]]}},
             "splitting table key 4 is not prime"),
            # "2" and "02" are one prime, and the pairs given last are kept
            ({"degree": 2, "abs_discriminant": 5, "num_real_places": 2,
              "splitting": {"2": [[2, 1]], "02": [[1, 1]]}},
             "splitting above 2 violates sum(e*f) = degree"),
        ],
    )
    def test_checks_keep_their_order(self, descriptor, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            TotallyRealField.from_descriptor(descriptor)

    def test_bad_zeta_sign_rejected(self):
        bad = dict(self.DESCRIPTOR, zeta_neg=["-1/30"])
        with pytest.raises(ValidationError):
            TotallyRealField.from_descriptor(bad)

    def test_complex_places_allowed_without_sign_check(self):
        field = TotallyRealField.from_descriptor({
            "degree": 4, "abs_discriminant": 725, "num_real_places": 2,
            "splitting": {"2": [[4, 1]]},
        })
        assert not field.is_totally_real

    # from_json_file keeps the fields of the last few descriptor texts

    @pytest.fixture
    def parses(self, monkeypatch):
        """The descriptors from_descriptor checks, starting from no kept text."""
        seen = []
        plain = TotallyRealField.from_descriptor.__func__

        def counting(cls, data):
            seen.append(data)
            return plain(cls, data)

        monkeypatch.setattr(TotallyRealField, "from_descriptor", classmethod(counting))
        numberfield._field_from_text.cache_clear()
        yield seen
        numberfield._field_from_text.cache_clear()

    def test_equal_text_parsed_once(self, tmp_path, parses):
        # two paths holding the same bytes share one field
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second):
            path.write_text(json.dumps(self.DESCRIPTOR), encoding="utf-8")
        field = TotallyRealField.from_json_file(first)
        assert TotallyRealField.from_json_file(second) is field
        assert TotallyRealField.from_json_file(first) is field
        assert len(parses) == 1

    def test_rewritten_file_read_anew(self, tmp_path, parses):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(self.DESCRIPTOR), encoding="utf-8")
        assert TotallyRealField.from_json_file(path).zeta_neg_table[0] == Fraction(1, 30)
        path.write_text(json.dumps(dict(self.DESCRIPTOR, zeta_neg=["1/15"])), encoding="utf-8")
        assert TotallyRealField.from_json_file(path).zeta_neg_table == (Fraction(1, 15),)
        assert len(parses) == 2

    def test_refusal_never_kept(self, tmp_path, parses):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(self.DESCRIPTOR), encoding="utf-8")
        TotallyRealField.from_json_file(path)
        path.write_text(json.dumps(dict(self.DESCRIPTOR, zeta_neg=["-1/30"])), encoding="utf-8")
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as refused:
                TotallyRealField.from_json_file(path)
            messages.append(str(refused.value))
        assert messages == [messages[0]] * 2 and "zeta value for j=1" in messages[0]
        assert len(parses) == 3

    def test_lowered_digit_limit_refuses_a_kept_text(self, tmp_path, parses):
        path = tmp_path / "field.json"
        long_disc = dict(self.DESCRIPTOR, abs_discriminant=10**699)
        path.write_text(json.dumps(long_disc), encoding="utf-8")
        assert TotallyRealField.from_json_file(path).abs_discriminant == 10**699
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValidationError, match="more than 640 digits"):
                TotallyRealField.from_json_file(path)
        finally:
            sys.set_int_max_str_digits(default)
        assert TotallyRealField.from_json_file(path).abs_discriminant == 10**699

    def test_kept_texts_capped(self, tmp_path, parses):
        path = tmp_path / "field.json"
        kept = numberfield._DESCRIPTORS_KEPT
        for i in range(kept + 3):
            zeta = [f"1/{30 + i}"]
            path.write_text(json.dumps(dict(self.DESCRIPTOR, zeta_neg=zeta)), encoding="utf-8")
            assert TotallyRealField.from_json_file(path).zeta_neg_table == (Fraction(1, 30 + i),)
            assert numberfield._field_from_text.cache_info().currsize == min(i + 1, kept)
        # the first text was dropped, so it is checked again
        path.write_text(json.dumps(dict(self.DESCRIPTOR, zeta_neg=["1/30"])), encoding="utf-8")
        TotallyRealField.from_json_file(path)
        assert len(parses) == kept + 4


def test_real_quadratic_validation():
    with pytest.raises(ValidationError):
        TotallyRealField.real_quadratic(12)
    with pytest.raises(ValidationError):
        TotallyRealField.real_quadratic(-5)
    with pytest.raises(ValidationError):
        TotallyRealField.real_quadratic(1)
    assert Q5.abs_discriminant == 5
    assert Q2.abs_discriminant == 8
    assert TotallyRealField.real_quadratic(3).abs_discriminant == 12


def test_native_fields_are_one_object_each():
    """rationals() and real_quadratic(d) give one object per field, so that
    the caches keyed by field find it by identity; the last 64 d are kept,
    and a refused d is never kept, so it is refused on every call."""
    assert TotallyRealField.real_quadratic(5) is TotallyRealField.real_quadratic(5)
    assert TotallyRealField.rationals() is TotallyRealField.rationals()
    assert hilbert_ramification_q(-1, -1).field is TotallyRealField.rationals()
    assert TotallyRealField.real_quadratic.cache_info().maxsize == numberfield._FIELDS_KEPT == 64
    for _ in range(2):
        with pytest.raises(ValidationError, match="squarefree"):
            TotallyRealField.real_quadratic(4)


def test_character_of_real_quadratic_fields_only():
    assert Q2.character() == QuadraticCharacter(8)
    ext = TotallyRealField.from_descriptor(
        {"degree": 2, "abs_discriminant": 5, "num_real_places": 2}
    )
    for field in (Q, ext):
        with pytest.raises(ValidationError, match="only real quadratic fields have a character"):
            field.character()


def test_conductor_cap_boundary():
    # d = 1 mod 4 has conductor d, any other squarefree d has conductor 4d
    assert TotallyRealField.real_quadratic(999997).abs_discriminant == 999997
    assert TotallyRealField.real_quadratic(249999).abs_discriminant == 999996
    for d, conductor in ((1000001, 1000001), (250003, 1000012)):
        with pytest.raises(ValidationError, match=f"conductor {conductor} .* exceeds the cap"):
            TotallyRealField.real_quadratic(d)
    # checked before the squarefree test, which would trial-divide d
    with pytest.raises(ValidationError, match="exceeds the cap"):
        TotallyRealField.real_quadratic(10**18 + 3)


def test_zeta_index_cap_boundary():
    chi_5 = Q5.character()
    assert dedekind_zeta_neg(Q, 100) == -bernoulli(200) / 200
    assert gen_bernoulli(200, chi_5) == _per_residue_gen_bernoulli(200, chi_5)
    for field in (Q, Q5):
        with pytest.raises(ValidationError, match="j = 101 exceeds the cap of j <= 100"):
            dedekind_zeta_neg(field, 101)
    with pytest.raises(ValidationError, match="index 201 exceeds the cap of 200"):
        gen_bernoulli(201, chi_5)


def test_power_sum_cap_boundary(monkeypatch):
    # conductor * k = 3999999 = 173913 * 23 is accepted and
    # 4000001 = 97561 * 41 is refused before any table is built
    built = []

    def stub_power_sums(chi, k):
        built.append((chi.conductor, k))
        return (0,) * (k + 1)

    monkeypatch.setattr(numberfield, "_power_sums", stub_power_sums)
    gen_bernoulli.cache_clear()
    try:
        assert gen_bernoulli(23, QuadraticCharacter(173913)) == 0
        with pytest.raises(
            ValidationError,
            match="conductor 97561 times index 41 exceeds the cap of 4000000",
        ):
            gen_bernoulli(41, QuadraticCharacter(97561))
    finally:
        gen_bernoulli.cache_clear()
    assert built == [(173913, 23)]


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_matches_sieve():
    bound = 2 * 10**6
    flags = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound, p)))
    assert [n for n in range(bound) if is_prime(n) != flags[n]] == []


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, then the least strong pseudoprime to the first k
    # prime bases for each k at which it grows: each fools the first k
    # bases, so is_prime, which takes all 13, must reject it
    for n in (561, 1105, 41041, 2047, 1373653, 25326001, 3215031751,
              2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n


def test_is_prime_bound():
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    # the least strong pseudoprime to the first 13 prime bases is the bound
    with pytest.raises(ValidationError, match="not proven"):
        is_prime(3317044064679887385961981)


def test_is_prime_matches_sympy_on_large_values():
    sympy = pytest.importorskip("sympy")
    for base in (10**12, 10**18, 3 * 10**24):
        for n in range(base + 1, base + 400, 2):
            assert is_prime(n) == bool(sympy.isprime(n)), n


def test_factorize():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(1) == ()
    assert factorize(999999999999) == ((3, 3), (7, 1), (11, 1), (13, 1), (37, 1), (101, 1), (9901, 1))


def test_factorize_large_cofactors():
    # a prime or a prime power beyond the trial-division bound is accepted
    assert factorize(2 * (10**18 + 3)) == ((2, 1), (10**18 + 3, 1))
    assert factorize(3 * 1000003**2) == ((3, 1), (1000003, 2))
    assert factorize(1000003**3) == ((1000003, 3),)
    with pytest.raises(ValidationError, match="cannot factor 1000000016000000063"):
        factorize((10**9 + 7) * (10**9 + 9))


def test_factorize_refusal_is_not_kept():
    # each call factors the refused n again and refuses it in the same words
    messages = []
    for _ in range(2):
        misses = factorize.cache_info().misses
        with pytest.raises(ValidationError) as refused:
            factorize((10**9 + 7) * (10**9 + 9))
        assert factorize.cache_info().misses == misses + 1
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_factorize_returns_the_kept_tuple():
    first = factorize(360)
    hits = factorize.cache_info().hits
    assert factorize(360) is first
    assert factorize.cache_info().hits == hits + 1
    # a caller cannot change what the next caller is given
    assert type(first) is tuple and all(type(pair) is tuple for pair in first)
    with pytest.raises(TypeError):
        first[0] = (2, 9)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorisations_kept():
    assert factorize.cache_info().maxsize == numberfield._FACTORISATIONS_KEPT == 1024
