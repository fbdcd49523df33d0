from fractions import Fraction
from math import comb, pi

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlef.errors import ValidationError
from quatlef.exact import (
    SymbolicScalar,
    _int,
    _ratio_text,
    bernoulli,
    bernoulli_poly_eval,
    format_rational,
    parse_rational,
    riemann_zeta_neg,
)


class TestBernoulli:
    def test_odd_indices_vanish(self):
        for k in range(3, 100, 2):
            assert bernoulli(k) == 0

    def test_recurrence_holds_post_hoc(self):
        for m in range(1, 41):
            assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            bernoulli(-1)


class TestBernoulliPolynomial:
    def test_b2_at_zero(self):
        assert bernoulli_poly_eval(2, 0) == Fraction(1, 6)

    @given(st.integers(min_value=0, max_value=12))
    def test_value_at_zero_is_bernoulli_number(self, k):
        assert bernoulli_poly_eval(k, 0) == bernoulli(k)


class TestZetaNegative:
    def test_nonzero_with_alternating_sign(self):
        for j in range(1, 13):
            value = riemann_zeta_neg(j)
            assert value != 0
            assert (value > 0) == (j % 2 == 0)

    def test_index_zero_rejected(self):
        with pytest.raises(ValidationError):
            riemann_zeta_neg(0)


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)

scalars = st.builds(
    SymbolicScalar,
    coeff=small_rationals,
    pi_exp=st.integers(min_value=-4, max_value=4),
)


class TestSymbolicScalar:
    def test_zero_is_canonical(self):
        zero = SymbolicScalar(Fraction(0), 3)
        assert zero == SymbolicScalar(Fraction(0))
        assert zero.pi_exp == 0

    def test_to_float(self):
        assert SymbolicScalar(Fraction(2), 2).to_float() == pytest.approx(2 * pi**2)

    @given(scalars)
    def test_canonicalisation_is_idempotent(self, a):
        assert SymbolicScalar(a.coeff, a.pi_exp) == a


class TestRationalSerialisation:
    def test_round_trip(self):
        assert parse_rational("-2/75") == Fraction(-2, 75)
        assert parse_rational("7") == 7
        assert format_rational(Fraction(-20)) == "-20"
        assert format_rational(Fraction(1, 30)) == "1/30"
        assert format_rational(-20) == "-20"

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_rational("one half")

    def test_integer_text(self):
        assert _int(" -12 ") == -12
        with pytest.raises(ValidationError, match="^not an integer: '1/2'$"):
            _int("1/2")

    @given(small_rationals)
    def test_format_parse_inverse(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(small_rationals, small_rationals, st.integers(0, 8))
    def test_scaled_ratio_text_is_the_reduced_product(self, x, scale, shift):
        # the table's columns: a reduced ratio times a reduced scale over 2^shift
        text = _ratio_text(x.numerator, x.denominator, scale.numerator, scale.denominator, shift)
        assert text == format_rational(x * scale / 2**shift)

    def test_exponent_beyond_digit_limit_refused(self):
        # 1e4300 stands for a 4301-digit integer, which _int refuses typed out
        assert parse_rational("1e4299") == 10**4299
        assert parse_rational(" 1.5E-3 ") == Fraction(3, 2000)
        for text in ("1e4300", "1E-4300", "0e4300", "-2.5e+1_000_000"):
            with pytest.raises(ValidationError, match="more than 4300 digits.* reading"):
                parse_rational(text)

    def test_digit_limit_refused(self):
        # Python's default limit on integer text is 4300 digits
        assert format_rational(Fraction(1, 10**4299)) == "1/1" + "0" * 4299
        message = "more than 4300 digits.* a smaller --n or --level"
        for value in (Fraction(10**4300), Fraction(1, 10**4300)):
            with pytest.raises(ValidationError, match=message):
                format_rational(value)
