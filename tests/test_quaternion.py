import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatlef.errors import ValidationError
from quatlef.numberfield import TotallyRealField, split_prime
from quatlef.quaternion import (
    QuaternionAlgebra,
    hilbert_ramification_q,
    hilbert_symbol_q,
)

Q = TotallyRealField.rationals()
Q5 = TotallyRealField.real_quadratic(5)


def rational_primes(*ps):
    return tuple(split_prime(Q, p)[0] for p in ps)


class TestDiscriminant:
    def test_ram_23(self):
        algebra = QuaternionAlgebra(Q, rational_primes(2, 3), 0)
        assert algebra.signed_reduced_discriminant() == 6

    def test_hamilton_over_q(self):
        algebra = QuaternionAlgebra(Q, rational_primes(2), 1)
        assert algebra.signed_reduced_discriminant() == -2

    def test_hamilton_over_q5(self):
        algebra = QuaternionAlgebra(Q5, (), 2)
        assert algebra.signed_reduced_discriminant() == 1

    def test_sign_is_minus_one_to_r(self):
        prime2 = split_prime(Q5, 2)[0]
        algebra = QuaternionAlgebra(Q5, (prime2,), 1)
        d = algebra.signed_reduced_discriminant()
        assert d == -4
        assert abs(d) == prime2.norm


class TestPredicates:
    def test_fuchsian_ram23(self):
        algebra = QuaternionAlgebra(Q, rational_primes(2, 3), 0)
        assert not algebra.is_totally_definite()
        assert algebra.is_division()
        assert algebra.is_fuchsian()

    def test_split_matrix_algebra(self):
        algebra = QuaternionAlgebra(Q, (), 0)
        assert not algebra.is_division()
        assert not algebra.is_fuchsian()

    def test_totally_definite_over_q5(self):
        algebra = QuaternionAlgebra(Q5, (), 2)
        assert algebra.is_totally_definite()
        assert algebra.s == 0

    def test_s_counts_split_real_places(self):
        assert QuaternionAlgebra(Q5, (), 2).s == 0
        prime2 = split_prime(Q5, 2)[0]
        assert QuaternionAlgebra(Q5, (prime2,), 1).s == 1


class TestConstructionInvariants:
    def test_odd_parity_rejected(self):
        with pytest.raises(ValidationError):
            QuaternionAlgebra(Q, rational_primes(2), 0)
        with pytest.raises(ValidationError):
            QuaternionAlgebra(Q, (), 1)

    def test_r_bounded_by_real_places(self):
        with pytest.raises(ValidationError):
            QuaternionAlgebra(Q, (), 2)

    def test_foreign_prime_rejected(self):
        prime = split_prime(Q5, 2)[0]
        with pytest.raises(ValidationError):
            QuaternionAlgebra(Q, (prime,), 1)

    def test_duplicate_primes_rejected(self):
        prime = split_prime(Q, 2)[0]
        with pytest.raises(ValidationError):
            QuaternionAlgebra(Q, (prime, prime), 0)

    @given(st.sets(st.sampled_from([2, 3, 5, 7, 11]), max_size=4), st.integers(0, 1))
    def test_parity_gate_is_exact(self, primes, r):
        ram = rational_primes(*sorted(primes))
        if (len(ram) + r) % 2:
            with pytest.raises(ValidationError):
                QuaternionAlgebra(Q, ram, r)
        else:
            algebra = QuaternionAlgebra(Q, ram, r)
            assert len(algebra.ram_finite) == len(primes)


class TestHilbert:
    def test_symbol_values(self):
        assert hilbert_symbol_q(-1, -1) == -1
        assert hilbert_symbol_q(-1, -1, 2) == -1
        assert hilbert_symbol_q(-1, -1, 3) == 1
        assert hilbert_symbol_q(2, 3, None) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            hilbert_ramification_q(0, 5)
        with pytest.raises(ValidationError):
            hilbert_symbol_q(3, 0, 2)

    @given(
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.integers(min_value=-10, max_value=10).filter(bool),
    )
    def test_symbol_multiplicative_in_first_slot(self, a, c, b):
        for p in (2, 3, 5, 7, None):
            assert hilbert_symbol_q(a * c * c, b, p) == hilbert_symbol_q(a, b, p)
