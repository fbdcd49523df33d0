from fractions import Fraction

import pytest

from quatlef import finitegrp, numberfield
from quatlef.errors import SearchSpaceError, ValidationError
from quatlef.finitegrp import (
    brute_force_sl,
    brute_force_sp,
    brute_force_unitary,
    local_index_factor,
    ramified_local_order,
    sl_order,
    sp_order,
    unitary_order,
)


# The rational products the integer closed forms replaced, kept as oracles.
def _fraction_sl(m, q):
    value = Fraction(q ** (m * m - 1))
    for j in range(2, m + 1):
        value *= 1 - Fraction(1, q**j)
    return value


def _fraction_sp(n, q):
    value = Fraction(q ** (n * (2 * n + 1)))
    for j in range(1, n + 1):
        value *= 1 - Fraction(1, q ** (2 * j))
    return value


def _fraction_ramified(n, q):
    value = Fraction(q ** (n * (2 * n + 1)))
    for j in range(1, n + 1):
        value *= 1 - Fraction((-1) ** j, q**j)
    return value


def _fraction_local_index(q, kind, n, e):
    d = 4 * n * n - 1
    lift = q ** ((e - 1) * d)
    if kind == "split":
        return lift * _fraction_sl(2 * n, q)
    value = Fraction(q**d) * (1 + Fraction(1, q))
    for j in range(2, n + 1):
        value *= 1 - Fraction(1, q ** (2 * j))
    return lift * value


_ORACLE_QS = (2, 3, 4, 5, 7, 8, 9)


class TestFractionOracles:
    @pytest.mark.parametrize("q", _ORACLE_QS)
    def test_sl_order(self, q):
        for m in range(2, 13):
            got = sl_order(m, q)
            assert got == _fraction_sl(m, q) and type(got) is int

    @pytest.mark.parametrize("q", _ORACLE_QS)
    def test_sp_and_ramified_orders(self, q):
        for n in range(1, 7):
            sp, ramified = sp_order(n, q), ramified_local_order(n, q)
            assert sp == _fraction_sp(n, q) and type(sp) is int
            assert ramified == _fraction_ramified(n, q) and type(ramified) is int

    @pytest.mark.parametrize("kind", ["split", "ramified"])
    def test_local_index_factor(self, kind):
        for q in _ORACLE_QS:
            for n in range(1, 7):
                for e in range(1, 4):
                    got = local_index_factor(q, kind, n, e)
                    assert got == _fraction_local_index(q, kind, n, e)
                    assert type(got) is int


class TestClosedForms:
    def test_sl_values(self):
        assert sl_order(2, 2) == 6
        assert sl_order(2, 3) == 24
        assert sl_order(3, 2) == 168

    def test_sp_values(self):
        assert sp_order(1, 2) == 6
        assert sp_order(2, 2) == 720
        assert sp_order(1, 5) == 120

    def test_ramified_values(self):
        assert ramified_local_order(1, 2) == 12
        assert ramified_local_order(2, 3) == 69984

    def test_ramified_n1_is_q3_plus_q2(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert ramified_local_order(1, q) == q**3 + q**2

    def test_unitary_values(self):
        assert unitary_order(1, 2) == 3
        assert unitary_order(2, 2) == 18
        assert unitary_order(1, 3) == 4

    def test_sp1_equals_sl2(self):
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            assert sp_order(1, q) == sl_order(2, q)

    def test_non_prime_power_rejected(self):
        for fn in (lambda q: sl_order(2, q), lambda q: sp_order(1, q)):
            with pytest.raises(ValidationError):
                fn(6)
            with pytest.raises(ValidationError):
                fn(1)


class TestLocalIndexFactor:
    def test_split_with_lift(self):
        assert local_index_factor(2, "split", 1, 2) == 48

    def test_ramified(self):
        assert local_index_factor(2, "ramified", 1, 1) == 12

    def test_split_prime_level(self):
        assert local_index_factor(3, "split", 1, 1) == 24

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            local_index_factor(2, "weird", 1, 1)

    def test_prime_power_norms_need_no_factorisation(self, monkeypatch):
        # the norm of an inert prime near 10^12, which trial division up to
        # 10^6 would sweep to its bound in vain
        def refuse(n):
            raise AssertionError(f"factorize({n}) was called")

        monkeypatch.setattr(numberfield, "factorize", refuse)
        monkeypatch.setattr(finitegrp, "factorize", refuse, raising=False)
        q = (10**12 + 39) ** 2
        assert local_index_factor(q, "split", 2, 1) == q**6 * (q**2 - 1) * (q**3 - 1) * (q**4 - 1)
        for bad in (0, 1, 6, 12, 100):
            with pytest.raises(ValidationError, match=f"^{bad} is not a prime power$"):
                local_index_factor(bad, "split", 2, 1)

    @pytest.mark.parametrize("kind", ["split", "ramified"])
    def test_norm_checked_once(self, kind, monkeypatch):
        # one check per uncached (q, kind, n): earlier tests may have kept some
        finitegrp._reduction_order.cache_clear()
        checked = []
        original = finitegrp._require_prime_power

        def counting(q):
            checked.append(q)
            return original(q)

        monkeypatch.setattr(finitegrp, "_require_prime_power", counting)
        for q in (2, 9, 125):
            for n in (1, 3):
                assert local_index_factor(q, kind, n, 2) == _fraction_local_index(q, kind, n, 2)
                assert checked == [q]
                checked.clear()
        with pytest.raises(ValidationError, match="^6 is not a prime power$"):
            local_index_factor(6, kind, 1, 1)
        assert checked == [6]

    def test_refusal_is_not_kept(self, monkeypatch):
        # each call checks the refused q again and refuses it in the same words
        checked = []
        original = finitegrp._require_prime_power

        def counting(q):
            checked.append(q)
            return original(q)

        monkeypatch.setattr(finitegrp, "_require_prime_power", counting)
        for _ in range(2):
            with pytest.raises(ValidationError, match="^6 is not a prime power$"):
                local_index_factor(6, "split", 1, 1)
            with pytest.raises(ValidationError, match="^unknown local kind 'weird'$"):
                local_index_factor(5, "weird", 1, 1)
        assert checked == [6, 5, 6, 5]

    def test_reduction_orders_kept(self):
        info = finitegrp._reduction_order.cache_info()
        assert info.maxsize == finitegrp._REDUCTION_ORDERS_KEPT == 256

    def test_prime_power_check_agrees_with_factorize(self):
        cases = {q: q >= 2 and len(numberfield.factorize(q)) == 1 for q in range(-3, 5000)}
        cases.update({1000003**3: True, 2**100: True, 3**60: True, (10**13 + 37) ** 2: True})
        cases.update({1000003 * 1000033: False, 2**100 * 3: False, (10**6 + 3) ** 2 * 2: False})
        for q, expected in cases.items():
            try:
                sp_order(1, q)
            except ValidationError as exc:
                assert not expected and str(exc) == f"{q} is not a prime power", q
            else:
                assert expected, q


class TestBruteForceOracles:
    # each closed form against enumeration is a check of the finite-orders
    # verify suite, which tests/test_verify.py runs in full
    def test_state_cap_enforced(self):
        with pytest.raises(SearchSpaceError):
            brute_force_sl(2, 100)
        with pytest.raises(SearchSpaceError):
            brute_force_sp(2, 3)
        with pytest.raises(SearchSpaceError):
            brute_force_unitary(3, 5)

    def test_brute_force_needs_prime_modulus_for_fields(self):
        with pytest.raises(ValidationError):
            brute_force_sp(1, 4)
        with pytest.raises(ValidationError):
            brute_force_unitary(1, 4)
        # matrices over Z/N are fine for composite N
        assert brute_force_sl(2, 4) == 48
