"""A tampering matrix for ``quatlef verify``: each row replaces one private
function with a wrong formula and names the verify suites that must each
report a failed check.

The rows are the tamperings T1-T7 of ROADMAP's sweep, T8 and T9. T3, T4
and T5 change an inline factor of the single-level closed form, so they
replace ``lefschetz._closed_form``, which takes its value from the kernel
``_Primes.closed_form``, with a wrapper that changes the value by a
factor; T4 and T5 change the report field of that factor by it too. T8
tampers with the kernel itself, the one place every report's and every
table row's value is assembled. T9 tampers with the mass formula's finite
places, which its exact and float evaluations share. A row that no suite
catches yet (T6) is a strict xfail naming the ROADMAP item meant to catch
it, so that the day a suite starts to catch it the row must be made a
plain pass. Each row runs only its suites through ``verify.run_suites``
(not the session-cached ``verified`` fixture), and clears every cache a
tampered value can reach before and after it runs.

Three routes besides the rows: T1 also breaks the tier-1 level-raising
identity, T2, T4 and T5 are caught by ``decomposition``'s clause on
definite components alone, with its mass formula taken out of the check,
and T6 breaks the tier-1 integrality sweep at torsion-free levels.
"""

from fractions import Fraction
from itertools import cycle, islice
from math import prod

import pytest

from quatlef import finitegrp, lefschetz, numberfield, verify
from test_lefschetz import _integrality_failures, _level_raising_mismatches


def _t1_local_part(norm, js, in_level):
    """_local_part with N^j + (-1)^(j+1) for a ramified prime off the level
    at j >= 2."""
    num = den = 1
    for j in js:
        power = norm ** (2 * j if in_level else j)
        if in_level:
            num *= power - 1
        else:
            num *= power + (-1) ** (j + 1 if j >= 2 else j)
        den *= power
    return num, den


def _t2_local_part(norm, js, in_level):
    """_local_part with N^2j in place of N^2j - 1 for a level prime at j >= 2."""
    num = den = 1
    for j in js:
        power = norm ** (2 * j if in_level else j)
        if in_level:
            num *= power if j >= 2 else power - 1
        else:
            num *= power + (-1) ** j
        den *= power
    return num, den


def _tampered_closed_form(change):
    """lefschetz._closed_form with change(algebra, n, level) -> (field, factor)
    applied to the returned value and, unless field is None, to that returned
    report field."""
    original = lefschetz._closed_form

    def tampered(algebra, n, level, override, two_exp):
        shared, value = original(algebra, n, level, override, two_exp)
        field, factor = change(algebra, n, level)
        if field is not None:
            shared[field] *= factor
        return shared, value * factor

    return tampered


def _t3_change(algebra, n, level):
    """The level-norm exponent n(2n+1) + 1 for n >= 2; no report field holds
    the level norm's power, so the value alone changes."""
    return None, level.norm() if n >= 2 else 1


def _t4_change(algebra, n, level):
    """One extra power of 2 in the denominator for n >= 2 and r > 0."""
    return "two_power", Fraction(1, 2) if n >= 2 and algebra.r > 0 else 1


def _t5_change(algebra, n, level):
    """The d(D) exponent n(n+1)/2 + 1 for n >= 3."""
    return "disc_power", algebra.signed_reduced_discriminant() if n >= 3 else 1


def _t6_character_table(discriminant):
    """_character_table that keeps only the first odd prime's Legendre table
    (and the 2-part), repeated over one period of |D|."""
    period = abs(discriminant)
    odd = [p for p, _e in numberfield.factorize(period) if p != 2]
    odd_part = prod(p if p % 4 == 1 else -p for p in odd)
    factors = [numberfield._legendre_table(p) for p in odd[:1]]
    two_part = discriminant // odd_part
    if two_part != 1:
        factors.append(numberfield._TWO_PART_TABLES[two_part])
    table = [1]
    for factor in factors:
        size = len(table) * len(factor)
        table = [a * b for a, b in zip(islice(cycle(table), size), islice(cycle(factor), size))]
    return list(islice(cycle(table), period))


def _t7_ramified_local_order(n, q):
    """ramified_local_order with the sign of its j = 2 term flipped."""
    finitegrp._require_rank(n, q)
    return q ** (n * (3 * n + 1) // 2) * prod(
        q**j - (-1) ** j * (-1 if j == 2 else 1) for j in range(1, n + 1)
    )


_kernel = lefschetz._Primes.closed_form


def _t8_closed_form(self, off, level_parts):
    """_Primes.closed_form with the level parts multiplied in twice for n >= 2:
    num times their product, as T3 puts N(L) in once more."""
    level_parts = list(level_parts)
    num, den = _kernel(self, off, level_parts)
    if self.n >= 2:
        num *= prod(level_parts)
    return num, den


def _t9_mass_local_orders(algebra, n, level):
    """_mass_local_orders without the factor of the ramified primes off the
    level."""
    d = n * (2 * n + 1)
    value = Fraction(level.norm() ** d)
    for prime, _exp in level.factors:
        value *= Fraction(finitegrp.sp_order(n, prime.norm), prime.norm**d)
    return value


def _clear_caches():
    """Empty every lru_cache of numberfield, lefschetz and finitegrp, and the
    two kept states that are not one."""
    for module in (numberfield, lefschetz, finitegrp):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    numberfield._power_sum_state = None
    numberfield._series_prefixes.clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


# (id, module, function, replacement, suites that must each fail)
_ROWS = [
    pytest.param(lefschetz, "_local_part", _t1_local_part, ["decomposition"], id="T1"),
    pytest.param(
        lefschetz, "_local_part", _t2_local_part,
        ["lefschetz", "decomposition", "signs", "adelic"], id="T2",
    ),
    pytest.param(
        lefschetz, "_closed_form", _tampered_closed_form(_t3_change),
        ["lefschetz", "decomposition", "adelic"], id="T3",
    ),
    pytest.param(
        lefschetz, "_closed_form", _tampered_closed_form(_t4_change),
        ["lefschetz", "decomposition", "adelic"], id="T4",
    ),
    pytest.param(
        lefschetz, "_closed_form", _tampered_closed_form(_t5_change),
        ["decomposition", "signs"], id="T5",
    ),
    pytest.param(
        numberfield, "_character_table", _t6_character_table, ["zeta"],
        id="T6",
        marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 14: the integrality sweep is not yet a verify check",
        ),
    ),
    pytest.param(
        finitegrp, "ramified_local_order", _t7_ramified_local_order,
        ["finite-orders", "decomposition"], id="T7",
    ),
    pytest.param(
        lefschetz._Primes, "closed_form", _t8_closed_form,
        ["lefschetz", "decomposition", "adelic"], id="T8",
    ),
    pytest.param(
        lefschetz, "_mass_local_orders", _t9_mass_local_orders,
        ["decomposition", "adelic"], id="T9",
    ),
]


@pytest.mark.parametrize("module, name, replacement, suites", _ROWS)
def test_tampering_is_caught(monkeypatch, clean_caches, module, name, replacement, suites):
    monkeypatch.setattr(module, name, replacement)
    results = verify.run_suites(suites)
    failed = {suite: sum(not ok for _name, ok, _detail in results[suite]) for suite in suites}
    assert all(failed.values()), failed


def test_t1_breaks_level_raising(monkeypatch, clean_caches):
    monkeypatch.setattr(lefschetz, "_local_part", _t1_local_part)
    assert _level_raising_mismatches()


def test_t6_breaks_integrality_sweep(monkeypatch, clean_caches):
    monkeypatch.setattr(numberfield, "_character_table", _t6_character_table)
    assert _integrality_failures()


@pytest.mark.parametrize("module, name, replacement", [
    pytest.param(lefschetz, "_local_part", _t2_local_part, id="T2"),
    pytest.param(lefschetz, "_closed_form", _tampered_closed_form(_t4_change), id="T4"),
    pytest.param(lefschetz, "_closed_form", _tampered_closed_form(_t5_change), id="T5"),
])
def test_definite_clause_alone_catches(monkeypatch, clean_caches, module, name, replacement):
    monkeypatch.setattr(module, name, replacement)
    # the mass formula now agrees with every tampered component
    monkeypatch.setattr(
        verify, "_exact_mass_formula",
        lambda algebra, n, level, cls: lefschetz.euler_char_fixed_component(
            algebra, n, level, cls).value,
    )
    [(_name, ok, detail)] = verify.suite_decomposition()
    assert not ok and "not a positive integer" in detail, detail
