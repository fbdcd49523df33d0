"""Closed-form invariants of principal congruence subgroups in inner
forms of the special linear group over a quaternion algebra.

The pieces, in the order they combine:

* ``_Primes.closed_form`` is the one kernel: it gives the value of every
  report and every table row, the closed form
  ``X = N(level)^(n(2n+1)) d(D)^(n(n+1)/2) prod_j M(j)`` with
  ``M(j) = zeta_F(1-2j) * prod_{P | level} (1 - N(P)^(-2j))
  * prod_{P ramified, P not | level} (1 + (-1)^j N(P)^(-j))``, as
  ``num/den`` in integers: one integer per ``P^a`` exactly dividing the
  level, ``N(P)^((a-1) n(2n+1)) U(N(P), n)`` with ``U(N, n) = N^(n^2)
  prod_j (N^2j - 1)`` from ``_local_part`` (kept by ``_level_unit``), times
  a ratio fixed per request and set of ramified primes off the level (the
  ``d(D)`` power, the zeta values and those primes' parts), reduced only
  against that ratio's small denominator, then checked for the sign law.
  ``_closed_form`` turns it into a single-level report's value ``X / 2^e``,
  at ``e = r`` for ``lefschetz_number`` and ``e = nr`` for a component,
  beside the factors the report prints: each ``M(j)`` comes from the
  level's one ``_local_primes`` list, through the helper that ``m_factor``
  calls after its checks. ``_table_rows`` keeps one record per ``p^a``
  dividing a level of the table, with its integer, index and primes, and
  multiplies a row from its records; it prints from the row's ``X``, by
  ``exact._ratio_text``, the Lefschetz number ``X tr / 2^r`` and each
  distinct component ``X b / 2^(nr)`` once, joins those texts in class
  order into the one ``chi_components`` string that the CLI writes out
  as it is, and checks a Fuchsian row's genus against ``X`` and ``2^r``
  as integers, building no ``Fraction``.
* ``h1_signature_classes`` enumerates the fixed-point components as
  tuples of local signatures (p_v, q_v) with q_v even, one per ramified
  real place, and ``euler_char_fixed_component`` evaluates each
  component's Euler characteristic; summing them against the trace must
  reproduce the closed form, which is the package's central identity.
* ``euler_char_components`` evaluates every component of one setting at
  once: the components differ only in the binomial prod_v C(n, p_v), so
  the closed form runs once and each class's report is built directly as
  that value times its binomial. ``euler_char_fixed_component`` goes
  through the same step for its one class.
* ``SignatureClass`` is a plain value. A class that comes from outside is
  checked once, by ``_validate_class``, in the function that uses it
  (``euler_char_fixed_component``, ``fixed_point_space_dim``,
  ``weyl_quotient``); the classes of ``h1_signature_classes`` are valid by
  construction and are not checked again.
* ``congruence_index``, ``genus_fuchsian``, ``modular_form_dim`` and the
  Betti-bound helpers are the downstream corollaries.
* ``euler_char_adelic_numeric`` re-evaluates an Euler characteristic in
  floating point straight from the mass-formula shape (Weyl quotient,
  compact-group volume, modulus factor, zeta series, and the finite
  places' local orders of ``_mass_local_orders``, which verify's exact
  mass formula shares), so the exact and numeric paths check each other
  through the functional equation.

Everything is a pure function of immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, isfinite, log10, prod

from . import finitegrp
from .errors import InvariantError, NotFuchsianError, TorsionError, ValidationError
from .exact import SymbolicScalar, _digit_limit_error, _ratio_text, _Value
from .numberfield import (
    _MAX_SERIES_TERMS,
    _MAX_ZETA_INDEX,
    Ideal,
    PrimeIdeal,
    TotallyRealField,
    _check_zeta_caps,
    _zetas_log10,
    dedekind_zeta_neg,
    factorize,
    split_prime,
    zeta_f_positive_even_numeric,
)
from .quaternion import QuaternionAlgebra

__all__ = [
    "SignatureClass",
    "LefschetzInput",
    "LefschetzReport",
    "EulerCharReport",
    "GenusReport",
    "check_torsion_necessary",
    "lefschetz_number",
    "h1_signature_classes",
    "weyl_quotient",
    "euler_char_fixed_component",
    "euler_char_components",
    "lefschetz_via_decomposition",
    "congruence_index",
    "genus_fuchsian",
    "modular_form_dim",
    "betti_growth_exponent",
    "betti_lower_bound",
    "vol_sp_compact",
    "global_modulus_factor",
    "fixed_point_space_dim",
    "euler_char_adelic_numeric",
]

WARN_TORSION_UNVERIFIED = (
    "torsion-freeness unverified: the necessary condition (-1 != 1 mod level)"
    " holds but is not sufficient"
)
WARN_TORSION_OVERRIDDEN = (
    "torsion necessary condition FAILED (-1 = 1 mod level): the congruence"
    " group has 2-torsion; value computed formally under assume_torsion_free"
)
ZERO_COMPLEX_PLACE = "base field has a complex place"

# most signature classes h1_signature_classes enumerates: (n//2 + 1)^r
_MAX_CLASSES = 10**4


class SignatureClass(_Value):
    """Tuple of local signatures (p_v, q_v), one per ramified real place.

    Membership in the component-index set requires every q_v to be even;
    all pairs must sum to the same matrix size n. Construction checks
    nothing: the functions that take a class check it (_validate_class).
    """

    __slots__ = ("signatures",)

    def __init__(self, signatures: tuple[tuple[int, int], ...] = ()) -> None:
        self._set((signatures,))

    def __len__(self) -> int:
        return len(self.signatures)

    def __iter__(self):
        return iter(self.signatures)

    def binomial_factor(self, n: int) -> int:
        return prod(comb(n, p) for p, _q in self.signatures)

    def __str__(self) -> str:
        return ";".join(f"{p},{q}" for p, q in self.signatures) or "-"


class LefschetzInput(_Value):
    """Validated input bundle for the closed-form evaluation.

    trace_w is the trace of the induced involution on the coefficient
    module, supplied by the caller (1 for trivial coefficients). The
    totally definite case needs n >= 2 for strong approximation.
    """

    __slots__ = ("field", "algebra", "n", "level", "trace_w", "assume_torsion_free")

    def __init__(self, field: TotallyRealField, algebra: QuaternionAlgebra, n: int,
                 level: Ideal, trace_w: Fraction | int = Fraction(1),
                 assume_torsion_free: bool = False) -> None:
        trace_w = Fraction(trace_w)
        if algebra.field != field:
            raise ValidationError("algebra is defined over a different field")
        _validate_setting(algebra, n, level)
        self._set((field, algebra, n, level, trace_w, assume_torsion_free))


class _ClosedFormReport(_Value):
    """Value of a closed form plus its factor-by-factor breakdown.

    The value, from the kernel _Primes.closed_form, equals two_power
    * N(L)^(n(2n+1)) * disc_power * scale * prod(m_factors) for the level
    L; when the base field has a complex place every m factor is zero and
    zero_reason says so. A subclass passes its own fields first, as one
    tuple.
    """

    __slots__ = ("value", "n", "two_power", "disc_power", "m_factors", "warnings",
                 "zero_reason")

    def __init__(self, own: tuple, /, *, value: Fraction, n: int, two_power: Fraction,
                 disc_power: int, m_factors: tuple[Fraction, ...],
                 warnings: tuple[str, ...] = (), zero_reason: str | None = None) -> None:
        self._set((value, n, two_power, disc_power, m_factors, warnings, zero_reason, *own))


class LefschetzReport(_ClosedFormReport):
    """The Lefschetz number; its scale is trace_w."""

    __slots__ = ("trace_w",)

    def __init__(self, *, trace_w: Fraction, **fields) -> None:
        super().__init__((trace_w,), **fields)


class EulerCharReport(_ClosedFormReport):
    """Euler characteristic of one fixed-point component; its scale is
    binomial_factor = prod_v C(n, p_v)."""

    __slots__ = ("signature_class", "binomial_factor")

    def __init__(self, *, signature_class: SignatureClass, binomial_factor: int,
                 **fields) -> None:
        super().__init__((signature_class, binomial_factor), **fields)


class GenusReport(_Value):
    """Genus data of the compact quotient surface in the Fuchsian case."""

    __slots__ = ("genus", "b1", "chi", "warnings")

    def __init__(self, genus: int, b1: int, chi: int,
                 warnings: tuple[str, ...] = ()) -> None:
        self._set((genus, b1, chi, warnings))


def _check_level(algebra: QuaternionAlgebra, level: Ideal | None, n: int = 1) -> None:
    """Checks shared by every closed form, made before any power or group
    order is taken: 1 <= n <= _MAX_ZETA_INDEX (the closed form needs zeta
    at 1-2j for every j <= n) and, when one is given, a proper level."""
    if n < 1:
        raise ValidationError("matrix size n must be >= 1")
    if n > _MAX_ZETA_INDEX:
        raise ValidationError(
            f"matrix size n = {n} exceeds the cap of n <= {_MAX_ZETA_INDEX}"
        )
    if level is not None and level.field != algebra.field:
        raise ValidationError("level ideal lives in a different field")
    if level is not None and level.is_unit:
        raise ValidationError("level must be a proper ideal")


def _validate_setting(algebra: QuaternionAlgebra, n: int, level=None) -> None:
    _check_level(algebra, level, n)
    if algebra.is_totally_definite() and n < 2:
        raise ValidationError(
            "totally definite algebras need n >= 2 (strong approximation)"
        )


def check_torsion_necessary(level: Ideal) -> bool:
    """Necessary torsion-freeness condition: -1 != 1 modulo the level.

    Equivalently the level must not divide (2), the product of P^e over
    the primes P above 2. Passing this check does not certify
    torsion-freeness; failing it refutes it.
    """
    if level.is_unit:
        raise ValidationError("level must be a proper ideal")
    above_two = split_prime(level.field, 2)
    return not all(prime in above_two and exp <= prime.e for prime, exp in level.factors)


def _torsion_warnings(level: Ideal, override: bool) -> tuple[str, ...]:
    """The torsion gate of every closed form: a report's warnings, or TorsionError
    for a level dividing (2) without override (assume_torsion_free)."""
    if check_torsion_necessary(level):
        return (WARN_TORSION_UNVERIFIED,)
    if override:
        return (WARN_TORSION_OVERRIDDEN,)
    raise TorsionError(
        "level divides (2), so the congruence group has 2-torsion;"
        " pass assume_torsion_free to evaluate the formula anyway"
    )


def _check_fuchsian(algebra: QuaternionAlgebra) -> None:
    """genus_fuchsian's first refusals: a totally real field, and an algebra
    split at exactly one real place."""
    if not algebra.field.is_totally_real:
        raise NotFuchsianError("base field is not totally real")
    if not algebra.is_fuchsian():
        raise NotFuchsianError("algebra must be a division algebra split at exactly one real place")


def _local_part(norm: int, js, in_level: bool) -> tuple[int, int]:
    """A prime's part of prod_{j in js} M(j) as (num, den): the product of
    (N^2j - 1) / N^2j for a prime of the level, (N^j + (-1)^j) / N^j for a
    ramified prime off it."""
    num = den = 1
    for j in js:
        power = norm ** (2 * j if in_level else j)
        num *= power - 1 if in_level else power + (-1) ** j
        den *= power
    return num, den


def _local_primes(algebra: QuaternionAlgebra, factors) -> list[tuple[PrimeIdeal, int]]:
    """The level's (P, a) factors, then (P, 0) for each ramified P off the
    level: the primes with a part in M(j)."""
    if not algebra.ram_finite:
        return factors
    in_level = {prime for prime, _a in factors}
    return [*factors, *((p, 0) for p in algebra.ram_finite if p not in in_level)]


def m_factor(j: int, level: Ideal, algebra: QuaternionAlgebra) -> Fraction:
    """Local factor M(j) of the closed form; see the module docstring."""
    if j < 1:
        raise ValidationError("factor index j must be >= 1")
    _check_level(algebra, level)
    return _m_factor(j, algebra, _local_primes(algebra, level.factors))


def _m_factor(j: int, algebra: QuaternionAlgebra, local) -> Fraction:
    """M(j) for the level of these _local_primes, past m_factor's checks."""
    if not algebra.field.is_totally_real:
        return Fraction(0)  # zeta_F(1-2j) vanishes at a complex place
    zeta = dedekind_zeta_neg(algebra.field, j)
    num, den = zeta.numerator, zeta.denominator
    for prime, a in local:
        part_num, part_den = _local_part(prime.norm, (j,), a > 0)
        num *= part_num
        den *= part_den
    return Fraction(num, den)


_LEVEL_UNITS_KEPT = 256  # (N, n) kept by _level_unit; a U at n = 100 has ~20,100 log10(N) digits


@lru_cache(maxsize=_LEVEL_UNITS_KEPT)
def _level_unit(norm: int, n: int) -> int:
    """U(N, n) = N^(n(2n+1)) prod_j (1 - N^-2j) = N^(n^2) prod_j (N^2j - 1) from _local_part,
    kept for the last _LEVEL_UNITS_KEPT (N, n); one that is not an integer is refused, not kept."""
    num, den = _local_part(norm, range(1, n + 1), True)
    unit, rest = divmod(norm ** (n * (2 * n + 1)) * num, den)
    if rest:
        raise InvariantError(f"level unit U({norm}, {n}) is not an integer")
    return unit


class _Primes:
    """The data of one request, an algebra and n over any number of levels,
    each computed once: zeta_F(1-2j) for j <= n, the sign (-1)^(s n(n+1)/2),
    and the fixed ratio of each tuple of norms of ramified primes off a level:
    d(D)^(n(n+1)/2) prod_j zeta_F(1-2j) times their parts of prod_j M(j)."""

    def __init__(self, algebra: QuaternionAlgebra, n: int) -> None:
        self.algebra, self.n, self.d, self.sign, self.fixed = algebra, n, n * (2 * n + 1), 0, {}
        self.disc_power = algebra.signed_reduced_discriminant() ** (n * (n + 1) // 2)
        if algebra.field.is_totally_real:
            self.sign = (-1) ** (algebra.s * n * (n + 1) // 2)
            # j = n first, so that the zeta caps refuse it first, and so
            # that one pass of power sums serves every smaller j
            self.zetas = [dedekind_zeta_neg(algebra.field, j) for j in range(n, 0, -1)]

    def level_part(self, factors) -> int:
        """The product over these (P, a) of the integer N(P)^((a-1) n(2n+1))
        U(N(P), n): the lift, built on every call, times the kept U."""
        return prod(p.norm ** ((a - 1) * self.d) * _level_unit(p.norm, self.n) for p, a in factors)

    def closed_form(self, off: tuple, level_parts) -> tuple[int, int]:
        """N(L)^(n(2n+1)) d(D)^(n(n+1)/2) prod_j M(j) for a level L: the fixed ratio
        of off, the norms of the ramified primes off L, times L's level parts, as
        (num, den) reduced, den > 0, sign-checked; (0, 1), parts unread, at a complex place."""
        if not self.sign:  # a complex place
            return 0, 1
        fixed = self.fixed.get(off)
        if fixed is None:
            nums, dens = zip(*[z.as_integer_ratio() for z in self.zetas],
                             *[_local_part(norm, range(1, self.n + 1), False) for norm in off])
            num, den = prod(nums, start=self.disc_power), prod(dens)
            g = gcd(num, den)
            fixed = self.fixed[off] = num // g, den // g
        num, den = fixed
        # num is prime to den, so only the parts' product can share a factor with it
        lift = prod(level_parts)
        g = gcd(lift, den)
        num, den = num * (lift // g), den // g
        if (num > 0) - (num < 0) != self.sign:
            raise InvariantError(
                f"sign law violated: closed-form product {_ratio_text(num, den)},"
                f" expected sign {self.sign}"
            )
        return num, den


def _index(ramified, n: int, factors) -> int:
    """The index of the level of these factors: the product of their local
    factors."""
    return prod(finitegrp.local_index_factor(prime.norm, "ramified" if prime in ramified
                                             else "split", n, a) for prime, a in factors)


def _closed_form(algebra: QuaternionAlgebra, n: int, level: Ideal, override: bool,
                 two_exp: int) -> tuple[dict, Fraction]:
    """The report fields of both types for one level, past the torsion gate
    (override: assume_torsion_free), and the value before scaling: the
    kernel's closed form over 2^two_exp."""
    warnings = _torsion_warnings(level, override)
    # built first, so that the zeta caps refuse j = n before any factor
    primes = _Primes(algebra, n)
    local = _local_primes(algebra, level.factors)
    # lazy, so that a complex place builds no level part
    parts = map(primes.level_part, [level.factors])
    num, den = primes.closed_form(tuple([p.norm for p, a in local if not a]), parts)
    shared = dict(n=n, two_power=Fraction(1, 2**two_exp), disc_power=primes.disc_power,
                  m_factors=tuple(_m_factor(j, algebra, local) for j in range(1, n + 1)),
                  warnings=warnings,
                  zero_reason=None if algebra.field.is_totally_real else ZERO_COMPLEX_PLACE)
    return shared, Fraction(num, den << two_exp)


def _table_rows(algebra: QuaternionAlgebra, n: int, levels: range, trace_w: Fraction):
    """(m, norm of (m), columns) for each level m of a ``quatlef table``,
    after checking the setting, the class cap and the zeta caps once, in
    that order. columns is None when (m) fails the torsion necessary
    condition, else the index and the text of each closed-form column.
    Each p^a exactly dividing a level has one record, built the first time
    a row with a value meets it: its level part, the index of (p^a), and
    its (P, e a) factors."""
    _validate_setting(algebra, n)
    binomials = _class_binomials(algebra.r, n)
    records, field, r, primes = {}, algebra.field, algebra.r, None
    # the zeta caps refuse before any row; the zeta values wait for the first
    # row with a value, which is refused first if it would not print
    _check_zeta_caps(field, n)
    fuchsian = n == 1 and algebra.is_fuchsian() and field.is_totally_real
    distinct, ramified = dict.fromkeys(binomials), frozenset(algebra.ram_finite)
    # (p, P, N(P)) of each ramified P, for the levels that p does not divide
    ram = [(p.p, p, p.norm) for p in algebra.ram_finite]
    trace_num, trace_den = trace_w.as_integer_ratio()
    # at trace 1 and n r = r the Lefschetz number and each component share a text
    one_text = trace_num == trace_den and n * r == r
    for level in levels:
        norm, keys = level**field.degree, factorize(level)
        if primes is None:
            # (2) alone fails the torsion condition, so no row after the first
            # with a value can; the primes above 2 come after the row's own,
            # which a descriptor may lack first
            local = [(prime, prime.e * a) for p, a in keys for prime in split_prime(field, p)]
            if not check_torsion_necessary(Ideal(field, tuple(local))):
                yield level, norm, None
                continue
            # every row prints a component, |binomial| >= 1; later norms are larger
            _refuse_unprintable(lambda: None, local, 0, closed_form=(algebra, n, n * r, 1))
            primes = _Primes(algebra, n)
        for key in keys:
            if key not in records:
                factors = [(prime, prime.e * key[1]) for prime in split_prime(field, key[0])]
                records[key] = primes.level_part(factors), _index(ramified, n, factors), factors
        parts, indices, row_factors = zip(*[records[key] for key in keys])
        num, den = primes.closed_form(tuple([q for p, _, q in ram if level % p]), parts)
        texts = {b: _ratio_text(num, den, b, 1, n * r) for b in distinct}
        genus = None
        if fuchsian:
            local = [f for fs in row_factors for f in fs] + [(P, 0) for p, P, _ in ram if level % p]
            genus = _checked_genus(algebra, local, num, den << r, primes.zetas[-1])
        lefschetz = texts[1] if one_text else _ratio_text(num, den, trace_num, trace_den, r)
        chis = "|".join(map(texts.__getitem__, binomials))
        yield level, norm, (prod(indices), lefschetz, chis, genus)


def lefschetz_number(inp: LefschetzInput) -> LefschetzReport:
    """Closed form for the Lefschetz number of the symplectic involution.

    Zero exactly when the base field has a complex place or trace_w is 0;
    otherwise 2^(-r) N(level)^(n(2n+1)) d(D)^(n(n+1)/2) tr prod_j M(j).
    """
    shared, value = _closed_form(inp.algebra, inp.n, inp.level, inp.assume_torsion_free,
                                 inp.algebra.r)
    return LefschetzReport(value=value * inp.trace_w, trace_w=inp.trace_w, **shared)


# the most that the M(j) parts of primes take off log10 |value|: a level's
# primes less than 0.261 per unit of degree, as prod_{P | L} prod_j
# (1 - N(P)^-2j) >= prod_j zeta_F(2j)^-1 >= prod_j zeta(2j)^-degree, and each
# ramified prime off it less than 0.378, as prod_{j odd} (1 - N^-j) >=
# prod_{j odd} (1 - 2^-j)
_LEVEL_PARTS_LOSS = 0.261
_RAMIFIED_PART_LOSS = 0.378


def _refuse_unprintable(checks, factors, weight: int, per_prime: int = 0,
                        closed_form=None) -> None:
    """The one digit-limit gate of the commands that take a level L, given as
    its (P, a) factors: only when a lower bound on the log10 of an integer
    that the command prints reaches one digit past
    sys.get_int_max_str_digits() (0: no limit), checks() raises the
    library's earlier refusals, in its order, and then the digit-limit error
    is raised, before any zeta value, power or lift is built. The one bound,
    in floats, is the larger of weight log10 N(L) + per_prime sum_P log10
    N(P) and, given closed_form = (algebra, n, shift, scale), log10 |scale
    2^-shift N(L)^(n(2n+1)) prod_j M(j)| less the losses above, |d(D)| >= 1
    left out, for an n in 1.._MAX_ZETA_INDEX, unless that value is 0 (a
    complex place, scale 0) or a zeta value is refused. An exponent is capped
    at 4 limit, past which its power alone has more than limit digits; the
    digit of margin absorbs the float error."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    cap, level_log10, norms_log10 = 4 * limit, 0.0, 0.0
    for prime, a in factors:
        digits = prime.f * log10(prime.p)
        level_log10 += digits * (a if a < cap else cap)  # min() costs more per factor
        norms_log10 += digits
    floor = weight * level_log10 + per_prime * norms_log10
    if closed_form is not None:
        algebra, n, shift, scale = closed_form
        field, num = algebra.field, abs(scale.numerator)  # Fraction's own operators cost more
        if num and field.is_totally_real and (zetas := _zetas_log10(field, n)) is not None:
            value = zetas + n * (2 * n + 1) * level_log10 + log10(num) - log10(scale.denominator)
            value -= shift * log10(2) + _LEVEL_PARTS_LOSS * field.degree
            value -= _RAMIFIED_PART_LOSS * len(algebra.ram_finite)
            if value > floor:
                floor = value
    if floor >= limit + 1:
        checks()
        raise _digit_limit_error()


def _refuse_unprintable_request(command: str, algebra: QuaternionAlgebra, n: int, level: Ideal,
                                override: bool = False, json: bool = False, cls=None,
                                trace_w=1) -> None:
    """_refuse_unprintable for one request of a command that takes a level:
    lefschetz, euler-char (cls: its class), index or genus (n = 1), before the
    library function that it calls; json: the report is JSON. An n outside
    1.._MAX_ZETA_INDEX is left to that function, which refuses it first. A
    closed form's report prints its value scale 2^-shift X, X the kernel's
    closed form: at trace_w and shift r for lefschetz, at scale 1 and shift
    n r for a component, whose binomial is at least 1, and as chi = X / 2^r
    at n = 1 for genus, whose b1 = 2g > |chi|. The JSON report of lefschetz
    and euler-char also prints N(L)^(n(2n+1)), at a complex place too. Each
    local factor of an index is at least N(P)^(a(4n^2-1) - 2n + 1), as every
    q^j - 1 >= q^(j-1)."""
    if not 1 <= n <= _MAX_ZETA_INDEX:
        return
    if command == "index":
        return _refuse_unprintable(lambda: _check_level(algebra, level, n), level.factors,
                                   4 * n * n - 1, 1 - 2 * n)

    def checks() -> None:
        if command == "genus":
            _check_fuchsian(algebra)
        _validate_setting(algebra, n, level)
        if cls is not None:
            _validate_class(cls, n, algebra.r)
        _torsion_warnings(level, override)
        _check_zeta_caps(algebra.field, n)

    shift, scale = (algebra.r, trace_w) if cls is None else (n * algebra.r, 1)
    weight = n * (2 * n + 1) if json and command != "genus" else 0
    _refuse_unprintable(checks, level.factors, weight, closed_form=(algebra, n, shift, scale))


def h1_signature_classes(r: int, n: int) -> list[SignatureClass]:
    """All signature tuples ((p_v, q_v))_{v=1..r} with p+q = n, q even.

    There are (floor(n/2) + 1)^r of them, listed in lexicographic order
    of the q values; more than _MAX_CLASSES is rejected.
    """
    _check_class_count(r, n)
    return [
        SignatureClass(tuple((n - q, q) for q in qs))
        for qs in product(range(0, n + 1, 2), repeat=r)
    ]


def _check_class_count(r: int, n: int) -> None:
    if r < 0 or n < 1:
        raise ValidationError("need r >= 0 and n >= 1")
    count = (n // 2 + 1) ** r
    if count > _MAX_CLASSES:
        raise ValidationError(
            f"{count} signature classes exceed the cap of {_MAX_CLASSES}"
        )


def _class_binomials(r: int, n: int) -> list[int]:
    """binomial_factor(n) of every class of h1_signature_classes(r, n), in
    that order and under the same cap, built one place at a time without
    building the classes."""
    _check_class_count(r, n)
    per_place = [comb(n, q) for q in range(0, n + 1, 2)]
    out = [1]
    for _place in range(r):
        out = [x * c for x in out for c in per_place]
    return out


def weyl_quotient(n: int, s: int, signature_class: SignatureClass) -> int:
    """Quotient of Weyl group orders: 2^(n*s) * prod_v C(n, p_v)."""
    if n < 1 or s < 0:
        raise ValidationError("need n >= 1 and s >= 0")
    _validate_class(signature_class, n)
    return 2 ** (n * s) * signature_class.binomial_factor(n)


def _validate_class(cls: SignatureClass, n: int, r: int | None = None) -> None:
    """The one check of a signature class from outside, in this order:
    equal sums, nonnegative entries, even q, r entries (when r is given)
    and p + q = n."""
    if len({p + q for p, q in cls}) > 1:
        raise ValidationError("all signatures must sum to the same n")
    for p, q in cls:
        if p < 0 or q < 0:
            raise ValidationError("signature entries must be nonnegative")
        if q % 2:
            raise ValidationError(f"signature ({p},{q}) has odd q")
    if r is not None and len(cls) != r:
        raise ValidationError(f"signature class has {len(cls)} entries, expected {r}")
    if any(p + q != n for p, q in cls):
        raise ValidationError("signature class does not match n")


def _scaled_components(algebra: QuaternionAlgebra, n: int, level: Ideal,
                       classes: list[SignatureClass], override: bool) -> list[EulerCharReport]:
    """One report per class: the closed form runs once (torsion gate, M
    factors, sign law), then each report is that value times the class's
    binomial."""
    shared, unit = _closed_form(algebra, n, level, override, n * algebra.r)
    binomials = [cls.binomial_factor(n) for cls in classes]
    return [EulerCharReport(value=unit * b, signature_class=cls, binomial_factor=b, **shared)
            for cls, b in zip(classes, binomials)]


def euler_char_fixed_component(algebra: QuaternionAlgebra, n: int, level: Ideal,
                               signature_class: SignatureClass,
                               assume_torsion_free: bool = False) -> EulerCharReport:
    """Euler characteristic of the fixed-point component of one signature
    class: 2^(-nr) N(level)^(n(2n+1)) d(D)^(n(n+1)/2) prod_v C(n, p_v)
    prod_j M(j).

    Nonzero exactly when the base field is totally real, and then of sign
    (-1)^(s n(n+1)/2).
    """
    _validate_setting(algebra, n, level)
    _validate_class(signature_class, n, algebra.r)
    return _scaled_components(algebra, n, level, [signature_class], assume_torsion_free)[0]


def euler_char_components(algebra: QuaternionAlgebra, n: int, level: Ideal,
                          assume_torsion_free: bool = False) -> list[EulerCharReport]:
    """The reports of euler_char_fixed_component for every class of
    h1_signature_classes(algebra.r, n), in that order, from one evaluation
    of the closed form."""
    _validate_setting(algebra, n, level)
    classes = h1_signature_classes(algebra.r, n)
    return _scaled_components(algebra, n, level, classes, assume_torsion_free)


def lefschetz_via_decomposition(inp: LefschetzInput) -> Fraction:
    """Lefschetz number as the trace-weighted sum of component Euler
    characteristics over all signature classes.

    Every component is the one closed form times its class's binomial, so
    agreement with lefschetz_number checks the binomial identity, not the
    closed form.
    """
    components = euler_char_components(inp.algebra, inp.n, inp.level, inp.assume_torsion_free)
    return sum((report.value for report in components), Fraction(0)) * inp.trace_w


def congruence_index(algebra: QuaternionAlgebra, n: int, level: Ideal) -> int:
    """Index of the principal congruence subgroup of the given level.

    Product over the level's primes of the lifted local group orders; the
    result is an integer by construction.
    """
    _check_level(algebra, level, n)
    return _index(algebra.ram_finite, n, level.factors)


def _checked_genus(algebra: QuaternionAlgebra, local, chi_num: int, chi_den: int, zeta) -> int:
    """The genus g = 1 + 2^(-degree) N(level)^3 |d(D) zeta| prod_{P | level}
    (1 - N(P)^-2) prod_{P ramified, P not | level} (1 - N(P)^-1) of a Fuchsian
    setting, from the level's _local_primes and zeta = zeta_F(-1), in
    integers; 2 - 2g must equal chi = chi_num / chi_den (chi_den > 0), the
    n = 1 closed form at trace 1, which is checked. Every factor is positive,
    so an integral g is at least 2."""
    num = abs(algebra.signed_reduced_discriminant() * zeta.numerator)
    den = zeta.denominator << algebra.field.degree
    for prime, a in local:
        norm = prime.norm
        power = norm ** (2 if a else 1)
        num *= norm ** (3 * a) * (power - 1)
        den *= power
    genus, rest = divmod(num + den, den)
    if rest:
        raise InvariantError(f"genus came out non-integral: {Fraction(num + den, den)}")
    if chi_num != (2 - 2 * genus) * chi_den:
        raise InvariantError("genus formula disagrees with the closed form:"
                             f" chi={Fraction(chi_num, chi_den)}, g={genus}")
    return genus


def genus_fuchsian(algebra: QuaternionAlgebra, level: Ideal,
                   assume_torsion_free: bool = False) -> GenusReport:
    """Genus of the compact quotient Riemann surface in the Fuchsian case,
    from the genus formula of _checked_genus, with b1 = 2g. The Euler
    characteristic 2 - 2g must agree with the n = 1 closed form at trace 1,
    which is checked.
    """
    _check_fuchsian(algebra)
    # validates the setting and gates torsion before the genus formula runs
    _validate_setting(algebra, 1, level)
    shared, chi = _closed_form(algebra, 1, level, assume_torsion_free, algebra.r)
    local = _local_primes(algebra, level.factors)
    genus = _checked_genus(algebra, local, chi.numerator, chi.denominator,
                           dedekind_zeta_neg(algebra.field, 1))
    return GenusReport(genus=genus, b1=2 * genus, chi=2 - 2 * genus, warnings=shared["warnings"])


def modular_form_dim(genus: int, k: int) -> int:
    """Dimension of weight-k cusp forms for a torsion-free cocompact
    Fuchsian group of the given quotient genus: g for k = 2, and
    (k-1)(g-1) for even k >= 4."""
    if k < 2 or k % 2:
        raise ValidationError("weight must be an even integer >= 2")
    if genus < 0:
        raise ValidationError("genus must be >= 0")
    if k == 2:
        return genus
    return (k - 1) * (genus - 1)


def betti_growth_exponent(n: int) -> Fraction:
    """Exponent n(2n+1)/(4n^2-1) governing the lower bound for the total
    Betti number in terms of the congruence index."""
    if n < 1:
        raise ValidationError("matrix size n must be >= 1")
    return Fraction(n * (2 * n + 1), 4 * n * n - 1)


def betti_lower_bound(inp: LefschetzInput) -> Fraction:
    """|closed form at trace 1|: a certified lower bound for the total
    Betti number of the congruence group."""
    _shared, value = _closed_form(inp.algebra, inp.n, inp.level, inp.assume_torsion_free,
                                  inp.algebra.r)
    return abs(value)


def vol_sp_compact(n: int) -> SymbolicScalar:
    """Volume of the rank-n compact symplectic group for the trace form:
    prod_{j=1}^{n} (2 pi)^(2j) / (2 (2j-1)!)."""
    if n < 1:
        raise ValidationError("rank must be >= 1")
    coeff = Fraction(1)
    for j in range(1, n + 1):
        coeff *= Fraction(2 ** (2 * j), 2 * factorial(2 * j - 1))
    return SymbolicScalar(coeff, pi_exp=n * (n + 1))


def global_modulus_factor(algebra: QuaternionAlgebra, n: int) -> Fraction:
    """Product of the local volume normalisation constants over the
    finite places: 2^(n degree) (-1)^(r n(n+1)/2) d(D)^(-n(n+1)/2),
    a positive rational equal to
    2^(n degree) prod_{P ramified} N(P)^(-n(n+1)/2)."""
    if n < 1:
        raise ValidationError("matrix size n must be >= 1")
    e = n * (n + 1) // 2
    sign = (-1) ** (algebra.r * e)
    return Fraction(
        sign * 2 ** (n * algebra.field.degree),
        algebra.signed_reduced_discriminant() ** e,
    )


def fixed_point_space_dim(algebra: QuaternionAlgebra, n: int, cls: SignatureClass) -> int:
    """Dimension s n(n+1) + sum_v 4 p_v q_v of the symmetric space of the
    twisted fixed-point group; always even."""
    _validate_class(cls, n, algebra.r)
    dim = algebra.s * n * (n + 1)
    for p, q in cls:
        dim += 4 * p * q
    return dim


def _mass_local_orders(algebra: QuaternionAlgebra, n: int, level: Ideal) -> Fraction:
    """The mass formula's finite places, from finitegrp's local orders:
    N(level)^d prod_{P | level} |Sp_n(F_P)| / N(P)^d prod_{P ramified, P not
    | level} |Sp_n(F_P)| / |U_P|, with d = n(2n+1)."""
    d = n * (2 * n + 1)
    value = Fraction(level.norm() ** d)
    for prime, _exp in level.factors:
        value *= Fraction(finitegrp.sp_order(n, prime.norm), prime.norm**d)
    for prime in algebra.ram_finite:
        if level.valuation(prime) == 0:
            q = prime.norm
            value *= Fraction(finitegrp.sp_order(n, q), finitegrp.ramified_local_order(n, q))
    return value


ADELIC_REL_TOL = 1e-5  # the relative error of euler_char_adelic_numeric that verify allows


def euler_char_adelic_numeric(
    algebra: QuaternionAlgebra,
    n: int,
    level: Ideal,
    signature_class: SignatureClass,
    terms: int,
) -> float:
    """Floating-point Euler characteristic straight from the adelic mass
    formula, independent of the exact path.

    (-1)^p |d_F|^(d/2) * (Weyl quotient) * vol^(-degree) * mf^(-1)
    * _mass_local_orders, with d = n(2n+1), 2p the symmetric space
    dimension, vol the compact symplectic volume and mf the global modulus
    factor; the convergent part of the local product is the zeta values
    at 2, 4, ..., 2n evaluated by truncated series (Tamagawa number 1).
    The n series may sum at most _MAX_SERIES_TERMS terms in all. A value
    that overflows a float is rejected.
    """
    field = algebra.field
    if field.kind not in ("rationals", "real-quadratic"):
        raise ValidationError("numeric cross-check needs a natively supported field")
    if terms < 10**4:
        raise ValidationError("need at least 10^4 series terms")
    _validate_setting(algebra, n, level)
    d = n * (2 * n + 1)
    dim_x = fixed_point_space_dim(algebra, n, signature_class)
    if dim_x % 2:
        raise InvariantError(f"fixed-point space dimension {dim_x} is odd")
    sign = (-1) ** (dim_x // 2)
    weyl = weyl_quotient(n, algebra.s, signature_class)
    local_exact = _mass_local_orders(algebra, n, level)
    # one series per j <= n; a single series over the cap is refused by
    # zeta_f_positive_even_numeric, before it sums a term
    if terms <= _MAX_SERIES_TERMS < n * terms:
        raise ValidationError(
            f"{n} series of {terms} terms exceed the cap of"
            f" {_MAX_SERIES_TERMS} terms in all"
        )
    try:
        disc_factor = float(field.abs_discriminant) ** (d / 2)
        vol = vol_sp_compact(n).to_float() ** field.degree
        modulus = float(global_modulus_factor(algebra, n))
        local = float(local_exact)
        for j in range(1, n + 1):
            local *= zeta_f_positive_even_numeric(field, j, terms)
        value = sign * disc_factor * weyl / vol / modulus * local
    except OverflowError:
        value = float("inf")
    if not isfinite(value):
        raise ValidationError(f"the float adelic value overflows at n = {n}")
    return value
