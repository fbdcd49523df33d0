"""Totally real base fields and their exact zeta data.

Native support covers the rationals and real quadratic fields, where prime
splitting is decided by the Kronecker symbol and zeta values at negative
odd integers come from (generalized) Bernoulli numbers. Any other totally
real field enters through an external descriptor that supplies the degree,
discriminant, a splitting table and a table of zeta values; descriptors
with fewer real places than the degree are legal and make every downstream
invariant vanish.

Ideals are formal products of prime symbols. Nothing here models rings of
integers, units or class groups: every formula downstream consumes only
norms, exponents and ramification membership.
"""

from __future__ import annotations

import sys
import threading
from array import array
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import comb, lcm, lgamma, log, log10, pi
from operator import mul
from os import PathLike

from .errors import ExternalFieldError, ValidationError
from .exact import _int, _read_json, _Value, bernoulli, parse_rational, riemann_zeta_neg

__all__ = [
    "PrimeIdeal",
    "Ideal",
    "TotallyRealField",
    "QuadraticCharacter",
    "kronecker_symbol",
    "split_prime",
    "ideal_from_integer",
    "gen_bernoulli",
    "dedekind_zeta_neg",
    "zeta_f_positive_even_numeric",
]


# the first 13 primes: as Miller-Rabin bases they decide every n below
# _MILLER_RABIN_BOUND (Sorenson and Webster, 2015), the least strong
# pseudoprime to all of them
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981
# factorize divides out primes up to this bound, about 0.1 s of trial division
_TRIAL_DIVISION_BOUND = 10**6
# integers whose factorisations factorize keeps
_FACTORISATIONS_KEPT = 1024


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test with the first 13 prime
    bases, proven for every n below 3.3 * 10^24; larger n are refused.
    An n with a base as a factor is prime when it is that base; any other
    n below 41^2 has no prime factor below 41, so it is prime when n > 1."""
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 41**2:
        return n > 1
    if n >= _MILLER_RABIN_BOUND:
        raise ValidationError(
            f"primality of {n} is not proven above {_MILLER_RABIN_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1 by integer Newton iteration."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=_FACTORISATIONS_KEPT)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of n >= 1 as sorted (p, exponent) pairs.

    Trial division stops at _TRIAL_DIVISION_BOUND. A cofactor beyond its
    square is accepted when it is a prime or a power of one; any other is
    refused, since it has two prime factors above the bound. The pairs of
    the last _FACTORISATIONS_KEPT n are kept, and each call returns the
    kept tuple; a refused n is not kept.
    """
    if n < 1:
        raise ValidationError("can only factor positive integers")
    whole, out = n, []
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISION_BOUND:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if d * d > n:
        if n > 1:
            out.append((n, 1))
        return tuple(out)
    # every prime factor of n exceeds the bound, so n = p^e has e < log_B(n)
    for e in range(int(log(n, _TRIAL_DIVISION_BOUND)), 0, -1):
        root = _iroot(n, e)
        if root**e == n and is_prime(root):
            return (*out, (root, e))
    raise ValidationError(
        f"cannot factor {whole}: the cofactor {n} has no prime factor up to"
        f" {_TRIAL_DIVISION_BOUND} and is not a prime power"
    )


def _squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n))) if n != 0 else False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), completely multiplicative in both slots."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    return sign * _jacobi(a, n)


def is_fundamental_discriminant(D: int) -> bool:
    """True for D = 1, squarefree D = 1 mod 4, or D = 4m with squarefree
    m = 2, 3 mod 4."""
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


class QuadraticCharacter(_Value):
    """The quadratic character attached to a fundamental discriminant."""

    __slots__ = ("fundamental_discriminant",)

    def __init__(self, fundamental_discriminant: int) -> None:
        if not is_fundamental_discriminant(fundamental_discriminant):
            raise ValidationError(
                f"{fundamental_discriminant} is not a fundamental discriminant"
            )
        self._set((fundamental_discriminant,))

    @property
    def conductor(self) -> int:
        return abs(self.fundamental_discriminant)

    def __call__(self, m: int) -> int:
        return kronecker_symbol(self.fundamental_discriminant, m)


@total_ordering
class PrimeIdeal(_Value):
    """A prime of the base field, recorded by residue data only.

    The norm p^f is derived, e is the ramification index over p, and the
    label distinguishes conjugate primes above a split p. The label carries
    no arithmetic content: every formula downstream consumes the norm only.
    Primes order by (p, f, e, label).
    """

    __slots__ = ("p", "f", "e", "label")

    def __init__(self, p: int, f: int = 1, e: int = 1, label: str = "") -> None:
        if not is_prime(p):
            raise ValidationError(f"residue characteristic {p} is not prime")
        if f < 1 or e < 1:
            raise ValidationError("residue degree and ramification index must be >= 1")
        self._set((p, f, e, label))

    def __lt__(self, other):
        same = other.__class__ is self.__class__
        return self._values < other._values if same else NotImplemented

    @property
    def norm(self) -> int:
        return self.p**self.f

    def __str__(self) -> str:
        base = f"{self.p}:{self.f}:{self.e}"
        return f"{base}:{self.label}" if self.label else base


_KIND_RATIONALS = "rationals"
_KIND_QUADRATIC = "real-quadratic"
_KIND_EXTERNAL = "external"

_DESCRIPTOR_KEYS = {
    "degree",
    "abs_discriminant",
    "num_real_places",
    "zeta_neg",
    "splitting",
}
# distinct descriptor texts kept parsed by from_json_file
_DESCRIPTORS_KEPT = 8
# real quadratic fields kept by real_quadratic, one object per d
_FIELDS_KEPT = 64


class TotallyRealField(_Value):
    """Base field descriptor: the rationals, a real quadratic field, or
    externally supplied data for anything else.

    For the native kinds every entry is computed, never user-supplied, and
    each field is one object, so that the caches keyed by field find it by
    identity; a refused d is not kept.
    External data is trusted but checked for internal consistency, once per
    distinct descriptor text per process: each listed prime must satisfy
    sum(e*f) = degree, and when the field is totally real each zeta table
    entry must be nonzero of sign (-1)^(j*degree).
    """

    __slots__ = ("kind", "d", "degree", "abs_discriminant", "num_real_places",
                 "zeta_neg_table", "splitting_table")

    def __init__(
        self, kind: str, d: int = 0, degree: int = 1, abs_discriminant: int = 1,
        num_real_places: int = 1, zeta_neg_table: tuple[Fraction, ...] = (),
        splitting_table: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (),
    ) -> None:
        self._set((kind, d, degree, abs_discriminant, num_real_places, zeta_neg_table,
                   splitting_table))

    @classmethod
    @lru_cache(maxsize=1)
    def rationals(cls) -> "TotallyRealField":
        return cls(kind=_KIND_RATIONALS)

    @classmethod
    @lru_cache(maxsize=_FIELDS_KEPT)
    def real_quadratic(cls, d: int) -> "TotallyRealField":
        disc = d if d % 4 == 1 else 4 * d
        if disc > _MAX_CONDUCTOR:
            raise ValidationError(
                f"conductor {disc} of Q(sqrt({d})) exceeds the cap of {_MAX_CONDUCTOR}"
            )
        if d < 2 or not _squarefree(d):
            raise ValidationError("real quadratic field needs squarefree d > 1")
        return cls(
            kind=_KIND_QUADRATIC,
            d=d,
            degree=2,
            abs_discriminant=disc,
            num_real_places=2,
        )

    @classmethod
    def from_descriptor(cls, data: dict) -> "TotallyRealField":
        """An external field from its descriptor: the shape of the dict is
        checked, every entry converted, then the values checked."""
        if not isinstance(data, dict):
            raise ValidationError("descriptor must be a JSON object")
        unknown = set(data) - _DESCRIPTOR_KEYS
        if unknown:
            raise ValidationError(f"unknown descriptor keys: {sorted(unknown)}")
        for key in ("degree", "abs_discriminant", "num_real_places"):
            if key not in data:
                raise ValidationError(f"descriptor missing key {key!r}")
            # type(), not isinstance: JSON true and false are ints to Python
            if type(data[key]) not in (int, str):
                raise ValidationError(f"descriptor key {key!r} must be an integer")
        zeta_table = data.get("zeta_neg", [])
        if not isinstance(zeta_table, (list, tuple)):
            raise ValidationError("descriptor zeta_neg must be a list")
        zeta_neg = tuple(parse_rational(v) for v in zeta_table)
        table = data.get("splitting", {})
        if not isinstance(table, dict) or not all(
            isinstance(pairs, (list, tuple))
            and all(isinstance(pair, (list, tuple)) for pair in pairs)
            and all(len(pair) == 2 for pair in pairs)
            and all(type(x) in (int, str) for pair in pairs for x in pair)
            for pairs in table.values()
        ):
            raise ValidationError(
                "descriptor splitting must map each prime to a list of [f, e] pairs"
            )
        # an integer entry is a JSON number or text; both are read as text
        splitting = {
            _int(str(p)): tuple(tuple(_int(str(x)) for x in pair) for pair in pairs)
            for p, pairs in table.items()
        }
        degree = _int(str(data["degree"]))
        abs_discriminant = _int(str(data["abs_discriminant"]))
        num_real_places = _int(str(data["num_real_places"]))
        if degree < 1:
            raise ValidationError("degree must be >= 1")
        if abs_discriminant < 1:
            raise ValidationError("absolute discriminant must be >= 1")
        if not 0 <= num_real_places <= degree:
            raise ValidationError("number of real places must lie in [0, degree]")
        if num_real_places == degree:
            for j, value in enumerate(zeta_neg, start=1):
                expected_positive = (j * degree) % 2 == 0
                if value == 0 or (value > 0) != expected_positive:
                    raise ValidationError(
                        f"zeta value for j={j} must be nonzero of sign"
                        f" (-1)^(j*degree); got {value}"
                    )
        # keys such as "2" and "02" are one key by now, so the sort compares keys only
        splitting_table = tuple(sorted(splitting.items()))
        for p, pairs in splitting_table:
            if not is_prime(p):
                raise ValidationError(f"splitting table key {p} is not prime")
            if not pairs or any(f < 1 or e < 1 for f, e in pairs):
                raise ValidationError(f"invalid splitting data above {p}")
            if sum(e * f for f, e in pairs) != degree:
                raise ValidationError(
                    f"splitting above {p} violates sum(e*f) = degree"
                )
        return cls(
            kind=_KIND_EXTERNAL,
            degree=degree,
            abs_discriminant=abs_discriminant,
            num_real_places=num_real_places,
            zeta_neg_table=zeta_neg,
            splitting_table=splitting_table,
        )

    @classmethod
    def from_json_file(cls, path: str | PathLike) -> "TotallyRealField":
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return _field_from_text(text, sys.get_int_max_str_digits())

    @property
    def is_totally_real(self) -> bool:
        return self.num_real_places == self.degree

    def character(self) -> QuadraticCharacter:
        if self.kind != _KIND_QUADRATIC:
            raise ValidationError("only real quadratic fields have a character here")
        return QuadraticCharacter(self.abs_discriminant)

    def describe(self) -> str:
        if self.kind == _KIND_RATIONALS:
            return "Q"
        if self.kind == _KIND_QUADRATIC:
            return f"Q(sqrt({self.d}))"
        return f"external(degree={self.degree}, disc={self.abs_discriminant})"


# keyed by the text, not the path, and by the digit limit that _int reads
@lru_cache(maxsize=_DESCRIPTORS_KEPT)
def _field_from_text(text: str, digit_limit: int) -> TotallyRealField:
    return TotallyRealField.from_descriptor(_read_json(text))


@lru_cache(maxsize=None)
def split_prime(field: TotallyRealField, p: int) -> tuple[PrimeIdeal, ...]:
    """The primes of the field above the rational prime p, built once per
    field and p; a refused p is not kept."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if field.kind == _KIND_RATIONALS:
        return (PrimeIdeal(p),)
    if field.kind == _KIND_QUADRATIC:
        symbol = kronecker_symbol(field.abs_discriminant, p)
        if symbol == 1:
            return (PrimeIdeal(p, 1, 1, "a"), PrimeIdeal(p, 1, 1, "b"))
        if symbol == -1:
            return (PrimeIdeal(p, 2, 1),)
        return (PrimeIdeal(p, 1, 2),)
    for q, pairs in field.splitting_table:
        if q == p:
            primes = []
            for idx, (f, e) in enumerate(pairs):
                label = chr(ord("a") + idx) if len(pairs) > 1 else ""
                primes.append(PrimeIdeal(p, f, e, label))
            return tuple(primes)
    raise ExternalFieldError(f"prime {p} missing from the external splitting table")


class Ideal(_Value):
    """Formal product of primes of one base field with positive exponents.

    The empty product is the unit ideal, which the engine rejects wherever
    a proper level is required.
    """

    __slots__ = ("field", "factors")

    def __init__(self, field: TotallyRealField,
                 factors: tuple[tuple[PrimeIdeal, int], ...] = ()) -> None:
        merged: dict[PrimeIdeal, int] = {}
        for prime, exponent in factors:
            if not isinstance(prime, PrimeIdeal):
                raise ValidationError("ideal factors must be prime ideals")
            if exponent < 1:
                raise ValidationError("ideal exponents must be >= 1")
            merged[prime] = merged.get(prime, 0) + exponent
        self._set((field, tuple(sorted(merged.items()))))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def norm(self) -> int:
        total = 1
        for prime, exponent in self.factors:
            total *= prime.norm**exponent
        return total

    def valuation(self, prime: PrimeIdeal) -> int:
        for candidate, exponent in self.factors:
            if candidate == prime:
                return exponent
        return 0

    def __str__(self) -> str:
        if self.is_unit:
            return "(1)"
        parts = []
        for prime, exponent in self.factors:
            parts.append(f"{prime}^{exponent}" if exponent > 1 else str(prime))
        return ",".join(parts)


def ideal_from_integer(field: TotallyRealField, n: int) -> Ideal:
    """The principal ideal generated by the rational integer n >= 2: the
    (P, e*a) factors for each p^a exactly dividing n."""
    if n < 2:
        raise ValidationError("level integer must be >= 2")
    return Ideal(field, tuple(
        (prime, prime.e * a) for p, a in factorize(n) for prime in split_prime(field, p)
    ))


# the characters of the prime discriminants -4, 8 and -8 on one period
_TWO_PART_TABLES = {
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def _legendre_table(p: int) -> list[int]:
    """The Legendre symbol (a/p) for a = 0..p-1, p an odd prime: +1 on the
    squares x^2 mod p with 0 < x < p/2, -1 on the other units."""
    table = [-1] * p
    table[0] = 0
    for x in range(1, p // 2 + 1):
        table[x * x % p] = 1
    return table


def _character_table(discriminant: int) -> list[int]:
    """kronecker_symbol(D, a) for a = 0..|D|-1, D a fundamental discriminant.

    chi_D is the product of the characters of its prime discriminants: for
    each odd p | D the Legendre symbol mod p (the character of
    p* = +-p, p* = 1 mod 4), and for even D the 2-part D / prod p*, which
    is -4, 8 or -8 and has a fixed pattern of period 4 or 8. The factors
    are multiplied elementwise over one period of |D|, so no Jacobi symbol
    is evaluated.
    """
    period = abs(discriminant)
    factors, odd_part = [], 1
    for p, _e in factorize(period):
        if p != 2:
            factors.append(_legendre_table(p))
            odd_part *= p if p % 4 == 1 else -p
    two_part = discriminant // odd_part
    if two_part != 1:
        factors.append(_TWO_PART_TABLES[two_part])
    table = [1]
    for factor in factors:
        size = len(table) * len(factor)
        table = list(
            map(mul, islice(cycle(table), size), islice(cycle(factor), size))
        )
    return table


# residues per block of _power_sums: their powers are held a block at a time
_BLOCK = 2**15

# (chi, k mod 2, its power sums) for the most recent character only. It is
# replaced by one assignment, so a concurrent reader sees a whole state.
_power_sum_state: tuple | None = None


def _power_sums(chi: QuadraticCharacter, k: int) -> tuple[int, ...]:
    """T_m = sum_{a=1}^{f} chi(a) (2a - f)^m for m = k mod 2, k mod 2 + 2,
    ..., at least up to k. As chi(f - a) = chi(-1) chi(a) and chi(f/2) =
    chi(f) = 0 for f > 1, the terms at a and f - a cancel unless chi(-1) =
    (-1)^m, and then T_m is twice one pass over the residues 1 <= a < f/2 of
    _character_table in blocks of _BLOCK; f = 1 has the one term T_m = 1.
    The sums of the most recent character and parity are kept and rebuilt
    when a larger k is asked for.
    """
    global _power_sum_state
    state = _power_sum_state
    if state is None or state[:2] != (chi, k % 2) or len(state[2]) <= k // 2:
        f = chi.conductor
        sums = [int(f == 1)] * (k // 2 + 1)
        if f > 1 and (chi.fundamental_discriminant < 0) == (k % 2 == 1):
            table = _character_table(chi.fundamental_discriminant)
            half = (f + 1) // 2
            for start in range(1, half, _BLOCK):
                block = table[start : min(start + _BLOCK, half)]
                first = 2 * start - f
                xs = list(compress(range(first, first + 2 * _BLOCK, 2), block))
                squares = list(map(mul, xs, xs))
                powers = list(filter(None, block))
                if k % 2:
                    powers = list(map(mul, powers, xs))
                sums[0] += 2 * sum(powers)
                for m in range(1, len(sums)):
                    powers = list(map(mul, powers, squares))
                    sums[m] += 2 * sum(powers)
        state = (chi, k % 2, tuple(sums))
        _power_sum_state = state
    return state[2]


@lru_cache(maxsize=None)
def gen_bernoulli(k: int, chi: QuadraticCharacter) -> Fraction:
    """Generalized Bernoulli number B_{k,chi} for a quadratic character.

    By definition B_{k,chi} = f^(k-1) * sum_{a=1}^{f} chi(a) B_k(a/f) with
    f the conductor; it computes L(1-k, chi) = -B_{k,chi}/k. Expanding
    B_k(x) about x = 1/2, where B_i(1/2) = (2^(1-i) - 1) B_i vanishes for
    odd i (DLMF 24.4.27), gives

        B_{k,chi} = 2^(-k) f^(-1) sum_{i even} C(k,i) (2 - 2^i) B_i f^i T_{k-i},
        T_m = sum_{a=1}^{f} chi(a) (2a - f)^m

    (Washington, Introduction to Cyclotomic Fields, ch. 4). B_{2,chi},
    B_{4,chi}, ... share the pass of _power_sums made for the largest k,
    when that is asked first. Before any sum is built, k is capped at
    2 * _MAX_ZETA_INDEX and f * k at _MAX_POWER_SUM_TERMS.
    """
    if k < 1:
        raise ValidationError("generalized Bernoulli index must be >= 1")
    f = chi.conductor
    if k > 2 * _MAX_ZETA_INDEX:
        raise ValidationError(
            f"generalized Bernoulli index {k} exceeds the cap of {2 * _MAX_ZETA_INDEX}"
        )
    _check_power_sum_terms(f, k)
    sums = _power_sums(chi, k)
    terms = [(i, bernoulli(i)) for i in range(0, k + 1, 2)]
    scale = lcm(*(b.denominator for _i, b in terms))
    numerator = sum(
        comb(k, i) * (2 - 2**i) * b.numerator * (scale // b.denominator)
        * f**i * sums[(k - i) // 2]
        for i, b in terms
    )
    return Fraction(numerator, scale * f * 2**k)


@lru_cache(maxsize=None)
def dedekind_zeta_neg(field: TotallyRealField, j: int) -> Fraction:
    """Exact zeta value of the field at 1 - 2j.

    Rationals use the Bernoulli formula directly; real quadratic fields
    multiply in L(1-2j, chi) = -B_{2j,chi}/(2j); external fields read their
    table. For totally real fields the result is a nonzero rational of
    sign (-1)^(j * degree). A j above _MAX_ZETA_INDEX is refused.
    """
    if j < 1:
        raise ValidationError("zeta argument index must be >= 1")
    if j > _MAX_ZETA_INDEX:
        raise ValidationError(
            f"zeta at 1-2j for j = {j} exceeds the cap of j <= {_MAX_ZETA_INDEX}"
        )
    if field.kind == _KIND_RATIONALS:
        return riemann_zeta_neg(j)
    if field.kind == _KIND_QUADRATIC:
        l_value = -gen_bernoulli(2 * j, field.character()) / (2 * j)
        return riemann_zeta_neg(j) * l_value
    if j > len(field.zeta_neg_table):
        raise ExternalFieldError(
            f"external zeta table has no entry for j={j}"
        )
    return field.zeta_neg_table[j - 1]


def _check_power_sum_terms(f: int, k: int) -> None:
    if f * k > _MAX_POWER_SUM_TERMS:
        raise ValidationError(
            f"conductor {f} times index {k} exceeds the cap of"
            f" {_MAX_POWER_SUM_TERMS} power-sum terms"
        )


def _check_zeta_caps(field: TotallyRealField, n: int) -> None:
    """The refusals of dedekind_zeta_neg(field, n), 1 <= n <= _MAX_ZETA_INDEX,
    which are those of every j <= n, with no zeta value computed; none for a
    field with a complex place, whose closed form reads no zeta value."""
    if field.kind == _KIND_QUADRATIC:
        _check_power_sum_terms(field.abs_discriminant, 2 * n)
    elif field.kind == _KIND_EXTERNAL and field.is_totally_real:
        dedekind_zeta_neg(field, n)


def _zetas_log10(field: TotallyRealField, n: int) -> float | None:
    """A lower bound on log10 |prod_{j<=n} dedekind_zeta_neg(field, j)| for a
    totally real field and 1 <= n <= _MAX_ZETA_INDEX, with no Bernoulli
    number computed: by the functional equation |zeta_F(1-2j)| =
    d_F^(2j-1/2) (2 (2j-1)! / (2 pi)^(2j))^degree zeta_F(2j), and
    zeta_F(2j) > 1. An external field's values are read from its table;
    None when it lacks one."""
    if field.kind == _KIND_EXTERNAL:
        values = field.zeta_neg_table[:n]
        if len(values) < n:
            return None
        return sum(log10(abs(z.numerator)) - log10(z.denominator) for z in values)
    return field.degree * _GAMMA_LOG10[n] + (n * n + n / 2) * log10(field.abs_discriminant)


# terms per block of _dirichlet_series: the powers m^(-2j) are held a block
# at a time, and one pass over them serves every series of a call. Each
# series keeps its sum at the end of every block for the _SERIES_KEYS most
# recently used (discriminant, 2j) keys; the Riemann sum is kept once, under
# (0, 2j). A series settles, and its kept sums end, within 14 blocks for
# 2j >= 4; only a 2j = 2 key grows toward 9,766 floats (about 76 KiB) at
# the 10^7-term cap, so the kept sums take about 2.4 MiB at worst.
_SERIES_BLOCK = 2**10
_SERIES_KEYS = 32
# (discriminant, 2j) -> array [s_0, s_1, ...] of the sums over
# m <= i * _SERIES_BLOCK, the least recently used key first. A call holds
# _series_lock throughout, so two threads never extend one array.
_series_prefixes: dict[tuple[int, int], array] = {}
_series_lock = threading.Lock()


@lru_cache(maxsize=1)
def _float_characters(discriminant: int) -> tuple[float, ...]:
    """_character_table(discriminant) as the floats 0.0, 1.0 and -1.0, the
    last one kept: chi * m^(-2j) is exact, and a float product is cheaper
    than an int one. Only _dirichlet_series calls it, under _series_lock."""
    return tuple(map((0.0, 1.0, -1.0).__getitem__, _character_table(discriminant)))


def _dirichlet_series(
    discriminants: tuple[int, ...], two_j: int, terms: int
) -> tuple[float, ...]:
    """The truncated series sum_{m<=terms} chi_D(m) m^(-two_j) for each D in
    discriminants, in their order; D = 0 is the trivial character, whose
    series is the Riemann one.

    Each m^(-two_j) is taken once and feeds every series that has not yet
    passed its block. A series resumes from the last sum kept in
    _series_prefixes at or below terms, so a call sums fewer than
    _SERIES_BLOCK terms that an earlier call of its key summed, and keeps
    the sums it passes. A series with terms left reads _float_characters.
    Each sum runs in ascending m through one sum() per block, started at the
    running sum, and the blocks are aligned at multiples of _SERIES_BLOCK
    from m = 1, so a float depends neither on where a call resumes nor on
    the call's other series. A series settles, and stops, at the first
    block start lo where its sum S has S +- b == S for b = 2 lo^(-two_j):
    pow is monotone in m up to a last-bit error that the 2 covers, and so
    is rounding, so no later term moves S; a resumed key settles again at
    once. On Python <= 3.11 sum() adds floats one at a time, so each float
    is bitwise that of a per-term loop over all terms; from 3.12 sum()
    compensates its rounding within a block, and would gather the dropped
    tail, so the last digits differ from the loop's. A term with
    chi_D(m) = 0 adds 0.0, which leaves the sum unchanged and costs less
    than skipping it.
    """
    with _series_lock:
        # D -> [kept sums, terms done, running sum, characters]
        series, first, left = {}, terms, []
        for discriminant in discriminants:
            key = (discriminant, two_j)
            prefixes = _series_prefixes.pop(key, None) or array("d", (0.0,))
            _series_prefixes[key] = prefixes
            if len(_series_prefixes) > _SERIES_KEYS:
                del _series_prefixes[next(iter(_series_prefixes))]
            kept = min(len(prefixes) - 1, terms // _SERIES_BLOCK)
            done = kept * _SERIES_BLOCK
            first = min(first, done)
            series[discriminant] = [prefixes, done, prefixes[kept], None]
            if discriminant and done < terms:
                left.append(discriminant)
        for d in left:
            table = _float_characters(d)
            start = (series[d][1] + 1) % len(table)
            series[d][3] = chain(islice(table, start, None), cycle(table))
        exponent = repeat(-two_j)
        for lo in range(first + 1, terms + 1, _SERIES_BLOCK):
            # a settled series counts as done: its later terms add nothing
            bound = 2.0 * lo**-two_j
            for s in series.values():
                if s[1] < lo and s[2] + bound == s[2] and s[2] - bound == s[2]:
                    s[1] = terms
            if all(s[1] == terms for s in series.values()):
                break
            active = [s for s in series.values() if s[1] < lo]
            hi = min(lo + _SERIES_BLOCK, terms + 1)
            # a lone active series sums its powers as made
            powers = map(pow, range(lo, hi), exponent)
            if len(active) > 1:
                powers = list(powers)
            for s in active:
                chars = s[3]
                s[2] = sum(map(mul, islice(chars, hi - lo), powers) if chars else powers, s[2])
                if hi - 1 == len(s[0]) * _SERIES_BLOCK:
                    s[0].append(s[2])
        return tuple([series[d][2] for d in discriminants])


def zeta_truncation_bound(field: TotallyRealField, j: int, terms: int) -> float:
    """Absolute truncation error bound degree * terms^(1-2j) / (2j-1)."""
    return field.degree * terms ** (1 - 2 * j) / (2 * j - 1)


# most series terms zeta_f_positive_even_numeric sums
_MAX_SERIES_TERMS = 10**7
# largest conductor of a real quadratic field
_MAX_CONDUCTOR = 10**6
# largest j of a zeta value at 1-2j, for every field
_MAX_ZETA_INDEX = 100
# log10 prod_{j<=n} 2 (2j-1)! / (2 pi)^(2j) for n = 0.._MAX_ZETA_INDEX
_GAMMA_LOG10 = list(accumulate(
    (log10(2) + lgamma(2 * j) / log(10) - 2 * j * log10(2 * pi)
     for j in range(1, _MAX_ZETA_INDEX + 1)),
    initial=0.0,
))
# most terms of one character's power sums: the conductor f times the
# largest gen_bernoulli index k
_MAX_POWER_SUM_TERMS = 4 * 10**6


def zeta_f_positive_even_numeric(
    field: TotallyRealField, j: int, terms: int
) -> float:
    """Floating-point zeta value of the field at 2j by truncated series.

    The quadratic case multiplies the Riemann series by the character
    series. The absolute truncation error is bounded by
    ``zeta_truncation_bound(field, j, terms)``. Only natively supported
    fields are allowed (external descriptors carry no character).
    """
    if j < 1:
        raise ValidationError("zeta argument index must be >= 1")
    if terms < 100:
        raise ValidationError("need at least 100 series terms")
    if terms > _MAX_SERIES_TERMS:
        raise ValidationError(
            f"{terms} series terms exceed the cap of {_MAX_SERIES_TERMS}"
        )
    if field.kind == _KIND_RATIONALS:
        return _dirichlet_series((0,), 2 * j, terms)[0]
    if field.kind == _KIND_QUADRATIC:
        riemann, twisted = _dirichlet_series((0, field.abs_discriminant), 2 * j, terms)
        return riemann * twisted
    raise ValidationError("numeric zeta needs a natively supported field")
