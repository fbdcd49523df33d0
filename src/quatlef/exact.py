"""Exact scalar arithmetic.

Carriers for every exact quantity in the package: arbitrary-precision
rationals (plain ``fractions.Fraction`` values, always reduced, positive
denominator, no rounding), the Bernoulli machinery behind zeta values at
negative odd integers, and a closed symbolic scalar ``q * pi^k * sqrt(m)``
used for compact-group volumes and discriminant square roots.

No floating point enters this module; floats appear only in the explicitly
numeric cross-check paths elsewhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, pi, sqrt

from .errors import ValidationError

__all__ = [
    "SymbolicScalar",
    "bernoulli",
    "bernoulli_poly_eval",
    "riemann_zeta_neg",
    "parse_rational",
    "format_rational",
]

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or plain ``"p"``) into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as ``"p/q"``, or just ``"p"`` when integral."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k under the convention B_1 = -1/2.

    Computed from the defining recurrence
    ``sum_{j=0}^{m} C(m+1, j) B_j = 0`` for m >= 1. Values are memoised
    behind a lock, so concurrent callers are safe.
    """
    if k < 0:
        raise ValidationError("Bernoulli index must be >= 0")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= k:
            m = len(_bernoulli_cache)
            acc = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
            _bernoulli_cache.append(-acc / (m + 1))
        return _bernoulli_cache[k]


def bernoulli_poly_eval(k: int, x: Fraction | int) -> Fraction:
    """Evaluate the Bernoulli polynomial B_k(x) = sum_i C(k,i) B_i x^(k-i)."""
    if k < 0:
        raise ValidationError("Bernoulli polynomial degree must be >= 0")
    x = Fraction(x)
    total = Fraction(0)
    for i in range(k + 1):
        total += comb(k, i) * bernoulli(i) * x ** (k - i)
    return total


def riemann_zeta_neg(j: int) -> Fraction:
    """zeta(1 - 2j) = -B_{2j} / (2j) for j >= 1.

    Always a nonzero rational of sign (-1)^j.
    """
    if j < 1:
        raise ValidationError("zeta argument index must be >= 1")
    return -bernoulli(2 * j) / (2 * j)


def _extract_square(m: int) -> tuple[int, int]:
    """Split m >= 1 as m = s^2 * m0 with m0 squarefree; return (s, m0)."""
    s, m0, d = 1, 1, 2
    while d * d <= m:
        if m % d == 0:
            count = 0
            while m % d == 0:
                m //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                m0 *= d
        d += 1 if d == 2 else 2
    return s, m0 * m


@dataclass(frozen=True)
class SymbolicScalar:
    """Exact scalar of the closed form ``coeff * pi^pi_exp * sqrt(radicand)``.

    The radicand is kept squarefree (square parts are pulled into the
    coefficient on construction) and zero is canonical: coeff 0 forces
    pi_exp 0 and radicand 1. Multiplication is closed because the product
    of two square roots again has a single squarefree radicand. Equality
    and hashing compare the three normalised fields.
    """

    coeff: Fraction
    pi_exp: int = 0
    radicand: int = 1

    def __post_init__(self) -> None:
        coeff = Fraction(self.coeff)
        if self.radicand < 1:
            raise ValidationError("radicand must be a positive integer")
        square, squarefree = _extract_square(self.radicand)
        coeff *= square
        pi_exp = int(self.pi_exp)
        if coeff == 0:
            pi_exp, squarefree = 0, 1
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exp", pi_exp)
        object.__setattr__(self, "radicand", squarefree)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "SymbolicScalar":
        return cls(Fraction(value))

    def __mul__(self, other: "SymbolicScalar | Fraction | int") -> "SymbolicScalar":
        if isinstance(other, (int, Fraction)):
            other = SymbolicScalar.from_rational(other)
        elif not isinstance(other, SymbolicScalar):
            return NotImplemented
        g = gcd(self.radicand, other.radicand)
        return SymbolicScalar(
            self.coeff * other.coeff * g,
            self.pi_exp + other.pi_exp,
            (self.radicand // g) * (other.radicand // g),
        )

    __rmul__ = __mul__

    def inverse(self) -> "SymbolicScalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.coeff == 0:
            raise ZeroDivisionError("cannot invert the zero scalar")
        return SymbolicScalar(
            1 / (self.coeff * self.radicand), -self.pi_exp, self.radicand
        )

    def __pow__(self, exponent: int) -> "SymbolicScalar":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return SymbolicScalar(Fraction(1))
        base = self if exponent > 0 else self.inverse()
        k = abs(exponent)
        coeff = base.coeff**k * base.radicand ** (k // 2)
        return SymbolicScalar(coeff, base.pi_exp * k, base.radicand if k % 2 else 1)

    @property
    def is_rational(self) -> bool:
        return self.pi_exp == 0 and self.radicand == 1

    def to_float(self) -> float:
        return float(self.coeff) * pi**self.pi_exp * sqrt(self.radicand)

    def __str__(self) -> str:
        if self.coeff == 0:
            return "0"
        parts = []
        if self.coeff != 1 or (self.pi_exp == 0 and self.radicand == 1):
            parts.append(format_rational(self.coeff))
        if self.pi_exp == 1:
            parts.append("pi")
        elif self.pi_exp:
            parts.append(f"pi^{self.pi_exp}")
        if self.radicand != 1:
            parts.append(f"sqrt({self.radicand})")
        return "*".join(parts)
