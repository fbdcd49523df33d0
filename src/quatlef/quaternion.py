"""Quaternion algebra descriptors over the base field.

An algebra is recorded purely by its ramification data: the set of finite
ramified primes and the count of ramified real places. Hilbert reciprocity
forces the total number of ramified places to be even, which the
constructor enforces. Over the rationals an algebra can also be built from
a presentation (a, b) via local Hilbert symbols.

A maximal order is fixed implicitly; no formula here depends on the
choice, so it is a documented assumption rather than data.
"""

from __future__ import annotations

from .errors import ValidationError
from .exact import _Value
from .numberfield import PrimeIdeal, TotallyRealField, factorize, is_prime
from .numberfield import kronecker_symbol, split_prime

__all__ = [
    "QuaternionAlgebra",
    "hilbert_symbol_q",
    "hilbert_ramification_q",
]


class QuaternionAlgebra(_Value):
    """Ramification data of a quaternion algebra over the base field."""

    __slots__ = ("field", "ram_finite", "ram_real_count")

    def __init__(self, field: TotallyRealField, ram_finite: tuple[PrimeIdeal, ...] = (),
                 ram_real_count: int = 0) -> None:
        primes = tuple(sorted(ram_finite))
        if len(set(primes)) != len(primes):
            raise ValidationError("finite ramified primes must be pairwise distinct")
        for prime in primes:
            if prime not in split_prime(field, prime.p):
                raise ValidationError(
                    f"prime {prime} does not belong to {field.describe()}"
                )
        if not 0 <= ram_real_count <= field.num_real_places:
            raise ValidationError(
                "ramified real place count must lie in [0, number of real places]"
            )
        if (len(primes) + ram_real_count) % 2:
            raise ValidationError(
                "total number of ramified places must be even (Hilbert reciprocity)"
            )
        self._set((field, primes, ram_real_count))

    @property
    def r(self) -> int:
        """Number of ramified real places."""
        return self.ram_real_count

    @property
    def s(self) -> int:
        """Number of split real places."""
        return self.field.num_real_places - self.ram_real_count

    def signed_reduced_discriminant(self) -> int:
        """(-1)^r times the product of the norms of finite ramified primes."""
        value = (-1) ** self.ram_real_count
        for prime in self.ram_finite:
            value *= prime.norm
        return value

    def is_division(self) -> bool:
        return bool(self.ram_finite) or self.ram_real_count > 0

    def is_totally_definite(self) -> bool:
        return (
            self.field.is_totally_real
            and self.ram_real_count == self.field.num_real_places
        )

    def is_fuchsian(self) -> bool:
        """Division algebra split at exactly one real place."""
        return self.is_division() and self.s == 1

    def describe(self) -> str:
        primes = ",".join(str(p) for p in self.ram_finite) or "-"
        return f"D(ram_f=[{primes}], ram_real={self.ram_real_count})"


def _split_power(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p^v u and p not dividing u."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def _hilbert_symbol_odd(a: int, b: int, p: int) -> int:
    (alpha, u), (beta, w) = _split_power(a, p), _split_power(b, p)
    symbol = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        symbol = -symbol
    if beta % 2:
        symbol *= kronecker_symbol(u, p)
    if alpha % 2:
        symbol *= kronecker_symbol(w, p)
    return symbol


def _hilbert_symbol_2(a: int, b: int) -> int:
    (alpha, u), (beta, w) = _split_power(a, 2), _split_power(b, 2)
    eps_u = ((u - 1) // 2) % 2
    eps_w = ((w - 1) // 2) % 2
    omega_u = ((u * u - 1) // 8) % 2
    omega_w = ((w * w - 1) // 8) % 2
    exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exponent % 2 else 1


def hilbert_symbol_q(a: int, b: int, p: int | None = None) -> int:
    """Local Hilbert symbol (a, b)_p over the rationals.

    p None denotes the real place. Only the tame odd-prime formula and the
    standard dyadic formula are needed over Q.
    """
    if a == 0 or b == 0:
        raise ValidationError("Hilbert symbol arguments must be nonzero")
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if p == 2:
        return _hilbert_symbol_2(a, b)
    return _hilbert_symbol_odd(a, b, p)


def hilbert_ramification_q(a: int, b: int) -> QuaternionAlgebra:
    """Quaternion algebra over Q presented by i^2 = a, j^2 = b.

    Evaluates the local symbol at the real place and at every prime
    dividing 2ab; the algebra ramifies exactly where the symbol is -1. The
    result always satisfies the even-parity invariant, which doubles as a
    cross-check of the symbol computations.
    """
    if a == 0 or b == 0:
        raise ValidationError("presentation constants must be nonzero")
    field = TotallyRealField.rationals()
    candidates = sorted({2, *(p for p, _ in factorize(abs(a) * abs(b)))})
    ram = tuple(
        PrimeIdeal(p) for p in candidates if hilbert_symbol_q(a, b, p) == -1
    )
    ram_real = 1 if hilbert_symbol_q(a, b) == -1 else 0
    return QuaternionAlgebra(field, ram, ram_real)
