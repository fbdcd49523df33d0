"""Reference arithmetic for the benchmark's generators and output checks.

Everything here is written independently of the package under test and
uses only the standard library, so a check built on it is a second route
to the same number rather than a replay of the program's own code.
Generalized Bernoulli numbers use integer power sums instead of Bernoulli
polynomials, and float L-values use a truncated Dirichlet series closed
by an Euler-Maclaurin tail.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, pi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree(n: int) -> bool:
    return n > 0 and all(e == 1 for e in prime_factors(n).values())


def conductor(d: int) -> int:
    """Absolute discriminant of Q(sqrt(d)) for squarefree d > 1."""
    return d if d % 4 == 1 else 4 * d


def kronecker(D: int, m: int) -> int:
    """Kronecker symbol (D/m) for a discriminant D = 0, 1 mod 4 and m >= 1."""
    result = 1
    while m % 2 == 0:
        m //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    a, n = D % m, m
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


def character_table(D: int) -> list[int]:
    """chi(a) for a = 0 .. |D|-1; D = 1 gives the trivial character."""
    f = abs(D)
    return [1] if f == 1 else [0] + [kronecker(D, a) for a in range(1, f)]


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    if k == 0:
        return Fraction(1)
    return -sum(comb(k + 1, j) * bernoulli(j) for j in range(k)) / (k + 1)


@lru_cache(maxsize=256)
def gen_bernoulli_list(D: int, kmax: int) -> tuple[Fraction, ...]:
    """B_{k,chi} for k = 0 .. kmax and the character of discriminant D, by
    power sums: B_{k,chi} = sum_i C(k,i) B_i f^(i-1) S_{k-i} with
    S_m = sum_{a=1}^{f} chi(a) a^m."""
    f = abs(D)
    chi = character_table(D)
    sums = [0] * (kmax + 1)
    for a in range(1, f + 1):
        c = chi[a % f]
        if c:
            power = c
            for m in range(kmax + 1):
                sums[m] += power
                power *= a
    return tuple(
        sum(
            comb(k, i) * bernoulli(i) * Fraction(f) ** (i - 1) * sums[k - i]
            for i in range(k + 1)
        )
        for k in range(kmax + 1)
    )


def riemann_zeta_neg(j: int) -> Fraction:
    return -bernoulli(2 * j) / (2 * j)


def field_zeta_neg(d: int, jmax: int) -> list[Fraction]:
    """Exact zeta values at 1-2j, j = 1 .. jmax, of Q (d = 1) or Q(sqrt d):
    zeta(1-2j) L(1-2j, chi_D) with L(1-2j, chi) = -B_{2j,chi}/(2j)."""
    if d == 1:
        return [riemann_zeta_neg(j) for j in range(1, jmax + 1)]
    gen = gen_bernoulli_list(conductor(d), 2 * jmax)
    return [riemann_zeta_neg(j) * (-gen[2 * j] / (2 * j)) for j in range(1, jmax + 1)]


def l_series_even_float(D: int, jmax: int) -> list[float]:
    """L(2j, chi_D) for j = 1 .. jmax in floating point.

    Sums the Dirichlet series over m <= P f and closes each residue class
    a + t f, t >= P, with its first Euler-Maclaurin terms; the next term
    is below 1e-10 relative for f >= 100 at P = 8 and for f = 1 at P = 64.
    """
    f = abs(D)
    periods = 64 if f == 1 else 8
    chi = character_table(D)
    totals = [0.0] * jmax
    for m in range(1, periods * f + 1):
        c = chi[m % f]
        if c:
            step = 1.0 / (m * m)
            power = c * step
            for idx in range(jmax):
                totals[idx] += power
                power *= step
    for a in range(1, f + 1):
        c = chi[a % f]
        if c:
            x = float(periods * f + a)
            for idx in range(jmax):
                s = 2 * idx + 2
                totals[idx] += c * (
                    x ** (1 - s) / (f * (s - 1))
                    + x ** (-s) / 2
                    + s * f * x ** (-s - 1) / 12
                    - s * (s + 1) * (s + 2) * f**3 * x ** (-s - 3) / 720
                )
    return totals


def functional_equation_rhs(abs_disc: int, degree: int, j: int, zeta_2j: float) -> float:
    """zeta_K(1-2j) predicted from zeta_K(2j) by the functional equation
    of a totally real field of the given degree and discriminant."""
    gamma = (2 * factorial(2 * j - 1) / (2 * pi) ** (2 * j)) ** degree
    return (-1) ** (j * degree) * zeta_2j * float(abs_disc) ** ((4 * j - 1) / 2) * gamma


def sl_order(m: int, q: int) -> int:
    """|SL_m(F_q)| = q^(m(m-1)/2) prod_{i=2}^{m} (q^i - 1)."""
    value = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        value *= q**i - 1
    return value


def ramified_reduction_order(n: int, q: int) -> Fraction:
    """q^(4n^2-1) (1 + 1/q) prod_{j=2}^{n} (1 - q^(-2j))."""
    value = Fraction(q ** (4 * n * n - 1)) * (1 + Fraction(1, q))
    for j in range(2, n + 1):
        value *= 1 - Fraction(1, q ** (2 * j))
    return value
