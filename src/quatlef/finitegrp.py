"""Orders of the finite matrix groups entering the local factors.

Closed forms for special linear, symplectic and unitary groups over finite
fields, and for the norm-one units of the ramified local quaternion model,
each a product of integers: a power of q times factors q^j -+ 1. Each
closed form is paired with an exhaustive enumeration oracle that recounts
the group at tiny sizes; the oracles are capped by an explicit state-space
bound so the suite stays deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import mul

from .errors import SearchSpaceError, ValidationError
from .numberfield import _MILLER_RABIN_BOUND, _iroot, is_prime

__all__ = [
    "sl_order",
    "sp_order",
    "unitary_order",
    "ramified_local_order",
    "local_index_factor",
    "brute_force_sl",
    "brute_force_sp",
    "brute_force_unitary",
    "brute_force_ramified_sl1",
]

_MAX_STATES = 1 << 24
# (q, kind, n) whose reduction orders local_index_factor keeps; one order
# at n = 100 has about 40,000 log10(q) digits
_REDUCTION_ORDERS_KEPT = 256


def _require_prime_power(q: int) -> None:
    # q = p^e when some e-th root of q, 2^e <= q, is whole and prime; e = 1
    # goes last above the bound where is_prime(q) itself is not proven
    proven = q < _MILLER_RABIN_BOUND
    if q < 2 or not (
        (proven and is_prime(q))
        or any((p := _iroot(q, e)) ** e == q and is_prime(p) for e in range(2, q.bit_length()))
        or (not proven and is_prime(q))
    ):
        raise ValidationError(f"{q} is not a prime power")


def _require_rank(n: int, q: int) -> None:
    if n < 1:
        raise ValidationError("rank must be >= 1")
    _require_prime_power(q)


def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValidationError(f"{q} is not prime")


def _cap(states: int) -> None:
    if states > _MAX_STATES:
        raise SearchSpaceError(
            f"enumeration of {states} states exceeds the cap of {_MAX_STATES}"
        )


def _sl_product(m: int, q: int) -> int:
    # |SL_m(F_q)| for m >= 2 and a prime power q its callers have checked
    return q ** (m * (m - 1) // 2) * prod(q**j - 1 for j in range(2, m + 1))


def sl_order(m: int, q: int) -> int:
    """|SL_m(F_q)| = q^(m(m-1)/2) * prod_{j=2}^{m} (q^j - 1)."""
    if m < 2:
        raise ValidationError("matrix size must be >= 2")
    _require_prime_power(q)
    return _sl_product(m, q)


def sp_order(n: int, q: int) -> int:
    """|Sp_n(F_q)| (2n x 2n matrices) = q^(n^2) * prod_{j=1}^{n} (q^(2j) - 1)."""
    _require_rank(n, q)
    return q ** (n * n) * prod(q ** (2 * j) - 1 for j in range(1, n + 1))


def unitary_order(n: int, q: int) -> int:
    """|U_n(F_q^2 / F_q)| = q^(n(n-1)/2) * prod_{j=1}^{n} (q^j - (-1)^j)."""
    _require_rank(n, q)
    return q ** (n * (n - 1) // 2) * prod(q**j - (-1) ** j for j in range(1, n + 1))


def ramified_local_order(n: int, q: int) -> int:
    """Order of the fixed-point group over the residue field at a place
    where the quaternion algebra ramifies:
    q^(n(3n+1)/2) * prod_{j=1}^{n} (q^j - (-1)^j).

    Coincides with unitary_order(n, q) * q^(n(n+1)), the order of the
    semidirect product of the unitary group with the symmetric matrices.
    """
    _require_rank(n, q)
    return q ** (n * (3 * n + 1) // 2) * prod(q**j - (-1) ** j for j in range(1, n + 1))


def local_index_factor(q: int, kind: str, n: int, e: int) -> int:
    """Contribution of one prime power to the congruence-subgroup index.

    q^((e-1)(4n^2-1)) times the order of the reduction modulo the prime:
    |SL_2n(F_q)| at split primes, and
    q^(n(3n-1)) (q + 1) prod_{j=2}^{n} (q^(2j) - 1) at ramified ones.
    """
    if e < 1:
        raise ValidationError("prime exponent must be >= 1")
    order = _reduction_order(q, kind, n)  # checks n, q and kind before the lift
    return q ** ((e - 1) * (4 * n * n - 1)) * order


@lru_cache(maxsize=_REDUCTION_ORDERS_KEPT)
def _reduction_order(q: int, kind: str, n: int) -> int:
    """The order of the reduction of local_index_factor, kept for the last
    _REDUCTION_ORDERS_KEPT (q, kind, n); a refused input is not kept."""
    _require_rank(n, q)
    if kind == "split":
        return _sl_product(2 * n, q)
    if kind == "ramified":
        lead = q ** (n * (3 * n - 1)) * (q + 1)
        return lead * prod(q ** (2 * j) - 1 for j in range(2, n + 1))
    raise ValidationError(f"unknown local kind {kind!r}")


def _det_mod(rows: list[tuple[int, ...]], modulus: int) -> int:
    """Determinant modulo N by cofactor expansion along the first row."""
    m = len(rows)
    if m == 1:
        return rows[0][0] % modulus
    if m == 2:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % modulus
    total = 0
    for col in range(m):
        a = rows[0][col]
        if a == 0:
            continue
        minor = [
            tuple(row[c] for c in range(m) if c != col) for row in rows[1:]
        ]
        term = a * _det_mod(minor, modulus)
        total += -term if col % 2 else term
    return total % modulus


@lru_cache(maxsize=None)
def brute_force_sl(m: int, n_mod: int) -> int:
    """Count m x m matrices over Z/N with determinant 1 by full enumeration."""
    if m < 1 or n_mod < 2:
        raise ValidationError("need matrix size >= 1 and modulus >= 2")
    _cap(n_mod ** (m * m))
    rows = list(itertools.product(range(n_mod), repeat=m))
    return sum(
        _det_mod(list(mat), n_mod) == 1 for mat in itertools.product(rows, repeat=m)
    )


@lru_cache(maxsize=None)
def brute_force_sp(n: int, q: int) -> int:
    """Count 2n x 2n matrices g over F_q with g^T J g = J by enumeration.

    J is the standard symplectic matrix, so g^T J g = J says that columns
    i < j of g pair to J[i][j] under x^T J y (the rest follows by
    antisymmetry): each column runs over all of F_q^(2n) and is kept when
    it pairs so with every earlier column.
    """
    if n < 1:
        raise ValidationError("rank must be >= 1")
    _require_prime(q)
    size = 2 * n
    _cap(q ** (size * size))
    vectors = list(itertools.product(range(q), repeat=size))
    partial = [()]
    for j in range(size):
        grown = []
        for columns in partial:
            fits = vectors
            for i, x in enumerate(columns):
                # x^T J v is the dot product of v with (-x[n:], x[:n])
                dual, pairing = tuple(-t for t in x[n:]) + x[:n], int(j == i + n)
                fits = [v for v in fits if sum(map(mul, dual, v)) % q == pairing]
            grown += [columns + (v,) for v in fits]
        partial = grown
    return len(partial)


def _quadratic_extension(q: int):
    """Multiplication and Frobenius tables for F_{q^2} = F_q[x]/(x^2+bx+c).

    Uses the lexicographically first irreducible monic quadratic, so the
    construction is deterministic. Elements are encoded as a + b*x -> a + q*b.
    """
    b, c = next(
        (b, c)
        for b in range(q)
        for c in range(q)
        if all((t * t + b * t + c) % q for t in range(q))
    )
    q2 = q * q
    mul = [[0] * q2 for _ in range(q2)]
    for z1 in range(q2):
        a1, b1 = z1 % q, z1 // q
        for z2 in range(q2):
            a2, b2 = z2 % q, z2 // q
            t2 = b1 * b2
            re = (a1 * a2 - t2 * c) % q
            im = (a1 * b2 + b1 * a2 - t2 * b) % q
            mul[z1][z2] = re + q * im
    conj = [_pow_table(mul, z, q) for z in range(q2)]
    return mul, conj


def _pow_table(mul, z: int, e: int) -> int:
    acc, base = 1, z
    while e:
        if e & 1:
            acc = mul[acc][base]
        base = mul[base][base]
        e >>= 1
    return acc


@lru_cache(maxsize=None)
def brute_force_unitary(n: int, q: int) -> int:
    """Count n x n matrices g over F_{q^2} with conj(g)^T g = 1."""
    if n < 1:
        raise ValidationError("rank must be >= 1")
    _require_prime(q)
    q2 = q * q
    _cap(q2 ** (n * n))
    mul, conj = _quadratic_extension(q)
    count = 0
    cells = range(q2)
    for flat in itertools.product(cells, repeat=n * n):
        ok = True
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    term = mul[conj[flat[k * n + i]]][flat[k * n + j]]
                    # componentwise addition on the a + q*b encoding
                    acc = (acc % q + term % q) % q + q * (
                        (acc // q + term // q) % q
                    )
                expected = 1 if i == j else 0
                if acc != expected:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@lru_cache(maxsize=None)
def brute_force_ramified_sl1(q: int) -> int:
    """Count norm-one elements of the ramified local model by enumeration.

    The model is the set of pairs x + y*u with x, y in F_{q^2}; the reduced
    norm descends to the field norm of the x component, so the count is the
    number of pairs with x^(q+1) = 1.
    """
    _require_prime(q)
    q2 = q * q
    _cap(q2 * q2)
    mul, conj = _quadratic_extension(q)
    count = 0
    for x in range(q2):
        for _y in range(q2):
            if mul[x][conj[x]] == 1:
                count += 1
    return count
