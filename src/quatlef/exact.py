"""Exact scalar arithmetic.

Carriers for every exact quantity in the package: arbitrary-precision
rationals (plain ``fractions.Fraction`` values, always reduced, positive
denominator, no rounding), the Bernoulli machinery behind zeta values at
negative odd integers, and a closed symbolic scalar ``q * pi^k`` used for
compact-group volumes.

No floating-point arithmetic happens in this module; floats appear only in
the explicitly numeric cross-check paths elsewhere, and as the JSON numbers
that ``_read_json`` hands on.
"""

from __future__ import annotations

import json
import sys
import threading
from fractions import Fraction
from math import comb, gcd, pi

from .errors import ValidationError

__all__ = [
    "SymbolicScalar",
    "bernoulli",
    "riemann_zeta_neg",
    "parse_rational",
    "format_rational",
]

def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or plain ``"p"``, or a decimal such as ``"1.5e-3"``)
    into an exact rational. An exponent that alone stands for more digits
    than Python reads is refused before any power of ten is built."""
    _, e, exponent = str(text).lower().rpartition("e")
    try:
        digits = abs(int(exponent)) + 1 if e else 0
    except ValueError:
        digits = 0
    if 0 < sys.get_int_max_str_digits() < digits:
        raise _read_limit_error()
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        _check_digit_runs(str(text))
        raise ValidationError(f"not a rational: {text!r}") from exc


def _int(text: str) -> int:
    """int(text), refusing text that is no integer or that has more digits
    than Python reads, in the package's own words."""
    if 0 < sys.get_int_max_str_digits() < sum(map(str.isdigit, text)):
        raise _read_limit_error()
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"not an integer: {text!r}") from None


def _check_digit_runs(text: str) -> None:
    """Refuse text in which one run of digits, the most that Python reads as
    one integer, is longer than its text-to-integer limit."""
    runs = "".join(c if c.isdigit() or c == "_" else " " for c in text).split()
    longest = max((len(run.replace("_", "")) for run in runs), default=0)
    if 0 < sys.get_int_max_str_digits() < longest:
        raise _read_limit_error()


def _read_limit_error() -> ValidationError:
    """The refusal of input text too long for Python's text-to-integer limit."""
    return ValidationError(
        f"an input integer has more than {sys.get_int_max_str_digits()} digits,"
        " the limit for reading an integer from text"
    )


def _read_json(text: str):
    """json.loads(text) with every integer read by _int; text nested too
    deeply for the decoder is refused in the package's own words."""
    try:
        return json.loads(text, parse_int=_int)
    except RecursionError:
        raise ValidationError("JSON nested too deeply to read") from None


def _digit_limit_error() -> ValidationError:
    """The refusal of a value too long for Python's integer-to-text limit."""
    return ValidationError(
        f"a value has more than {sys.get_int_max_str_digits()} digits, the limit"
        " for writing an integer as text; a smaller --n or --level shortens it"
    )


def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as ``"p/q"``, or just ``"p"`` when integral.
    A value beyond the digit limit of Python's integer-to-text conversion
    raises ValidationError."""
    return _ratio_text(*value.as_integer_ratio())


def _ratio_text(num: int, den: int, scale_num=1, scale_den=1, shift=0) -> str:
    """format_rational of num/den * scale_num/scale_den / 2^shift, both ratios in
    lowest terms with positive denominators, reduced by cross gcds and shifts."""
    g, h = gcd(num, scale_den), gcd(scale_num, den)
    num, den = num // g * (scale_num // h), den // h * (scale_den // g)
    k = min((num & -num).bit_length() - 1, shift) if num else shift
    num, den = num >> k, den << (shift - k)
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise _digit_limit_error() from None


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


class _Value:
    """Base of the package's immutable values. Each subclass names its
    fields in __slots__ and sets them once, in __init__, through _set.
    Assigning or deleting a field raises AttributeError; values compare,
    hash, print, pickle and copy by their fields, in order."""

    __slots__ = ("_values", "_hash")

    def __init_subclass__(cls) -> None:
        # the fields of every class from the one below _Value down, in order
        cls._fields = tuple(n for c in reversed(cls.__mro__[:-2]) for n in c.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _set(self, values: tuple) -> None:
        _set_values(self, values)
        _set_hash(self, None)
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    __setstate__ = _set

    def __reduce__(self):
        return object.__new__, (self.__class__,), self._values

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values == other._values if same else NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:  # the first hash, kept: the fields never change
            _set_hash(self, hash(self._values))
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"


# each slot's own setter, as in _setters: the refusing __setattr__ never
# sees it, and it is quicker to call than object.__setattr__
_set_values, _set_hash = (_Value.__dict__[name].__set__ for name in _Value.__slots__)


class SymbolicScalar(_Value):
    """Exact scalar of the closed form ``coeff * pi^pi_exp``.

    Zero is canonical: coeff 0 forces pi_exp 0. Equality and hashing
    compare the two normalised fields.
    """

    __slots__ = ("coeff", "pi_exp")

    def __init__(self, coeff: Fraction | int, pi_exp: int = 0) -> None:
        coeff = Fraction(coeff)
        self._set((coeff, int(pi_exp) if coeff else 0))

    def to_float(self) -> float:
        return float(self.coeff) * pi**self.pi_exp
