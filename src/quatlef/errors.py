"""Exception hierarchy shared across the package."""

__all__ = [
    "QuatlefError",
    "ValidationError",
    "TorsionError",
    "NotFuchsianError",
    "SearchSpaceError",
    "ExternalFieldError",
]


class QuatlefError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QuatlefError, ValueError):
    """Invalid input data or violated construction invariant."""


class TorsionError(QuatlefError):
    """The torsion necessary condition fails and no override was given.

    The computed formulas assume the congruence group is torsion-free;
    when -1 = 1 modulo the level the group certainly is not, and the
    caller must pass ``assume_torsion_free`` to proceed anyway.
    """


class NotFuchsianError(ValidationError):
    """Genus requested for an algebra whose unit group is not Fuchsian."""


class SearchSpaceError(ValidationError):
    """An exhaustive enumeration oracle was asked to scan too many states."""


class ExternalFieldError(ValidationError):
    """An external field descriptor is missing required table data."""


class InvariantError(QuatlefError):
    """A computed value broke a law it must satisfy, such as a sign law or
    integrality; unlike ``assert``, the check also runs under ``python -O``."""
