"""Exact invariants of congruence subgroups in quaternionic inner forms
of the special linear group: Lefschetz numbers of the symplectic
involution, Euler characteristics of fixed-point components, congruence
indices, and genera of the cocompact Fuchsian quotients, with exhaustive
and floating-point oracles cross-checking every local factor.

The package exports exactly the names in each module's ``__all__``."""

from .errors import *
from .exact import *
from .lefschetz import *
from .numberfield import *
from .quaternion import *

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__
    + exact.__all__
    + lefschetz.__all__
    + numberfield.__all__
    + quaternion.__all__
)
