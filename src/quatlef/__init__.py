"""Exact invariants of congruence subgroups in quaternionic inner forms
of the special linear group: Lefschetz numbers of the symplectic
involution, Euler characteristics of fixed-point components, congruence
indices, and genera of the cocompact Fuchsian quotients, with exhaustive
and floating-point oracles cross-checking every local factor.

The package exports exactly the names in each module's ``__all__``.
``quaternion``, ``finitegrp``, ``lefschetz`` and ``verify`` run once, on first use."""

import importlib.util
import sys
import threading
import types

from .errors import *
from .exact import *
from .numberfield import *

__version__ = "0.1.0"

_LOCK = threading.RLock()  # serialises first uses; a load may start another
_LOADING = set()  # ids of the placeholders whose code is running


class _Deferred(types.ModuleType):
    """A module whose code runs on the first read or write of any attribute."""

    def __getattribute__(self, name):
        _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)


def _run(module) -> None:
    with _LOCK:
        # a running module reads and writes its own attributes as it loads
        if type(module) is _Deferred and id(module) not in _LOADING:
            _LOADING.add(id(module))
            try:
                types.ModuleType.__getattribute__(module, "__loader__").exec_module(module)
                module.__class__ = types.ModuleType
            finally:
                _LOADING.discard(id(module))


for _name in ("quaternion", "finitegrp", "lefschetz", "verify"):
    _module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{_name}"))
    _module.__class__ = _Deferred
    sys.modules[f"{__name__}.{_name}"] = globals()[_name] = _module
del _name, _module


def __getattr__(name):
    """The exported names of ``lefschetz`` and ``quaternion``, and ``__all__``."""
    if name == "__all__":
        return sorted(errors.__all__ + exact.__all__ + lefschetz.__all__
                      + numberfield.__all__ + quaternion.__all__)
    for module in (lefschetz, quaternion):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
