"""Bipartite double-Hall toolkit.

A bigraph satisfies the double Hall property when every X-subset of size at
least two has at least that many Y-vertices adjacent to two or more of its
members.  This package bundles exact checkers for that property and its
relatives, constructive cycle solvers, generators for the extremal graph
families, and a seeded random-graph laboratory, all behind one CLI.

Every public name of the submodules is a name of the package.  The
submodules are imported on the first access of such a name (PEP 562), so
``import dhp`` and a CLI call load only the modules they use.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# in the order of their names in __all__
_SUBMODULES = (
    "core", "formats", "budget", "checkers", "cycles", "constructions", "randlab", "errors"
)


def _bind_all() -> list[str]:
    """Import every submodule, bind its public names here and return them."""
    names: list[str] = []
    for sub in _SUBMODULES:
        mod = importlib.import_module(f"{__name__}.{sub}")
        globals().update((name, getattr(mod, name)) for name in mod.__all__)
        names += mod.__all__
    return names


def __getattr__(name: str):
    if name in _SUBMODULES:  # `from dhp import core` loads core alone
        return importlib.import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        globals()["__all__"] = _bind_all()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
