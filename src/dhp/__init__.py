"""Bipartite double-Hall toolkit.

A bigraph satisfies the double Hall property when every X-subset of size at
least two has at least that many Y-vertices adjacent to two or more of its
members.  This package bundles exact checkers for that property and its
relatives, constructive cycle solvers, generators for the extremal graph
families, and a seeded random-graph laboratory, all behind one CLI.
"""

from . import budget, checkers, constructions, core, cycles, errors, formats, randlab
from .budget import *
from .checkers import *
from .constructions import *
from .core import *
from .cycles import *
from .errors import *
from .formats import *
from .randlab import *

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + formats.__all__
    + budget.__all__
    + checkers.__all__
    + cycles.__all__
    + constructions.__all__
    + randlab.__all__
    + errors.__all__
)
