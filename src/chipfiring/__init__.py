"""Chip-firing games on multigraphs: halting, recurrence, winnability, exact
divisor rank and distance solvers, minimum target set selection, and
cross-verified gadget reductions between the two worlds.

The public surface is the union of the submodules' `__all__` lists."""

from . import chipfire, distance, errors, multigraph, oracles, reductions, tss
from .chipfire import *
from .distance import *
from .errors import *
from .multigraph import *
from .oracles import *
from .reductions import *
from .tss import *

__all__ = (
    chipfire.__all__ + distance.__all__ + errors.__all__ + multigraph.__all__
    + oracles.__all__ + reductions.__all__ + tss.__all__
)

__version__ = "0.1.0"
