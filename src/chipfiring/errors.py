"""Exception hierarchy shared by all modules."""

__all__ = [
    "ChipFiringError", "DisconnectedGraphError", "FormatError", "GraphStructureError",
    "IllegalFiringError", "InvalidVertexError", "SizeGuardError", "WitnessError",
]


class ChipFiringError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidVertexError(ChipFiringError, IndexError):
    """A vertex id is outside the range [0, n)."""


class GraphStructureError(ChipFiringError, ValueError):
    """A graph, divisor, or threshold vector violates a structural requirement."""


class DisconnectedGraphError(GraphStructureError):
    """The operation is only defined on connected graphs.

    This is the GraphStructureError for a graph that must be connected and is
    not, so callers that catch GraphStructureError also catch it.
    """


class FormatError(ChipFiringError, ValueError):
    """A text or JSON input file could not be parsed."""


class IllegalFiringError(ChipFiringError, ValueError):
    """A firing sequence fired an inactive vertex while legality was required."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class SizeGuardError(ChipFiringError, ValueError):
    """An exhaustive search was requested beyond its size guard."""


class WitnessError(ChipFiringError, ValueError):
    """A supplied witness fails a required property: a seed set that is not
    a target set, or a top-up that is not effective or leaves no recurrent
    divisor."""
