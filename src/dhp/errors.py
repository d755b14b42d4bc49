"""Exception types shared across the toolkit.

Every error raised deliberately by this package derives from DhpError, so
callers (and the CLI) can distinguish "the input or request was bad" from
"a bug or broken internal guarantee".
"""

__all__ = [
    "DhpError",
    "GraphInputError",
    "ParseError",
    "DomainError",
    "BudgetExceededError",
    "ContractViolationError",
    "ConstructionError",
    "DesignImportError",
    "ResourceLimitError",
    "ConfigError",
    "WitnessError",
]


class DhpError(Exception):
    """Base class for all toolkit-specific errors."""


class GraphInputError(DhpError, ValueError):
    """Malformed graph data: bad dimensions, out-of-range indices, and similar."""


class ParseError(DhpError, ValueError):
    """A text payload could not be parsed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class DomainError(DhpError, ValueError):
    """A documented precondition of an operation was violated."""


class BudgetExceededError(DhpError, RuntimeError):
    """The work budget ran out before the question was decided.

    This is a distinct outcome, not a verdict: callers that see it know
    nothing about the property they asked about.
    """


class ContractViolationError(DhpError, RuntimeError):
    """An internal guarantee failed; under the stated preconditions this
    should be impossible, so it indicates a bug (for example a cycle the
    solver built that fails its own validation), never bad input."""


class ConstructionError(DhpError, ValueError):
    """A constructor's inputs do not satisfy its combinatorial requirements."""


class DesignImportError(DhpError, ValueError):
    """An imported block design failed validation."""


class ResourceLimitError(DhpError, ValueError):
    """A requested object exceeds a hard size guard (for example product
    graphs beyond 2**20 vertices per side)."""


class ConfigError(DhpError, ValueError):
    """An experiment or CLI configuration is inconsistent."""


class WitnessError(DhpError, ValueError):
    """A cycle or path witness does not satisfy its structural invariants."""
