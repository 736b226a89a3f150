"""Exception types shared across the package."""


class ArrhomError(Exception):
    """Base class for all package-specific errors."""


class OrderMismatch(ArrhomError):
    """Cyclotomic numbers of different orders were combined."""


class ModeMismatch(ArrhomError):
    """Exact and floating-point scalars were mixed in one matrix."""


class DuplicateLine(ArrhomError):
    """Two lines of an arrangement coincide as projective lines."""


class NotNormalized(ArrhomError):
    """An operation requiring a normalized arrangement got a raw one."""


class NormalizationFailed(ArrhomError):
    """The randomized normalization search exhausted its retry budget."""


class NotALocalSystem(ArrhomError):
    """Monodromy data violates the product-one constraint."""


class TrivialOnLine(ArrhomError):
    """The local system has trivial monodromy on some line."""


class InvariantError(ArrhomError):
    """An internal invariant of the computation does not hold: a program fault."""


class NotResonant(ArrhomError):
    """A point-row was requested at a non-resonant point."""


class NotAdjacent(ArrhomError):
    """A chamber coefficient was requested at a point that is not a vertex."""


class PencilNotCovered(ArrhomError):
    """The resonant-count bound does not apply to pencils (one intersection point)."""


class ParseError(ArrhomError):
    """An input file is malformed; carries a human-readable position."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location
