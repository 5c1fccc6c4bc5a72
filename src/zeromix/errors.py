"""Exception types shared across the package.

Numeric failure modes (near-zero denominators, zeros inside a disk that an
approximation scheme assumed zero-free, violated hypotheses of a bound) get
dedicated types so callers and the CLI can distinguish "the math said no"
from plain usage errors.
"""


class ZeromixError(Exception):
    """Base class for all package errors."""


class GraphParseError(ZeromixError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class BoundaryError(ZeromixError):
    """Invalid boundary condition (bad domain, bad values, non-independent in-set)."""


class SizeLimitError(ZeromixError):
    """Input exceeds a configured brute-force limit."""


class FloatRangeError(ZeromixError, OverflowError):
    """A value or an exact coefficient lies beyond the float64 range."""


class NearZeroDenominatorError(ZeromixError):
    """A ratio's denominator is zero to working precision.

    abs_denominator holds |Z| at the offending point; point holds the
    evaluation argument when known.
    """

    def __init__(self, message, abs_denominator, point=None):
        super().__init__(message)
        self.abs_denominator = abs_denominator
        self.point = point


class ZeroRegionViolationError(ZeromixError):
    """A partition-function zero lies inside a region assumed zero-free."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class HypothesisViolationError(ZeromixError):
    """Input violates the hypothesis of a theorem-backed check (e.g. a matrix
    outside its box, or a graph that is not claw-free).  witness carries the
    offending object when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TruncationDepthError(ZeromixError):
    """The certified truncation depth required to hit the error target
    exceeds the configured cap."""

    def __init__(self, message, required, cap):
        super().__init__(message)
        self.required = required
        self.cap = cap
