"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`MoreraError`, so
callers can catch one base class.  The finer-grained subclasses distinguish
bad parameters, degenerate geometry, numerical guards, and pipeline state.
"""


class MoreraError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(MoreraError, ValueError):
    """A parameter lies outside the range an operation is defined for."""


class DegenerateInputError(MoreraError, ValueError):
    """Input hits a degenerate configuration (real fiber, z = -1, ...)."""


class DomainError(MoreraError, ValueError):
    """A point lies outside the geometric domain of an operation."""


class SamplingError(MoreraError):
    """A function oracle returned a non-finite value while being sampled.

    ``row`` is the index of the offending circle when a batch of circles was
    sampled at once.
    """

    def __init__(self, message, theta=None, value=None, row=None):
        super().__init__(message)
        self.theta = theta
        self.value = value
        self.row = row


class InvalidStateError(MoreraError):
    """Operation invoked on data that failed a prerequisite check."""


class NoIntersectionError(MoreraError, ValueError):
    """The requested pair of semiquadrics does not intersect."""


class NotOnPencilError(MoreraError, ValueError):
    """A (z, w) pair does not lie on any pencil semiquadric."""


class SingularFiberError(MoreraError, ValueError):
    """The fiber-inversion formula degenerates (w + z + 2 = 0)."""


class CurveProximityError(MoreraError, ValueError):
    """A query point sits too close to a fiber curve to classify or integrate."""


class ExtensionFailureError(MoreraError):
    """Holomorphic-extension test failed on a circle a computation relies on.

    Carries the offending circle so reports can name it.
    """

    def __init__(self, message, circle=None):
        super().__init__(message)
        self.circle = circle


class InconclusiveError(MoreraError):
    """A circle a computation relies on stayed aliased at the sample-count cap.

    Whether the function extends from that circle is undecided, so nothing
    built on its extension can be computed.  Carries the circle, or ``None``
    when what stayed unresolved is the Chebyshev series of the fiberwise
    extension along a piece of a fiber curve.
    """

    def __init__(self, message, circle=None):
        super().__init__(message)
        self.circle = circle


class ConfigError(MoreraError, ValueError):
    """Invalid family/CLI configuration."""


class UnknownFunctionError(MoreraError, KeyError):
    """Lookup of a built-in function by an unknown name."""


class ParseError(MoreraError, ValueError):
    """Malformed expression text.

    ``offset`` is the 0-based byte offset of the offending position and
    ``expected`` describes what the parser was looking for.
    """

    def __init__(self, offset, expected):
        super().__init__(f"parse error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


class EvalError(MoreraError, ArithmeticError):
    """Expression evaluation failed (division by zero, log 0, ...) at ``z``."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z
