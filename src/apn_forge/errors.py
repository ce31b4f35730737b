"""Exception types shared across the package."""


class ApnForgeError(ValueError):
    """Base class for all package-specific errors."""


class UnsupportedDegree(ApnForgeError):
    pass


class ReducibleModulus(ApnForgeError):
    pass


class DivisionByZero(ApnForgeError):
    pass


class NotADivisor(ApnForgeError):
    pass


class ContextMismatch(ApnForgeError):
    pass


class ZeroDirection(ApnForgeError):
    pass


class OddDimension(ApnForgeError):
    pass


class BadDimension(ApnForgeError):
    pass


class DimensionTooSmall(ApnForgeError):
    pass


class DimensionTooLarge(ApnForgeError):
    pass


class NotQuadratic(ApnForgeError):
    pass


class NotQuadraticApn(ApnForgeError):
    pass


class NonBinaryCoefficients(ApnForgeError):
    pass


class ZeroA(ApnForgeError):
    pass


class PreconditionViolated(ApnForgeError):
    pass


class JobTooLarge(ApnForgeError):
    pass


class InvalidJob(ApnForgeError):
    pass


class BadLut(ApnForgeError):
    """A lookup table of the wrong length, or with an entry that is not a field element."""


class BadCoefficients(ApnForgeError):
    """A coefficient list of the wrong length, or with an entry that is not a field element."""


class InternalCheckFailed(ApnForgeError):
    """A result failed its re-verification by an independent route."""


class ParseError(ApnForgeError):
    """Input text that does not parse; carries a position when one is known."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos
