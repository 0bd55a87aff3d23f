"""Exception types shared across the package."""


class RadioLabError(Exception):
    """Base class for all radiolab errors."""


class NotPrimePower(RadioLabError):
    """Requested field order is not a prime power."""


class ZeroInverse(RadioLabError):
    """Multiplicative inverse of zero requested."""


class BadParams(RadioLabError):
    """Constructor parameters out of range."""


class UnsupportedOrder(RadioLabError):
    """Graph family not defined for this order."""


class Disconnected(RadioLabError):
    """Operation requires a connected graph."""


class ParseError(RadioLabError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class LoopError(ParseError):
    """Edge list contains a self-loop."""


class BadPermutation(RadioLabError):
    """Certificate ordering is not a permutation of the vertex set."""


class BadCertificate(RadioLabError):
    """Certificate does not certify what was claimed."""


class NotInjective(RadioLabError):
    """Labeling assigns the same label twice."""


class UnsupportedDiameter(RadioLabError):
    """Labeling rule is only proven for specific diameters."""


class PreconditionFailed(RadioLabError):
    """Input graph does not match the shape a labeler requires."""


class ConstructionFailed(RadioLabError):
    """Every parameter choice of a labeling construction failed."""


class TooLarge(RadioLabError):
    """Instance exceeds the exact oracle's vertex limit."""
