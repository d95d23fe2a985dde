"""Error types shared across the package.

Every error carries a machine-readable ``code`` (used by the CLI's error JSON).
"""


class PathcoalgError(Exception):
    code = "Error"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


# scalar
class DivisionByZero(PathcoalgError, ZeroDivisionError):
    code = "DivisionByZero"


class ZeroInput(PathcoalgError, ValueError):
    code = "ZeroInput"


class SquareRootUnavailable(PathcoalgError, ValueError):
    code = "SquareRootUnavailable"


class ParseError(PathcoalgError, ValueError):
    code = "ParseError"


# quiver
class UnknownVertex(PathcoalgError, KeyError):
    code = "UnknownVertex"


class Disconnected(PathcoalgError, ValueError):
    code = "Disconnected"


class InvalidPartition(PathcoalgError, ValueError):
    code = "InvalidPartition"


class InvalidDescription(PathcoalgError, ValueError):
    code = "InvalidDescription"


class ForbiddenPair(PathcoalgError, ValueError):
    """(m, n) = +/-(1, 1), where a = b makes x and y parallel arrows g -> ga of
    the grid quiver.  The Hopf axioms hold there with lambda = 1, so the
    exclusion is an assumption of the classification, not an axiom law."""

    code = "ForbiddenPair"


# coalgebra
class NotClosedUnderDelta(PathcoalgError, ValueError):
    code = "NotClosedUnderDelta"


class NotGrouplike(PathcoalgError, ValueError):
    code = "NotGrouplike"


class NotPointed(PathcoalgError, ValueError):
    code = "NotPointed"


class BasisNotDiamond(PathcoalgError, ValueError):
    code = "BasisNotDiamond"


class InvalidMorphism(PathcoalgError, ValueError):
    code = "InvalidMorphism"


class NotACovering(PathcoalgError, ValueError):
    code = "NotACovering"


class EmptySubset(PathcoalgError, ValueError):
    code = "EmptySubset"


class CapacityExceeded(PathcoalgError, ValueError):
    code = "CapacityExceeded"


# hopf
class ParityViolation(PathcoalgError, ValueError):
    code = "ParityViolation"


class LambdaOrderViolation(PathcoalgError, ValueError):
    code = "LambdaOrderViolation"


class ConstraintViolation(PathcoalgError, ValueError):
    code = "ConstraintViolation"


class ParamMismatch(PathcoalgError, ValueError):
    code = "ParamMismatch"


class WindowTooSmall(PathcoalgError, ValueError):
    code = "WindowTooSmall"


class AxiomFailure(PathcoalgError, AssertionError):
    code = "AxiomFailure"

    def __init__(self, detail="", witness=None):
        super().__init__(detail)
        self.witness = witness


# comodules
class AmbientMismatch(PathcoalgError, ValueError):
    code = "AmbientMismatch"


class NotDiscreteParams(PathcoalgError, ValueError):
    code = "NotDiscreteParams"


class RequiresMEqualsN(PathcoalgError, ValueError):
    code = "RequiresMEqualsN"


class InvalidSpec(PathcoalgError, ValueError):
    code = "InvalidSpec"


# classify
class NotCanonical(PathcoalgError, ValueError):
    code = "NotCanonical"


# cli
class UsageError(PathcoalgError, ValueError):
    code = "UsageError"
