"""Exception types raised by the toolkit.

Everything derives from ToolkitError so callers can catch the whole family;
parse-time failures additionally carry the offending line number. The module
imports no NumPy until a check runs, so that a usage error needs none.
"""


class ToolkitError(ValueError):
    pass


class InvalidValue(ToolkitError):
    """A value outside its domain: a depth, confidence, filter setting or
    intrinsic, a timestamp order or a neighbour count."""


class NonFiniteResult(ToolkitError):
    """A result past float's range: a motion score or loss whose weighted
    terms overflow, a back-projected point, a quaternion's norm, or a memory
    state that diverges."""

    @classmethod
    def check(cls, value, what: str, cause: str = "a weighted term overflows"):
        """`value`, a number or an array, if all of it is finite."""
        import numpy as np
        if not np.isfinite(value).all():
            raise cls(f"{what} is not finite: {cause}")
        return value


# -- geometry --------------------------------------------------------------

class ZeroQuaternion(ToolkitError):
    pass


class NonUnitQuaternion(ToolkitError):
    pass


class InvalidGamma(ToolkitError):
    pass


class EmptyTrajectory(ToolkitError):
    pass


# -- frame scoring ---------------------------------------------------------

class EmptyImage(ToolkitError):
    pass


class NegativeMagnitude(ToolkitError):
    pass


# -- state update ----------------------------------------------------------

class DimensionMismatch(ToolkitError):
    pass


class EmptySet(ToolkitError):
    pass


# -- losses ----------------------------------------------------------------

class EmptyList(ToolkitError):
    pass


class LengthMismatch(ToolkitError):
    pass


class MissingConfidence(ToolkitError):
    pass


class ShapeMismatch(ToolkitError):
    pass


class TooShort(ToolkitError):
    pass


# -- stabilization ---------------------------------------------------------

class NonPositiveDt(ToolkitError):
    pass


# -- spatial refinement ----------------------------------------------------

class NoValidPixels(ToolkitError):
    pass


# -- metrics ---------------------------------------------------------------

class DegenerateConfiguration(ToolkitError):
    pass


class NoOverlappingValidity(ToolkitError):
    pass


class NonFinitePoints(ToolkitError):
    pass


class TooFewPoints(ToolkitError):
    pass


# -- I/O -------------------------------------------------------------------

class ParseError(ToolkitError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonMonotonicTimestamps(ParseError):
    pass


class UnsupportedMagic(ParseError):
    pass


class MissingProperty(ParseError):
    pass


# -- CLI -------------------------------------------------------------------

class CountMismatch(ToolkitError):
    pass
