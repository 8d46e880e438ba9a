"""Exception types for operations that leave the domain of the algebra: every refusal
the package raises is a ``PseudoEuclidError``, and ``InvalidInput`` is also a ``ValueError``."""

__all__ = [
    "DegenerateTriangle", "Inconsistent", "InvalidInput", "NonPositiveRho", "NotOnHyperbola",
    "NullDirection", "NullDivisor", "NullSide", "OverflowingAngle", "ParallelRays",
    "PseudoEuclidError", "ZeroVector",
]


class PseudoEuclidError(Exception):
    """Base class for all domain errors raised by this package."""


class NullDivisor(PseudoEuclidError):
    """Division by a number lying on (or too close to) the lines y = +-x."""


class NullDirection(PseudoEuclidError):
    """A direction on the lines y = +-x, where no finite angle exists."""


class NonPositiveRho(PseudoEuclidError):
    """Polar construction asked for a radius that is not strictly positive."""


class OverflowingAngle(PseudoEuclidError):
    """Angle large enough that its hyperbolic functions leave double range."""


class Inconsistent(PseudoEuclidError):
    """Input data admits no real figure, as a null side or a flat triangle shows."""


class DegenerateTriangle(Inconsistent):
    """Collinear or coincident vertices."""


class NullSide(Inconsistent):
    """A triangle side lies along a null direction and has no unit length."""


class ParallelRays(PseudoEuclidError):
    """Two construction rays never meet."""


class NotOnHyperbola(PseudoEuclidError):
    """A point expected on a hyperbola is not on it."""


class ZeroVector(PseudoEuclidError):
    """A zero vector where a direction was needed."""


class InvalidInput(PseudoEuclidError, ValueError):
    """Arguments outside an operation's stated domain."""
