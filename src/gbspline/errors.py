"""Exception hierarchy; the CLI reports these by class name."""


class GBSplineError(Exception):
    """Base class for every error raised by this package."""


# knot vectors

class NotNondecreasing(GBSplineError):
    """Knot values decrease somewhere or are not finite."""


class NotOpen(GBSplineError):
    """End knot multiplicities are below degree + 1."""


class TooShort(GBSplineError):
    """Knot vector is shorter than 2 * (degree + 1)."""


# knot functions

class InvalidFamily(GBSplineError):
    """Generator specification is malformed or not Chebyshev on its interval."""


class OutOfInterval(GBSplineError):
    pass


class IntervalStraddle(GBSplineError):
    """A target interval crosses a source breakpoint."""


# polynomial terms

class TargetsOutsideSource(GBSplineError):
    pass


class TargetTooSmall(GBSplineError):
    """Requested degree is below the current representation degree."""


# basis construction and evaluation

class DegreeTooSmall(GBSplineError):
    pass


class OutOfActiveRegion(GBSplineError):
    pass


class LengthMismatch(GBSplineError):
    """Control point count does not match the basis."""


# projection

class AllMissingDiagonal(GBSplineError):
    """An anti-diagonal holds no finite entries."""


class InconsistentCoefficient(GBSplineError):
    """Per-interval solves disagree about a coefficient; the input is outside
    the target spline space (e.g. violates its continuity)."""


class TaylorMismatch(GBSplineError):
    """Left/right polynomial reconstructions disagree; the source generator
    terms are outside the span of the target generators."""


class SingularLocalSystem(GBSplineError):
    """Local basis representations are linearly dependent."""


# refinement drivers

class KnotOutsideActiveRegion(GBSplineError):
    pass


class MultiplicityOverflow(GBSplineError):
    """Knot multiplicity would exceed degree + 1."""


class FamilyNotClosedUnderDerivative(GBSplineError):
    """Generator derivatives cannot span a degree-raised local basis."""


# reference evaluator

class DepthExceeded(GBSplineError):
    """Adaptive quadrature failed to converge within the depth limit."""


# file handling

class CurveFileError(GBSplineError):
    """Curve file is malformed or fails validation."""
