"""Generalized B-splines through local piecewise representations.

Basis functions span {1, t, ..., t^(p-2), U, V} on each knot interval, where
U and V are repeated integrals of an interval-specific generator pair
(linear, trigonometric, or exponential).  The package builds those local
representations exactly, evaluates curves from them, and refines curves
(knot insertion, degree elevation, or both at once) by projecting onto the
target basis interval by interval.
"""

from .basis import (
    LocalBasis,
    PiecewiseCurve,
    SplineCurve,
    build_local_basis,
    eval_basis_function,
    eval_curve,
    form_piecewise,
    nonzero_basis_values,
)
from .curvefile import load_curve, save_curve
from .knots import (
    KnotFunctionFamily,
    KnotVector,
    build_family,
    validate_open_knot_vector,
)
from .poly import DEFAULT_TOL
from .reference import QuadratureConfig, ReferenceEvaluator
from .refine import elevate_degree, greville_abscissae, insert_knots, refined_spline

__version__ = "0.1.0"
