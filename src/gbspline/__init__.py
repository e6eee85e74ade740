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
    reverse_diagonal_averages,
)
from .curvefile import load_curve, save_curve
from .knots import (
    KnotFunctionFamily,
    KnotVector,
    build_family,
    build_integral_table,
    validate_open_knot_vector,
)
from .poly import (
    DEFAULT_TOL,
    elevate_polys,
    integrate_poly,
    left_taylor_series,
    poly_eval,
    restrict_poly,
    right_taylor_series,
    taylor_shift,
)
from .reference import QuadratureConfig, ReferenceEvaluator, adaptive_simpson
from .refine import (
    derive_family,
    elevate_degree,
    greville_abscissae,
    insert_knots,
    refine_curve,
    refine_local,
    refined_spline,
    represent_knot_funcs,
)

__version__ = "0.1.0"
