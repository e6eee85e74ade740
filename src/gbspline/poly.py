"""Polynomial terms in the shifted power basis.

A coefficient row (c0, ..., cd) stands for sum(c_k * s**k) in a local
coordinate s that is 0 at its interval's left end (the package's x).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import TargetsOutsideSource

DEFAULT_TOL = 1e-10


def taylor_shift(coeffs, tau):
    """Coefficients of P(s + tau): the polynomial over an origin moved right by tau.

    Axis 0 indexes the degree; trailing axes carry through.  `tau` may be an
    array broadcasting against the trailing axes: one shift per row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    tau = np.asarray(tau, dtype=float)
    powers = [tau**e for e in range(len(coeffs))]
    out = np.zeros((len(coeffs),) + np.broadcast_shapes(coeffs.shape[1:], tau.shape))
    for deg, c in enumerate(coeffs):
        for k in range(deg + 1):
            out[k] += c * math.comb(deg, k) * powers[deg - k]
    return out


def restrict_poly(coeffs, source, targets, tol=DEFAULT_TOL):
    """Re-express one polynomial over consecutive subintervals.

    `source` is the (a, b) interval the coefficients currently describe and
    `targets` lists nondecreasing endpoints e_0..e_k inside it.  Row j of the
    result describes the same global polynomial over [e_j, e_{j+1}] in that
    interval's own local coordinate, which in this basis is a left shift.
    """
    a, b = float(source[0]), float(source[1])
    targets = np.asarray(targets, dtype=float)
    if targets.size < 2 or np.any(np.diff(targets) < -tol):
        raise TargetsOutsideSource("target endpoints must be nondecreasing")
    if targets[0] < a - tol or targets[-1] > b + tol:
        raise TargetsOutsideSource(
            f"targets span [{targets[0]}, {targets[-1]}] outside source [{a}, {b}]"
        )
    coeffs = np.asarray(coeffs, dtype=float)
    tau = (targets[:-1] - a).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return np.moveaxis(taylor_shift(coeffs[:, None], tau), 0, 1)


def left_taylor_series(derivs):
    """Polynomial matching the given derivative values at the left endpoint.

    Axis 0 indexes the derivative order; trailing axes carry through.
    """
    derivs = np.asarray(derivs, dtype=float)
    fact = np.array([math.factorial(k) for k in range(len(derivs))], dtype=float)
    return derivs / fact.reshape((-1,) + (1,) * (derivs.ndim - 1))
