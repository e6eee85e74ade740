"""Polynomial terms in the shifted power basis.

A coefficient row (c0, ..., cd) stands for sum(c_k * s**k) in a local
coordinate s that is 0 at its interval's left end (the package's x).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import TargetsOutsideSource

DEFAULT_TOL = 1e-10
FACTORIAL = np.array([math.factorial(n) for n in range(171)], dtype=float)   # all that are finite


def taylor_shift(coeffs, tau, rho=1.0):
    """Coefficients of P(tau + rho s): the polynomial over an origin moved right
    by tau and a unit scaled by rho, by Horner's rule on the polynomial tau + rho s.

    Axis 0 indexes the degree; trailing axes carry through.  `tau` and `rho`
    may be arrays broadcasting against the trailing axes: one change per row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    tau, rho = np.asarray(tau, dtype=float), np.asarray(rho, dtype=float)
    out = np.zeros((len(coeffs),) + np.broadcast(np.empty(coeffs.shape[1:]), tau, rho).shape)
    for c in coeffs[::-1]:   # out = out * (tau + rho s) + c, in place
        shifted = out[:-1] * rho
        out *= tau
        out[1:] += shifted
        out[0] += c
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
    return derivs / FACTORIAL[: len(derivs)].reshape((-1,) + (1,) * (derivs.ndim - 1))
