"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from gbspline import build_family, build_local_basis, validate_open_knot_vector

ALL_KINDS = ("linear", "trigonometric", "exponential")


def cox_de_boor(knots, i, p, t):
    """Independent classical B-spline evaluation (the linear-family oracle)."""
    if p == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    val = 0.0
    d1 = knots[i + p] - knots[i]
    if d1 > 0:
        val += (t - knots[i]) / d1 * cox_de_boor(knots, i, p - 1, t)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0:
        val += (knots[i + p + 1] - t) / d2 * cox_de_boor(knots, i + 1, p - 1, t)
    return val


def open_kv(degree, interior=()):
    """Open knot vector on [0, 1] with the given interior knots."""
    knots = [0.0] * (degree + 1) + sorted(float(x) for x in interior) + [1.0] * (degree + 1)
    return validate_open_knot_vector(knots, degree)


def make_basis(degree, interior=(), kind="trigonometric", omega=np.pi / 2):
    kv = open_kv(degree, interior)
    fam = build_family(kv.knots, kind=kind, omega=omega)
    return kv, fam, build_local_basis(kv, fam)


def random_interiors(rng, max_knots=8, max_mult=2):
    """Random interior breakpoints in (0, 1) with small multiplicities."""
    count = int(rng.integers(0, max_knots + 1))
    values = np.sort(rng.uniform(0.05, 0.95, size=count))
    interior = []
    for v in values:
        interior.extend([float(v)] * int(rng.integers(1, max_mult + 1)))
    return interior[:max_knots]


def one_sided_derivative(basis, i, j, order, at_right):
    """Exact order-th derivative in t of basis function i's stored row on knot
    interval j, at its right or left end; None on an interval without
    generators.  Rows are in x = (t - left)/h of the interval's span, on
    ladders normalized by h^k, so d^r/dt^r is (d^r/dx^r) / h^r."""
    slot = basis.fam.slots[j]
    if slot < 0:
        return None
    p = basis.degree
    if i <= j <= i + p:
        coeffs = np.array(basis.local.coefs[j - p, :-2, i - j + p])
        a, b = basis.local.coefs[j - p, -2:, i - j + p]
    else:
        coeffs, a, b = np.zeros(1), 0.0, 0.0
    left, right = basis.fam.spans[slot]
    h, k = right - left, p - 1 - order
    u, v = basis.fam.value(slot, k, right if at_right else left)   # t units: h^k times x's
    return float(polyval(float(at_right), polyder(coeffs, order)) + (a * u + b * v) / h**k) / h**order
