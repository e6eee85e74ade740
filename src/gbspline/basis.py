"""Local-representation construction and evaluation of the spline basis.

A degree-p basis function starting at knot i is stored on the p+1 intervals
of its support: a polynomial term of degree at most p-2 plus a coefficient
pair (a, b) multiplying the (p-1)-th integrals of that interval's generator
pair.  Construction runs the recursive-integral definition level by level,
but every integral is exact: the polynomial part is integrated symbolically
and the generator part uses the closed-form ladders, so no quadrature enters
the production path.

Built values are immutable and safe to evaluate concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    InconsistentCoefficient,
    IntervalStraddle,
    LengthMismatch,
    TooFewRows,
)
from .knots import KnotFunctionFamily, KnotVector, containing_spans, find_interval, readonly
from .poly import DEFAULT_TOL, integrate_poly, poly_eval


def _point(x):
    """A float for control points shaped (n,), the component array for (n, d)."""
    return float(x) if x.ndim == 0 else x


def _check_cpts(cpts, n_basis):
    if cpts.ndim not in (1, 2) or len(cpts) != n_basis:
        raise LengthMismatch(
            f"{n_basis} basis functions but control points shaped {cpts.shape}; "
            "expected (n,) or (n, d)")


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """Control-point form of a spline curve.

    Control points are shaped (n,) for a scalar curve or (n, d) for a curve
    with d components; every component goes through the same projection.
    """

    kv: KnotVector
    fam: KnotFunctionFamily
    cpts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cpts", readonly(self.cpts))
        _check_cpts(self.cpts, self.kv.n_basis)


@dataclass(frozen=True, eq=False)
class LocalBasis:
    """Per-function, per-support-interval local representations.

    poly_parts has shape (n, p+1, max(p-1, 0)) and gen_coefs (n, p+1, 2);
    slot c of function i covers the knot interval [t_{i+c}, t_{i+c+1}).
    Slots over zero-length intervals hold zeros and are never evaluated.
    deltas[k-1] lists the level-k normalization integrals.
    """

    kv: KnotVector
    fam: KnotFunctionFamily
    poly_parts: np.ndarray
    gen_coefs: np.ndarray
    deltas: tuple

    @property
    def degree(self) -> int:
        return self.kv.degree

    @property
    def n_basis(self) -> int:
        return self.kv.n_basis


@dataclass(frozen=True, eq=False)
class PiecewiseCurve:
    """One curve stored interval by interval over `breaks`.

    Polynomial coefficients are local to each interval.  Generator
    coefficients pair with the generators of the family span containing each
    interval; before refinement that is the interval itself, after splitting
    it is the coarser source span.  A trailing axis of d components is
    optional.  `slots` maps each interval to its family span, -1 for
    intervals without generators; the builders pass the map they made under
    their own tolerance, and it defaults to `containing_spans` under the
    default one.
    """

    breaks: np.ndarray
    poly_parts: np.ndarray   # (intervals, width[, d])
    gen_coefs: np.ndarray    # (intervals, 2[, d])
    degree: int
    fam: KnotFunctionFamily
    slots: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "breaks", readonly(self.breaks))
        object.__setattr__(self, "poly_parts", readonly(self.poly_parts))
        object.__setattr__(self, "gen_coefs", readonly(self.gen_coefs))
        slots = (containing_spans(self.fam.spans, self.breaks) if self.slots is None
                 else self.slots)
        object.__setattr__(self, "slots", readonly(slots, dtype=int))

    def value(self, t, tol=DEFAULT_TOL):
        """Curve value at t: a float, or an array of the d components."""
        br = self.breaks
        j = find_interval(br, t, tol)
        slot = int(self.slots[j])
        if slot < 0:
            raise IntervalStraddle(f"interval {j} [{br[j]}, {br[j + 1]}] has no generators")
        u = self.fam.value(slot, "u", self.degree - 1, t, tol)
        v = self.fam.value(slot, "v", self.degree - 1, t, tol)
        return _point(poly_eval(self.poly_parts[j], t - br[j])
                      + self.gen_coefs[j, 0] * u + self.gen_coefs[j, 1] * v)


# construction ----------------------------------------------------------------

def _interval_integrals(knots, lens, alive, fam, poly, gen, level):
    """Integral of each stored representation over each support interval."""
    n_f, n_slots = gen.shape[:2]
    out = np.zeros((n_f, n_slots))
    for i in range(n_f):
        for c in range(n_slots):
            j = i + c
            if not alive[j]:
                continue
            slot = fam.slot_for_interval(j)
            val = poly_eval(integrate_poly(poly[i, c]), lens[j])
            # ladder value `level` at the right endpoint equals the integral
            # of level-1 over the interval (positive orders vanish on the left)
            val += gen[i, c, 0] * fam.value(slot, "u", level, knots[j + 1])
            val += gen[i, c, 1] * fam.value(slot, "v", level, knots[j + 1])
            out[i, c] = val
    return out


def _elevate_level(knots, alive, poly, gen, ints, delta, level):
    """One level of the construction recurrence (level -> level + 1)."""
    k = level
    m = len(knots)
    n_new = m - k - 2
    poly_new = np.zeros((n_new, k + 2, k))
    gen_new = np.zeros((n_new, k + 2, 2))
    prefix = np.concatenate([np.zeros((gen.shape[0], 1)), np.cumsum(ints, axis=1)], axis=1)
    for i in range(n_new):
        d_lo, d_hi = delta[i], delta[i + 1]
        for c in range(k + 2):
            if not alive[i + c]:
                continue
            # accumulated, normalized integral of the function starting at knot i;
            # right of its support (or when it vanishes identically) this is the
            # unit step sitting at knot i+k+1
            if c == k + 1:
                poly_new[i, c, 0] += 1.0
            elif d_lo != 0.0:
                poly_new[i, c, 0] += prefix[i, c] / d_lo
                poly_new[i, c] += integrate_poly(poly[i, c]) / d_lo
                gen_new[i, c] += gen[i, c] / d_lo
            # minus the same accumulation for the function starting at knot i+1
            if c >= 1 and d_hi != 0.0:
                poly_new[i, c, 0] -= prefix[i + 1, c - 1] / d_hi
                poly_new[i, c] -= integrate_poly(poly[i + 1, c - 1]) / d_hi
                gen_new[i, c] -= gen[i + 1, c - 1] / d_hi
    return poly_new, gen_new


def build_local_basis(kv: KnotVector, fam: KnotFunctionFamily, tol=DEFAULT_TOL) -> LocalBasis:
    """Construct the local representations of all basis functions.

    The degree-1 seed is the rising generator on the first support interval
    and the falling generator on the second; each further level accumulates
    exact integrals and divides by the lower function's normalization area.
    """
    p = kv.degree
    if p < 1:
        raise DegreeTooSmall("basis construction needs degree >= 1")
    knots = kv.knots
    m = len(knots)
    lens = np.diff(knots)
    alive = lens > tol

    n = m - 2
    poly = np.zeros((n, 2, 0))
    gen = np.zeros((n, 2, 2))
    gen[:, 0, 0] = 1.0
    gen[:, 1, 1] = 1.0

    deltas = []
    for level in range(1, p):
        ints = _interval_integrals(knots, lens, alive, fam, poly, gen, level)
        delta = ints.sum(axis=1)
        deltas.append(delta)
        poly, gen = _elevate_level(knots, alive, poly, gen, ints, delta, level)
    ints = _interval_integrals(knots, lens, alive, fam, poly, gen, p)
    deltas.append(ints.sum(axis=1))

    return LocalBasis(kv=kv, fam=fam, poly_parts=readonly(poly),
                      gen_coefs=readonly(gen),
                      deltas=tuple(readonly(d) for d in deltas))


# evaluation ------------------------------------------------------------------

def eval_basis_function(basis: LocalBasis, i, t, tol=DEFAULT_TOL) -> float:
    """Value of basis function i at t inside the active region."""
    kv = basis.kv
    p, n, knots = kv.degree, kv.n_basis, kv.knots
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} outside 0..{n - 1}")
    # the final function owns the closed right end of the active region
    if i == n - 1 and t == knots[-1] and knots[p] != knots[-1]:
        return 1.0
    j = p + find_interval(kv.active_region(), t, tol)
    if not i <= j <= i + p:
        return 0.0
    c = j - i
    slot = basis.fam.slot_for_interval(j)
    u = basis.fam.value(slot, "u", p - 1, t, tol)
    v = basis.fam.value(slot, "v", p - 1, t, tol)
    return float(poly_eval(basis.poly_parts[i, c], t - knots[j])
                 + basis.gen_coefs[i, c, 0] * u + basis.gen_coefs[i, c, 1] * v)


def nonzero_basis_values(basis: LocalBasis, t, tol=DEFAULT_TOL):
    """(first index, values) of the degree+1 basis functions covering t."""
    kv = basis.kv
    p, knots = kv.degree, kv.knots
    j = p + find_interval(kv.active_region(), t, tol)
    slot = basis.fam.slot_for_interval(j)
    s = t - knots[j]
    u = basis.fam.value(slot, "u", p - 1, t, tol)
    v = basis.fam.value(slot, "v", p - 1, t, tol)
    first = j - p
    vals = np.empty(p + 1)
    for c in range(p + 1):
        sl = j - (first + c)
        vals[c] = (poly_eval(basis.poly_parts[first + c, sl], s)
                   + basis.gen_coefs[first + c, sl, 0] * u
                   + basis.gen_coefs[first + c, sl, 1] * v)
    return first, vals


def eval_curve(curve: SplineCurve, basis: LocalBasis, t, tol=DEFAULT_TOL):
    """Curve value sum(cpts_i * N_i(t)) over the nonzero basis functions.

    A float for control points shaped (n,), an array of d components for
    (n, d).
    """
    if len(curve.cpts) != basis.n_basis:
        raise LengthMismatch("curve and basis sizes differ")
    first, vals = nonzero_basis_values(basis, t, tol)
    return _point(vals @ curve.cpts[first : first + basis.degree + 1])


# piecewise form and reindexing -----------------------------------------------

def full_reverse_diagonals(a):
    """Anti-diagonal slices of full width along the first two axes.

    Output row k lists a[k, C-1], a[k+1, C-2], ..., a[k+C-1, 0]; trailing
    axes carry through.  This translates between function-major storage of
    local representations and interval-major storage.
    """
    a = np.asarray(a)
    rows, cols = a.shape[:2]
    if rows < cols:
        raise TooFewRows(f"need at least as many rows as columns, got {a.shape[:2]}")
    out = np.empty((rows - cols + 1, cols) + a.shape[2:], dtype=a.dtype)
    for c in range(cols):
        out[:, c] = a[c : c + rows - cols + 1, cols - 1 - c]
    return out


def reverse_diagonal_averages(coefs, tol=1e-6):
    """Average anti-diagonal entries of a table, ignoring NaN markers.

    Entries on anti-diagonal r + c = d of the first two axes are the
    per-interval estimates of one coefficient; an optional trailing axis
    holds components.  A finite entry straying from its diagonal's mean by
    more than tol * max(1, |mean|), component by component, flags an
    ill-posed projection.  An estimate counts only if all its components are
    finite.
    """
    coefs = np.asarray(coefs, dtype=float)
    rows, cols = coefs.shape[:2]
    out = np.empty((rows + cols - 1,) + coefs.shape[2:])
    for d in range(rows + cols - 1):
        r0 = max(0, d - cols + 1)
        r1 = min(rows - 1, d)
        vals = np.array([coefs[r, d - r] for r in range(r0, r1 + 1)])
        finite = np.isfinite(vals)
        vals = vals[finite if vals.ndim == 1 else finite.all(axis=1)]
        if len(vals) == 0:
            raise AllMissingDiagonal(f"no finite estimates for coefficient {d}")
        avg = vals.mean(axis=0)
        if np.any(np.abs(vals - avg) > tol * np.maximum(1.0, np.abs(avg))):
            raise InconsistentCoefficient(
                f"estimates for coefficient {d} disagree: {vals.tolist()}")
        out[d] = avg
    return out


def form_piecewise(cpts, basis: LocalBasis) -> PiecewiseCurve:
    """Piecewise form of the curve with the given control points.

    Scales every stored local representation by its control point, reindexes
    function-major storage to interval-major, and sums the contributions of
    the nonzero functions on each interval.  Control points shaped (n, d)
    give parts with a trailing axis of d components.
    """
    cpts = np.asarray(cpts, dtype=float)
    _check_cpts(cpts, basis.n_basis)
    poly, gen = (full_reverse_diagonals(np.einsum("icw,i...->icw...", parts, cpts)).sum(axis=1)
                 for parts in (basis.poly_parts, basis.gen_coefs))
    p, m = basis.degree, basis.kv.m
    return PiecewiseCurve(breaks=basis.kv.active_region(), poly_parts=poly,
                          gen_coefs=gen, degree=p, fam=basis.fam,
                          slots=basis.fam.slots[p : m - p - 1])
