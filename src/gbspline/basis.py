"""Local-representation construction and evaluation of the spline basis.

On each knot interval a degree-p basis function is a polynomial term of
degree at most p-2 plus a coefficient pair (a, b) multiplying the (p-1)-th
integrals of that interval's generator pair.  The basis is stored interval
by interval and evaluated through `PiecewiseCurve.value_on` alone.
Construction runs the recursive-integral definition function by function;
polynomial parts integrate symbolically and generator parts read the
family's ladder values, so no quadrature enters the production path.

Built values are immutable and safe to evaluate concurrently.  On its
first scalar evaluation a PiecewiseCurve copies its coefficients into one
contiguous array and its breakpoints and interval map into lists; these
lazy copies hold only what the curve already holds, so they never change a
result.  A scalar sample is computed on Python floats, and both a scalar
and a batch add the control points in index order with one product and one
sum at a time, so batch rows equal scalar calls bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    InconsistentCoefficient,
    IntervalStraddle,
    LengthMismatch,
)
from .knots import KnotFunctionFamily, KnotVector, containing_spans, find_interval, readonly
from .poly import DEFAULT_TOL, integrate_poly, poly_eval


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
    """The basis functions stored interval by interval over the active region.

    `local` is a PiecewiseCurve with p+1 components: on active interval j,
    component c is basis function j+c, so `local.poly_parts` has shape
    (intervals, max(p-1, 0), p+1) and `local.gen_coefs` (intervals, 2, p+1).
    Rows over zero-length intervals hold zeros and are never evaluated.
    deltas[k-1] lists the level-k normalization integrals.  ladder_table, kept
    from construction, holds the right-end values of the generators' ladder
    orders 1..p-1 on every active interval, shaped (p-1, intervals, 2) with u
    first: build_integral_table(fam, active region, 0, p-1)[1:, :, 1].  Their
    left-end values are zero.
    """

    kv: KnotVector
    fam: KnotFunctionFamily
    local: PiecewiseCurve
    deltas: tuple
    ladder_table: np.ndarray

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
        """Curve value at t: a float, or an array of the d components.  An
        array of N parameters gives values shaped (N,) or (N, d)."""
        j = self._find(t, tol)
        if isinstance(j, np.ndarray):
            return self.value_on(j, t, tol)
        row = self._row(j, t, tol)
        return np.array(row) if self.gen_coefs.ndim == 3 else row[0]

    def value_on(self, j, t, tol=DEFAULT_TOL):
        """Value at t on interval j, one Horner pass over every component.

        Arrays j and t of N samples give a leading axis of N; each row
        equals the scalar call bit for bit.  A scalar mixed with an array, or
        arrays of two shapes, raise ValueError naming both shapes.
        """
        if np.shape(j) != np.shape(t):
            raise ValueError(f"j and t must both be scalars or arrays of one shape, "
                             f"got j {np.shape(j) or 'scalar'} and t {np.shape(t) or 'scalar'}")
        if not np.shape(j):
            row = self._row(j, t, tol)
            return np.array(row) if self.gen_coefs.ndim == 3 else np.float64(row[0])
        slot = self.slots[j]
        missing = np.extract(slot < 0, j)
        if len(missing):
            self._raise_no_generators(missing[0])
        # degree first for Horner; samples, then components
        parts, s = self.poly_parts[j].swapaxes(0, 1), t - self.breaks[j]
        u, v = self.fam.value(slot, "uv", self.degree - 1, t, tol)
        s, u, v = (a.reshape(a.shape + (1,) * (self.gen_coefs.ndim - 2)) for a in (s, u, v))
        return poly_eval(parts, s) + self.gen_coefs[j, 0] * u + self.gen_coefs[j, 1] * v

    def _find(self, t, tol):
        """find_interval over these breaks, searching their list for a scalar t."""
        return find_interval(self.breaks if isinstance(t, np.ndarray) else self._break_list,
                             t, tol)

    def _row(self, j, t, tol):
        """value_on for one sample as a list of Python floats, one per
        component: per component the same IEEE operations in the same order
        as the array expression, so the same bits."""
        slot, t = self._slot_list[j], float(t)
        if slot < 0:
            self._raise_no_generators(j)
        fam, order = self.fam, self.degree - 1
        u = fam.value(slot, "u", order, t, tol)
        v = fam.value(slot, "v", order, t, tol)
        s, w, out = t - self._break_list[j], self.poly_parts.shape[1], []
        for row in self._coef_rows[j].tolist():
            acc = 0.0
            for c in row[:w]:
                acc = acc * s + c
            out.append(acc + row[w] * u + row[w + 1] * v)
        return out

    def _raise_no_generators(self, k):
        br = self.breaks
        raise IntervalStraddle(f"interval {k} [{br[k]}, {br[k + 1]}] has no generators")

    # built on the first scalar evaluation, which reads one entry per sample
    @cached_property
    def _coef_rows(self):
        """Per interval and component (one without a component axis): the
        polynomial coefficients, highest degree first, then the generator
        pair."""
        comps = self.gen_coefs.shape[2:] or (1,)
        parts = self.poly_parts[:, ::-1].reshape(self.poly_parts.shape[:2] + comps)
        gen = self.gen_coefs.reshape(self.gen_coefs.shape[:2] + comps)
        return np.concatenate([parts, gen], axis=1).swapaxes(1, 2).copy()

    @cached_property
    def _break_list(self):
        return self.breaks.tolist()

    @cached_property
    def _slot_list(self):
        return self.slots.tolist()


# construction ----------------------------------------------------------------

def _interval_integrals(lens, alive, poly, gen, right):
    """Integral of each stored representation over each support interval.

    `right` holds the level's ladder values at the right end of every knot
    interval; they equal the integrals of the level below over the interval
    because positive orders vanish on the left.
    """
    n_f, n_slots = gen.shape[:2]
    j = np.arange(n_f)[:, None] + np.arange(n_slots)
    val = (poly_eval(np.moveaxis(integrate_poly(poly), -1, 0), lens[j])
           + gen[..., 0] * right[j, 0] + gen[..., 1] * right[j, 1])
    return np.where(alive[j], val, 0.0)


def _elevate_level(knots, alive, poly, gen, ints, delta, level):
    """One level of the construction recurrence (level -> level + 1), for
    every function at once.

    Function f's accumulated, normalized integral fills its support slots
    0..level; right of its support (or when f vanishes identically) it is the
    unit step in slot level+1.  New function i is that accumulation for f = i
    minus the one for f = i+1, which starts one interval later.
    """
    k = level
    n_new = len(knots) - k - 2
    cum = integrate_poly(poly)
    cum[:, 1:, 0] = np.cumsum(ints[:, :-1], axis=1)
    live = delta != 0.0
    acc_poly = np.zeros((len(delta), k + 2, k))
    acc_gen = np.zeros((len(delta), k + 2, 2))
    acc_poly[:, k + 1, 0] = 1.0
    acc_poly[live, : k + 1] += cum[live] / delta[live, None, None]
    acc_gen[live, : k + 1] += gen[live] / delta[live, None, None]
    acc_poly[:-1, 1:] -= acc_poly[1:, : k + 1]
    acc_gen[:-1, 1:] -= acc_gen[1:, : k + 1]
    on = alive[np.arange(n_new)[:, None] + np.arange(k + 2)][..., None]
    return np.where(on, acc_poly[:-1], 0.0), np.where(on, acc_gen[:-1], 0.0)


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

    # ladder values of orders 1..p at the right end of every knot interval
    slots = containing_spans(fam.spans, knots, tol)
    live = np.flatnonzero(slots >= 0)
    right = np.zeros((p, m - 1, 2))
    ends = fam.value(slots[live], "uv", range(1, p + 1), knots[live + 1], tol)
    right[:, live] = ends.swapaxes(1, 2)
    deltas = []
    for level in range(1, p):
        ints = _interval_integrals(lens, alive, poly, gen, right[level - 1])
        delta = ints.sum(axis=1)
        deltas.append(delta)
        poly, gen = _elevate_level(knots, alive, poly, gen, ints, delta, level)
    deltas.append(_interval_integrals(lens, alive, poly, gen, right[p - 1]).sum(axis=1))

    # function-major slots become interval-major rows, components last: row j,
    # component c is function j + c's slot p - c
    rows = np.arange(len(poly) - p)[:, None] + np.arange(p + 1)
    poly, gen = (np.moveaxis(a[rows, p - np.arange(p + 1)], 1, -1) for a in (poly, gen))
    local = PiecewiseCurve(breaks=kv.active_region(), poly_parts=poly, gen_coefs=gen,
                           degree=p, fam=fam, slots=fam.slots[p : m - p - 1])
    return LocalBasis(kv=kv, fam=fam, local=local, deltas=tuple(readonly(d) for d in deltas),
                      ladder_table=readonly(right[: p - 1, p : m - p - 1]))


# evaluation ------------------------------------------------------------------

def eval_basis_function(basis: LocalBasis, i, t, tol=DEFAULT_TOL) -> float:
    """Value of basis function i at t inside the active region."""
    kv = basis.kv
    p, n, knots = kv.degree, kv.n_basis, kv.knots
    if np.shape(t):
        raise ValueError(f"t must be a number, got an array shaped {np.shape(t)}")
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} outside 0..{n - 1}")
    # the final function owns the closed right end of the active region
    if i == n - 1 and t == knots[-1] and knots[p] != knots[-1]:
        return 1.0
    j = basis.local._find(t, tol)
    return basis.local._row(j, t, tol)[i - j] if j <= i <= j + p else 0.0


def nonzero_basis_values(basis: LocalBasis, t, tol=DEFAULT_TOL):
    """(first index, values) of the degree+1 basis functions covering t.

    An array of N parameters gives first indices shaped (N,) and values
    shaped (N, degree+1).
    """
    j = basis.local._find(t, tol)
    return j, basis.local.value_on(j, t, tol)


def eval_curve(curve: SplineCurve, basis: LocalBasis, t, tol=DEFAULT_TOL):
    """Curve value sum(cpts_i * N_i(t)) over the nonzero basis functions.

    A float for control points shaped (n,), an array of d components for
    (n, d).  An array of N parameters gives values shaped (N,) or (N, d),
    each equal to the scalar call bit for bit: both add the terms in index
    order, element by element, so no BLAS kernel chooses the order.
    """
    kv, cpts = basis.kv, curve.cpts   # n_basis and degree, without the property chain
    if len(cpts) != len(kv.knots) - kv.degree - 1:
        raise LengthMismatch("curve and basis sizes differ")
    if isinstance(t, np.ndarray) and t.ndim:
        first, vals = nonzero_basis_values(basis, t, tol)
        window = cpts[first[:, None] + np.arange(kv.degree + 1)]
        if cpts.ndim == 2:
            vals = vals[..., None]
        acc = vals[:, 0] * window[:, 0]
        for k in range(1, kv.degree + 1):
            acc = acc + vals[:, k] * window[:, k]
        return acc
    local = basis.local
    first = find_interval(local._break_list, t, tol)
    vals = local._row(first, t, tol)
    window = cpts[first : first + len(vals)].tolist()
    if cpts.ndim == 1:
        acc = vals[0] * window[0]
        for n_k, c in zip(vals[1:], window[1:]):
            acc = acc + n_k * c
        return acc
    acc = [vals[0] * c for c in window[0]]
    for n_k, point in zip(vals[1:], window[1:]):
        acc = [a + n_k * c for a, c in zip(acc, point)]
    return np.array(acc)


# piecewise form and reindexing -----------------------------------------------

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
    flat = coefs.reshape(rows * cols, -1)
    diag = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    ok = np.isfinite(flat).all(axis=1)
    count = np.bincount(diag[ok], minlength=rows + cols - 1)
    if not count.all():
        raise AllMissingDiagonal(
            f"no finite estimates for coefficient {np.flatnonzero(count == 0)[0]}")
    total = np.zeros((rows + cols - 1, flat.shape[1]))
    np.add.at(total, diag[ok], flat[ok])
    avg = total / count[:, None]
    stray = ok & (np.abs(flat - avg[diag]) > tol * np.maximum(1.0, np.abs(avg[diag]))).any(axis=1)
    if stray.any():
        d = diag[stray].min()
        vals = flat[ok & (diag == d)].reshape((-1,) + coefs.shape[2:])
        raise InconsistentCoefficient(f"estimates for coefficient {d} disagree: {vals.tolist()}")
    return avg.reshape((rows + cols - 1,) + coefs.shape[2:])


def form_piecewise(cpts, basis: LocalBasis) -> PiecewiseCurve:
    """Piecewise form of the curve with the given control points.

    On each interval, sums the stored local representations of the nonzero
    functions weighted by their control points.  Control points shaped
    (n, d) give parts with a trailing axis of d components.
    """
    cpts = np.asarray(cpts, dtype=float)
    _check_cpts(cpts, basis.n_basis)
    local = basis.local
    windows = cpts[np.arange(len(local.breaks) - 1)[:, None] + np.arange(basis.degree + 1)]
    poly, gen = (np.einsum("jwc,jc...->jw...", parts, windows)
                 for parts in (local.poly_parts, local.gen_coefs))
    return PiecewiseCurve(breaks=local.breaks, poly_parts=poly, gen_coefs=gen,
                          degree=basis.degree, fam=basis.fam, slots=local.slots)
