"""Checks of benchmark outputs, run outside the timed region.

Two kinds of check live here:

- computations made apart from the package, valid for the linear kind
  (which reduces to classical B-splines): Cox-de Boor evaluation, Boehm
  knot insertion and knot-average abscissae;
- properties of the method that hold for every kind, at the bounds of the
  package's acceptance suite: partition of unity within 1e-9, interpolation
  of the end control points, curve preservation within
  1e-8 * max(1, |c|_inf) over at least 1001 samples, and, for degree >= 3,
  sum(g_i N_i(t)) = t from the abscissae.  The quadrature
  ``ReferenceEvaluator`` gives values for the trigonometric and exponential
  kinds at low degree.

Every check raises ``CheckFailed`` with a message naming the worst case.
Package functions are reached through their modules, so a check sees the
same code an operation does.
"""
from __future__ import annotations

import numpy as np

PU_TOL = 1e-9          # partition of unity
PRESERVE_TOL = 1e-8    # curve preservation, times max(1, |c|_inf)
LINEAR_TOL = 1e-10     # classical reduction and knot-average abscissae
IDENTITY_TOL = 1e-8    # sum(g_i N_i(t)) = t
REFERENCE_TOL = 1e-6   # agreement with the quadrature reference
PRESERVE_SAMPLES = 1001


class CheckFailed(Exception):
    """An output disagrees with an independent computation or a property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def scale_of(cpts):
    return max(1.0, float(np.max(np.abs(cpts))))


# computations made apart from the package ----------------------------------

def classical_span(knots, p, t):
    """Index k with knots[k] <= t < knots[k+1]; the last active span is closed."""
    m = len(knots)
    if t >= knots[m - p - 1]:
        k = m - p - 2
        while knots[k + 1] <= knots[k]:
            k -= 1
        return k
    lo, hi = p, m - p - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if knots[mid] <= t:
            lo = mid
        else:
            hi = mid
    return lo


def cox_de_boor(knots, p, t):
    """(first index, values) of the p+1 classical B-splines nonzero at t.

    The triangular form of the Cox-de Boor recursion (Piegl and Tiller,
    The NURBS Book, algorithm A2.2).
    """
    k = classical_span(knots, p, t)
    vals = [1.0] + [0.0] * p
    left = [0.0] * (p + 1)
    right = [0.0] * (p + 1)
    for j in range(1, p + 1):
        left[j] = t - knots[k + 1 - j]
        right[j] = knots[k + j] - t
        saved = 0.0
        for r in range(j):
            temp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        vals[j] = saved
    return k - p, vals


def classical_curve(knots, p, cpts, ts):
    """Classical B-spline curve values at each t; `cpts` may be (n,) or (n, d)."""
    knots = [float(x) for x in knots]
    cpts = np.asarray(cpts, dtype=float)
    out = []
    for t in ts:
        first, vals = cox_de_boor(knots, p, float(t))
        out.append(np.asarray(vals) @ cpts[first:first + p + 1])
    return np.array(out)


def boehm_insert(knots, p, cpts, x):
    """Boehm's single-knot insertion: (new knots, new control points)."""
    knots = [float(v) for v in knots]
    cpts = np.asarray(cpts, dtype=float)
    k = classical_span(knots, p, x)
    n = len(cpts)
    out = np.empty((n + 1,) + cpts.shape[1:])
    for i in range(n + 1):
        if i <= k - p:
            out[i] = cpts[i]
        elif i >= k + 1:
            out[i] = cpts[i - 1]
        else:
            a = (x - knots[i]) / (knots[i + p] - knots[i])
            out[i] = a * cpts[i] + (1.0 - a) * cpts[i - 1]
    return knots[:k + 1] + [x] + knots[k + 1:], out


def knot_averages(knots, p):
    """Abscissae of the classical basis: means of p consecutive interior knots."""
    knots = np.asarray(knots, dtype=float)
    return np.array([knots[i + 1:i + p + 1].mean() for i in range(len(knots) - p - 1)])


def refined_knots(knots, p, inserts, raise_by):
    """Open knot vector after inserting `inserts` and raising the degree.

    Every distinct interior value gains `raise_by` copies, so the source
    continuity is kept; the end values get multiplicity p + raise_by + 1.
    """
    knots = [float(v) for v in knots]
    interior = sorted(knots[p + 1:len(knots) - p - 1] + [float(x) for x in inserts])
    out = []
    for i, v in enumerate(interior):
        out.append(v)
        if i + 1 == len(interior) or interior[i + 1] != v:
            out.extend([v] * raise_by)
    q = p + raise_by
    return [knots[0]] * (q + 1) + out + [knots[-1]] * (q + 1)


# properties of the method --------------------------------------------------

def curve_values(gb, kv, fam, basis, cpts, ts):
    """Package evaluation of the curve with control points `cpts` at each t."""
    curve = gb.basis.SplineCurve(kv=kv, fam=fam, cpts=cpts)
    return np.array([gb.basis.eval_curve(curve, basis, float(t)) for t in ts])


def check_partition_of_unity(gb, basis, ts, what):
    worst, at = 0.0, None
    for t in ts:
        _, vals = gb.basis.nonzero_basis_values(basis, float(t))
        dev = abs(float(vals.sum()) - 1.0)
        if dev > worst:
            worst, at = dev, float(t)
    require(worst <= PU_TOL, f"{what}: partition of unity off by {worst:.3e} at t={at}")


def check_identity(gb, basis, ts, what):
    """The package's abscissae for `basis` pass ``check_abscissae``.

    Degree-2 local spaces hold y = t only for the linear kind, so other
    degree-2 bases have no abscissae to check.
    """
    if basis.kv.degree < 3 and not all(k == "linear" for k in basis.fam.kinds):
        return
    check_abscissae(gb, basis, gb.refine.greville_abscissae(basis), ts, what)


def check_abscissae(gb, basis, g, ts, what):
    """Abscissae reproduce y = t (degree >= 3); linear kind: knot averages."""
    kv, fam = basis.kv, basis.fam
    require(len(g) == kv.n_basis, f"{what}: {len(g)} abscissae for {kv.n_basis} functions")
    if all(k == "linear" for k in fam.kinds):
        err = float(np.max(np.abs(g - knot_averages(kv.knots, kv.degree))))
        require(err <= LINEAR_TOL, f"{what}: abscissae differ from knot averages by {err:.3e}")
    if kv.degree >= 3:
        err = float(np.max(np.abs(curve_values(gb, kv, fam, basis, g, ts) - np.asarray(ts))))
        require(err <= IDENTITY_TOL, f"{what}: sum(g_i N_i(t)) misses t by {err:.3e}")


def check_ends(values_at_ends, cpts, what):
    """A curve interpolates its first and last control points."""
    scale = scale_of(cpts)
    err = max(float(np.max(np.abs(np.asarray(values_at_ends[0]) - cpts[0]))),
              float(np.max(np.abs(np.asarray(values_at_ends[1]) - cpts[-1]))))
    require(err <= PRESERVE_TOL * scale,
            f"{what}: end control points not interpolated (off by {err:.3e})")


def reference_values(gb, kv, fam, cpts, ts):
    """Curve values from the quadrature reference evaluator (degree <= 4).

    The quadrature tolerance is 1e-9 times the shortest interval: each level
    of the recursion divides by an area of that order, so a fixed absolute
    tolerance would lose accuracy in proportion on short intervals.
    """
    knots = [float(x) for x in kv.knots]
    p = kv.degree
    lens = np.diff(kv.knots)
    cfg = gb.reference.QuadratureConfig(abs_tol=1e-9 * float(lens[lens > 0].min()))
    oracle = gb.reference.ReferenceEvaluator(kv.knots, fam, cfg)
    out = []
    for t in ts:
        k = classical_span(knots, p, float(t))
        out.append(sum(cpts[i] * oracle.basis_value(i, p, float(t))
                       for i in range(k - p, k + 1)))
    return np.array(out)


def check_reference(gb, kv, fam, cpts, ts, values, what):
    err = float(np.max(np.abs(reference_values(gb, kv, fam, cpts, ts) - values)))
    require(err <= REFERENCE_TOL * scale_of(cpts),
            f"{what}: reference evaluator differs by {err:.3e}")


def preserve_samples(kv):
    reg = kv.active_region()
    return np.linspace(float(reg[0]), float(reg[-1]), PRESERVE_SAMPLES)


def check_refined(gb, src, src_basis, out, inserts, raise_by, what, reference_points=()):
    """Every property a refinement of the 1-D curve `src` must have.

    `out` is (KnotVector, family, control points).  Returns the target basis.
    """
    kv, fam, cpts = src.kv, src.fam, np.asarray(src.cpts)
    kv1, fam1, cpts1 = out
    cpts1 = np.asarray(cpts1, dtype=float)
    p, q = kv.degree, kv.degree + raise_by
    scale = scale_of(cpts)
    require(kv1.degree == q, f"{what}: degree {kv1.degree}, expected {q}")
    want = refined_knots(kv.knots, p, inserts, raise_by)
    require(kv1.knots.tolist() == want, f"{what}: refined knots differ from the expected vector")
    require(cpts1.shape == (kv1.n_basis,),
            f"{what}: {cpts1.shape} control points for {kv1.n_basis} functions")
    require(bool(np.all(np.isfinite(cpts1))), f"{what}: non-finite control points")
    check_ends((cpts1[0], cpts1[-1]), cpts, what)
    if all(k == "linear" for k in fam.kinds) and raise_by == 0:
        knots_b, cb = list(kv.knots), cpts
        for x in sorted(inserts):
            knots_b, cb = boehm_insert(knots_b, p, cb, float(x))
        err = float(np.max(np.abs(cb - cpts1)))
        require(err <= PRESERVE_TOL * scale,
                f"{what}: control points differ from Boehm insertion by {err:.3e}")
    basis1 = gb.basis.build_local_basis(kv1, fam1)
    ts = preserve_samples(kv)
    before = curve_values(gb, kv, fam, src_basis, cpts, ts)
    after = curve_values(gb, kv1, fam1, basis1, cpts1, ts)
    gap = float(np.max(np.abs(before - after)))
    at = float(ts[int(np.argmax(np.abs(before - after)))])
    require(gap <= PRESERVE_TOL * scale, f"{what}: curve moved by {gap:.3e} at t={at}")
    check_partition_of_unity(gb, basis1, ts, what)
    # the reference recursion costs seconds per point from degree 4 up
    if reference_points and q <= 3 and not any(k == "linear" for k in fam1.kinds):
        pts = np.asarray(reference_points, dtype=float)
        check_reference(gb, kv1, fam1, cpts1, pts,
                        curve_values(gb, kv, fam, src_basis, cpts, pts), what)
    return basis1


def reference_points(rng, count=3):
    """A handful of parameters for the quadrature reference, off the knots."""
    return sorted(float(x) for x in rng.uniform(0.02, 0.98, count))

