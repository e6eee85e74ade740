"""Projection-based refinement: reindexing, generator rewrites, drivers."""
import math
import re
import warnings
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

import gbspline.basis
import gbspline.knots
import gbspline.refine
from gbspline import (
    KnotVector,
    PiecewiseCurve,
    SplineCurve,
    build_family,
    build_local_basis,
    elevate_degree,
    eval_basis_function,
    eval_curve,
    form_piecewise,
    greville_abscissae,
    insert_knots,
    refined_spline,
)
from gbspline.errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    FamilyNotClosedUnderDerivative,
    InconsistentCoefficient,
    InvalidFamily,
    IntervalStraddle,
    KnotOutsideActiveRegion,
    LengthMismatch,
    MultiplicityOverflow,
    SingularLocalSystem,
)
from gbspline.knots import build_integral_table
from gbspline.poly import DEFAULT_TOL, taylor_shift
from gbspline.refine import (
    PIVOT_RATIO_WARN,
    _eliminate,
    _refined_knots,
    _solve,
    derive_family,
    refine_curve,
    refine_local,
    represent_knot_funcs,
)
from conftest import ALL_KINDS, make_basis, open_kv


def max_curve_diff(c0, b0, c1, b1, samples=1001):
    reg = c0.kv.active_region()
    ts = np.linspace(float(reg[0]), float(reg[-1]), samples)
    return max(abs(eval_curve(c0, b0, float(t)) - eval_curve(c1, b1, float(t)))
               for t in ts)


def refit(curve):
    return build_local_basis(curve.kv, curve.fam)


class TestRefineLocal:
    def test_coefficient_rows_duplicate(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(3)
        piece = form_piecewise(rng.uniform(-1, 1, basis.n_basis), basis)
        out = refine_local(piece, np.array([0, .25, .5, .75, 1.0]))
        np.testing.assert_allclose(out.coefs[0, -2:], piece.coefs[0, -2:])
        np.testing.assert_allclose(out.coefs[1, -2:], piece.coefs[0, -2:])
        np.testing.assert_allclose(out.coefs[2, -2:], piece.coefs[1, -2:])
        np.testing.assert_allclose(out.coefs[3, -2:], piece.coefs[1, -2:])

    def test_identity_refinement(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        rng = np.random.default_rng(4)
        piece = form_piecewise(rng.uniform(-1, 1, basis.n_basis), basis)
        out = refine_local(piece, piece.breaks)
        np.testing.assert_allclose(out.coefs, piece.coefs)

    def test_polynomial_subdivision(self):
        fam = build_family([0, 1], kind="linear")
        piece = PiecewiseCurve(breaks=np.array([0.0, 1.0]),
                               coefs=np.array([[0.0, 0.0, 1.0, 0.0, 0.0]]), degree=4, fam=fam)
        out = refine_local(piece, np.array([0, .5, 1.0]))
        np.testing.assert_allclose(out.coefs[0, :-2], [0, 0, 1])
        np.testing.assert_allclose(out.coefs[1, :-2], [0.25, 1, 1])

    def test_values_preserved_everywhere(self):
        kv, fam, basis = make_basis(4, interior=(0.5,), kind="exponential", omega=1.5)
        rng = np.random.default_rng(5)
        piece = form_piecewise(rng.uniform(-1, 1, basis.n_basis), basis)
        out = refine_local(piece, np.array([0, .1, .25, .5, .5, .8, 1.0]))
        for t in np.linspace(0, 1, 301):
            assert out.value(float(t)) == pytest.approx(piece.value(float(t)), abs=1e-11)

    def test_straddling_target_rejected(self):
        kv, fam, basis = make_basis(2, interior=(0.5,), kind="linear")
        piece = form_piecewise(np.ones(basis.n_basis), basis)
        with pytest.raises(IntervalStraddle):
            refine_local(piece, np.array([0, .6, 1.0]))
        with pytest.raises(IntervalStraddle, match=r"interval 1 \[0\.2, 0\.6\]"):
            build_integral_table(fam, [0, .2, .6, 1.0], 0, 1)
        with pytest.raises(IntervalStraddle, match=r"interval 2 \[0\.0, 0\.6\]"):
            derive_family(fam, [0, 0, 0, .6, 1, 1, 1])


class TestRepresentKnotFuncs:
    def test_identity_projection(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        breaks = kv.active_region()
        tables = build_integral_table(fam, breaks, 0, 3)
        gen = np.array([[0.7, -0.2], [0.1, 1.4]])
        rows = represent_knot_funcs(gen, tables)
        ngen, offsets = rows[:, -2:], rows[:, :-2]
        np.testing.assert_allclose(ngen, gen, atol=1e-12)
        np.testing.assert_allclose(offsets, 0.0, atol=1e-12)

    def test_zero_input(self):
        kv, fam, basis = make_basis(3, interior=(0.25,))
        breaks = kv.active_region()
        tables = build_integral_table(fam, breaks, 0, 2)
        rows = represent_knot_funcs(np.zeros((2, 2)), tables)
        np.testing.assert_array_equal(rows, 0.0)

    @pytest.mark.parametrize("kind", ["trigonometric", "exponential"])
    def test_split_interval_reconstruction(self, kind):
        """Generator terms rewritten across a split interval keep their values."""
        p = 4
        src_fam = build_family([0, 1], kind=kind, omega=np.pi / 2)
        dst_breaks = np.array([0, .5, 1.0])
        dst_fam = build_family(dst_breaks, kind=kind, omega=np.pi / 2)
        tables_src = build_integral_table(src_fam, dst_breaks, 0, p - 1)
        gen = np.array([[0.8, -0.3]])
        src = PiecewiseCurve(breaks=np.array([0.0, 1.0]), coefs=np.pad(gen, ((0, 0), (p - 1, 0))),
                             degree=p, fam=src_fam)
        split = refine_local(src, dst_breaks)
        rows = represent_knot_funcs(split.coefs[:, -2:], tables_src)
        rows[:, :-2] += split.coefs[:, :-2]
        rewritten = PiecewiseCurve(breaks=dst_breaks, coefs=rows, degree=p, fam=dst_fam)
        for piece_lo, piece_hi in ((0.0, 0.5), (0.5, 1.0)):
            for t in np.linspace(piece_lo, piece_hi, 50):
                assert rewritten.value(float(t)) == pytest.approx(
                    src.value(float(t)), abs=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("offset", [0, 1])
    def test_generator_coefficients_are_the_end_values(self, kind, offset):
        # the target u rises from 0 to 1 and v falls from 1 to 0, so u takes
        # the top derivative's right-end value and v its left-end value
        src_fam = build_family([0, .5, 1], kind=kind, omega=1.3)
        breaks = np.array([0, .2, .5, .5, .9, 1.0])
        dst_fam = build_family(breaks, kind=kind, omega=1.3)
        tables_src = build_integral_table(src_fam, breaks, offset, 3)
        gen = np.random.default_rng(8).uniform(-1, 1, (5, 2))
        gen[2] = 0.0   # the zero-length interval carries no generators
        ngen = represent_knot_funcs(gen, tables_src)[:, -2:]
        want = np.zeros((5, 2))
        for j in (0, 1, 3, 4):
            slot = 0 if j < 2 else 1
            for w, t in enumerate((breaks[j + 1], breaks[j])):
                u, v = src_fam.value(slot, -offset, t)
                want[j, w] = gen[j, 0] * u + gen[j, 1] * v
        assert ngen.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_long_series_reproduces_the_source(self, kind):
        # p=8, n=400, one knot: the series reaches s^6 with terms near 1e23
        # in raw s; a rebuild from the right end cancelled them and failed
        curve, basis = uniform_curve(kind, 8, 400)
        piece = form_piecewise(curve.cpts, basis)
        knots1 = np.sort(np.append(curve.kv.knots, 0.4321))
        breaks1 = KnotVector(knots1, 8).active_region()
        split = refine_local(piece, breaks1)
        rows = represent_knot_funcs(split.coefs[:, -2:],
                                    build_integral_table(curve.fam, breaks1, 0, 7))
        rows[:, :-2] += split.coefs[:, :-2]
        rewritten = PiecewiseCurve(breaks=breaks1, coefs=rows, degree=8,
                                   fam=derive_family(curve.fam, knots1))
        ts = np.linspace(0, 1, 1001)
        gap = np.abs(rewritten.value(ts) - piece.value(ts)).max()
        assert gap <= 1e-12 * max(1.0, np.abs(curve.cpts).max())


class TestRefineCurve:
    def test_identity_plan_returns_control_points(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(12)
        cpts = rng.uniform(-1, 1, basis.n_basis)
        piece = form_piecewise(cpts, basis)
        out = refine_curve(piece, basis)
        np.testing.assert_allclose(out, cpts, atol=1e-10)

    def test_continuity_violation_detected(self):
        """A kink at a simple knot cannot be a degree-3 spline: flagged."""
        kv, fam, basis = make_basis(3, interior=(0.5,))
        breaks = kv.active_region()
        poly = np.array([[0.0, 1.0, 0.0, 0.0],    # rises with slope 1
                         [0.5, -1.0, 0.0, 0.0]])  # falls with slope -1
        piece = PiecewiseCurve(breaks=breaks, coefs=poly, degree=3, fam=fam)
        with pytest.raises(InconsistentCoefficient):
            refine_curve(piece, basis)
        # tolerances hold per component: a smooth first component (y = t)
        # does not hide the kink in the second
        smooth = np.array([[0.0, 1.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0]])
        piece = PiecewiseCurve(breaks=breaks, coefs=np.stack([smooth, poly], axis=2),
                               degree=3, fam=fam)
        with pytest.raises(InconsistentCoefficient):
            refine_curve(piece, basis)

    def test_target_degree_below_the_curve_rejected(self):
        _, _, basis = make_basis(4, interior=(0.5,))
        _, _, basis1 = make_basis(3, interior=(0.5,))
        piece = form_piecewise(np.ones(basis.n_basis), basis)
        with pytest.raises(ValueError, match="^target degree 3 is below the curve's degree 4$"):
            refine_curve(piece, basis1)

    def test_wrong_span_raises_invalid_family(self):
        # the rewrite reads the target pair as the source's, so a basis whose
        # family has another omega is refused, naming the first interval
        _, _, basis = make_basis(3, interior=(0.5,))
        _, _, other = make_basis(3, interior=(0.25, 0.5), omega=1.0)
        piece = form_piecewise(np.array([1.0, 0.5, 0.0, 1.0, 2.0]), basis)
        with pytest.raises(InvalidFamily, match=r"^interval 0 \[0\.0, 0\.25\]: the curve has "
                                                r"trigonometric generators with omega 1\.57"):
            refine_curve(piece, other)


class TestInsertKnots:
    def test_insert_preserves_curve(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(42)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        out = insert_knots(curve, basis, [0.25, 0.75])
        assert len(out.cpts) == len(curve.cpts) + 2
        assert max_curve_diff(curve, basis, out, refit(out)) <= 1e-8

    def test_insert_empty_set_is_identity(self):
        kv, fam, basis = make_basis(3, interior=(0.3,), kind="exponential", omega=1.0)
        rng = np.random.default_rng(8)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        out = insert_knots(curve, basis, [])
        np.testing.assert_allclose(out.cpts, curve.cpts, atol=1e-10)

    def test_full_multiplicity_interpolates_control_point(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(9)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        out = insert_knots(curve, basis, [0.5] * 4)  # multiplicity reaches p + 1
        basis1 = refit(out)
        value = eval_curve(out, basis1, 0.5)
        assert value == pytest.approx(eval_curve(curve, basis, 0.5), abs=1e-8)
        hits = [i for i in range(out.kv.n_basis)
                if abs(eval_basis_function(basis1, i, 0.5) - 1.0) <= 1e-9]
        assert len(hits) == 1
        assert out.cpts[hits[0]] == pytest.approx(value, abs=1e-8)

    def test_locality_of_single_insertion(self):
        kv, fam, basis = make_basis(3, interior=(0.2, 0.4, 0.6, 0.8))
        rng = np.random.default_rng(10)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        x = 0.5
        out = insert_knots(curve, basis, [x])
        k = int(np.searchsorted(kv.knots, x, side="right")) - 1
        p = kv.degree
        assert out.cpts[: k - p + 1].tobytes() == curve.cpts[: k - p + 1].tobytes()
        assert out.cpts[k + 1 :].tobytes() == curve.cpts[k:].tobytes()

    @pytest.mark.parametrize("offset", [5e-11, -5e-11])
    def test_knot_within_tol_merges_from_either_side(self, offset):
        kv, fam, basis = make_basis(3, interior=(0.25, 0.5, 0.75))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        out = insert_knots(curve, basis, [0.5 + offset])
        assert out.kv.knots.tolist() == [0.0] * 4 + [0.25, 0.5, 0.5, 0.75] + [1.0] * 4

    def test_rejects_knot_outside_region(self):
        kv, fam, basis = make_basis(2, interior=(), kind="linear")
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        with pytest.raises(KnotOutsideActiveRegion):
            insert_knots(curve, basis, [1.5])

    def test_rejects_multiplicity_overflow(self):
        kv, fam, basis = make_basis(2, interior=(0.5,), kind="linear")
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        with pytest.raises(MultiplicityOverflow):
            insert_knots(curve, basis, [0.5, 0.5, 0.5])

    def test_rejects_degree_one(self):
        kv, fam, basis = make_basis(1, interior=(0.5,), kind="linear")
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        with pytest.raises(DegreeTooSmall):
            insert_knots(curve, basis, [0.25])


def boehm_insert(knots, p, cpts, x):
    """Boehm (CAD 12(4), 1980): one knot x inserted into a polynomial
    B-spline, Q_i = a_i P_i + (1 - a_i) P_(i-1) with a_i = (x - t_i) /
    (t_(i+p) - t_i) where t_i <= x < t_(i+p), P_i itself left of that range
    and P_(i-1) right of it."""
    k = max(i for i in range(len(knots) - p - 1) if knots[i] <= x)
    alpha = [(x - knots[i]) / (knots[i + p] - knots[i]) for i in range(k - p + 1, k + 1)]
    out = cpts[: k - p + 1] + [a * cpts[i] + (1 - a) * cpts[i - 1]
                               for a, i in zip(alpha, range(k - p + 1, k + 1))] + cpts[k:]
    return sorted(knots + [x]), out


BOEHM_CASES = {"left end": lambda p: (0.01,), "middle": lambda p: (0.4321,),
               "right end": lambda p: (0.99,), "doubled": lambda p: (0.4321, 0.4321),
               "two apart": lambda p: (0.7, 0.2), "new knot to p+1": lambda p: (0.4321,) * (p + 1),
               "old knot to p+1": lambda p: (0.5,) * p}
# ROADMAP item 2: unequilibrated, these local systems fail the pivot floor,
# next to the short end intervals or at a knot of multiplicity p + 1
BOEHM_SINGULAR = {(7, "left end"), (7, "right end"), (8, "left end"), (8, "right end"),
                  (8, "new knot to p+1")}


@pytest.mark.parametrize("case", BOEHM_CASES)
@pytest.mark.parametrize("p", range(2, 9))
def test_linear_insertion_matches_boehm(p, case):
    """The linear kind spans the polynomial splines, so Boehm's formula, run
    in exact rational arithmetic, is an oracle: where it copies a control
    point, insertion copies its bytes; elsewhere the two agree within
    1e-13 up to degree 4.  Above that the unequilibrated local solves
    (ROADMAP item 2) lose digits next to short intervals, up to 8e-11 at
    degree 6, so the package's preservation bound 1e-8 applies."""
    curve, basis = uniform_curve("linear", p, 8)
    inserts = BOEHM_CASES[case](p)
    if (p, case) in BOEHM_SINGULAR:
        with pytest.raises(SingularLocalSystem):
            insert_knots(curve, basis, inserts)
        return
    with pytest.warns(RuntimeWarning) if (p, case) == (6, "left end") else nullcontext():
        out = insert_knots(curve, basis, inserts)   # pivot ratio 7.2e12 (ROADMAP item 5)
    knots = [Fraction(v) for v in curve.kv.knots.tolist()]
    cpts = source = [Fraction(v) for v in curve.cpts.tolist()]
    for x in inserts:
        knots, cpts = boehm_insert(knots, p, cpts, Fraction(x))
    assert out.kv.knots.tolist() == [float(v) for v in knots]
    want = np.array([float(v) for v in cpts])
    new = [i for i, v in enumerate(cpts) if not any(v is c for c in source)] or [len(cpts)]
    copied = [i for i in range(len(cpts)) if i < new[0] or i > new[-1]]   # around one window
    assert copied and out.cpts[copied].tobytes() == want[copied].tobytes()
    bound = (1e-13 if p <= 4 else 1e-8) * max(1.0, np.abs(want).max())
    assert np.abs(out.cpts - want).max() <= bound


def test_one_knot_insertion_builds_bases_on_a_window_only(monkeypatch):
    """10^4 intervals: with the source basis given, one target basis over the
    window; without it, a source basis over a window p intervals wider.
    Both are built from the ladder pass's values (`_basis_from_ends`)."""
    kv = open_kv(3, np.linspace(0, 1, 10001)[1:-1])
    fam = build_family(kv.knots)
    curve = SplineCurve(kv=kv, fam=fam, cpts=np.random.default_rng(3).uniform(-1, 1, kv.n_basis))
    basis = build_local_basis(kv, fam)
    sizes = []
    build = gbspline.refine._basis_from_ends
    monkeypatch.setattr(gbspline.refine, "_basis_from_ends", lambda kv, *args:
                        sizes.append(len(kv.knots)) or build(kv, *args))
    for given in (basis, None):
        out = insert_knots(curve, given, [0.4321])
        assert out.kv.n_basis == kv.n_basis + 1
    assert len(sizes) == 3 and max(sizes) < 8 * (3 + 1)


@pytest.mark.parametrize("by", [1, 2])
def test_a_raise_beside_a_tiny_piece_keeps_the_projection_error(by):
    """An insert at 1e-170 under tol 1e-300 leaves a target piece whose basis
    divides by an underflowed area.  A raise of 2 must not evaluate the
    target's unread derivatives there, where h**-2 overflows: the error is
    the projection's, as for a raise of 1."""
    kv = KnotVector(np.array([0.0] * 4 + [1, 2, 3] + [4] * 4), 3)
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots, omega=0.5), cpts=np.arange(7.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(AllMissingDiagonal, match="^no finite estimates for coefficient 0$"):
            refined_spline(curve, None, insert=(1e-170,), elevate_by=by, tol=1e-300)


@pytest.mark.parametrize("interior, missing", [((5e-11, 0.5), 0), ((0.5, 1 - 5e-11), 7)])
def test_an_end_interval_under_tol(interior, missing):
    """An active region that starts or ends in an interval no longer than
    tol: a degree raise needs the coefficient only that interval estimates
    and names it; an insertion apart from it copies that coefficient and
    keeps the curve, on a short curve as on a long one."""
    kv = open_kv(3, interior)
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots), cpts=np.arange(float(kv.n_basis)))
    with pytest.raises(AllMissingDiagonal, match=f"^no finite estimates for coefficient {missing}$"):
        elevate_degree(curve, None, 1)
    out = insert_knots(curve, None, [0.3])
    ts = np.linspace(1e-9, 1 - 1e-9, 301)   # inside the live intervals
    gap = np.abs(eval_curve(curve, refit(curve), ts) - eval_curve(out, refit(out), ts)).max()
    assert gap <= 1e-13 and out.cpts[[0, -1]].tolist() == [0.0, kv.n_basis - 1.0]


@pytest.mark.parametrize("intervals", [4, 40])
def test_a_knot_filled_to_p_plus_1_repeats_one_control_point(intervals):
    """Raising a knot of multiplicity p to p + 1 changes no control point: the
    refined curve repeats the one ending at the knot, on the whole target or
    on a window, where the solved intervals start right of it."""
    kv = open_kv(3, np.linspace(0, 1, intervals + 1)[1:-1].tolist() + [0.5, 0.5])
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots), cpts=np.arange(float(kv.n_basis)))
    k = int(np.searchsorted(kv.knots, 0.5, side="right")) - 4
    for basis in (None, refit(curve)):
        out = insert_knots(curve, basis, [0.5])
        assert out.cpts.tobytes() == np.insert(curve.cpts, k, curve.cpts[k]).tobytes()


def test_window_errors_name_global_intervals():
    """Errors raised on the window count intervals over the whole target:
    linear p=8 fails the pivot floor on every interval, and an insertion
    solves, and names, only the window's."""
    interior = sorted(np.linspace(0, 1, 65)[1:-1].tolist() + [0.5 + 6e-11, 0.5 + 1.2e-10])
    kv = open_kv(3, interior)   # two short intervals at 0.5 merge into a knot no span holds
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots), cpts=np.ones(kv.n_basis))
    with pytest.raises(IntervalStraddle, match=r"^interval 37 \[0\.5, 0\.50000000012\] "):
        insert_knots(curve, None, [0.45])
    curve, basis = uniform_curve("linear", 8, 64)   # every local system fails the pivot floor
    with pytest.raises(SingularLocalSystem) as error:
        insert_knots(curve, basis, [0.4321])
    j, a, b = re.search(r"interval (\d+) \[(\S+), (\S+)\]", str(error.value)).groups()
    breaks = _refined_knots(curve.kv, [0.4321], 0, DEFAULT_TOL)[8:-8]
    assert int(j) > 0 and [float(a), float(b)] == breaks[int(j) : int(j) + 2].tolist()


@pytest.mark.parametrize("insert, first", [((), "15 [0.9375, 1.0]"), ((0.1,), "16 [0.9375, 1.0]"),
                                           ((0.95,), "15 [0.9375, 0.95]")])
def test_another_curves_basis_is_refused_over_the_whole_curve(insert, first):
    """A basis that differs from the curve only on its last interval, far
    from the window of an insertion at 0.1, or with no knot to insert, is
    refused as a projection over the whole curve refuses it."""
    kv = open_kv(3, np.linspace(0, 1, 17)[1:-1])
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots),
                        cpts=np.random.default_rng(3).uniform(-1, 1, kv.n_basis))
    other = build_local_basis(kv, build_family(kv.knots, omegas=[np.pi / 2] * 15 + [1.0]))
    with pytest.raises(InvalidFamily, match=rf"^interval {re.escape(first)}: the curve has "
                                            r"trigonometric generators with omega 1\.0, "):
        insert_knots(curve, other, insert)
    kv1 = open_kv(3, np.linspace(0, 1, 16)[1:-1])
    with pytest.raises(LengthMismatch, match="^18 basis functions but control points shaped"):
        insert_knots(curve, build_local_basis(kv1, build_family(kv1.knots)), insert)
    kv1 = open_kv(3, np.linspace(0, 1, 17)[1:-1] + 0.01)
    with pytest.raises(IntervalStraddle, match=r"^interval 1 \[0\.0625, 0\.1"):
        insert_knots(curve, build_local_basis(kv1, build_family(kv1.knots)), insert)


def test_a_basis_missing_a_live_interval_is_refused_as_before():
    """A basis of another family object over the curve's knots but built at
    a coarser tol has no generators on a 1e-9 interval the refinement sees
    as live; as when every basis of another family was searched, the
    refinement names that interval."""
    kv = open_kv(3, (0.25, 0.5, 0.5 + 1e-9, 0.75))
    curve = SplineCurve(kv=kv, fam=build_family(kv.knots), cpts=np.arange(8.0))
    coarse = build_local_basis(kv, build_family(kv.knots, tol=1e-8), tol=1e-8)
    with pytest.raises(IntervalStraddle, match=r"^interval 3 \[0\.5, 0\.500000001\] "):
        insert_knots(curve, coarse, [0.1])


@pytest.mark.parametrize("insert, raise_by", [((0.1,), 0), ((0.3, 0.6), 0), ((), 1), ((0.3,), 1)])
@pytest.mark.parametrize("over", ["active region", "distinct knots", "inner copies", "coarser"])
def test_a_family_over_other_knots_refines_as_its_own_would(over, insert, raise_by):
    """A curve's family built over its active region, its distinct knots, its
    knots less one end copy each, or over spans wider than its knot
    intervals (one span over [0, 1]) holds the same kinds and frequencies on
    every live knot interval as the family built over the knots; with no
    basis or with a basis over the knots, it refines to the same bits."""
    kv = open_kv(3, (0.25, 0.5, 0.5, 0.75))
    fam = {"active region": lambda: build_family(kv.active_region(), omega=1.5),
           "distinct knots": lambda: build_family(np.unique(kv.knots), omega=1.5),
           "inner copies": lambda: build_family(kv.knots[1:-1], omega=1.5),
           "coarser": lambda: build_family([0.0, 1.0], omega=1.5)}[over]()
    own = build_family(kv.knots, omega=1.5)
    cpts = np.random.default_rng(8).uniform(-1, 1, kv.n_basis)
    curve, mine = SplineCurve(kv=kv, fam=fam, cpts=cpts), SplineCurve(kv=kv, fam=own, cpts=cpts)
    for basis in (None, build_local_basis(kv, own)):
        got = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        want = refined_spline(mine, basis, insert=insert, elevate_by=raise_by)
        assert got.kv.knots.tobytes() == want.kv.knots.tobytes()
        assert got.cpts.tobytes() == want.cpts.tobytes()
        assert got.fam.kinds == want.fam.kinds
        for name in ("spans", "omegas", "slots", "_kind_ids"):
            assert getattr(got.fam, name).tobytes() == getattr(want.fam, name).tobytes(), name


def test_a_piece_just_over_tol_keeps_its_own_span():
    """An interval only just longer than tol whose right neighbour's span
    starts within tol of its left end stays in its own span: the family's
    map of its knots, the basis over them and a refinement with or without
    that basis agree, and the refined curve is the curve."""
    k = np.array([0.0] * 3 + [0.25, 0.5, 0.5, 0.5 + 1e-10] + [1.0] * 3)   # last gap 1.00000008e-10
    kv, fam = KnotVector(k, 2), build_family(k, kinds=["trigonometric", "exponential",
                                                       "linear", "trigonometric"])
    assert gbspline.knots.containing_spans(fam.spans, k).tolist() == fam.slots.tolist()
    basis = build_local_basis(kv, fam)
    curve = SplineCurve(kv=kv, fam=fam, cpts=np.random.default_rng(9).uniform(-1, 1, kv.n_basis))
    for insert in ((0.3,), (0.75,), (0.5 + 5e-11,)):
        got = insert_knots(curve, None, insert)
        assert got.fam.kinds == insert_knots(curve, basis, insert).fam.kinds
        np.testing.assert_array_equal(got.cpts, insert_knots(curve, basis, insert).cpts)
        assert "linear" in got.fam.kinds
        assert max_curve_diff(curve, basis, got, refit(got)) <= 1e-9


class TestElevateDegree:
    def test_bernstein_like_elevation(self):
        kv, fam, basis = make_basis(3)
        rng = np.random.default_rng(13)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        out = elevate_degree(curve, basis, 1)
        assert out.kv.degree == 4
        np.testing.assert_array_equal(out.kv.knots, [0] * 5 + [1] * 5)
        assert max_curve_diff(curve, basis, out, refit(out)) <= 1e-8

    def test_interior_knots_repeat(self):
        kv, fam, basis = make_basis(2, interior=(0.5,), kind="exponential", omega=1.0)
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.array([0.0, 1.0, 1.0, 0.0]))
        out = elevate_degree(curve, basis, 1)
        np.testing.assert_array_equal(out.kv.knots,
                                      [0, 0, 0, 0, .5, .5, 1, 1, 1, 1])
        assert max_curve_diff(curve, basis, out, refit(out)) <= 1e-8

    def test_fractional_raise_is_refused(self):
        # 1.5 and 2.9 were truncated to 1 and 2 by elevate_degree, and failed
        # inside the knot build in refined_spline
        kv, fam, basis = make_basis(3)
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.arange(4.0))
        for by in (1.5, 2.9):
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an"):
                elevate_degree(curve, basis, by)
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an"):
                refined_spline(curve, basis, elevate_by=by)
        assert elevate_degree(curve, basis, np.int64(1)).kv.degree == 4
        assert refined_spline(curve, basis, elevate_by=np.int64(1)).kv.degree == 4

    def test_double_elevation_matches_two_single_steps(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        rng = np.random.default_rng(14)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        once = elevate_degree(curve, basis, 2)
        twice = elevate_degree(elevate_degree(curve, basis, 1), None, 1)
        np.testing.assert_array_equal(once.kv.knots, twice.kv.knots)
        np.testing.assert_allclose(once.cpts, twice.cpts, atol=1e-7)

    def test_rejects_linear_family(self):
        kv, fam, basis = make_basis(2, kind="linear")
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        with pytest.raises(FamilyNotClosedUnderDerivative):
            elevate_degree(curve, basis, 1)

    def test_rejects_zero_raise(self):
        kv, fam, basis = make_basis(2)
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        with pytest.raises(ValueError):
            elevate_degree(curve, basis, 0)


class TestCombinedRefinement:
    def test_insertion_and_elevation_commute_on_curves(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(15)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, basis.n_basis))
        ins_then_elev = elevate_degree(insert_knots(curve, basis, [0.25]), None, 1)
        elev_then_ins = insert_knots(elevate_degree(curve, basis, 1), None, [0.25])
        assert max_curve_diff(ins_then_elev, refit(ins_then_elev),
                              elev_then_ins, refit(elev_then_ins)) <= 1e-8

    def test_constant_curve_under_any_plan(self):
        for kind in ("trigonometric", "exponential"):
            kv, fam, basis = make_basis(3, interior=(0.4,), kind=kind, omega=1.0)
            curve = SplineCurve(kv=kv, fam=fam, cpts=np.full(basis.n_basis, 2.5))
            out = refined_spline(curve, basis, insert=(0.2, 0.7), elevate_by=1)
            np.testing.assert_allclose(out.cpts, 2.5, atol=1e-10)


class TestGreville:
    def test_linear_family_knot_averages(self):
        kv, fam, basis = make_basis(2, interior=(0.5,), kind="linear")
        got = greville_abscissae(basis)
        averages = [float(np.mean(kv.knots[i + 1 : i + 3])) for i in range(kv.n_basis)]
        np.testing.assert_allclose(got, [0, .25, .75, 1], atol=1e-12)
        np.testing.assert_allclose(got, averages, atol=1e-12)

    def test_bernstein_symmetry(self):
        kv, fam, basis = make_basis(2, kind="linear")
        np.testing.assert_allclose(greville_abscissae(basis), [0, .5, 1], atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_residual(self, kind):
        kv, fam, basis = make_basis(4, interior=(0.5,), kind=kind, omega=np.pi / 2)
        g = greville_abscissae(basis)
        curve = SplineCurve(kv=kv, fam=fam, cpts=g)
        for t in np.linspace(0, 1, 501):
            assert eval_curve(curve, basis, float(t)) == pytest.approx(t, abs=1e-8)

    def test_degree_two_trig_has_no_identity(self):
        kv, fam, basis = make_basis(2, interior=(0.5,))
        with pytest.raises(InconsistentCoefficient):
            greville_abscissae(basis)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("width", [1e-7, 1e-10])
    @pytest.mark.parametrize("basis_tol, tol", [
        (1e-12, 1e-6), (1e-6, 1e-12), (1e-6, 1e-9), (1e-9, 1e-6)])
    def test_tolerance_other_than_the_basis_build(self, kind, width, basis_tol, tol):
        # an interval of sub-tolerance width is live under one tolerance and
        # not the other; the family check reads only intervals live in both
        # slot maps, so it never fires.  Live under `tol` alone, the interval
        # has no local basis, and its system is singular
        knots = [0.0] * 4 + [0.3, 0.3 + width, 0.6] + [1.0] * 4
        kv = KnotVector(np.array(knots), 3)
        fam = build_family(knots, kind, 1.0, tol=1e-12)
        basis = build_local_basis(kv, fam, basis_tol)
        cpts = np.random.default_rng(2).uniform(-1, 1, basis.n_basis)
        piece = form_piecewise(cpts, basis)
        if tol < width < basis_tol:
            with pytest.raises(SingularLocalSystem, match=r"on interval 1 \[0\.3, 0\.3000"):
                refine_curve(piece, basis, tol)
        else:
            np.testing.assert_allclose(refine_curve(piece, basis, tol), cpts, atol=1e-12)


# (kind, inserted knots, degree raise): insertion for every kind, elevation
# and both at once for the kinds closed under derivatives
COMPONENT_CASES = ([(kind, (0.3, 0.7), 0) for kind in ALL_KINDS]
                   + [(kind, (), 1) for kind in ("trigonometric", "exponential")]
                   + [(kind, (0.3,), 2) for kind in ("trigonometric", "exponential")])


@pytest.mark.parametrize("kind, insert, raise_by", COMPONENT_CASES)
def test_components_refine_like_columns(kind, insert, raise_by):
    """One projection of (n, 3) control points matches three scalar runs."""
    kv, fam, basis = make_basis(4, interior=(0.5,), kind=kind)
    cpts = np.random.default_rng(17).uniform(-1, 1, (basis.n_basis, 3))
    out = refined_spline(SplineCurve(kv=kv, fam=fam, cpts=cpts), basis,
                         insert=insert, elevate_by=raise_by)
    assert out.cpts.shape == (out.kv.n_basis, 3)
    for k in range(3):
        col = refined_spline(SplineCurve(kv=kv, fam=fam, cpts=cpts[:, k]), basis,
                             insert=insert, elevate_by=raise_by)
        assert col.kv.knots.tolist() == out.kv.knots.tolist()
        bound = 1e-13 * max(1.0, float(np.max(np.abs(col.cpts))))
        np.testing.assert_allclose(out.cpts[:, k], col.cpts, rtol=0, atol=bound)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_interval_below_caller_tolerance(kind):
    """An interval longer than the default tolerance but shorter than the
    caller's carries no generators, and every stage skips it alike."""
    tol = 1e-8
    knots = np.array([0, 0, 0, 0, .25, .5, .5 + 1e-9, .75, 1, 1, 1, 1])
    kv = KnotVector(knots, 3)
    fam = build_family(knots, kind=kind, omega=1.0, tol=tol)
    basis = build_local_basis(kv, fam, tol)
    curve = SplineCurve(kv=kv, fam=fam,
                        cpts=np.random.default_rng(2).uniform(-1, 1, (kv.n_basis, 2)))
    piece = form_piecewise(curve.cpts, basis)
    ts = [float(t) for t in np.linspace(0, 1, 101)]
    want = np.array([eval_curve(curve, basis, t, tol) for t in ts])
    np.testing.assert_allclose([piece.value(t, tol) for t in ts], want, rtol=0, atol=1e-12)
    outs = [insert_knots(curve, basis, [0.3], tol)]
    if kind != "linear":
        outs.append(elevate_degree(curve, basis, 1, tol))
    for out in outs:
        got = [eval_curve(out, build_local_basis(out.kv, out.fam, tol), t, tol) for t in ts]
        # merging the short interval into its breakpoint moves the curve by ~1e-9
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)
    ident = SplineCurve(kv=kv, fam=fam, cpts=greville_abscissae(basis, tol))
    np.testing.assert_allclose([eval_curve(ident, basis, t, tol) for t in ts], ts,
                               rtol=0, atol=1e-8)


def uniform_curve(kind, degree, intervals, omega=np.pi / 2):
    kv = open_kv(degree, np.linspace(0, 1, intervals + 1)[1:-1])
    fam = build_family(kv.knots, kind=kind, omega=omega)
    cpts = np.random.default_rng(0).uniform(-1, 1, kv.n_basis)
    return SplineCurve(kv=kv, fam=fam, cpts=cpts), build_local_basis(kv, fam)


class TestTolerances:
    """nan, inf or a value <= 0 would switch the checks off; they are refused."""

    BAD = [math.nan, math.inf, -1e-9, 0.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_drivers_reject(self, bad):
        curve, basis = uniform_curve("trigonometric", 3, 4)
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            insert_knots(curve, basis, [0.3], tol=bad)
        with pytest.raises(ValueError, match="^coef_tol must be finite and positive"):
            refined_spline(curve, basis, elevate_by=1, coef_tol=bad)
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            greville_abscissae(basis, tol=bad)
        with pytest.raises(ValueError, match="^coef_tol must be finite and positive"):
            greville_abscissae(basis, coef_tol=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_refine_curve_rejects(self, bad):
        curve, basis = uniform_curve("trigonometric", 3, 4)
        piece = form_piecewise(curve.cpts, basis)
        with pytest.raises(ValueError, match="^tol must"):
            refine_curve(piece, basis, tol=bad)
        with pytest.raises(ValueError, match="^coef_tol must"):
            refine_curve(piece, basis, coef_tol=bad)

    def test_nan_coef_tol_no_longer_hides_a_moved_curve(self):
        # with a nan coef_tol this insertion returned a curve 7.25e-6 away
        curve, basis = uniform_curve("trigonometric", 5, 64)
        with pytest.raises(ValueError, match="^coef_tol"):
            insert_knots(curve, basis, [0.010703125], coef_tol=math.nan)
        # the default tolerance now accepts the insertion: it moves the curve by
        # rounding alone, where the ladder values' cancellation once made it fail
        out = insert_knots(curve, basis, [0.010703125])
        assert preservation_gap(curve, basis, out) <= 1e-8 * max(1.0, np.abs(curve.cpts).max())


def preservation_gap(curve, basis, out):
    """Largest change of the curve at 301 samples over [0, 1]."""
    ts = np.linspace(0, 1, 301)
    return np.abs(eval_curve(out, refit(out), ts) - eval_curve(curve, basis, ts)).max()


class TestShortIntervals:
    """Uniform open knots on [0, 1], omega = pi/2, so theta = omega*h is small:
    ladder values taken as closed forms minus their Taylor polynomials
    cancelled here, missing the end point by 0.95 and failing refinement."""

    def test_degree_seven_curve_reaches_its_last_control_point(self):
        curve, basis = uniform_curve("trigonometric", 7, 256)
        bound = 1e-8 * max(1.0, np.abs(curve.cpts).max())
        assert abs(eval_curve(curve, basis, 1.0) - curve.cpts[-1]) <= bound

    def test_elevation_preserves_the_curve(self):
        curve, basis = uniform_curve("trigonometric", 4, 200)
        out = elevate_degree(curve, basis, 1)
        assert preservation_gap(curve, basis, out) <= 1e-8 * max(1.0, np.abs(curve.cpts).max())

    def test_insertion_on_four_thousand_intervals_preserves_the_curve(self):
        curve, basis = uniform_curve("trigonometric", 3, 4000)
        out = insert_knots(curve, basis, [0.4321])
        assert preservation_gap(curve, basis, out) <= 1e-8 * max(1.0, np.abs(curve.cpts).max())


class TestBatchedSolve:
    def test_singular_local_system_names_the_interval(self):
        _, basis = uniform_curve("linear", 8, 16)
        with pytest.raises(SingularLocalSystem, match=(
                r"singular at column 8 on interval 0 \[0\.0, 0\.0625\]: "
                r"\|pivot\| \S+ <= floor \S+")):
            greville_abscissae(basis)

    def test_first_singular_system_is_named(self):
        mats = np.stack([np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 4.0]]])
        message = r"column 1 on system 2: \|pivot\| 0\.000e\+00 <= floor 4\.000e-13"
        with pytest.raises(SingularLocalSystem, match=message):
            _solve(mats, np.ones((3, 2)), lambda i: f"system {i}")

    def test_one_pivot_warning_at_the_worst_system(self):
        mats = np.stack([np.eye(2), np.diag([1e8, 5e-5]), np.diag([1e8, 1e-3])])
        with pytest.warns(RuntimeWarning) as record:
            x = _solve(mats, np.ones((3, 2, 2)), lambda i: f"system {i}")
        assert [str(w.message) for w in record] == [
            "poorly conditioned local system on system 1 (pivot ratio 2.00e+12, the worst of 3)"]
        np.testing.assert_allclose(x[1], [[1e-8, 1e-8], [2e4, 2e4]])

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_matches_numpy_solve(self, n, d, rotate):
        """Diagonally dominant stacks, as they are and with their rows rotated
        down by one, which puts every column's pivot but the last (it has
        one candidate) below the diagonal; d = 1 as a bare (systems, n)."""
        rng = np.random.default_rng(10 * n + d)
        mats = rng.uniform(-1, 1, (20, n, n)) + 10.0 * np.eye(n)
        if rotate:
            mats = mats[:, np.roll(np.arange(n), 1)]
        rhs = rng.uniform(-1, 1, (20, n) if d == 1 else (20, n, d))
        x = _solve(mats, rhs, str)
        want = np.linalg.solve(mats, rhs.reshape(20, n, d)).reshape(rhs.shape)
        assert x.shape == rhs.shape
        scale = np.abs(want).reshape(20, -1).max(axis=1)
        assert (np.abs(x - want).reshape(20, -1).max(axis=1) <= 1e-12 * scale).all()

    def test_matches_dense_solves(self):
        rng = np.random.default_rng(4)
        mats = rng.uniform(-1, 1, (6, 5, 5))
        rhs = rng.uniform(-1, 1, (6, 5, 3))
        x = _solve(mats, rhs, str)
        np.testing.assert_allclose(x, np.linalg.solve(mats, rhs), rtol=0, atol=1e-12)

    @staticmethod
    def bound(mats):
        """Each system's 2^(n-1) n max(1, max|a|) |A^-1|, inf where A is singular:
        at or above PIVOT_RATIO_WARN / 10, no pivot bound clears its checks."""
        n, out = mats.shape[-1], []
        for a in mats:
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError:
                out.append(np.inf)
                continue
            out.append(2.0 ** (n - 1) * n * max(1.0, np.abs(a).max())
                       * np.abs(inv).sum(axis=1).max())
        return np.array(out)

    @staticmethod
    def outcome(solve):
        """(solutions or the SingularLocalSystem text, every warning's text)."""
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            try:
                x = solve()
            except SingularLocalSystem as exc:
                x = str(exc)
        return x, [str(w.message) for w in record]

    @staticmethod
    def stack(rng, n, count):
        """`count` systems of size n, each U diag(s) V^T times 10^[-8, 8] with a
        condition number from 1 to 10^13, or to 10^16 one time in four; now and
        then one is exactly singular (a zero row or a repeated row)."""
        mats = []
        for _ in range(count):
            u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
            s = np.logspace(0, -rng.uniform(0, 16 if rng.integers(4) == 0 else 13), n)
            a = 10.0 ** rng.uniform(-8, 8) * (u * s) @ v.T
            kind = rng.integers(40)
            if kind == 0:
                a[rng.integers(n)] = 0.0
            elif kind == 1:
                i, j = rng.choice(n, 2, replace=False)
                a[i] = a[j]
            mats.append(a)
        return np.array(mats)

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("d", [1, 3])
    def test_sweep_raises_and_warns_as_the_elimination(self, n, d):
        """Stacks mixing systems a pivot bound clears with ones it cannot:
        the same error text and warnings as the elimination alone, else the
        same solutions within 1e-15 times the bound, relative; where no bound
        clears a system, its very bytes."""
        rng = np.random.default_rng([27, n, d])
        seen = set()
        for trial in range(30):
            count = int(rng.integers(1, 7))
            mats = self.stack(rng, n, count)
            rhs = rng.uniform(-1, 1, (count, n) if d == 1 else (count, n, d))
            name = lambda i: f"system {i} of trial {trial}"
            got, got_warned = self.outcome(lambda: _solve(mats, rhs, name))
            want, warned = self.outcome(lambda: _eliminate(
                mats.copy(), rhs.reshape(count, n, d), name, count).reshape(rhs.shape))
            assert got_warned == warned
            if isinstance(want, str):
                assert got == want
                seen.add("raised")
                continue
            bound = self.bound(mats)
            for x, y, b in zip(got.reshape(count, -1), want.reshape(count, -1), bound):
                if b < PIVOT_RATIO_WARN / 10:
                    assert np.abs(x - y).max() <= 1e-15 * b * np.abs(y).max()
                    seen.add("inverse")
                else:
                    assert x.tobytes() == y.tobytes()
                    seen.add("elimination")
        assert {"raised", "inverse", "elimination"} <= seen

    @pytest.mark.filterwarnings("ignore:poorly conditioned local system:RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 3])
    def test_a_system_solves_alike_in_any_stack(self, d):
        """Each system's solution has the same bits alone as in the whole stack,
        whether the inverse or the elimination solves it."""
        rng = np.random.default_rng([28, d])
        mats, rhs = self.stack(rng, 6, 60), rng.uniform(-1, 1, (60, 6, d))
        keep = [i for i in range(60) if not isinstance(self.outcome(
            lambda: _eliminate(mats[i : i + 1].copy(), rhs[i : i + 1], str, 1))[0], str)]
        mats, rhs = mats[keep], rhs[keep].reshape((len(keep), 6) if d == 1 else (len(keep), 6, d))
        bound = self.bound(mats)
        assert (bound < PIVOT_RATIO_WARN / 10).any() and (bound >= PIVOT_RATIO_WARN / 10).any()
        whole = _solve(mats, rhs, str)
        for i in range(len(mats)):
            assert _solve(mats[i : i + 1], rhs[i : i + 1], str)[0].tobytes() == whole[i].tobytes()

    @pytest.mark.parametrize("kind, degree, intervals, insert, raise_by, eliminated", [
        ("linear", 3, 64, (0.4321,), 0, False),
        ("trigonometric", 3, 64, (0.4321,), 0, False),
        ("exponential", 3, 64, (0.4321,), 0, False),
        ("trigonometric", 3, 64, (), 1, False),
        ("exponential", 3, 64, (), 1, False),
        ("linear", 5, 128, (0.4321,), 0, True)])
    def test_only_systems_no_bound_clears_reach_the_elimination(
            self, monkeypatch, kind, degree, intervals, insert, raise_by, eliminated):
        """Uniform p=3 insertions and degree raises are solved by the inverse
        alone; a linear p=5, n=128 insertion's window holds systems with pivot
        ratios near 1e12, which only the elimination may judge."""
        calls = []

        def spy(mats, rhs, name, count):
            calls.append(len(mats))
            return _eliminate(mats, rhs, name, count)

        monkeypatch.setattr(gbspline.refine, "_eliminate", spy)
        curve, basis = uniform_curve(kind, degree, intervals)
        out = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        assert bool(calls) == eliminated
        assert max_curve_diff(curve, basis, out, refit(out), samples=201) < 1e-8

    def test_the_warning_points_at_the_caller(self):
        mats = np.stack([np.eye(2), np.diag([1e8, 5e-5])])
        with pytest.warns(RuntimeWarning, match="on system 1 .* the worst of 2") as record:
            _solve(mats, np.ones((2, 2)), lambda i: f"system {i}")
        assert [w.filename for w in record] == [__file__]


class TestDeriveFamily:
    """derive_family skips build_family's checks, so it must build the very
    family that build_family builds from the inherited kinds and frequencies."""

    @pytest.mark.parametrize("kind", ALL_KINDS + ("mixed",))
    @pytest.mark.parametrize("insert, raise_by", [
        ((0.3,), 0), ((0.1, 0.6, 0.9), 0),
        ((0.25 - 5e-11, 0.5 + 5e-11), 0),   # within tol of existing knots
        ((), 1), ((), 2), ((0.3, 0.5 + 5e-11), 1)])
    def test_equals_build_family(self, kind, insert, raise_by):
        kv = open_kv(3, (0.25, 0.5, 0.5, 0.75))   # a doubled knot
        if kind == "mixed":
            kinds = ["trigonometric", "exponential", "linear", "exponential"]
            fam = build_family(kv.knots, kinds=kinds, omegas=[1.5, 40.0, 0.0, 2.0])
        else:
            fam = build_family(kv.knots, kind=kind, omega=1.5)
        knots1 = _refined_knots(kv, insert, raise_by, DEFAULT_TOL)
        got = derive_family(fam, knots1)
        mids = [(a + b) / 2 for a, b in zip(knots1[:-1], knots1[1:]) if b - a > DEFAULT_TOL]
        lo, hi = fam.spans.T
        src = [int(np.flatnonzero((lo <= m) & (m <= hi))[0]) for m in mids]
        want = build_family(knots1, kinds=[fam.kinds[s] for s in src], omegas=fam.omegas[src])
        assert got.kinds == want.kinds and type(got.kinds) is tuple
        for name in ("spans", "omegas", "slots", "_kind_ids"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
            assert a.tobytes() == b.tobytes(), name


@seed(25)
@settings(deadline=None, max_examples=150)
@given(st.data())
def test_refined_knots_pass_the_knot_vector_checks(data):
    """The refinement builds its target KnotVector and family without their
    checks, so `_refined_knots` must always give an open knot vector that
    passes them, and `derive_family` build_family's family: over interior
    multiplicities up to p + 1, runs of gaps no longer than tol, inserts
    anywhere in the active region (some within tol of a knot) and raises of
    0 to 2.  A refusal must be one of the refinement's own errors.  Gaps
    near tol, where a piece may fit either neighbouring span, are drawn too."""
    tol, p = DEFAULT_TOL, data.draw(st.integers(2, 4), label="degree")
    interior = []
    for v in data.draw(st.lists(st.floats(0.02, 0.98), max_size=6), label="values"):
        if data.draw(st.booleans(), label="run"):   # v, then gaps under tol / 2 or near tol
            gaps = data.draw(st.lists(st.floats(1e-13, 0.45 * tol) | st.floats(0.5 * tol, 2 * tol),
                                      min_size=1, max_size=3))
            interior += (v + np.cumsum([0.0] + gaps)).tolist()
        else:
            interior += [v] * data.draw(st.integers(1, p + 1), label="multiplicity")
    try:
        kv = open_kv(p, interior)
    except MultiplicityOverflow:
        assume(False)
    near = st.sampled_from(kv.knots.tolist()).flatmap(
        lambda k: st.floats(k - tol, k + tol).filter(lambda x: 0.0 < x < 1.0))
    inserts = data.draw(st.lists(st.floats(0.0, 1.0) | near, max_size=4), label="inserts")
    raise_by = data.draw(st.integers(0, 2), label="raise")
    try:
        knots1 = _refined_knots(kv, inserts, raise_by, tol)
    except (KnotOutsideActiveRegion, MultiplicityOverflow):
        return
    kv1 = KnotVector(knots1, p + raise_by)   # every check passes
    assert kv1.knots.tobytes() == knots1.tobytes()
    count = int(np.count_nonzero(np.diff(kv.knots) > tol))   # intervals with generators
    kinds = data.draw(st.lists(st.sampled_from(ALL_KINDS), min_size=count, max_size=count))
    fam = build_family(kv.knots, kinds=kinds, omegas=[1.5] * count)
    try:
        got = derive_family(fam, knots1)
    except IntervalStraddle:   # a sub-tol run whose merged knot leaves a wider piece
        return
    mids = [(a + b) / 2 for a, b in zip(knots1[:-1], knots1[1:]) if b - a > tol]
    lo, hi = fam.spans.T   # each piece inherits from the span nearest its midpoint
    src = [int(np.argmin(np.maximum(np.maximum(lo - m, m - hi), 0.0))) for m in mids]
    want = build_family(knots1, kinds=[fam.kinds[s] for s in src], omegas=fam.omegas[src])
    assert got.kinds == want.kinds
    for name in ("spans", "omegas", "slots", "_kind_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
        assert a.tobytes() == b.tobytes(), name


def mesh_curve(mesh, degree=3, linear=True):
    """A curve of 20 intervals on [0, 1] with control points from seed 5; the
    mixed kinds skip the linear one unless `linear`."""
    interior = np.linspace(0, 1, 21)[1:-1].tolist()
    kinds, omegas = ["trigonometric"] * 20, [np.pi / 2] * 20
    if mesh == "geometric":
        interior = (0.8 ** np.arange(20, 1, -1)).tolist()
    elif mesh == "double knot":
        interior += [0.5]
    elif mesh == "sub-tol run":   # three knots 3e-11 apart, which refinement merges
        interior += [0.5 + 3e-11, 0.5 + 6e-11]
    elif mesh == "mixed kinds":
        kinds = ["trigonometric", "exponential", "linear" if linear else "trigonometric",
                 "exponential"] * 5
        omegas = [1.5, 100.0, 0.5, 2.0] * 5   # theta = 5 keeps the closed forms
    kv = open_kv(degree, interior)
    count = np.count_nonzero(np.diff(kv.knots) > DEFAULT_TOL)   # intervals with generators
    fam = build_family(kv.knots, kinds=(kinds * 2)[:count], omegas=(omegas * 2)[:count])
    return SplineCurve(kv=kv, fam=fam, cpts=np.random.default_rng(5).uniform(-1, 1, kv.n_basis))


class TestOnePass:
    """A refinement places the target intervals in the source spans once and
    runs one ladder pass, with a caller's basis of the curve's family or
    without one, on a window or on the whole target; a basis of a copy of
    the family takes the one search more that checks it.  The rows it
    reindexes are `refine_local`'s bit for bit."""

    MESHES = ("uniform", "geometric", "double knot", "sub-tol run", "mixed kinds")

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("given", ["none", "own", "copy"])
    @pytest.mark.parametrize("insert, raise_by", [((0.4321,), 0), ((0.02, 0.51), 0), ((), 1)])
    def test_one_search_one_pass_and_refine_locals_rows(self, monkeypatch, mesh, given,
                                                        insert, raise_by):
        curve = mesh_curve(mesh, linear=not raise_by)
        fam = curve.fam
        if given == "copy":
            fam = build_family(curve.kv.knots, kinds=fam.kinds, omegas=fam.omegas)
        basis = None if given == "none" else build_local_basis(curve.kv, fam)
        calls = {"search": 0, "pass": [], "reindex": []}

        def counting(fn, key):
            def wrapped(*args):
                out = fn(*args)
                if key == "search":
                    calls[key] += 1
                else:
                    calls[key].append((args, out))
                return out
            return wrapped

        search = counting(gbspline.knots.containing_spans, "search")
        for module in (gbspline.knots, gbspline.basis, gbspline.refine):
            monkeypatch.setattr(module, "containing_spans", search)
        for module in (gbspline.basis, gbspline.refine):
            monkeypatch.setattr(module, "_ladders_at", counting(gbspline.knots._ladders_at, "pass"))
        monkeypatch.setattr(gbspline.refine, "_reindex", counting(gbspline.refine._reindex,
                                                                  "reindex"))
        out = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        assert calls["search"] == (2 if given == "copy" else 1)
        assert len(calls["pass"]) == 1 and len(calls["reindex"]) == 1
        requests = calls["pass"][0][0]
        assert len(requests) == (3 if basis is None else 2)
        (piece, dst, row), rows = calls["reindex"][0]
        monkeypatch.undo()
        local = refine_local(piece, dst)
        assert rows.tobytes() == local.coefs.tobytes()
        assert requests[1][2].tobytes() == local.slots.tobytes()   # the table's spans
        want = refined_spline(curve, build_local_basis(curve.kv, curve.fam), insert=insert,
                              elevate_by=raise_by)
        assert out.kv.knots.tobytes() == want.kv.knots.tobytes()
        assert out.cpts.tobytes() == want.cpts.tobytes()
        for name in ("knots", "spans", "omegas", "slots", "_kind_ids"):
            got = getattr(out.kv if name == "knots" else out.fam, name)
            assert not got.flags.writeable, name


def shift_every_row(curve, dst, row):
    """`_reindex` with a Taylor shift on every live row, by zero offsets too."""
    live = np.flatnonzero(row >= 0)
    src = row[live]
    coefs = np.zeros((len(row),) + curve.coefs.shape[1:])
    coefs[live] = curve.coefs[src]
    tau = (dst[live] - curve.breaks[src]).reshape((-1,) + (1,) * (coefs.ndim - 2))
    coefs[live, :-2] = taylor_shift(coefs[live, :-2].swapaxes(0, 1), tau).swapaxes(0, 1)
    return coefs


class TestReindex:
    """A target interval that starts its source interval keeps its row as it
    is, so a degree raise runs no Taylor shift; the control points equal
    those of shifting every row, by zero offsets too."""

    @pytest.mark.parametrize("mesh", TestOnePass.MESHES)
    @pytest.mark.parametrize("dim", [None, 2])
    @pytest.mark.parametrize("insert, raise_by", [((0.4321,), 0), ((0.02, 0.51), 0), ((), 1),
                                                  ((0.4321,), 1)])
    def test_rows_shift_only_by_nonzero_offsets(self, monkeypatch, mesh, dim, insert, raise_by):
        curve = mesh_curve(mesh, linear=not raise_by)
        if dim:
            cpts = np.random.default_rng(6).uniform(-1, 1, (len(curve.cpts), dim))
            curve = SplineCurve(kv=curve.kv, fam=curve.fam, cpts=cpts)
        shifted = []

        def spy(coefs, tau):
            shifted.append(len(tau))
            return taylor_shift(coefs, tau)

        monkeypatch.setattr(gbspline.refine, "taylor_shift", spy)
        out = refined_spline(curve, None, insert=insert, elevate_by=raise_by)
        # a merged run of knots under tol moves its piece's start left of the source row's
        assert bool(shifted) == (bool(insert) or mesh == "sub-tol run")
        monkeypatch.setattr(gbspline.refine, "_reindex", shift_every_row)
        want = refined_spline(curve, None, insert=insert, elevate_by=raise_by)
        assert out.cpts.shape == want.cpts.shape and (out.cpts == want.cpts).all()


class TestMixedFamily:
    """Trigonometric and exponential spans side by side, each with its own
    frequency, through every refinement and through the shared tables."""

    @staticmethod
    def curve(degree=3):
        kv = open_kv(degree, [0.15, 0.3, 0.5, 0.62, 0.8])
        count = len(kv.active_region()) - 1
        fam = build_family(kv.knots, kinds=["trigonometric", "exponential"] * (count // 2),
                           omegas=np.linspace(0.8, 2.6, count))
        cpts = np.random.default_rng(21).uniform(-1, 1, (kv.n_basis, 2))
        return SplineCurve(kv=kv, fam=fam, cpts=cpts), build_local_basis(kv, fam)

    @pytest.mark.parametrize("insert, raise_by", [
        ((0.4321,), 0), ((), 1), ((), 2), ((0.07, 0.55), 1)])
    def test_refinement_preserves_the_curve(self, insert, raise_by):
        curve, basis = self.curve()
        out = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        assert out.kv.degree == 3 + raise_by
        # every target span keeps the kind and frequency of its source span
        assert (set(zip(out.fam.kinds, out.fam.omegas.tolist()))
                == set(zip(curve.fam.kinds, curve.fam.omegas.tolist())))
        ts = np.linspace(0, 1, 301)
        gap = np.abs(eval_curve(out, refit(out), ts) - eval_curve(curve, basis, ts)).max()
        assert gap <= 1e-8 * max(1.0, float(np.abs(curve.cpts).max()))

    @pytest.mark.parametrize("insert, raise_by", [((0.4321,), 0), ((0.55,), 2)])
    def test_shared_tables_match_tables_built_apart(self, insert, raise_by):
        # refined_spline's control points are those of refine_curve against a
        # target basis built apart from it: byte for byte under a degree
        # raise; an insertion between knots 0.3 and 0.5 projects only the p
        # control points whose functions span it, and copies the others
        curve, basis = self.curve()
        out = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        basis1 = build_local_basis(out.kv, out.fam)
        cpts = refine_curve(form_piecewise(curve.cpts, basis), basis1)
        if raise_by:
            assert cpts.tobytes() == out.cpts.tobytes()
            return
        k = int(np.searchsorted(curve.kv.knots, insert[0], side="right")) - 1
        window = slice(k - 2, k + 1)
        scale = max(1.0, float(np.abs(cpts).max()))
        assert np.abs(out.cpts[window] - cpts[window]).max() <= 1e-12 * scale
        assert out.cpts[: k - 2].tobytes() == curve.cpts[: k - 2].tobytes()
        assert out.cpts[k + 1 :].tobytes() == curve.cpts[k:].tobytes()

    @pytest.mark.parametrize("kind, omega", [("trigonometric", np.pi / 2), ("exponential", 1.5),
                                             ("exponential", 40.0)])
    @pytest.mark.parametrize("degree", range(2, 7))
    def test_elevation_matches_refine_curve_on_a_basis_built_apart(self, kind, omega, degree):
        # one ladder pass gives refined_spline both the target basis's right
        # ends and the source table; built apart they are the same bits
        # (omega = 40 puts every span on the closed forms; linear cannot rise),
        # on a uniform-ish mesh and on mesh_curve's non-uniform ones; only the
        # geometric mesh from degree 5 on fails, with one singular first system
        # named the same both ways
        for mesh in ("uniform-ish", "geometric", "double knot", "sub-tol run"):
            interior = (mesh_curve(mesh).kv.knots[4:-4] if mesh != "uniform-ish"
                        else (0.15, 0.3, 0.5, 0.62, 0.8))
            kv, fam, basis = make_basis(degree, interior=interior, kind=kind, omega=omega)
            curve = SplineCurve(kv=kv, fam=fam,
                                cpts=np.random.default_rng(degree).uniform(-1, 1, kv.n_basis))
            knots1 = _refined_knots(kv, (), 1, DEFAULT_TOL)
            basis1 = build_local_basis(KnotVector(knots1, degree + 1), derive_family(fam, knots1))
            if mesh == "geometric" and degree >= 5:
                with pytest.raises(SingularLocalSystem) as apart:
                    refine_curve(form_piecewise(curve.cpts, basis), basis1)
                with pytest.raises(SingularLocalSystem, match=f"^{re.escape(str(apart.value))}$"):
                    refined_spline(curve, basis, elevate_by=1)
                continue
            cpts = refine_curve(form_piecewise(curve.cpts, basis), basis1)
            assert cpts.tobytes() == refined_spline(curve, basis, elevate_by=1).cpts.tobytes(), mesh

    @pytest.mark.parametrize("kind, degree", [("linear", 2)] + [
        (kind, degree) for kind in ALL_KINDS + ("mixed",) for degree in range(3, 9)])
    def test_greville_matches_tables_built_apart(self, kind, degree):
        # greville_abscissae projects the identity's target rows directly;
        # refine_curve on the identity piece runs the full rewrite
        if kind == "mixed":
            _, basis = self.curve(degree)
        else:
            _, _, basis = make_basis(degree, interior=(0.15, 0.3, 0.5, 0.62, 0.8), kind=kind)
        breaks = basis.kv.active_region()
        coefs = np.zeros((6, degree + 1))
        coefs[:, 0] = breaks[:-1]
        if degree > 2:
            coefs[:, 1] = 1.0
        coefs[:, -2:] = float(degree == 2)
        piece = PiecewiseCurve(breaks=breaks, coefs=coefs, degree=degree, fam=basis.fam)
        want = refine_curve(piece, basis)
        assert greville_abscissae(basis).tobytes() == want.tobytes()
