"""Projection-based refinement: reindexing, generator rewrites, drivers."""
import dataclasses
import math

import numpy as np
import pytest

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
    DegreeTooSmall,
    GBSplineError,
    FamilyNotClosedUnderDerivative,
    InconsistentCoefficient,
    IntervalStraddle,
    KnotOutsideActiveRegion,
    MultiplicityOverflow,
    SingularLocalSystem,
    TaylorMismatch,
)
from gbspline.knots import build_integral_table
from gbspline.refine import (
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
        np.testing.assert_allclose(out.gen_coefs[0], piece.gen_coefs[0])
        np.testing.assert_allclose(out.gen_coefs[1], piece.gen_coefs[0])
        np.testing.assert_allclose(out.gen_coefs[2], piece.gen_coefs[1])
        np.testing.assert_allclose(out.gen_coefs[3], piece.gen_coefs[1])

    def test_identity_refinement(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        rng = np.random.default_rng(4)
        piece = form_piecewise(rng.uniform(-1, 1, basis.n_basis), basis)
        out = refine_local(piece, piece.breaks)
        np.testing.assert_allclose(out.poly_parts, piece.poly_parts)
        np.testing.assert_allclose(out.gen_coefs, piece.gen_coefs)

    def test_polynomial_subdivision(self):
        fam = build_family([0, 1], kind="linear")
        piece = PiecewiseCurve(breaks=np.array([0.0, 1.0]),
                               poly_parts=np.array([[0.0, 0.0, 1.0]]),
                               gen_coefs=np.zeros((1, 2)), degree=4, fam=fam)
        out = refine_local(piece, np.array([0, .5, 1.0]))
        np.testing.assert_allclose(out.poly_parts[0], [0, 0, 1])
        np.testing.assert_allclose(out.poly_parts[1], [0.25, 1, 1])

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
        lens = np.diff(breaks)
        gen = np.array([[0.7, -0.2], [0.1, 1.4]])
        ngen, offsets = represent_knot_funcs(gen, tables, tables[1:, :, 1], lens)
        np.testing.assert_allclose(ngen, gen, atol=1e-12)
        np.testing.assert_allclose(offsets, 0.0, atol=1e-12)

    def test_zero_input(self):
        kv, fam, basis = make_basis(3, interior=(0.25,))
        breaks = kv.active_region()
        tables = build_integral_table(fam, breaks, 0, 2)
        lens = np.diff(breaks)
        ngen, offsets = represent_knot_funcs(np.zeros((2, 2)), tables, tables[1:, :, 1],
                                             lens)
        np.testing.assert_array_equal(ngen, 0.0)
        np.testing.assert_array_equal(offsets, 0.0)

    @pytest.mark.parametrize("kind", ["trigonometric", "exponential"])
    def test_split_interval_reconstruction(self, kind):
        """Generator terms rewritten across a split interval keep their values."""
        p = 4
        src_fam = build_family([0, 1], kind=kind, omega=np.pi / 2)
        dst_breaks = np.array([0, .5, 1.0])
        dst_fam = build_family(dst_breaks, kind=kind, omega=np.pi / 2)
        tables_src = build_integral_table(src_fam, dst_breaks, 0, p - 1)
        tables_dst = build_integral_table(dst_fam, dst_breaks, 0, p - 1)
        lens = np.diff(dst_breaks)
        gen = np.array([[0.8, -0.3]])
        src = PiecewiseCurve(breaks=np.array([0.0, 1.0]),
                             poly_parts=np.zeros((1, p - 1)), gen_coefs=gen,
                             degree=p, fam=src_fam)
        split = refine_local(src, dst_breaks)
        ngen, offsets = represent_knot_funcs(split.gen_coefs, tables_src,
                                             tables_dst[1:, :, 1], lens)
        rewritten = PiecewiseCurve(breaks=dst_breaks,
                                   poly_parts=split.poly_parts + offsets,
                                   gen_coefs=ngen, degree=p, fam=dst_fam)
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
        ladder = build_integral_table(dst_fam, breaks, 0, 3)[1:, :, 1]
        gen = np.random.default_rng(8).uniform(-1, 1, (5, 2))
        gen[2] = 0.0   # the zero-length interval carries no generators
        ngen, _ = represent_knot_funcs(gen, tables_src, ladder, np.diff(breaks))
        want = np.zeros((5, 2))
        for j in (0, 1, 3, 4):
            slot = 0 if j < 2 else 1
            for w, t in enumerate((breaks[j + 1], breaks[j])):
                want[j, w] = (gen[j, 0] * src_fam.value(slot, "u", -offset, t)
                              + gen[j, 1] * src_fam.value(slot, "v", -offset, t))
        assert ngen.tobytes() == want.tobytes()

    def test_wrong_span_raises_taylor_mismatch(self):
        src_fam = build_family([0, 1], kind="trigonometric", omega=np.pi / 2)
        dst_fam = build_family([0, 1], kind="trigonometric", omega=1.0)
        breaks = np.array([0.0, 1.0])
        tables_src = build_integral_table(src_fam, breaks, 0, 3)
        tables_dst = build_integral_table(dst_fam, breaks, 0, 3)
        with pytest.raises(TaylorMismatch):
            represent_knot_funcs(np.array([[1.0, 0.5]]), tables_src, tables_dst[1:, :, 1],
                                 np.array([1.0]))


class TestRefineCurve:
    def test_identity_plan_returns_control_points(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(12)
        cpts = rng.uniform(-1, 1, basis.n_basis)
        piece = form_piecewise(cpts, basis)
        breaks = kv.active_region()
        tables = build_integral_table(fam, breaks, 0, 3)
        out = refine_curve(piece, basis, tables)
        np.testing.assert_allclose(out, cpts, atol=1e-10)

    def test_continuity_violation_detected(self):
        """A kink at a simple knot cannot be a degree-3 spline: flagged."""
        kv, fam, basis = make_basis(3, interior=(0.5,))
        breaks = kv.active_region()
        poly = np.array([[0.0, 1.0],    # rises with slope 1
                         [0.5, -1.0]])  # falls with slope -1
        piece = PiecewiseCurve(breaks=breaks, poly_parts=poly,
                               gen_coefs=np.zeros((2, 2)), degree=3, fam=fam)
        tables = build_integral_table(fam, breaks, 0, 2)
        with pytest.raises(InconsistentCoefficient):
            refine_curve(piece, basis, tables)
        # tolerances hold per component: a smooth first component (y = t)
        # does not hide the kink in the second
        smooth = np.array([[0.0, 1.0], [0.5, 1.0]])
        piece = PiecewiseCurve(breaks=breaks, poly_parts=np.stack([smooth, poly], axis=2),
                               gen_coefs=np.zeros((2, 2, 2)), degree=3, fam=fam)
        with pytest.raises(InconsistentCoefficient):
            refine_curve(piece, basis, tables)


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
        np.testing.assert_allclose(out.cpts[: k - p + 1], curve.cpts[: k - p + 1],
                                   atol=1e-10)
        np.testing.assert_allclose(out.cpts[k + 1 :], curve.cpts[k:], atol=1e-10)

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
        # orders 1..p-1 come from the basis's ladder_table, built under the
        # basis's tolerance; an interval of sub-tolerance width live under one
        # tolerance and not the other gives what a full table under `tol` gives
        knots = [0.0] * 4 + [0.3, 0.3 + width, 0.6] + [1.0] * 4
        kv = KnotVector(np.array(knots), 3)
        fam = build_family(knots, kind, 1.0, tol=1e-12)
        basis = build_local_basis(kv, fam, basis_tol)
        full = build_integral_table(fam, kv.active_region(), 0, 2, tol)

        def outcome(b):
            try:
                return greville_abscissae(b, tol).tobytes()
            except GBSplineError as e:
                return type(e), str(e)

        assert outcome(basis) == outcome(dataclasses.replace(basis, ladder_table=full[1:, :, 1]))


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
        tables = build_integral_table(curve.fam, curve.kv.active_region(), 0, 2)
        piece = form_piecewise(curve.cpts, basis)
        with pytest.raises(ValueError, match="^tol must"):
            refine_curve(piece, basis, tables, tol=bad)
        with pytest.raises(ValueError, match="^coef_tol must"):
            refine_curve(piece, basis, tables, coef_tol=bad)

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

    def test_matches_dense_solves(self):
        rng = np.random.default_rng(4)
        mats = rng.uniform(-1, 1, (6, 5, 5))
        rhs = rng.uniform(-1, 1, (6, 5, 3))
        x = _solve(mats, rhs, str)
        np.testing.assert_allclose(x, np.linalg.solve(mats, rhs), rtol=0, atol=1e-12)


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
        # refined_spline reuses the target basis's ladder values for the target
        # tables; building those tables from scratch gives the same bytes
        curve, basis = self.curve()
        out = refined_spline(curve, basis, insert=insert, elevate_by=raise_by)
        basis1 = build_local_basis(out.kv, out.fam)
        breaks1, q = out.kv.active_region(), out.kv.degree
        tables_dst = build_integral_table(out.fam, breaks1, 0, q - 1)
        assert basis1.ladder_table.tobytes() == tables_dst[1:, :, 1].tobytes()
        tables_src = build_integral_table(curve.fam, breaks1, raise_by, q - 1)
        cpts = refine_curve(form_piecewise(curve.cpts, basis), basis1, tables_src)
        assert cpts.tobytes() == out.cpts.tobytes()

    def test_greville_matches_tables_built_apart(self):
        _, basis = self.curve(degree=4)
        breaks = basis.kv.active_region()
        tables = build_integral_table(basis.fam, breaks, 0, 3)
        piece = PiecewiseCurve(breaks=breaks, poly_parts=np.stack([breaks[:-1], np.ones(6),
                                                                   np.zeros(6)], axis=1),
                               gen_coefs=np.zeros((6, 2)), degree=4, fam=basis.fam)
        want = refine_curve(piece, basis, tables)
        assert greville_abscissae(basis).tobytes() == want.tobytes()
