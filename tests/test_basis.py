"""Basis construction, evaluation, piecewise form, and diagonal reindexing."""
import itertools
import re
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gbspline import (
    PiecewiseCurve,
    SplineCurve,
    build_family,
    build_local_basis,
    eval_basis_function,
    eval_curve,
    form_piecewise,
    nonzero_basis_values,
    refined_spline,
    validate_open_knot_vector,
)
import gbspline.basis
from gbspline.basis import reverse_diagonal_averages
from gbspline.errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    InconsistentCoefficient,
    IntervalStraddle,
    InvalidFamily,
    LengthMismatch,
    OutOfActiveRegion,
    OutOfInterval,
)
from gbspline.knots import containing_spans, find_interval
from gbspline.poly import DEFAULT_TOL
from gbspline.reference import adaptive_simpson
from conftest import (ALL_KINDS, cox_de_boor, make_basis, one_sided_derivative, open_kv,
                      random_interiors)


class TestConstruction:
    def test_degree_two_linear_is_bernstein(self):
        _, _, basis = make_basis(2, kind="linear")
        for t in np.linspace(0, 1, 101):
            expected = [(1 - t) ** 2, 2 * t * (1 - t), t ** 2]
            got = [eval_basis_function(basis, i, float(t)) for i in range(3)]
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_degree_one_trig_hat(self):
        kv = validate_open_knot_vector([0, 0, 1, 2, 2], 1)
        fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
        basis = build_local_basis(kv, fam)
        expected = np.sin(np.pi / 4) / np.sin(np.pi / 2)
        assert eval_basis_function(basis, 0, 0.5) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deltas_match_quadrature(self, kind):
        """Normalization integrals at every level against direct quadrature.

        The level-k functions inside a degree-p build coincide with the
        degree-k basis over the same knots, its ends cut to multiplicity
        k + 1 (the functions on the cut copies alone are identically zero),
        so each can be integrated numerically and compared.
        """
        kv, fam, basis = make_basis(4, interior=(0.4,), kind=kind, omega=1.2)
        knots = kv.knots
        for level, deltas in enumerate(basis.deltas, start=1):
            cut = 4 - level
            lower = build_local_basis(
                validate_open_knot_vector(knots[cut : len(knots) - cut], level), fam)
            for i, delta in enumerate(deltas):
                oracle = sum(
                    adaptive_simpson(
                        lambda s: eval_basis_function(lower, i - cut, float(s)),
                        float(knots[j]), float(knots[j + 1]))
                    for j in range(i, i + level + 1)
                    if knots[j + 1] - knots[j] > 0)
                assert delta == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_deltas_hold_the_levels_below_the_degree(self, p):
        """A degree-p build keeps the normalization integrals of levels
        1..p-1, the areas its recurrence divides by."""
        _, _, basis = make_basis(p, interior=(0.25, 0.5, 0.75))
        assert len(basis.deltas) == p - 1

    @staticmethod
    def right_ends_read(monkeypatch, kv, fam):
        """The normalized right-end ladder values that building the basis
        reads (one `_ladder_values` call), times h**k as `fam.value` takes
        them to t units, and `fam.value` at the same ends."""
        calls = []
        def record(*args):
            calls.append(ladder_values(*args))
            return calls[-1]
        ladder_values = gbspline.knots._ladder_values
        monkeypatch.setattr(gbspline.knots, "_ladder_values", record)
        build_local_basis(kv, fam)
        assert len(calls) == 1
        slots = containing_spans(fam.spans, kv.knots)
        live = np.flatnonzero(slots >= 0)
        h = (fam.spans[slots[live], 1] - fam.spans[slots[live], 0]).tolist()
        scale = np.array([[x**k for x in h] for k in range(1, kv.degree)])[:, None]
        return calls[0] * scale, fam.value(slots[live], range(1, kv.degree), kv.knots[live + 1])

    @pytest.mark.parametrize("kind, omega", [("linear", 1.0), ("trigonometric", np.pi / 2),
                                             ("exponential", 1.5), ("exponential", 40.0)])
    @pytest.mark.parametrize("p", range(2, 9))
    def test_right_end_ladder_values_equal_the_family_value(self, monkeypatch, kind, omega, p):
        """With a doubled knot; exponential omega = 40 gives theta = 10, where
        the spans keep the closed forms."""
        kv = open_kv(p, (0.25, 0.5, 0.5, 0.75))
        fam = build_family(kv.knots, kind=kind, omega=omega)
        got, want = self.right_ends_read(monkeypatch, kv, fam)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, omega", [("linear", 1.0), ("trigonometric", np.pi / 2),
                                             ("exponential", 40.0)])
    def test_rejects_a_family_coarser_than_its_knots(self, kind, omega):
        """One span over two knot intervals: the recurrence reads right-end
        ladder values as integrals over each interval, which they are only
        where the interval starts its span."""
        kv = validate_open_knot_vector([0] * 4 + [.5] + [1] * 4, 3)
        fam = build_family([0] * 4 + [1] * 4, kind=kind, omega=omega)
        with pytest.raises(InvalidFamily, match=re.escape(
                "knot interval 3 [0.0, 0.5] lies inside the longer span [0.0, 1.0]")):
            build_local_basis(kv, fam)

    @pytest.mark.parametrize("p, e", [(4, 1e-100), (5, 1e-60), (6, 1e-45)])
    def test_tiny_pieces_beside_a_double_knot_keep_finite_rows(self, p, e):
        """Live pieces of length e on both sides of a double knot, under a
        caller's tol far below e: the rows on live intervals stay finite and
        the rows on dead ones are zeros at every level, so nothing there
        grows by 1/delta per level into inf * 0."""
        kv = open_kv(p, (e, e, 2 * e, 0.5))
        basis = build_local_basis(kv, build_family(kv.knots, tol=1e-300), tol=1e-300)
        live, coefs = basis.local.slots >= 0, basis.local.coefs
        assert np.isfinite(coefs[live]).all() and not coefs[~live].any()
        assert all(np.isfinite(d).all() for d in basis.deltas)

    def test_rejects_degree_zero(self):
        kv = validate_open_knot_vector([0, 1], 0)
        fam = build_family(kv.knots, kind="linear")
        with pytest.raises(DegreeTooSmall):
            build_local_basis(kv, fam)


class TestPartitionOfUnity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_random_knot_vectors(self, kind, degree):
        rng = np.random.default_rng(100 * degree + len(kind))
        for _ in range(3):
            interior = random_interiors(rng, max_mult=min(2, degree))
            _, _, basis = make_basis(degree, interior, kind=kind, omega=np.pi / 2)
            for t in np.linspace(0, 1, 200):
                _, vals = nonzero_basis_values(basis, float(t))
                assert abs(vals.sum() - 1.0) <= 1e-9

    def test_fig_knot_vector_sample(self):
        _, _, basis = make_basis(4, interior=(0.5,))
        _, vals = nonzero_basis_values(basis, 0.3)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)


class TestEvaluation:
    def test_outside_support_is_zero(self):
        _, _, basis = make_basis(4, interior=(0.5,))
        assert eval_basis_function(basis, 0, 0.9) == 0.0

    def test_last_function_at_right_end(self):
        _, _, basis = make_basis(4, interior=(0.5,))
        assert eval_basis_function(basis, basis.n_basis - 1, 1.0) == 1.0

    def test_first_function_at_left_end(self):
        _, _, basis = make_basis(3, interior=(0.5,), kind="exponential", omega=2.0)
        assert eval_basis_function(basis, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_degree_eight_curve_interpolates_its_ends(self, kind):
        """Holds only while the construction's ladder table and the
        evaluator's scalar ladder values agree bit for bit."""
        _, fam, basis = make_basis(8, interior=(0.25, 0.5, 0.75), kind=kind)
        cpts = np.random.default_rng(0).uniform(-1, 1, basis.n_basis)
        curve = SplineCurve(kv=basis.kv, fam=fam, cpts=cpts)
        assert abs(eval_curve(curve, basis, 0.0) - cpts[0]) <= 1e-12
        assert abs(eval_curve(curve, basis, 1.0) - cpts[-1]) <= 1e-12
        ends = eval_curve(curve, basis, np.array([0.0, 1.0]))
        assert np.all(np.abs(ends - cpts[[0, -1]]) <= 1e-12)

    def test_out_of_active_region(self):
        _, _, basis = make_basis(2, kind="linear")
        with pytest.raises(OutOfActiveRegion):
            eval_basis_function(basis, 0, 1.5)

    def test_non_finite_parameter_rejected(self):
        kv, fam, basis = make_basis(3, interior=(0.25, 0.5, 0.75))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        for call in (lambda t: eval_curve(curve, basis, t),
                     lambda t: nonzero_basis_values(basis, t),
                     lambda t: eval_basis_function(basis, 2, t)):
            for t in (np.nan, np.inf, -np.inf):
                with pytest.raises(OutOfActiveRegion, match=f"t={t} outside"):
                    call(t)

    def test_nonnegative_on_support(self):
        for kind in ALL_KINDS:
            _, _, basis = make_basis(4, interior=(0.3, 0.7), kind=kind, omega=1.0)
            for i in range(basis.n_basis):
                lo = max(float(basis.kv.knots[i]), 0.0)
                hi = min(float(basis.kv.knots[i + basis.degree + 1]), 1.0)
                if hi <= lo:
                    continue
                for t in np.linspace(lo, hi, 100):
                    assert eval_basis_function(basis, i, float(t)) >= -1e-9


class TestCoxDeBoorReduction:
    KVS = {
        2: ([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1],
            [0, 0, 0, .5, .5, 1, 1, 1],
            [0, 0, 0, .2, .7, .85, 1, 1, 1]),
        3: ([0, 0, 0, 0, .25, .5, .75, 1, 1, 1, 1],
            [0, 0, 0, 0, .5, .5, 1, 1, 1, 1],
            [0, 0, 0, 0, .1, .6, .65, 1, 1, 1, 1]),
        4: ([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, .4, .4, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, .15, .8, 1, 1, 1, 1, 1]),
    }

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_linear_family_matches_classical(self, degree):
        for knots in self.KVS[degree]:
            kv = validate_open_knot_vector(knots, degree)
            fam = build_family(kv.knots, kind="linear")
            basis = build_local_basis(kv, fam)
            reg = kv.active_region()
            for j in range(len(reg) - 1):
                if reg[j + 1] - reg[j] <= 0:
                    continue
                for t in np.linspace(reg[j], reg[j + 1], 101):
                    for i in range(kv.n_basis):
                        expected = cox_de_boor(list(kv.knots), i, degree, float(t))
                        got = eval_basis_function(basis, i, float(t))
                        assert got == pytest.approx(expected, abs=1e-10)


class TestSmoothness:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    def test_one_sided_derivatives_at_simple_knots(self, kind, degree):
        kv, fam, basis = make_basis(degree, interior=(0.35, 0.7), kind=kind, omega=1.1)
        knots = kv.knots
        for x in (0.35, 0.7):
            j_right = int(np.searchsorted(knots, x, side="right")) - 1
            for i in range(basis.n_basis):
                for order in range(1, degree):
                    left = one_sided_derivative(basis, i, j_right - 1, order, at_right=True)
                    right = one_sided_derivative(basis, i, j_right, order, at_right=False)
                    scale = max(1.0, abs(left), abs(right))
                    assert abs(left - right) <= 1e-4 * scale

    def test_finite_difference_crosscheck_low_orders(self):
        """Orders 1 and 2 also agree via one-sided finite differences."""
        _, _, basis = make_basis(4, interior=(0.5,))
        step = 1e-5 * 0.5
        for i in range(basis.n_basis):
            f = lambda t: eval_basis_function(basis, i, float(t))
            d1_left = (f(0.5 - step) - f(0.5 - 2 * step)) / step
            d1_right = (f(0.5 + 2 * step) - f(0.5 + step)) / step
            assert d1_left == pytest.approx(d1_right, rel=1e-3, abs=1e-3)
            d2_left = (f(0.5 - step) - 2 * f(0.5 - 2 * step) + f(0.5 - 3 * step)) / step**2
            d2_right = (f(0.5 + 3 * step) - 2 * f(0.5 + 2 * step) + f(0.5 + step)) / step**2
            assert d2_left == pytest.approx(d2_right, rel=1e-3, abs=2e-2)


class TestDiagonals:
    def test_averages_exact(self):
        np.testing.assert_allclose(
            reverse_diagonal_averages(np.array([[1.0, 2.0], [2.0, 3.0]])), [1, 2, 3])

    def test_averages_skip_nan(self):
        np.testing.assert_allclose(
            reverse_diagonal_averages(np.array([[1.0, np.nan], [1.0, 4.0]])), [1, 1, 4])

    def test_averages_flag_disagreement(self):
        with pytest.raises(InconsistentCoefficient):
            reverse_diagonal_averages(np.array([[1.0, 2.0], [2.5, 3.0]]), tol=1e-6)

    def test_averages_of_components(self):
        coefs = np.array([[[1.0, 5.0], [2.0, 6.0]],
                          [[2.0, np.nan], [3.0, 7.0]]])   # one component missing
        np.testing.assert_allclose(reverse_diagonal_averages(coefs),
                                   [[1, 5], [2, 6], [3, 7]])
        coefs[1, 0, 1] = 6.5
        with pytest.raises(InconsistentCoefficient,
                           match=r"coefficient 1 disagree: \[\[2.0, 6.0\], \[2.0, 6.5\]\]"):
            reverse_diagonal_averages(coefs)

    def test_averages_flag_missing_diagonal(self):
        with pytest.raises(AllMissingDiagonal):
            reverse_diagonal_averages(np.array([[1.0, np.nan], [np.nan, 4.0]]))


def add_at_averages(coefs, tol=1e-6, *, first=0):
    """reverse_diagonal_averages with its diagonals summed by np.add.at, in
    the order of the flattened table."""
    coefs = np.asarray(coefs, dtype=float)
    rows, cols = coefs.shape[:2]
    flat = coefs.reshape(rows * cols, -1)
    diag = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    ok = np.isfinite(flat).all(axis=1)
    count = np.bincount(diag[ok], minlength=rows + cols - 1)
    if not count.all():
        raise AllMissingDiagonal(
            f"no finite estimates for coefficient {first + np.flatnonzero(count == 0)[0]}")
    total = np.zeros((rows + cols - 1, flat.shape[1]))
    np.add.at(total, diag[ok], flat[ok])
    avg = total / count[:, None]
    stray = ok & (np.abs(flat - avg[diag]) > tol * np.maximum(1.0, np.abs(avg[diag]))).any(axis=1)
    if stray.any():
        d = diag[stray].min()
        vals = flat[ok & (diag == d)].reshape((-1,) + coefs.shape[2:])
        raise InconsistentCoefficient(
            f"estimates for coefficient {first + d} disagree: {vals.tolist()}")
    return avg.reshape((rows + cols - 1,) + coefs.shape[2:])


class TestDiagonalSums:
    """reverse_diagonal_averages sums each diagonal with one slice per
    column, last column first: the order np.add.at adds in, so the same
    bytes and the same two messages."""

    @staticmethod
    def outcome(average, coefs, tol, first):
        try:
            return average(coefs, tol, first=first).tobytes()
        except (AllMissingDiagonal, InconsistentCoefficient) as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("first", [0, 17])
    def test_equals_np_add_at_byte_for_byte(self, d, first):
        rng = np.random.default_rng(d + first)
        errors = set()
        for trial in range(60):
            rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            # per-diagonal values, some zero, times a tiny spread, over many decades
            exact = rng.standard_normal((rows + cols - 1, d)) * 10.0 ** rng.integers(-8, 9, (1, d))
            exact[rng.random(rows + cols - 1) < 0.1] = 0.0
            diag = np.arange(rows)[:, None] + np.arange(cols)
            spread = 10.0 ** -rng.integers(9, 17) * rng.standard_normal((rows, cols, d))
            coefs = exact[diag] * (1 + spread)
            coefs[(coefs == 0) & (rng.random(coefs.shape) < 0.5)] = -0.0
            coefs[rng.random(rows) < 0.15] = np.nan   # rows of missing estimates
            if trial % 6 == 0:
                coefs[0] = np.nan   # coefficient first + 0 has no estimate
            if d == 3:
                coefs[rng.random((rows, cols)) < 0.05, 1] = np.nan   # one component missing
            if d == 1:
                coefs = coefs[..., 0]
            tol = 10.0 ** -rng.integers(6, 14)
            want = self.outcome(add_at_averages, coefs, tol, first)
            assert self.outcome(reverse_diagonal_averages, coefs, tol, first) == want
            if isinstance(want, tuple):
                errors.add(want[0])
        assert errors == {"AllMissingDiagonal", "InconsistentCoefficient"}


class TestPiecewiseForm:
    def test_unit_control_points_give_one(self):
        _, _, basis = make_basis(4, interior=(0.5,))
        piece = form_piecewise(np.ones(basis.n_basis), basis)
        for t in np.linspace(0, 1, 50):
            assert piece.value(float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_vector_reproduces_basis_function(self):
        _, _, basis = make_basis(3, interior=(0.4,), kind="exponential", omega=1.5)
        for i in range(basis.n_basis):
            e = np.zeros(basis.n_basis)
            e[i] = 1.0
            piece = form_piecewise(e, basis)
            for t in np.linspace(0, 1, 40):
                assert piece.value(float(t)) == pytest.approx(
                    eval_basis_function(basis, i, float(t)), abs=1e-12)

    def test_matches_control_point_evaluation(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        rng = np.random.default_rng(7)
        cpts = rng.uniform(-1, 1, basis.n_basis)
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        piece = form_piecewise(cpts, basis)
        for t in np.linspace(0, 1, 1001):
            assert piece.value(float(t)) == pytest.approx(
                eval_curve(curve, basis, float(t)), abs=1e-12)

    def test_continuity_at_breakpoints(self):
        _, _, basis = make_basis(3, interior=(0.25, 0.6))
        rng = np.random.default_rng(11)
        piece = form_piecewise(rng.uniform(-2, 2, basis.n_basis), basis)
        breaks = piece.breaks
        for j in range(1, len(breaks) - 1):
            x = float(breaks[j])
            left = piece.value(np.nextafter(x, -np.inf))
            assert piece.value(x) == pytest.approx(left, abs=1e-8)

    def test_length_mismatch(self):
        _, _, basis = make_basis(2, kind="linear")
        with pytest.raises(LengthMismatch):
            form_piecewise(np.ones(basis.n_basis + 1), basis)


class TestCurveEvaluation:
    def test_constant_reproduction(self):
        kv, fam, basis = make_basis(4, interior=(0.5,))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        for t in np.linspace(0, 1, 101):
            assert eval_curve(curve, basis, float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_knot_average_control_points_reproduce_identity(self):
        """Classical property: linear-family curves through knot averages give t."""
        kv, fam, basis = make_basis(3, interior=(0.3, 0.65), kind="linear")
        p = kv.degree
        averages = [float(np.mean(kv.knots[i + 1 : i + p + 1])) for i in range(kv.n_basis)]
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.array(averages))
        for t in np.linspace(0, 1, 101):
            assert eval_curve(curve, basis, float(t)) == pytest.approx(t, abs=1e-9)

    def test_single_control_point_scales_one_function(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        cpts = np.zeros(basis.n_basis)
        cpts[2] = 0.7
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        for t in np.linspace(0, 1, 50):
            assert eval_curve(curve, basis, float(t)) == pytest.approx(
                0.7 * eval_basis_function(basis, 2, float(t)), abs=1e-13)

    def test_components_evaluate_like_columns(self):
        """(n, d) control points give d-component values, one per column."""
        kv, fam, basis = make_basis(4, interior=(0.3, 0.6), kind="exponential", omega=1.5)
        cpts = np.random.default_rng(13).uniform(-1, 1, (basis.n_basis, 2))
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        piece = form_piecewise(cpts, basis)
        columns = [SplineCurve(kv=kv, fam=fam, cpts=cpts[:, k]) for k in range(2)]
        pieces = [form_piecewise(cpts[:, k], basis) for k in range(2)]
        for t in np.linspace(0, 1, 41):
            want = [eval_curve(c, basis, float(t)) for c in columns]
            assert all(type(w) is float for w in want)
            np.testing.assert_allclose(eval_curve(curve, basis, float(t)), want,
                                       rtol=0, atol=1e-14)
            want = [pc.value(float(t)) for pc in pieces]
            assert all(type(w) is float for w in want)
            np.testing.assert_allclose(piece.value(float(t)), want, rtol=0, atol=1e-14)

    def test_control_points_of_three_axes_rejected(self):
        kv, fam, basis = make_basis(2, kind="linear")
        with pytest.raises(LengthMismatch):
            SplineCurve(kv=kv, fam=fam, cpts=np.ones((basis.n_basis, 2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_control_points_rejected(self, bad):
        """SplineCurve and form_piecewise name the first control point with a
        component that is not finite, with or without a component axis."""
        kv, fam, basis = make_basis(3, interior=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875))
        cpts = np.random.default_rng(0).uniform(-1, 1, (basis.n_basis, 2))
        cpts[4, 1] = cpts[6, 0] = bad
        for c in (cpts, cpts[:, 1]):
            with pytest.raises(ValueError, match=r"^control point 4 is not finite$"):
                SplineCurve(kv=kv, fam=fam, cpts=c)
            with pytest.raises(ValueError, match=r"^control point 4 is not finite$"):
                form_piecewise(c, basis)


def test_piecewise_value_follows_the_interval_map():
    """A curve evaluates with the interval map it was built with: an interval
    shorter than the default tolerance has generators only under a map made
    with a finer one."""
    breaks = np.array([0.0, 0.5, 0.5 + 1e-12, 1.0])
    fam = build_family(breaks, kind="linear", tol=1e-14)
    coefs = np.diff(breaks)[:, None] * [0.0, 1.0, 1.0]
    parts = dict(breaks=breaks, coefs=coefs, degree=2, fam=fam)
    piece = PiecewiseCurve(**parts, slots=fam.slots)
    # first integrals of the linear pair sum to x, so h times them to t - left
    t = 0.5 + 5e-13
    assert piece.value(t, tol=1e-14) == pytest.approx(t - 0.5, rel=1e-9, abs=0)
    with pytest.raises(IntervalStraddle, match=r"interval 1 \["):
        PiecewiseCurve(**parts).value(t, tol=1e-14)


def test_piecewise_coefficients_must_fit_degree_and_breaks():
    """Rows wider than degree 3's polynomial part plus generator pair, or
    more rows than intervals, are refused when the curve is made, with or
    without a component axis."""
    _, fam, basis = make_basis(3, interior=(0.5,))
    for shape in ((2, 6), (3, 4), (2, 6, 2), (3, 4, 2)):
        with pytest.raises(ValueError, match=rf"= \(2, 4\), then optional components; "
                                             rf"got {re.escape(str(shape))}$"):
            PiecewiseCurve(breaks=basis.local.breaks, coefs=np.zeros(shape), degree=3, fam=fam)


def test_piecewise_slots_must_map_each_interval_to_a_span():
    """An interval map of the wrong length, with an entry naming no span of
    the family, or with a fractional entry (never truncated) is refused when
    the curve is made."""
    _, fam, basis = make_basis(3, interior=(0.5,))
    for slots, got in (([0], r"\(1,\): \[0\]"), ([0, 5], r"\(2,\): \[0 5\]"),
                       ([-2, 1], r"\(2,\): \[-2  1\]"), ([0.7, 1.9], r"\(2,\): \[0\.7 1\.9\]"),
                       ([0.0, np.nan], r"\(2,\): \[ 0\. nan\]")):
        with pytest.raises(ValueError, match=rf"^slots must be shaped \(2,\) with whole-number "
                                             rf"entries in -1..1; got {got}$"):
            PiecewiseCurve(breaks=basis.local.breaks, coefs=np.zeros((2, 4)), degree=3,
                           fam=fam, slots=np.array(slots))


class TestSubToleranceInterval:
    """Knots with a 1e-9 interval at 0.5, the family built at tol 1e-8: that
    interval has no generators, and the default tolerance sees it."""

    def setup_method(self):
        self.kv = validate_open_knot_vector([0.0] * 4 + [0.5, 0.5 + 1e-9] + [1.0] * 4, 3)
        self.fam = build_family(self.kv.knots, tol=1e-8)

    def test_evaluation_names_the_interval(self):
        basis = build_local_basis(self.kv, self.fam, tol=1e-8)
        curve = SplineCurve(kv=self.kv, fam=self.fam, cpts=np.ones(basis.n_basis))
        t = 0.5000000005
        for call in (lambda: eval_curve(curve, basis, t),
                     lambda: nonzero_basis_values(basis, t),
                     lambda: eval_basis_function(basis, 2, t)):
            with pytest.raises(IntervalStraddle, match=r"interval 1 \["):
                call()

    def test_batch_evaluation_names_the_interval(self):
        basis = build_local_basis(self.kv, self.fam, tol=1e-8)
        curve = SplineCurve(kv=self.kv, fam=self.fam, cpts=np.ones(basis.n_basis))
        ts = np.array([0.25, 0.5000000005, 0.75])
        for call in (lambda: eval_curve(curve, basis, ts),
                     lambda: nonzero_basis_values(basis, ts),
                     lambda: form_piecewise(curve.cpts, basis).value(ts)):
            with pytest.raises(IntervalStraddle, match=r"interval 1 \["):
                call()

    def test_construction_rejects_the_finer_tolerance(self):
        with pytest.raises(IntervalStraddle):
            build_local_basis(self.kv, self.fam)


class TestSubToleranceRun:
    """Intervals each no longer than tol that together are longer: a t inside
    the run belongs to the live interval on its left, as find_interval says."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("run", [(6e-11, 1.2e-10), (4e-11, 8e-11, 1.2e-10)])
    def test_evaluates_inside_the_run(self, kind, run):
        kv = open_kv(3, (0.5,) + tuple(0.5 + r for r in run))
        fam = build_family(kv.knots, kind=kind, omega=1.0)
        basis = build_local_basis(kv, fam)
        cpts = np.random.default_rng(5).uniform(-1, 1, kv.n_basis)
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        ts = 0.5 + np.linspace(0.0, run[-1], 13)[:-1]   # the last is the next live interval's
        scalar = np.array([eval_curve(curve, basis, float(t)) for t in ts])
        batch = eval_curve(curve, basis, ts)
        assert batch.tobytes() == scalar.tobytes()
        assert np.abs(scalar - scalar[0]).max() <= 1e-8   # continuous across the run
        for t in ts.tolist():
            first, vals = nonzero_basis_values(basis, t)
            assert first == 0 and abs(vals.sum() - 1.0) <= 1e-12


class TestBatchEvaluation:
    """Arrays of parameters go through the scalar path's arithmetic: every
    batch result equals the stacked scalar calls bit for bit."""

    @staticmethod
    def parameters(kv):
        """Every breakpoint, both ends included, and the float just left of
        each breakpoint but the first."""
        reg = kv.active_region()
        return np.concatenate([reg, np.nextafter(reg[1:], -np.inf)])

    @staticmethod
    def assert_batch_matches_scalar(kv, fam, dim):
        basis = build_local_basis(kv, fam)
        ts = TestBatchEvaluation.parameters(kv)
        shape = (kv.n_basis,) if dim is None else (kv.n_basis, dim)
        cpts = np.random.default_rng(kv.m).uniform(-1, 1, shape)
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        piece = form_piecewise(cpts, basis)

        first, vals = nonzero_basis_values(basis, ts)
        scalar = [nonzero_basis_values(basis, float(t)) for t in ts]
        assert first.shape == (len(ts),) and vals.shape == (len(ts), kv.degree + 1)
        assert np.array_equal(first, [j for j, _ in scalar])
        stacked = np.array([v for _, v in scalar])
        # bytes as well, so that a -0.0 turning into +0.0 fails too
        assert np.array_equal(vals, stacked) and vals.tobytes() == stacked.tobytes()
        for batch, one in ((eval_curve(curve, basis, ts), lambda t: eval_curve(curve, basis, t)),
                           (piece.value(ts), piece.value)):
            assert batch.shape == (len(ts),) + shape[1:]
            stacked = np.array([one(float(t)) for t in ts])
            assert np.array_equal(batch, stacked) and batch.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", range(1, 9))
    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("dim", [None, 3])
    def test_uniform_knots(self, kind, degree, n, dim):
        kv = open_kv(degree, np.linspace(0, 1, n + 1)[1:-1])
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 2)
        self.assert_batch_matches_scalar(kv, fam, dim)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", [2, 3, 5, 8])
    @pytest.mark.parametrize("interior", [(0.3, 0.5, 0.5, 0.8), (0.3, 0.5, 0.5 + 1e-11, 0.8),
                                          (0.3, 0.5, 0.5 + 4e-11, 0.5 + 8e-11, 0.5 + 1.2e-10, 0.8)],
                             ids=["double-knot", "sub-tolerance-interval", "sub-tolerance-run"])
    @pytest.mark.parametrize("dim", [None, 3])
    def test_repeated_and_short_intervals(self, kind, degree, interior, dim):
        kv = open_kv(degree, interior)
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 2)
        self.assert_batch_matches_scalar(kv, fam, dim)

    @pytest.mark.parametrize("dim", [None, 2])
    def test_empty_batch(self, dim):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        shape = (basis.n_basis,) if dim is None else (basis.n_basis, dim)
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(shape))
        first, vals = nonzero_basis_values(basis, np.array([]))
        assert first.shape == (0,) and vals.shape == (0, 4)
        assert eval_curve(curve, basis, np.array([])).shape == (0,) + shape[1:]

    def test_zero_dimensional_array_is_a_scalar(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.arange(10.0).reshape(5, 2))
        assert np.array_equal(eval_curve(curve, basis, np.array(0.3)),
                              eval_curve(curve, basis, 0.3))
        first, vals = nonzero_basis_values(basis, np.array(0.3))
        assert first == nonzero_basis_values(basis, 0.3)[0] and vals.shape == (4,)

    def test_basis_function_rejects_an_array_of_parameters(self):
        _, _, basis = make_basis(3, interior=(0.5,))
        with pytest.raises(ValueError, match=r"^t must be a number, got an array shaped \(2,\)"):
            eval_basis_function(basis, 1, np.array([0.2, 0.3]))

    def test_value_on_rejects_a_scalar_interval_with_array_parameters(self):
        _, _, basis = make_basis(3, interior=(0.5,))
        with pytest.raises(ValueError, match=r"got j scalar and t \(2,\)"):
            basis.local.value_on(1, np.array([0.6, 0.7]))

    def test_value_on_rejects_array_intervals_with_a_scalar_parameter(self):
        _, _, basis = make_basis(3, interior=(0.5,))
        with pytest.raises(ValueError, match=r"got j \(2,\) and t scalar"):
            basis.local.value_on(np.array([0, 1]), 0.3)
        with pytest.raises(ValueError, match=r"got j \(2,\) and t \(3,\)"):
            basis.local.value_on(np.array([0, 1]), np.array([0.2, 0.3, 0.6]))

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf])
    def test_outside_the_region_names_the_sample(self, bad):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        ts = np.array([0.0, 0.5, bad, 1.0, bad])
        for call in (lambda: eval_curve(curve, basis, ts),
                     lambda: nonzero_basis_values(basis, ts),
                     lambda: form_piecewise(curve.cpts, basis).value(ts)):
            with pytest.raises(OutOfActiveRegion, match=rf"t\[2\]={bad} outside"):
                call()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", [1, 3, 8])
    @pytest.mark.parametrize("dim", [None, 3])
    @pytest.mark.parametrize("fill", ["arange", "ones"])
    def test_batches_of_any_size_match_scalar_calls(self, kind, degree, dim, fill):
        """eval_curve evaluates the curve's piecewise form: scalar calls equal
        that form's scalar values and batches of any size bit for bit, and
        all agree with the sum of N_k * c_k over the nonzero functions."""
        kv = open_kv(degree, (0.2, 0.45, 0.45, 0.7))
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 2)
        basis = build_local_basis(kv, fam)
        shape = (kv.n_basis,) if dim is None else (kv.n_basis, dim)
        cpts = (np.arange(np.prod(shape), dtype=float).reshape(shape) if fill == "arange"
                else np.ones(shape))
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        ts = kv.active_region()   # every breakpoint, both ends included
        scalar = np.array([eval_curve(curve, basis, float(t)) for t in ts])
        piece = form_piecewise(cpts, basis)
        assert scalar.tobytes() == np.array([piece.value(float(t)) for t in ts]).tobytes()
        want = []
        for t in ts.tolist():
            first, vals = nonzero_basis_values(basis, t)
            want.append(sum(vals[k] * cpts[first + k] for k in range(degree + 1)))
        np.testing.assert_allclose(scalar, want, rtol=0, atol=1e-13 * max(1.0, cpts.max()))
        for size in (1, 2, len(ts)):
            batch = np.concatenate([eval_curve(curve, basis, ts[i : i + size])
                                    for i in range(0, len(ts), size)])
            assert batch.shape == scalar.shape and batch.tobytes() == scalar.tobytes()


class TestMergedRows:
    """Each interval evaluates one merged polynomial in its span's x, plus the
    closed forms' term on wide exponential spans."""

    @staticmethod
    def family(kind, knots):
        if kind == "mixed":   # the exponential spans keep the closed forms
            count = int((np.diff(knots) > 0).sum())
            return build_family(knots, kinds=["trigonometric", "exponential"] * (count // 2),
                                omegas=[1.5, 40.0] * (count // 2))
        return build_family(knots, kind="exponential", omega=40.0)   # theta = 10

    @staticmethod
    def exact(piece, j, t):
        """Interval j's stored row at t in 50-digit arithmetic: the polynomial
        part in x plus a * u + b * v, the normalized ladders of order
        degree - 1 summed from their series in x until a term falls below
        1e-60."""
        fam, k = piece.fam, piece.degree - 1
        slot = piece.slots[j]
        with mpmath.workdps(50):
            lo, hi = (mpmath.mpf(e) for e in fam.spans[slot].tolist())
            h, t = hi - lo, mpmath.mpf(t)
            x, theta = (t - lo) / h, fam.omegas[slot] * h
            sign, sine, cosine = ((-1, mpmath.sin(theta), mpmath.cos(theta))
                                  if fam.kinds[slot] == "trigonometric"
                                  else (1, mpmath.sinh(theta), mpmath.cosh(theta)))
            u = v = mpmath.mpf(0)
            for i in itertools.count():
                even, odd = ((sign * theta**2) ** i * x**n / mpmath.factorial(n)
                             for n in (2 * i + k, 2 * i + 1 + k))
                u, v = u + theta / sine * odd, v + even - theta * cosine / sine * odd
                if abs(even) < 1e-60:
                    break
            rows = piece.coefs[j].reshape(piece.coefs.shape[1], -1).T.tolist()
            return [float(mpmath.polyval(row[-3::-1], x) + row[-2] * u + row[-1] * v)
                    for row in rows]

    @pytest.mark.parametrize("kind", ["exponential", "mixed"])
    @pytest.mark.parametrize("degree", range(1, 9))
    @pytest.mark.parametrize("dim", [None, 3])
    def test_closed_forms_and_mixed_kinds(self, kind, degree, dim):
        """Scalar calls equal the batch bit for bit and agree with a 50-digit
        evaluation of the stored rows within 1e-13 * max(1, |c|), except on
        the all-exponential theta = 10 spans at p >= 7: there the rows' terms
        cancel from about 1e4 and the merged rows err up to 7e-13, so 1e-12
        (the per-component sum of the parent erred 1.2e-12 at p = 8)."""
        kv = open_kv(degree, (0.25, 0.5, 0.5, 0.75))
        fam = self.family(kind, kv.knots)
        basis = build_local_basis(kv, fam)
        shape = (kv.n_basis,) if dim is None else (kv.n_basis, dim)
        cpts = np.random.default_rng(degree).uniform(-2, 2, shape)
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        ts = np.concatenate([np.linspace(0, 1, 201), TestBatchEvaluation.parameters(kv)])
        batch = eval_curve(curve, basis, ts)
        scalar = np.array([eval_curve(curve, basis, float(t)) for t in ts])
        assert batch.tobytes() == scalar.tobytes()
        piece = form_piecewise(cpts, basis)
        j = np.minimum(np.searchsorted(piece.breaks, ts, side="right") - 1, len(piece.breaks) - 2)
        j[piece.slots[j] < 0] -= 1   # the doubled knot's empty interval
        at = np.arange(0, len(ts), 5)
        exact = np.array([self.exact(piece, j[i], ts[i]) for i in at]).reshape(batch[at].shape)
        bound = 1e-12 if kind == "exponential" and degree >= 7 else 1e-13
        np.testing.assert_allclose(batch[at], exact, rtol=0, atol=bound * np.abs(cpts).max(initial=1))
        _, vals = nonzero_basis_values(basis, ts)
        assert vals.tobytes() == np.array([nonzero_basis_values(basis, float(t))[1]
                                           for t in ts]).tobytes()
        if degree > 1:   # degree-1 non-linear hats do not sum to one
            np.testing.assert_allclose(vals.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_one_curve_against_two_bases(self):
        """A curve keeps the piecewise form of the last basis it met, compared
        by identity: evaluating against A, then B, then A again gives each
        basis's own answer, as a fresh curve does."""
        kv = validate_open_knot_vector([0.0] * 4 + [0.25, 0.5, 0.5 + 1e-9, 0.75] + [1.0] * 4, 3)
        fam_a, fam_b = build_family(kv.knots), build_family(kv.knots, tol=1e-8)
        basis_a, basis_b = build_local_basis(kv, fam_a), build_local_basis(kv, fam_b, tol=1e-8)
        cpts = np.random.default_rng(1).uniform(-1, 1, (kv.n_basis, 2))
        curve = SplineCurve(kv=kv, fam=fam_a, cpts=cpts)
        ts = np.linspace(0, 1, 101)
        ts = ts[(ts < 0.5) | (ts > 0.5 + 1e-9)]
        fresh = {id(b): eval_curve(SplineCurve(kv=kv, fam=fam_a, cpts=cpts), b, ts)
                 for b in (basis_a, basis_b)}
        assert fresh[id(basis_a)].tobytes() != fresh[id(basis_b)].tobytes()
        for basis in (basis_a, basis_b, basis_a):
            assert eval_curve(curve, basis, ts).tobytes() == fresh[id(basis)].tobytes()
            assert np.array([eval_curve(curve, basis, t) for t in ts.tolist()]).tobytes() == \
                fresh[id(basis)].tobytes()
            assert curve._piece[0] is basis

    def test_refinement_builds_no_merged_rows(self, monkeypatch):
        """Refinement never evaluates, so no curve of its pipeline builds the
        merged rows; form_piecewise builds none either."""
        def refuse(piece):
            raise AssertionError("merged rows built")
        monkeypatch.setattr(PiecewiseCurve, "_merged", property(refuse))
        kv, fam, basis = make_basis(4, interior=(0.25, 0.5, 0.5, 0.75))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.random.default_rng(2).uniform(-1, 1, (9, 2)))
        form_piecewise(curve.cpts, basis)
        refined_spline(curve, basis, insert=(0.3,), elevate_by=1)
        refined_spline(curve, None, insert=(0.6,))
        with pytest.raises(AssertionError, match="merged rows built"):
            eval_curve(curve, basis, 0.3)

    def test_threads_share_one_fresh_basis(self):
        """Four threads, each in its own order, fill one fresh curve's merged
        rows and read the bits a fresh curve gives."""
        def fresh_curve():
            kv = validate_open_knot_vector([0.0] * 4 + np.linspace(0, 1, 33).tolist() + [1.0] * 4, 4)
            fam = build_family(kv.knots, kinds=(ALL_KINDS * 11)[:32],
                               omegas=np.linspace(0.5, 2.5, 32))
            cpts = np.random.default_rng(4).uniform(-1, 1, (kv.n_basis, 2))
            return SplineCurve(kv=kv, fam=fam, cpts=cpts), build_local_basis(kv, fam)

        ts = np.random.default_rng(5).uniform(0, 1, 200).tolist()
        want = np.array([eval_curve(*fresh_curve(), t) for t in ts]).tobytes()
        curve, basis = fresh_curve()
        results = [None] * 4

        def work(k):
            order = ts[k * 50:] + ts[: k * 50]   # each thread starts elsewhere
            got = dict(zip(order, (eval_curve(curve, basis, t) for t in order)))
            results[k] = np.array([got[t] for t in ts]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [want] * 4


class TestScalarParameterTypes:
    """A scalar t of any real type is evaluated as the Python float float(t):
    numpy's float32 and float16 arithmetic would otherwise stay in single or
    half precision."""

    KNOTS = (0.5, 1.7, 2.5, 3.2)

    @staticmethod
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("t", [np.float32(1.3), np.float16(2.9), 2, np.int64(3), np.array(1.3),
                                   np.array(2.9, dtype=np.float32)],
                             ids=["float32", "float16", "int", "int64", "0-d", "0-d-float32"])
    def test_matches_the_python_float(self, kind, t):
        kv = validate_open_knot_vector([0.0] * 4 + list(self.KNOTS) + [4.0] * 4, 3)
        fam = build_family(kv.knots, kind=kind, omega=0.5)
        basis = build_local_basis(kv, fam)
        cpts = np.random.default_rng(3).uniform(-1, 1, (kv.n_basis, 2))
        x = float(t)
        for c in (cpts[:, 0], cpts):
            curve = SplineCurve(kv=kv, fam=fam, cpts=c)
            assert self.same(eval_curve(curve, basis, t), eval_curve(curve, basis, x))
            piece = form_piecewise(c, basis)
            assert self.same(piece.value(t), piece.value(x))
        for got, want in zip(nonzero_basis_values(basis, t), nonzero_basis_values(basis, x)):
            assert self.same(got, want)
        for i in range(kv.n_basis):
            assert self.same(eval_basis_function(basis, i, t), eval_basis_function(basis, i, x))
        slot = int(fam.slots[nonzero_basis_values(basis, x)[0] + 3])
        for order in (0, 2, 5):
            assert np.asarray(fam.value(slot, order, t)).tobytes() == \
                np.array(fam.value(slot, order, x), dtype=np.float64).tobytes()

    def test_unsupported_parameters_are_named(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        piece = form_piecewise(curve.cpts, basis)
        calls = (lambda t: eval_curve(curve, basis, t), lambda t: nonzero_basis_values(basis, t),
                 piece.value)
        for bad in ("0.3", None, 0.3j, {0.3}):   # a list or tuple is a batch
            for call in calls:
                with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
                    call(bad)
        for call in calls:
            with pytest.raises(ValueError, match=r"shaped \(2, 1\)"):
                call(np.array([[0.3], [0.6]]))


class TestOneParameterRule:
    """Every evaluator tells one sample from a batch by one rule: an array of
    one or more dimensions, a list or a tuple is a batch, whose rows equal
    the scalar calls bit for bit; anything else is one sample, evaluated as
    float(t).  A 2-D batch raises ValueError (value_on, given a 1-D j, for
    the two shapes) and a t that is neither a number nor a batch TypeError.
    A numpy scalar or 0-d array counts by the batch rule: its dtype is bool,
    integer or float, or it holds a real number."""

    TS = [0.0, 0.3, 0.5, 0.77, 1.0]
    SCALARS = {"float": float, "int": int, "float32": np.float32, "0-d": np.array,
               "numpy bool": np.bool_, "0-d object": lambda t: np.array(t, dtype=object)}
    BATCHES = {"list": list, "tuple": tuple, "1-D": np.array}
    BAD = {"2-D": (np.array([TS]), ValueError), "str": ("0.3", TypeError),
           "None": (None, TypeError), "complex": (0.3j, TypeError),
           "str in a list": ([0.0, 0.3, "0.5", 0.77, 1.0], TypeError),
           "str array": (np.array(TS).astype(str), TypeError),
           "None in a tuple": ((0.0, 0.3, None, 0.77, 1.0), TypeError),
           "complex array": (np.array(TS) + 0j, TypeError),
           "object array": (np.array([0.0, 0.3, object(), 0.77, 1.0], dtype=object), TypeError),
           "0-d str": (np.array("0.3"), TypeError), "numpy str": (np.str_("0.3"), TypeError),
           "0-d complex": (np.array(0.3 + 0j), TypeError),
           "0-d None": (np.array(None, dtype=object), TypeError)}

    @staticmethod
    def evaluator(name):
        """(call(t, j), breaks): `name` on a planar curve over 4 intervals; only
        value_on reads j, the intervals of t in t's own form."""
        kv, fam, basis = make_basis(3, interior=(0.25, 0.5, 0.75), kind="exponential",
                                    omega=1.5)
        curve = SplineCurve(kv=kv, fam=fam,
                            cpts=np.random.default_rng(4).uniform(-1, 1, (kv.n_basis, 2)))
        piece = form_piecewise(curve.cpts, basis)
        return {"eval_curve": lambda t, j: eval_curve(curve, basis, t),
                "value": lambda t, j: piece.value(t),
                "value_on": lambda t, j: piece.value_on(j, t),
                "nonzero_basis_values": lambda t, j: nonzero_basis_values(basis, t),
                "find_interval": lambda t, j: find_interval(piece.breaks, t)}[name], piece.breaks

    @pytest.mark.parametrize("form", [*SCALARS, *BATCHES, *BAD])
    @pytest.mark.parametrize("name", ["eval_curve", "value", "value_on", "nonzero_basis_values",
                                      "find_interval"])
    def test_batches_and_samples(self, name, form):
        call, breaks = self.evaluator(name)
        js = find_interval(breaks, np.array(self.TS)).tolist()
        parts = lambda out: [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]
        if form in self.BAD:
            t, error = self.BAD[form]
            with pytest.raises(error):
                call(t, np.array(js) if np.ndim(t) else js[1])
        elif form in self.BATCHES:
            make = self.BATCHES[form]
            got = parts(call(make(self.TS), make(js)))
            assert [len(a) for a in got] == [len(self.TS)] * len(got)
            for k, (t, j) in enumerate(zip(self.TS, js)):
                want = parts(call(t, j))
                assert [a[k].tobytes() for a in got] == [a.tobytes() for a in want]
        else:
            make = self.SCALARS[form]
            for t, j in zip(self.TS, js):
                if t == int(t) or form not in ("int", "numpy bool"):
                    x = make(t)
                    got, want = parts(call(x, j)), parts(call(float(x), j))
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("name", ["eval_curve", "value", "value_on", "nonzero_basis_values",
                                      "find_interval"])
    def test_a_batch_names_its_first_entry_that_is_not_a_real_number(self, name):
        """Batches convert by one rule, the scalar one entry by entry: a string
        is not parsed and None is not read as NaN.  A batch of real numbers of
        any type, Fractions too, is taken as its floats."""
        call, breaks = self.evaluator(name)
        js = np.array(find_interval(breaks, np.array(self.TS)))
        with pytest.raises(TypeError, match=r"^entry 2 of t is a str, not a real number$"):
            call([0.0, 0.3, "0.5", None, 1.0], js)
        with pytest.raises(TypeError, match=r"^entry 0 of t is a complex, not a real number$"):
            call(np.array(self.TS, dtype=complex), js)
        exact = [Fraction(t).limit_denominator(100) for t in self.TS]
        parts = lambda out: [np.asarray(a).tobytes()
                             for a in (out if isinstance(out, tuple) else (out,))]
        assert parts(call(exact, js)) == parts(call(np.array(exact, dtype=float), js))

    @pytest.mark.parametrize("name", ["eval_curve", "value", "value_on", "nonzero_basis_values",
                                      "find_interval"])
    def test_a_numpy_scalar_follows_the_batch_rule(self, name):
        """A 0-d array or numpy scalar is taken, or refused with the package's
        message naming the type, as the same value in a batch would be: a
        string is not parsed, and a numpy bool is read as the batch [True,
        False] is."""
        call, breaks = self.evaluator(name)
        last = len(breaks) - 2
        for t, kind in ((np.array("0.3"), "str"), (np.str_("0.3"), "str"),
                        (np.array(0.3 + 0j), "complex"), (np.array(None, dtype=object), "NoneType")):
            with pytest.raises(TypeError, match=f"^t must be a real number or an array, not {kind}$"):
                call(t, 1)
        parts = lambda out: [np.asarray(a).tobytes()
                             for a in (out if isinstance(out, tuple) else (out,))]
        for t, j in ((np.True_, last), (np.False_, 0), (np.array(True), last)):
            assert parts(call(t, j)) == parts(call(float(t), j))
        batch = parts(call([True, False], np.array([last, 0])))
        assert batch == parts(call(np.array([1.0, 0.0]), np.array([last, 0])))


class TestScalarEvaluator:
    """Every scalar value comes from one evaluator per piecewise curve: its
    own bisection picks the interval find_interval picks, and its value
    equals the batch row bit for bit."""

    # interior breaks on [0, 8]: integer ints land on them
    MESHES = {"uniform": (1, 2, 3, 4, 5, 6, 7),
              "sub-tolerance-run": (2, 4, 4 + 4e-11, 4 + 8e-11, 4 + 1.2e-10, 6),
              "double-knot": (2, 4, 4, 6)}
    FAMILIES = {"linear": {"kind": "linear"},
                "trigonometric": {"kind": "trigonometric", "omega": 0.3},
                "closed-form-exponential": {"kind": "exponential", "omega": 40.0}}

    @staticmethod
    def inputs(breaks):
        """A grid over [0, 8] with both ends, every break, the points next to
        it and points inside a short run, as floats, ints where whole,
        float32 and 0-d arrays."""
        ts = np.unique(np.concatenate([np.linspace(0, 8, 161), breaks, 4 + np.arange(13) * 1e-11,
                                       np.nextafter(breaks, 4.0)])).tolist()
        return (ts + [int(t) for t in ts if t.is_integer()] + list(np.float32(ts))
                + [np.array(t) for t in ts])

    @pytest.mark.parametrize("mesh", MESHES)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("degree", [1, 3])
    def test_same_interval_and_bits_as_the_batch(self, mesh, family, degree):
        knots = [0.0] * (degree + 1) + list(self.MESHES[mesh]) + [8.0] * (degree + 1)
        kv = validate_open_knot_vector(knots, degree)
        fam = build_family(kv.knots, **self.FAMILIES[family])
        basis = build_local_basis(kv, fam)
        if family == "closed-form-exponential":   # theta above the series' cutoff of 4
            assert (fam.omegas * np.diff(fam.spans)[:, 0] > 4).all()
        breaks = basis.local.breaks
        ts = self.inputs(breaks)
        exact = np.array([float(t) for t in ts])
        want = find_interval(breaks, exact)
        cpts = np.random.default_rng(degree).uniform(-1, 1, (kv.n_basis, 3))
        for c in (cpts[:, 0], cpts):   # d = 1 and d = 3
            curve = SplineCurve(kv=kv, fam=fam, cpts=c)
            piece = form_piecewise(c, basis)
            batch = eval_curve(curve, basis, exact)
            assert [piece._at(t, DEFAULT_TOL, pair=True)[0] for t in ts] == want.tolist()
            for t, row in zip(ts, batch):
                assert np.asarray(eval_curve(curve, basis, t)).tobytes() == row.tobytes()
                assert np.asarray(piece.value(t)).tobytes() == row.tobytes()
        first, vals = nonzero_basis_values(basis, exact)
        assert np.array_equal(first, want)
        for t, j, row in zip(ts, first.tolist(), vals):
            got = nonzero_basis_values(basis, t)
            assert got[0] == j and got[1].tobytes() == row.tobytes()
            if float(t) < 8.0:   # at 8 the last function owns the closed right end
                assert [eval_basis_function(basis, j + k, t) for k in range(degree + 1)] == \
                    row.tolist()

    def test_errors_keep_their_classes_and_messages(self):
        kv = validate_open_knot_vector([0.0] * 4 + [0.25, 0.5, 0.75] + [1.0] * 4, 3)
        fam = build_family(kv.knots, kind="trigonometric", omega=1.0)
        basis = build_local_basis(kv, fam)
        for c in (np.ones(kv.n_basis), np.ones((kv.n_basis, 2))):
            curve = SplineCurve(kv=kv, fam=fam, cpts=c)
            piece = form_piecewise(c, basis)
            for call in (lambda t: eval_curve(curve, basis, t), piece.value,
                         lambda t: nonzero_basis_values(basis, t)):
                for t, shown in ((1.5, "1.5"), (float("nan"), "nan"), (-1, "-1.0")):
                    with pytest.raises(OutOfActiveRegion,
                                       match=rf"^t={shown} outside \[0.0, 1.0\]$"):
                        call(t)
                with pytest.raises(OutOfActiveRegion,   # a list is a batch, named by entry
                                   match=r"^t\[1\]=1.5 outside \[0.0, 1.0\]$"):
                    call([0.3, 1.5])
            with pytest.raises(OutOfInterval, match=r"^t=0.9 outside \[0.0, 0.25\]$"):
                piece.value_on(0, 0.9)
            with pytest.raises(OutOfInterval, match=r"^t=0.249999999 outside \[0.75, 1.0\]$"):
                piece.value_on(3, 0.25 - 1e-9)
        with pytest.raises(OutOfActiveRegion, match=r"^t=1.5 outside \[0.0, 1.0\]$"):
            eval_basis_function(basis, 1, 1.5)
        kv = validate_open_knot_vector([0.0] * 4 + [0.5, 0.5 + 1e-9] + [1.0] * 4, 3)
        fam = build_family(kv.knots, tol=1e-8)
        basis = build_local_basis(kv, fam, tol=1e-8)
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(kv.n_basis))
        for call in (lambda: eval_curve(curve, basis, 0.5000000005),
                     lambda: basis.local.value_on(1, 0.5000000005),
                     lambda: nonzero_basis_values(basis, 0.5000000005),
                     lambda: eval_basis_function(basis, 2, 0.5000000005)):
            with pytest.raises(IntervalStraddle,
                               match=r"^interval 1 \[0.5, 0.500000001\] has no generators$"):
                call()


class TestIntervalIndices:
    """value_on takes lists and tuples of interval indices as arrays, and
    refuses an index that is not a whole number in 0..intervals-1 with an
    IndexError naming it, its entry in a batch, and the interval count."""

    def setup_method(self):
        _, _, basis = make_basis(3, interior=(0.25, 0.5, 0.75))
        self.local = basis.local   # 4 intervals

    def test_lists_and_tuples_are_arrays(self):
        j, t = [0, 1, 3, 3], [0.1, 0.3, 0.8, 1.0]
        want = self.local.value_on(np.array(j), np.array(t))
        assert want.shape == (4, 4)
        for jj, tt in ((j, t), (tuple(j), tuple(t)), (j, np.array(t)), (np.array(j), tuple(t))):
            assert self.local.value_on(jj, tt).tobytes() == want.tobytes()
        for k in range(4):
            assert self.local.value_on(np.int64(j[k]), t[k]).tobytes() == want[k].tobytes()
            assert self.local.value_on(np.array(j[k]), t[k]).tobytes() == want[k].tobytes()

    @pytest.mark.parametrize("j, t, shown", [(-4, 0.1, "-4"), (-1, 0.9, "-1"), (4, 1.0, "4"),
                                             (1.5, 0.3, "1.5"), (1.0, 0.3, "1.0"),
                                             (True, 0.3, "True"), ("1", 0.3, "1")])
    def test_scalar_index_is_refused(self, j, t, shown):
        with pytest.raises(IndexError,
                           match=rf"^j={shown} is not an index of the 4 intervals 0\.\.3$"):
            self.local.value_on(j, t)

    @pytest.mark.parametrize("j, shown, entry", [([0, -1], "-1", 1), ((0, 1, 4), "4", 2),
                                                 ([0.0, 1.0], "0.0", 0), ([1, -4, 9], "-4", 1)])
    def test_batch_index_is_refused(self, j, shown, entry):
        t = np.linspace(0.1, 0.9, len(j))
        for jj in (j, np.array(j)):
            with pytest.raises(IndexError, match=rf"^j={shown} \(entry {entry}\) is not an index "
                                                 rf"of the 4 intervals 0\.\.3$"):
                self.local.value_on(jj, t)
