"""Basis construction, evaluation, piecewise form, and diagonal reindexing."""
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
    validate_open_knot_vector,
)
from gbspline.basis import reverse_diagonal_averages
from gbspline.errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    InconsistentCoefficient,
    IntervalStraddle,
    LengthMismatch,
    OutOfActiveRegion,
)
from gbspline.poly import derive_poly, poly_eval
from gbspline.reference import adaptive_simpson
from conftest import ALL_KINDS, cox_de_boor, make_basis, open_kv, random_interiors


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
        degree-k basis over the same knots, so each can be integrated
        numerically and compared.
        """
        kv, fam, basis = make_basis(3, interior=(0.4,), kind=kind, omega=1.2)
        knots = kv.knots
        for level, deltas in enumerate(basis.deltas, start=1):
            lower = build_local_basis(validate_open_knot_vector(knots, level), fam)
            for i, delta in enumerate(deltas):
                oracle = sum(
                    adaptive_simpson(
                        lambda s: eval_basis_function(lower, i, float(s)),
                        float(knots[j]), float(knots[j + 1]))
                    for j in range(i, i + level + 1)
                    if knots[j + 1] - knots[j] > 0)
                assert delta == pytest.approx(oracle, abs=1e-9)

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


def _rep_derivative(basis, i, j, order, at_right):
    """Exact order-th derivative of function i's representation on interval j."""
    slot = basis.fam.slots[j]
    if slot < 0:
        return None
    p = basis.degree
    if i <= j <= i + p:
        coeffs = np.array(basis.local.poly_parts[j - p, :, i - j + p])
        a, b = basis.local.gen_coefs[j - p, :, i - j + p]
    else:
        coeffs, a, b = np.zeros(1), 0.0, 0.0
    for _ in range(order):
        coeffs = derive_poly(coeffs)
    left, right = basis.fam.spans[slot]
    t = right if at_right else left
    u = basis.fam.value(slot, "u", basis.degree - 1 - order, t)
    v = basis.fam.value(slot, "v", basis.degree - 1 - order, t)
    return float(poly_eval(coeffs, t - basis.kv.knots[j]) + a * u + b * v)


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
                    left = _rep_derivative(basis, i, j_right - 1, order, at_right=True)
                    right = _rep_derivative(basis, i, j_right, order, at_right=False)
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


def test_piecewise_value_follows_the_interval_map():
    """A curve evaluates with the interval map it was built with: an interval
    shorter than the default tolerance has generators only under a map made
    with a finer one."""
    breaks = np.array([0.0, 0.5, 0.5 + 1e-12, 1.0])
    fam = build_family(breaks, kind="linear", tol=1e-14)
    parts = dict(breaks=breaks, poly_parts=np.zeros((3, 1)), gen_coefs=np.ones((3, 2)),
                 degree=2, fam=fam)
    piece = PiecewiseCurve(**parts, slots=fam.slots)
    # first integrals of the linear pair sum to the local coordinate
    t = 0.5 + 5e-13
    assert piece.value(t, tol=1e-14) == pytest.approx(t - 0.5, rel=1e-9, abs=0)
    with pytest.raises(IntervalStraddle, match=r"interval 1 \["):
        PiecewiseCurve(**parts).value(t, tol=1e-14)


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
    @pytest.mark.parametrize("interior", [(0.3, 0.5, 0.5, 0.8), (0.3, 0.5, 0.5 + 1e-11, 0.8)],
                             ids=["double-knot", "sub-tolerance-interval"])
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
    def test_control_points_add_in_index_order(self, kind, degree, dim, fill):
        """Batch and scalar calls both add N_k * c_k for k = first.. in index
        order, one element-wise product and sum at a time, whatever the
        batch size, so they agree with each other and with that sum."""
        kv = open_kv(degree, (0.2, 0.45, 0.45, 0.7))
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 2)
        basis = build_local_basis(kv, fam)
        shape = (kv.n_basis,) if dim is None else (kv.n_basis, dim)
        cpts = (np.arange(np.prod(shape), dtype=float).reshape(shape) if fill == "arange"
                else np.ones(shape))
        curve = SplineCurve(kv=kv, fam=fam, cpts=cpts)
        ts = kv.active_region()   # every breakpoint, both ends included
        scalar = np.array([eval_curve(curve, basis, float(t)) for t in ts])
        want = []
        for t in ts.tolist():
            first, vals = nonzero_basis_values(basis, t)
            acc = vals[0] * cpts[first]
            for k in range(1, degree + 1):
                acc = acc + vals[k] * cpts[first + k]
            want.append(acc)
        want = np.array(want)
        assert scalar.tobytes() == want.tobytes()
        for size in (1, 2, len(ts)):
            batch = np.concatenate([eval_curve(curve, basis, ts[i : i + size])
                                    for i in range(0, len(ts), size)])
            assert batch.shape == scalar.shape and batch.tobytes() == scalar.tobytes()


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
        for which in "uv":
            for order in (0, 2, 5):
                assert np.asarray(fam.value(slot, which, order, t)).tobytes() == \
                    np.float64(fam.value(slot, which, order, x)).tobytes()

    def test_unsupported_parameters_are_named(self):
        kv, fam, basis = make_basis(3, interior=(0.5,))
        curve = SplineCurve(kv=kv, fam=fam, cpts=np.ones(basis.n_basis))
        piece = form_piecewise(curve.cpts, basis)
        calls = (lambda t: eval_curve(curve, basis, t), lambda t: nonzero_basis_values(basis, t),
                 piece.value)
        for bad in ([0.3], (0.3,), "0.3", None, 0.3j):
            for call in calls:
                with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
                    call(bad)
        for call in calls:
            with pytest.raises(ValueError, match=r"shaped \(2, 1\)"):
                call(np.array([[0.3], [0.6]]))
