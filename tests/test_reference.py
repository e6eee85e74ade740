"""The quadrature-backed reference evaluator."""
import math

import numpy as np
import pytest

from gbspline import (
    KnotFunctionFamily,
    QuadratureConfig,
    ReferenceEvaluator,
    build_family,
    build_local_basis,
    eval_basis_function,
    nonzero_basis_values,
    validate_open_knot_vector,
)
from gbspline.errors import DepthExceeded
from gbspline.reference import adaptive_simpson
from conftest import cox_de_boor, make_basis


class TestAdaptiveSimpson:
    def test_sine_lobe(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x**3 - x, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_reversed_bounds_are_zero(self):
        assert adaptive_simpson(math.sin, 1.0, 0.5) == 0.0

    def test_depth_exceeded_on_jump(self):
        step = lambda x: 0.0 if x < 0.377 else 1.0
        with pytest.raises(DepthExceeded):
            adaptive_simpson(step, 0.0, 1.0, QuadratureConfig(abs_tol=1e-12, max_depth=6))

    def test_config_validates(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)


class TestDefinitionEvaluator:
    def test_compact_support(self):
        fam = build_family([0, 1, 2, 3, 4], kind="linear")
        ev = ReferenceEvaluator([0, 1, 2, 3, 4], fam)
        assert ev.basis_value(0, 2, 3.5) == 0.0
        assert ev.basis_value(1, 2, 0.5) == 0.0

    def test_uniform_quadratic_peak(self):
        fam = build_family([0, 1, 2, 3], kind="linear")
        assert ReferenceEvaluator([0, 1, 2, 3], fam).basis_value(0, 2, 1.5) == pytest.approx(0.75, abs=1e-8)

    def test_matches_cox_de_boor_on_open_vector(self):
        knots = [0, 0, 0, .5, 1, 1, 1]
        fam = build_family(knots, kind="linear")
        ev = ReferenceEvaluator(knots, fam, QuadratureConfig(abs_tol=1e-10))
        for t in (0.1, 0.35, 0.5, 0.82, 1.0):
            for i in range(4):
                assert ev.basis_value(i, 2, t) == pytest.approx(
                    cox_de_boor(knots, i, 2, t), abs=1e-8)

    @pytest.mark.parametrize("kind", ["linear", "trigonometric", "exponential"])
    def test_matches_production_path(self, kind):
        kv, fam, basis = make_basis(3, interior=(0.5,), kind=kind, omega=np.pi / 2)
        ev = ReferenceEvaluator(kv.knots, fam, QuadratureConfig(abs_tol=1e-9))
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.01, 0.99, 6):
            for i in range(kv.n_basis):
                assert ev.basis_value(i, 3, float(t)) == pytest.approx(
                    eval_basis_function(basis, i, float(t)), abs=1e-6)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_delta_agreement(self, level):
        kv, fam, basis = make_basis(4, interior=(0.4,), kind="trigonometric", omega=1.2)
        ev = ReferenceEvaluator(kv.knots, fam)
        deltas = basis.deltas[level - 1]
        for i, delta in enumerate(deltas):
            assert ev.delta(i, level) == pytest.approx(delta, abs=1e-8)

    def test_right_end_stipulation(self):
        knots = [0, 0, 0, 1, 1, 1]
        fam = build_family(knots, kind="linear")
        ev = ReferenceEvaluator(knots, fam)
        assert ev.basis_value(2, 2, 1.0) == 1.0


class TestGeneratorSeed:
    """The degree-1 seed evaluates the generators from their definition and
    agrees with the family's ladder values of order 0."""

    CASES = ([("linear", 1.0)] + [("trigonometric", theta) for theta in (1e-4, 1.0, 3.1)]
             + [("exponential", theta) for theta in (1e-4, 3.0, 4.1, 20.0, 700.0)])

    @pytest.mark.parametrize("kind, theta", CASES)
    def test_matches_the_order_zero_ladder(self, kind, theta, monkeypatch):
        h = 0.37
        knots = (0.5 + h * np.arange(4)).tolist()   # three spans of length h
        fam = build_family(knots, kind=kind, omega=theta / h)
        ev = ReferenceEvaluator(knots, fam)
        for j, (left, right) in enumerate(fam.spans.tolist()):
            for x in (0.0, 0.25, 0.5, 0.9, 1.0):
                t = right if x == 1.0 else left + x * (right - left)
                u, v = fam.value(j, 0, t)
                if j < 2 and x < 1.0:   # function j rises on span j
                    assert abs(ev.basis_value(j, 1, t) - u) <= 1e-13
                if j > 0:   # function j - 1 falls on span j
                    assert abs(ev.basis_value(j - 1, 1, t) - v) <= 1e-13

        kv, fam, _ = make_basis(3, interior=(0.5,), kind=kind)
        want = ReferenceEvaluator(kv.knots, fam)
        def refuse(*args, **kwargs):
            raise AssertionError("ladder value asked for")
        monkeypatch.setattr(KnotFunctionFamily, "value", refuse)
        got = ReferenceEvaluator(kv.knots, fam)
        for p in (1, 2, 3):
            for i in range(kv.m - p - 1):
                for t in (0.2, 0.5, 0.8):
                    assert got.basis_value(i, p, t) == want.basis_value(i, p, t)

    def test_an_interval_shorter_than_tol_reads_no_span(self):
        """The short interval has no span (slot -1); no generator is read
        there, in particular not the last span's."""
        knots = [0.0, 1.0, 1.0 + 1e-12, 2.0, 3.0]
        fam = build_family(knots, kind="trigonometric", omega=1.0)
        ev = ReferenceEvaluator(knots, fam)
        assert fam.slots.tolist() == [0, -1, 1, 2]
        assert ev.basis_value(1, 1, 1.0 + 5e-13) == 0.0

    def test_a_t_inside_a_short_interval_belongs_to_the_interval_on_its_left(self):
        """As the package's interval lookup has it, so degree 1 keeps its
        partition of unity there."""
        knots, t = [0, 0, 0, 1, 1 + 1e-12, 2, 2, 2], 1 + 5e-13
        ev = ReferenceEvaluator(knots, build_family(knots, kind="trigonometric", omega=1.0))
        got = np.array([ev.basis_value(i, 1, t) for i in range(6)])
        kv = validate_open_knot_vector(knots[1:-1], 1)   # the degree-1 functions 1..4
        j, values = nonzero_basis_values(
            build_local_basis(kv, build_family(kv.knots, kind="trigonometric", omega=1.0)), t)
        want = np.zeros(6)
        want[1 + j : 3 + j] = values
        assert abs(got.sum() - 1.0) <= 1e-12
        assert np.abs(got - want).max() <= 1e-12
