"""The quadrature-backed reference evaluator."""
import math

import numpy as np
import pytest

from gbspline import (
    QuadratureConfig,
    ReferenceEvaluator,
    build_family,
    eval_basis_function,
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
        kv, fam, basis = make_basis(3, interior=(0.4,), kind="trigonometric", omega=1.2)
        ev = ReferenceEvaluator(kv.knots, fam)
        deltas = basis.deltas[level - 1]
        for i, delta in enumerate(deltas):
            assert ev.delta(i, level) == pytest.approx(delta, abs=1e-8)

    def test_right_end_stipulation(self):
        knots = [0, 0, 0, 1, 1, 1]
        fam = build_family(knots, kind="linear")
        ev = ReferenceEvaluator(knots, fam)
        assert ev.basis_value(2, 2, 1.0) == 1.0
