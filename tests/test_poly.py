"""Polynomial-term algebra in the shifted power basis."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbspline.errors import TargetsOutsideSource, TargetTooSmall
from gbspline.poly import (
    derive_poly,
    elevate_polys,
    integrate_poly,
    left_taylor_series,
    poly_eval,
    restrict_poly,
    right_taylor_series,
    taylor_shift,
)

coeff = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
polynomial = st.lists(coeff, min_size=0, max_size=7)


def test_eval_square():
    assert poly_eval([1, 2, 1], 0.5) == pytest.approx(2.25, abs=1e-15)


def test_eval_empty():
    assert poly_eval([], 1.7) == 0.0


def test_eval_constant():
    assert poly_eval([3], 0.7) == 3.0


def test_eval_array_argument():
    s = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(poly_eval([1, 1], s), [1.0, 2.0, 3.0])


def test_integrate_constant():
    np.testing.assert_array_equal(integrate_poly([1]), [0, 1])


def test_integrate_linear():
    np.testing.assert_array_equal(integrate_poly([0, 2]), [0, 0, 1])


def test_integrate_then_eval():
    assert poly_eval(integrate_poly([1, 1]), 1.0) == pytest.approx(1.5)


def test_derive_inverts_integrate():
    c = np.array([2.0, -1.0, 3.0])
    np.testing.assert_allclose(derive_poly(integrate_poly(c)), c)


def test_restrict_square_halves():
    out = restrict_poly([0, 0, 1], (0, 1), [0, 0.5, 1])
    np.testing.assert_allclose(out[0], [0, 0, 1])
    np.testing.assert_allclose(out[1], [0.25, 1, 1])


def test_restrict_identity():
    out = restrict_poly([3, -2, 1], (0.5, 2.0), [0.5, 2.0])
    np.testing.assert_allclose(out[0], [3, -2, 1])


def test_restrict_shift_by_one():
    out = restrict_poly([1, 1], (0, 2), [1, 2])
    np.testing.assert_allclose(out[0], [2, 1])


def test_restrict_rejects_outside_targets():
    with pytest.raises(TargetsOutsideSource):
        restrict_poly([1], (0, 1), [0, 1.5])
    with pytest.raises(TargetsOutsideSource):
        restrict_poly([1], (0, 1), [0.5, 0.2])


@settings(deadline=None, max_examples=60)
@given(polynomial, st.integers(min_value=1, max_value=5), st.data())
def test_restriction_preserves_values(coeffs, pieces, data):
    cuts = sorted(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=pieces - 1, max_size=pieces - 1)))
    targets = np.array([0.0] + cuts + [2.0])
    rows = restrict_poly(coeffs, (0.0, 2.0), targets)
    # roundoff scales with the term magnitudes, not the (possibly cancelled) value
    scale = max(1.0, poly_eval(np.abs(np.asarray(coeffs, float)), 2.0))
    for s in np.linspace(0.0, 2.0, 100):
        j = min(int(np.searchsorted(targets, s, side="right")) - 1, len(targets) - 2)
        while j > 0 and targets[j + 1] == targets[j]:
            j -= 1
        expected = poly_eval(coeffs, s)
        got = poly_eval(rows[j], s - targets[j])
        assert got == pytest.approx(expected, abs=1e-12 * scale)


def test_elevate_pads_with_zeros():
    np.testing.assert_array_equal(elevate_polys([[1, 2]], 3), [[1, 2, 0, 0]])


def test_elevate_noop():
    np.testing.assert_array_equal(elevate_polys([[5]], 0), [[5]])


def test_elevate_rejects_smaller_degree():
    with pytest.raises(TargetTooSmall):
        elevate_polys([[1, 2, 3]], 1)


@settings(deadline=None, max_examples=40)
@given(polynomial, st.integers(min_value=0, max_value=4))
def test_elevate_preserves_values(coeffs, extra):
    target = max(len(coeffs) - 1, 0) + extra
    padded = elevate_polys(np.asarray(coeffs, float).reshape(1, -1), target)[0]
    for s in np.linspace(-1.0, 1.0, 10):
        assert poly_eval(padded, s) == poly_eval(coeffs, s)


def test_left_taylor_plain():
    np.testing.assert_allclose(left_taylor_series([1, 2]), [1, 2])


def test_left_taylor_second_derivative():
    np.testing.assert_allclose(left_taylor_series([0, 0, 2]), [0, 0, 1])


def test_right_taylor_constant():
    np.testing.assert_allclose(right_taylor_series([1, 0], 1.0), [1, 0])


def test_right_taylor_identity_function():
    np.testing.assert_allclose(right_taylor_series([1, 1], 1.0), [0, 1], atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(polynomial, st.floats(min_value=0.05, max_value=3.0, allow_nan=False))
def test_left_right_taylor_agree(coeffs, h):
    """Both reconstructions of the same polynomial return the polynomial."""
    coeffs = np.asarray(coeffs, float)
    derivs_left, derivs_right = [], []
    current = coeffs
    for _ in range(len(coeffs) if len(coeffs) else 1):
        derivs_left.append(poly_eval(current, 0.0))
        derivs_right.append(poly_eval(current, h))
        current = derive_poly(current)
    left = left_taylor_series(derivs_left)
    right = right_taylor_series(derivs_right, h)
    scale = max(1.0, float(np.max(np.abs(derivs_left))),
                float(np.max(np.abs(derivs_right))))
    np.testing.assert_allclose(left, right, atol=1e-10 * scale)
    np.testing.assert_allclose(left, coeffs if len(coeffs) else [0.0],
                               atol=1e-10 * scale)


def test_taylor_shift_round_trip():
    c = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(taylor_shift(taylor_shift(c, 0.7), -0.7), c, atol=1e-12)
