"""Polynomial-term algebra in the shifted power basis."""
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval
from hypothesis import given, settings, strategies as st

from gbspline.errors import TargetsOutsideSource
from gbspline.poly import left_taylor_series, restrict_poly, taylor_shift

coeff = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
polynomial = st.lists(coeff, min_size=0, max_size=7).map(lambda c: c or [0.0])   # polyval needs one


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
    scale = max(1.0, polyval(2.0, np.abs(np.asarray(coeffs, float))))
    for s in np.linspace(0.0, 2.0, 100):
        j = min(int(np.searchsorted(targets, s, side="right")) - 1, len(targets) - 2)
        while j > 0 and targets[j + 1] == targets[j]:
            j -= 1
        expected = polyval(s, coeffs)
        got = polyval(s - targets[j], rows[j])
        assert got == pytest.approx(expected, abs=1e-12 * scale)


def test_left_taylor_plain():
    np.testing.assert_allclose(left_taylor_series([1, 2]), [1, 2])


def test_left_taylor_second_derivative():
    np.testing.assert_allclose(left_taylor_series([0, 0, 2]), [0, 0, 1])


@settings(deadline=None, max_examples=60)
@given(polynomial)
def test_left_right_taylor_agree(coeffs):
    """The left-end reconstruction of a polynomial returns the polynomial."""
    coeffs = np.asarray(coeffs, float)
    derivs_left = []
    current = coeffs
    for _ in range(len(coeffs)):
        derivs_left.append(polyval(0.0, current))
        current = polyder(current)
    left = left_taylor_series(derivs_left)
    scale = max(1.0, float(np.max(np.abs(derivs_left))))
    np.testing.assert_allclose(left, coeffs, atol=1e-10 * scale)


def test_taylor_shift_round_trip():
    c = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(taylor_shift(taylor_shift(c, 0.7), -0.7), c, atol=1e-12)
