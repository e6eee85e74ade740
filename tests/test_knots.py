"""Knot vectors, generator families, and their integral ladders."""
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbspline import build_family, validate_open_knot_vector
from gbspline.errors import (
    IntervalStraddle,
    InvalidFamily,
    MultiplicityOverflow,
    NotNondecreasing,
    NotOpen,
    OutOfActiveRegion,
    OutOfInterval,
    TooShort,
)
from gbspline.knots import (
    KINDS,
    _SERIES_THETA_MAX,
    _ladder_polys,
    _ladder_values,
    _ladders_at,
    build_integral_table,
    containing_spans,
    find_interval,
)
from gbspline.reference import adaptive_simpson
from conftest import ALL_KINDS


class TestValidation:
    def test_degree_four_with_interior_knot(self):
        kv = validate_open_knot_vector([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1], 4)
        assert kv.m == 11
        assert kv.n_basis == 6

    def test_degenerate_degree_zero(self):
        kv = validate_open_knot_vector([0, 1], 0)
        assert kv.n_basis == 1

    def test_rejects_decreasing(self):
        with pytest.raises(NotNondecreasing):
            validate_open_knot_vector([0, 0, 1, 0], 1)

    def test_rejects_unclamped_ends(self):
        with pytest.raises(NotOpen):
            validate_open_knot_vector([0, 0, 0.5, 1, 1, 2], 2)

    @pytest.mark.parametrize("knots, message", [
        ([0] * 5 + [0.2, 0.4, 0.6, 0.8] + [1] * 4, "knot 0.0 has multiplicity 5 > 4"),
        ([0] * 4 + [0.2, 0.4, 0.6, 0.8] + [1] * 5, "knot 1.0 has multiplicity 5 > 4"),
        ([0] * 4 + [0.2] + [0.5] * 5 + [0.8] + [1] * 4, "knot 0.5 has multiplicity 5 > 4"),
    ])
    def test_rejects_a_knot_past_degree_plus_one_copies(self, knots, message):
        """Its basis functions would be identically zero."""
        with pytest.raises(MultiplicityOverflow, match=f"^{re.escape(message)}$"):
            validate_open_knot_vector(knots, 3)

    def test_rejects_short_vector(self):
        with pytest.raises(TooShort):
            validate_open_knot_vector([0, 0, 0, 1, 1], 2)

    @pytest.mark.parametrize("knots, degree", [
        ([0, 0, 0, 0, math.nan, 1, 1, 1, 1], 3),
        ([0, 0, 0, 0, 1, math.inf, math.inf, math.inf, math.inf], 3),
        ([-math.inf, -math.inf, 0, 0], 1),
        ([0, math.inf], 0),
    ])
    def test_rejects_non_finite(self, knots, degree):
        with pytest.raises(NotNondecreasing):
            validate_open_knot_vector(knots, degree)


class TestActiveRegion:
    def test_interior_knot(self):
        kv = validate_open_knot_vector([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1], 4)
        np.testing.assert_array_equal(kv.active_region(), [0, .5, 1])

    def test_interior_multiplicity_retained(self):
        kv = validate_open_knot_vector([0, 0, 0, .5, .5, 1, 1, 1], 2)
        np.testing.assert_array_equal(kv.active_region(), [0, .5, .5, 1])

    def test_degree_zero(self):
        kv = validate_open_knot_vector([0, 1], 0)
        np.testing.assert_array_equal(kv.active_region(), [0, 1])

    def test_length_and_endpoints(self):
        kv = validate_open_knot_vector([0, 0, 0, .2, .7, .7, 1, 1, 1], 2)
        reg = kv.active_region()
        assert len(reg) == kv.m - 2 * kv.degree
        assert reg[0] == kv.knots[kv.degree]
        assert reg[-1] == kv.knots[kv.m - kv.degree - 1]


class TestFamilies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_endpoint_normalization(self, kind):
        fam = build_family([0.0, 0.3, 1.1, 2.0], kind=kind, omega=1.2)
        for slot in range(fam.n_spans):
            left, right = fam.spans[slot]
            assert fam.value(slot, 0, left)[0] == pytest.approx(0.0, abs=1e-12)
            assert fam.value(slot, 0, right)[0] == pytest.approx(1.0, abs=1e-12)
            assert fam.value(slot, 0, left)[1] == pytest.approx(1.0, abs=1e-12)
            assert fam.value(slot, 0, right)[1] == pytest.approx(0.0, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from(ALL_KINDS),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.2, max_value=1.5))
    def test_normalization_random_intervals(self, kind, h, omega):
        fam = build_family([0.0, h], kind=kind, omega=omega)
        assert fam.value(0, 0, 0.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert fam.value(0, 0, h)[0] == pytest.approx(1.0, abs=1e-12)
        assert fam.value(0, 0, 0.0)[1] == pytest.approx(1.0, abs=1e-12)
        assert fam.value(0, 0, h)[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("which", ["u", "v"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_ladder_derivative_consistency(self, kind, which, order):
        """Central difference of order k matches the order k-1 closed form."""
        h = 0.8
        fam = build_family([0.25, 0.25 + h], kind=kind, omega=1.3)
        step, w = 1e-6 * h, "uv".index(which)
        for t in np.linspace(0.25 + 0.05 * h, 0.25 + 0.95 * h, 10):
            numeric = (fam.value(0, order, t + step)[w]
                       - fam.value(0, order, t - step)[w]) / (2 * step)
            exact = fam.value(0, order - 1, t)[w]
            assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_positive_orders_vanish_at_left(self, kind):
        fam = build_family([0.5, 1.75], kind=kind, omega=1.1)
        for order in (1, 2, 3):
            for value in fam.value(0, order, 0.5):
                assert value == pytest.approx(0.0, abs=1e-14)

    def test_rejects_trig_interval_too_wide(self):
        with pytest.raises(InvalidFamily):
            build_family([0, 1], kind="trigonometric", omega=math.pi)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_non_finite_omega(self, kind):
        with pytest.raises(InvalidFamily, match=r"\[0\.0, 1\.0\]"):
            build_family([0, 1], kind=kind, omega=math.inf)

    def test_rejects_exponential_overflow(self):
        """sinh(omega * h) would overflow on the second interval only."""
        build_family([0, 1], kind="exponential", omega=700.0)
        with pytest.raises(InvalidFamily, match=r"\[1\.0, 2\.0\]"):
            build_family([0, 1, 2], kinds=("exponential",) * 2, omegas=[700.0, 720.0])

    @pytest.mark.parametrize("first, message", [
        (("trigonometric", 4.0), r"omega \* h = 4 on \[1\.0, 2\.0\] must stay below 3\.14159$"),
        (("bogus", 1.0), r"unknown kind 'bogus'$"),
        (("exponential", math.nan), r"frequency nan on \[1\.0, 2\.0\] must be finite$"),
        (("exponential", -1.0), r"frequency must be positive$")])
    def test_the_first_offending_span_names_the_error(self, first, message):
        """Every check runs on all spans at once; the first span failing any
        of them is named, with the message of its own first failing check."""
        kinds = ("linear", first[0], "exponential", "rational", "trigonometric")
        omegas = [-5.0, first[1], 710.0, 1.0, math.inf]
        with pytest.raises(InvalidFamily, match=message):
            build_family([0, 1, 2, 3, 4, 5], kinds=kinds, omegas=omegas)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidFamily):
            build_family([0, 1], kind="rational")

    @pytest.mark.parametrize("kinds", [None, ("exponential", "linear", "trigonometric",
                                              "linear", "exponential")])
    def test_stores_the_kind_indices_it_checked(self, kinds):
        """The indices build_family checks the kinds with are kept as the
        family's `_kind_ids`, so a loaded family is not walked again."""
        fam = build_family([0, 1, 2, 3, 4, 5], kinds=kinds, omegas=None if kinds is None else
                           [2.0, 0.0, 1.0, 0.0, 2.0], omega=1.0)
        assert "_kind_ids" in vars(fam)   # built with the family, not on first use
        ids = fam._kind_ids
        assert ids.tolist() == [KINDS.index(k) for k in fam.kinds]
        assert ids.dtype == int and not ids.flags.writeable

    def test_rejects_spec_count_mismatch(self):
        with pytest.raises(InvalidFamily):
            build_family([0, .5, 1], kinds=("linear",), omegas=[1.0])

    def test_out_of_interval(self):
        fam = build_family([0, 1], kind="linear")
        with pytest.raises(OutOfInterval):
            fam.value(0, 0, 1.5)

    @pytest.mark.parametrize("knots", [[0.0] * 8, [0.0] * 4 + [1e-12] * 4])
    def test_rejects_knots_without_a_positive_interval(self, knots):
        with pytest.raises(InvalidFamily, match="no knot interval"):
            build_family(knots)

    def test_zero_length_intervals_skipped(self):
        fam = build_family([0, 0, .5, 1, 1], kind="linear")
        assert fam.n_spans == 2
        assert fam.slots[0] == -1
        assert fam.slots[1] == 0
        assert fam.slots[3] == -1


class TestFindInterval:
    # zero-length intervals first, in the middle (two in a row) and last
    BREAKS = np.array([0.0, 0.0, 0.2, 0.5, 0.5, 0.5 + 1e-12, 0.8, 1.0, 1.0])

    def test_batch_matches_scalar_calls(self):
        ts = np.concatenate([self.BREAKS, np.nextafter(self.BREAKS[2:], -np.inf),
                             np.linspace(0, 1, 41)])
        got = find_interval(self.BREAKS, ts)
        assert got.dtype.kind == "i"
        assert got.tolist() == [find_interval(self.BREAKS, float(t)) for t in ts]
        # the list form of the breaks, which evaluation searches, finds the same
        assert got.tolist() == [find_interval(self.BREAKS.tolist(), float(t)) for t in ts]
        # a zero-length interval hands its parameters to the interval on its left
        for t, j in [(0.0, 1), (0.5, 2), (0.5 + 5e-13, 2), (0.5 + 1e-12, 5), (1.0, 6)]:
            assert find_interval(self.BREAKS, t) == j

    @pytest.mark.parametrize("breaks", [
        # a run of sub-tolerance intervals at the start, one inside, one at the end
        [0.0, 2e-11, 4e-11, 6e-11, 0.3, 0.3 + 3e-11, 0.3 + 6e-11, 0.3 + 9e-11, 0.6, 0.6,
         0.6 + 5e-11, 1.0, 1.0 + 2e-11, 1.0 + 4e-11],
        # every interval but one is short, and the long one is last
        [0.0, 0.0, 1e-11, 1e-11, 3e-11, 1.0],
        # nothing but short intervals
        [0.0, 3e-11, 6e-11, 9e-11],
    ], ids=["runs", "long-last", "all-short"])
    def test_runs_of_short_intervals_match_the_array_path(self, breaks):
        breaks = np.array(breaks)
        ts = np.clip(np.concatenate([breaks, np.nextafter(breaks[1:], -np.inf),
                                     np.nextafter(breaks[:-1], np.inf),
                                     breaks[:-1] + 0.5 * np.diff(breaks)]), 0.0, breaks[-1])
        want = find_interval(breaks, ts)
        assert [find_interval(breaks, float(t)) for t in ts] == want.tolist()
        # the last interval longer than tol whose left end is at most t, or 0
        for t, j in zip(ts.tolist(), want.tolist()):
            longer = [i for i in range(len(breaks) - 1)
                      if breaks[i] <= t and breaks[i + 1] - breaks[i] > 1e-10]
            assert j == (longer[-1] if longer else 0)

    def test_empty_batch(self):
        assert find_interval(self.BREAKS, np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [b"0.5", range(1), "0.5", None, 0.5j, {0.5}])
    def test_rejects_a_parameter_that_is_neither_a_number_nor_an_array(self, bad):
        for breaks in (self.BREAKS, self.BREAKS.tolist()):
            with pytest.raises(TypeError, match=f"or an array, not {type(bad).__name__}$"):
                find_interval(breaks, bad)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2, 0, 1)])
    def test_rejects_arrays_of_two_or_more_dimensions(self, shape):
        with pytest.raises(ValueError, match=rf"array shaped {re.escape(str(shape))}$"):
            find_interval(self.BREAKS, np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5])
    def test_rejects_non_finite_or_outside(self, bad):
        with pytest.raises(OutOfActiveRegion, match=f"t={bad} outside"):
            find_interval(self.BREAKS, bad)
        with pytest.raises(OutOfActiveRegion, match=rf"t\[1\]={bad} outside"):
            find_interval(self.BREAKS, np.array([0.5, bad, 0.2, bad]))


class TestKnotFunctionValue:
    def test_linear_generator(self):
        fam = build_family([0, 1], kind="linear")
        assert fam.value(0, 0, 0.5)[0] == pytest.approx(0.5)

    def test_trig_endpoint(self):
        fam = build_family([0, 1], kind="trigonometric", omega=math.pi / 2)
        assert fam.value(0, 0, 1.0)[0] == pytest.approx(1.0)

    def test_trig_first_integral_against_quadrature(self):
        fam = build_family([0, 1], kind="trigonometric", omega=math.pi / 2)
        # independent check: integrate u(t) = sin(pi t / 2) from 0 to 1
        oracle = adaptive_simpson(lambda t: math.sin(math.pi * t / 2), 0.0, 1.0)
        got = fam.value(0, 1, 1.0)[0]
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(2 / math.pi, abs=1e-12)


class TestIntegralTable:
    def test_trig_split_interval(self):
        fam = build_family([0, 1], kind="trigonometric", omega=math.pi / 2)
        table = build_integral_table(fam, [0, .5, 1], 0, 0)
        # generator of the containing interval evaluated at the split point
        assert table[0, 1, 0, 0] == pytest.approx(math.sin(math.pi / 4))
        oracle = math.sin(math.pi / 2 * 0.5)
        assert table[0, 1, 0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_linear_derivative_offset(self):
        fam = build_family([0, .5, 1], kind="linear")
        table = build_integral_table(fam, [0, .5, 1], 1, 2)
        # normalized by h^-1: u' = 1/h in t units
        np.testing.assert_allclose(table[0, :, :, 0] * 0.5**-1, 1 / 0.5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matching_interval_is_normalized(self, kind):
        fam = build_family([0, 1], kind=kind, omega=1.0)
        table = build_integral_table(fam, [0, 1], 0, 0)
        np.testing.assert_allclose(table[0, 0, 0], [0, 1], atol=1e-12)  # left: u, v
        np.testing.assert_allclose(table[0, 0, 1], [1, 0], atol=1e-12)  # right: u, v

    def test_order_zero_matches_generator(self):
        fam = build_family([0, 1], kind="exponential", omega=2.0)
        table = build_integral_table(fam, [0, .25, 1], 0, 3)
        assert table[0, 0, 0, 0] == pytest.approx(fam.value(0, 0, 0.0)[0])
        assert table[0, 1, 1, 1] == pytest.approx(fam.value(0, 0, 1.0)[1])

    def test_ladder_orders_differentiate(self):
        fam = build_family([0, 1], kind="trigonometric", omega=1.0)
        breaks = [0, .5, 1]
        step = 1e-6
        hi = build_integral_table(fam, [0, .5 + step, 1], 0, 3)
        lo = build_integral_table(fam, [0, .5 - step, 1], 0, 3)
        mid = build_integral_table(fam, breaks, 0, 3)
        for k in (1, 2, 3):
            for w in (0, 1):
                numeric = (hi[k, 0, 1, w] - lo[k, 0, 1, w]) / (2 * step)
                assert numeric == pytest.approx(mid[k - 1, 0, 1, w], rel=1e-6, abs=1e-9)

    def test_straddling_interval_rejected(self):
        fam = build_family([0, .5, 1], kind="linear")
        with pytest.raises(IntervalStraddle):
            build_integral_table(fam, [0, .6, 1], 0, 1)

    def test_zero_length_target_rows_are_zero(self):
        fam = build_family([0, 1], kind="linear")
        table = build_integral_table(fam, [0, .5, .5, 1], 0, 1)
        np.testing.assert_array_equal(table[:, 1], 0.0)


class TestArrayLadder:
    """A span's ladder values do not depend on what else one call asks for:
    an integral table (times h**k, as `fam.value` takes it to t units) or an
    array call equals, bit for bit, one scalar `fam.value` call per entry."""

    KINDS = ALL_KINDS + ("mixed", "wide")

    @staticmethod
    def family(kind):
        # unequal spans and one zero-length interval
        knots = [0.0, 0.3, 0.3, 0.7, 1.6, 2.0]
        if kind == "mixed":
            return build_family(knots, kinds=ALL_KINDS + ("trigonometric",),
                                omegas=[0.0, 1.3, 2.0, 0.7])
        if kind == "wide":   # exponential spans on both sides of the closed-form cutoff
            return build_family(knots, kind="exponential", omega=_SERIES_THETA_MAX / 0.5)
        return build_family(knots, kind=kind, omega=1.3)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_integral_table_matches_scalar_calls(self, kind, offset):
        fam = self.family(kind)
        # targets inside spans, on their ends, and of zero length
        targets = [0.0, 0.1, 0.3, 0.3, 0.45, 0.7, 0.7, 1.2, 1.6, 2.0]
        table = build_integral_table(fam, targets, offset, 8)
        slots = containing_spans(fam.spans, np.array(targets))
        live = np.flatnonzero(slots >= 0)
        want = [[[fam.value(int(slots[j]), k - offset, targets[j + e]) for e in (0, 1)]
                 for j in live] for k in range(9)]
        h = (fam.spans[slots[live], 1] - fam.spans[slots[live], 0]).tolist()
        scale = np.array([[x ** (k - offset) for x in h] for k in range(9)])[..., None, None]
        assert (table[:, live] * scale).tobytes() == np.array(want).tobytes()
        np.testing.assert_array_equal(table[:, slots < 0], 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_array_t_matches_scalar_calls(self, kind):
        fam = self.family(kind)
        rng = np.random.default_rng(3)
        slot = rng.integers(0, fam.n_spans, size=(3, 20))
        left, right = fam.spans[slot, 0], fam.spans[slot, 1]
        t = left + rng.uniform(0, 1, slot.shape) * (right - left)
        t[:, 0], t[:, 1] = left[:, 0], right[:, 1]
        for order in range(-2, 9):
            got = fam.value(slot, order, t)
            want = [[fam.value(int(sl), order, float(x)) for sl, x in zip(*row)]
                    for row in zip(slot, t)]
            assert got.shape == (2,) + t.shape
            assert got.tobytes() == np.moveaxis(want, -1, 0).tobytes()

    @pytest.mark.parametrize("kind, omega", [("linear", 1.0), ("trigonometric", 1.3),
                                             ("exponential", 3 * _SERIES_THETA_MAX)])
    @pytest.mark.parametrize("repeated", [True, False])
    def test_one_call_over_two_span_sets_matches_two_calls(self, kind, omega, repeated):
        """What refinement's single ladder pass relies on: a target basis's
        right ends (orders 1..q-1, one point per span) and a source table
        (orders p-q..p-1, two points per span) read from one call with the
        union of their orders; h repeated within and across the two sets, or
        all distinct.  omega = 12 puts exponential spans of h > 1/3 on the
        closed forms."""
        rng = np.random.default_rng(7 + repeated)
        h = np.array([0.25, 0.5, 0.25, 0.5, 0.25]) if repeated else rng.uniform(0.05, 0.9, 5)
        h2 = np.concatenate([h[:3], [0.5, 0.5]]) if repeated else rng.uniform(0.05, 0.9, 5)
        code = ALL_KINDS.index(kind)   # the package's order of kinds
        x1, x2 = np.ones(5), rng.uniform(0, 1, 10)
        x2[:2] = 0.0, 1.0
        at2 = np.repeat(np.arange(5), 2)
        for p, q in ((3, 3), (2, 3), (2, 4), (5, 7)):
            first = _ladder_values(np.full(5, code), h, np.full(5, omega), range(1, q), x1,
                                   np.arange(5))
            second = _ladder_values(np.full(5, code), h2, np.full(5, omega), range(p - q, p),
                                    x2, at2)
            both = _ladder_values(np.full(10, code), np.concatenate([h, h2]), np.full(10, omega),
                                  range(p - q, q), np.concatenate([x1, x2]),
                                  np.concatenate([np.arange(5), 5 + at2]))
            assert both[q - p + 1 :, :, :5].tobytes() == first.tobytes()
            assert both[:q, :, 5:].tobytes() == second.tobytes()

    @pytest.mark.parametrize("kind, omega", [("trigonometric", 1.3), ("trigonometric", 2.0),
                                             ("exponential", 1.3), ("exponential", 12.0)])
    @pytest.mark.parametrize("repeated", [True, False])
    def test_one_pass_over_two_requests_matches_two_passes(self, kind, omega, repeated):
        """`_ladders_at` groups spans of equal (h, kind, omega) across requests
        and splits the values back: right ends on trigonometric omega = 1.3
        spans, and both ends of every piece of the same spans cut in two (one
        piece of zero length) under the same family (first case) or another
        kind or omega, at each request's own orders, give the bytes of two
        separate passes."""
        rng = np.random.default_rng(11 + repeated)
        h = np.array([0.25, 0.5, 0.25, 0.5]) if repeated else rng.uniform(0.05, 0.9, 4)
        knots = np.concatenate([[0.0], np.cumsum(h)])
        fam1 = build_family(knots, kind="trigonometric", omega=1.3)
        fam2 = build_family(knots, kind=kind, omega=omega)
        breaks = np.sort(np.concatenate([knots, knots[:-1] + rng.uniform(0.2, 0.8, 4) * h,
                                         knots[2:3]]))
        for p, q in ((3, 3), (2, 3), (2, 4), (5, 7)):
            first = (range(1, q), fam1, fam1.slots, knots, False)
            second = (range(p - q, p), fam2, containing_spans(fam2.spans, breaks), breaks, True)
            joint = _ladders_at(first, second)
            apart = _ladders_at(first) + _ladders_at(second)
            assert [a.shape for a in joint] == [a.shape for a in apart]
            assert [a.tobytes() for a in joint] == [a.tobytes() for a in apart]

    def test_array_t_outside_its_interval(self):
        fam = self.family("trigonometric")
        with pytest.raises(OutOfInterval, match="t=0.5 outside"):
            fam.value(0, 0, np.array([0.1, 0.5]))


class TestLadderKernel:
    """An array `fam.value` call with a sequence of orders computes every
    order and both generators in one kernel pass; each entry equals, bit for
    bit, a call that asks for its span, order and t alone."""

    ORDERS = list(range(-3, 10))

    @staticmethod
    def points(fam):
        # both ends and two interior points of every span
        slot = np.repeat(np.arange(fam.n_spans), 4)
        left, right = fam.spans[slot, 0], fam.spans[slot, 1]
        return slot, left + np.tile([0.0, 0.3, 0.71, 1.0], fam.n_spans) * (right - left)

    @pytest.mark.parametrize("kind", TestArrayLadder.KINDS)
    def test_matches_stacked_scalar_calls(self, kind):
        fam = TestArrayLadder.family(kind)
        slot, t = self.points(fam)
        got = fam.value(slot, self.ORDERS, t)
        want = [np.transpose([fam.value(int(sl), k, float(x)) for sl, x in zip(slot, t)])
                for k in self.ORDERS]
        assert got.shape == (len(self.ORDERS), 2, len(t))
        assert np.array_equal(got, want)
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("kind", TestArrayLadder.KINDS)
    def test_one_order_equals_its_slice_of_many(self, kind):
        fam = TestArrayLadder.family(kind)
        slot, t = self.points(fam)
        for k in range(10):
            many = fam.value(slot, range(k + 1), t)
            assert fam.value(slot, [k], t).tobytes() == many[k:].tobytes()
            assert fam.value(slot, k, t).tobytes() == many[k].tobytes()

    def test_empty_t(self):
        fam = TestArrayLadder.family("exponential")
        assert fam.value(np.array([], dtype=int), [0, 1, 2], np.array([])).shape == (3, 2, 0)

    def test_out_of_interval_entry_is_named(self):
        fam = TestArrayLadder.family("trigonometric")
        with pytest.raises(OutOfInterval, match=r"t=0\.5 outside \[0\.0, 0\.3\] \(entry 2\)"):
            fam.value(0, [0, 1], np.array([0.0, 0.1, 0.5]))


def horner_everywhere(codes, h, omega, orders, x, at):
    """`_ladder_values` by one Horner pass over every point's gathered
    coefficients, ends included, then the same closed-form term."""
    coefs, closed = _ladder_polys(codes, h, omega, orders)
    coefs = coefs[..., at]
    out = np.zeros(coefs.shape[1:])
    for c in coefs:
        out *= x
        out += c
    if closed is not None:
        on, theta, inv, scales = closed
        pts = np.flatnonzero(on[at])
        sp = at[pts]
        for i, k in enumerate(orders):
            g = math.cosh if k & 1 else math.sinh
            for w, z in enumerate((x[pts], 1.0 - x[pts])):
                gz = np.fromiter(map(g, (theta[sp] * z).tolist()), float, len(pts))
                out[i, w, pts] += (-1.0) ** (k * w) * scales[i][sp] * (inv[sp] * gz)
    return out


class TestEndValues:
    """`_ladder_values` reads a point at x == 0 or 1 off its span's
    coefficients (the last row, or the rows added top-down, each onto zero);
    that is Horner's rule there, so the values keep its bytes: every kind,
    exponential spans on the series and on the closed forms, orders -2..8,
    ends alone or among inner points."""

    @pytest.mark.parametrize("inner", [False, True])
    def test_ends_equal_a_horner_pass_byte_for_byte(self, inner):
        rng = np.random.default_rng(3 + 2 * inner)
        # theta = omega * h: linear; trigonometric up to 3; exponential from 0.3 to 300
        codes = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2])
        h = np.array([0.5, 2e-3, 0.25, 1.0, 3e-4, 0.25, 1.0, 0.5, 0.5, 2.0, 1.5])
        omega = np.array([1.0, 1.0, 1.2, 3.0, 2.0, 1.2, 3.9, 9.0, 40.0, 10.0, 200.0])
        orders = range(-2, 9)
        at = np.repeat(np.arange(len(h)), 4)
        x = np.tile([0.0, 1.0, 1.0, 0.0], len(h))
        if inner:
            x[2::4] = rng.uniform(0, 1, len(h))
        got = _ladder_values(codes, h, omega, orders, x, at)
        assert got.tobytes() == horner_everywhere(codes, h, omega, orders, x, at).tobytes()
        assert (omega * h > _SERIES_THETA_MAX).sum() == 4   # closed forms, up to theta = 300


def ladder_reference(kind, which, k, s, h, omega):
    """Ladder value from the closed forms minus their Taylor polynomial at
    s = 0, carried with enough guard digits that 50 survive the
    subtraction."""
    theta = omega * h if kind != "linear" else 1.0
    lost = (max(k, 0) + 1) * max(0, math.ceil(-math.log10(theta)))
    with mpmath.workdps(70 + lost):
        s, h, w = mpmath.mpf(s), mpmath.mpf(h), mpmath.mpf(omega)

        def pure(j, s):
            if kind == "linear":
                rise = s ** (j + 1) / (mpmath.factorial(j + 1) * h) if j >= 0 else (
                    1 / h if j == -1 else mpmath.mpf(0))
                if which == "u":
                    return rise
                return s**j / mpmath.factorial(j) - rise if j >= 0 else -rise
            x = s if which == "u" else h - s
            sign = 1 if which == "u" else (-1) ** j
            if kind == "trigonometric":
                return sign * mpmath.sin(w * x - j * mpmath.pi / 2) / (mpmath.sin(w * h) * w**j)
            g = mpmath.sinh if j % 2 == 0 else mpmath.cosh
            return sign * g(w * x) / (mpmath.sinh(w * h) * w**j)

        val = pure(k, s)
        if kind != "linear":
            for j in range(1, max(k, 0) + 1):
                val -= pure(j, mpmath.mpf(0)) * s ** (k - j) / mpmath.factorial(k - j)
        return float(val)


# fixed before measuring: ladder values within this fraction of their order's
# scale, h^k/k! for integrals and h^k max(1, theta)^-k for derivatives
LADDER_TOL = 1e-13


def ladder_scale(k, h, theta):
    return h**k / math.factorial(k) if k >= 0 else h**k * max(1.0, theta) ** -k


class TestLadderAccuracy:
    """Scalar and array ladder values against the 50-digit reference, on
    short spans, where closed forms minus their Taylor polynomials cancel,
    on wide ones, and on each side of the exponential closed-form cutoff."""

    CASES = ([(kind, theta) for kind in ("trigonometric", "exponential")
              for theta in (1e-4, 1e-2, 0.1, 1.0, 3.0)]
             + [("exponential", _SERIES_THETA_MAX - 0.1), ("exponential", _SERIES_THETA_MAX + 0.1),
                ("exponential", 20.0)])

    @pytest.mark.parametrize("kind, theta", CASES)
    def test_matches_the_reference(self, kind, theta):
        left, h = 0.5, 0.37
        fam = build_family([left, left + h], kind=kind, omega=theta / h)
        h, omega = float(fam.spans[0, 1] - fam.spans[0, 0]), float(fam.omegas[0])
        t = left + np.array([0.0, 0.25, 0.5, 0.9, 1.0]) * h
        t[-1] = left + h
        for k in range(-3, 9):
            both = fam.value(0, [k], t)[0]
            pairs = np.transpose([fam.value(0, k, x) for x in t.tolist()])
            assert pairs.tobytes() == both.tobytes()
            for got, which in zip(pairs, "uv"):
                want = [ladder_reference(kind, which, k, x - left, h, omega) for x in t.tolist()]
                err = np.abs(got - want).max() / ladder_scale(k, h, omega * h)
                assert err <= LADDER_TOL, (which, k, err)


class TestScalarLadderCalls:
    """Scalar `fam.value` calls run the array pass on one sample: results
    hold LADDER_TOL against the reference, `tol` holds per call, slot and
    order must be integers, and h**k overflows per span."""

    ORDERS = list(range(-3, 10))

    @staticmethod
    def reference(fam, slot, which, order, t):
        left, right = fam.spans[slot].tolist()
        return ladder_reference(fam.kinds[slot], which, order, t - left, right - left,
                                float(fam.omegas[slot]))

    @staticmethod
    def within_tolerance(fam, calls, got):
        for (slot, order, t), pair in zip(calls, got):
            left, right = fam.spans[slot].tolist()
            theta = float(fam.omegas[slot]) * (right - left)
            for which, value in zip("uv", pair):
                err = abs(value - TestScalarLadderCalls.reference(fam, slot, which, order, t))
                assert err <= LADDER_TOL * ladder_scale(order, right - left, theta)

    @staticmethod
    def calls(fam):
        """(slot, order, t) at both ends and two interior points of every span."""
        return [(slot, order, a + x * (b - a))
                for slot, (a, b) in enumerate(fam.spans.tolist())
                for order in TestScalarLadderCalls.ORDERS
                for x in (0.0, 0.3, 0.71, 1.0)]

    @pytest.mark.parametrize("kind", TestArrayLadder.KINDS)
    def test_within_tolerance_of_the_reference(self, kind):
        fam = TestArrayLadder.family(kind)
        calls = self.calls(fam)
        self.within_tolerance(fam, calls, [fam.value(*call) for call in calls])

    @pytest.mark.parametrize("kind", TestArrayLadder.KINDS)
    def test_tolerance_stays_per_call(self, kind):
        fam, fresh = TestArrayLadder.family(kind), TestArrayLadder.family(kind)
        for slot, (a, b) in enumerate(fam.spans.tolist()):
            for t in (a - 1e-9, b + 1e-9):
                for order in (2, 0, 5):
                    with pytest.raises(OutOfInterval) as before:
                        fresh.value(slot, order, t)
                    loose = fam.value(slot, order, t, tol=1e-8)
                    self.within_tolerance(fam, [(slot, order, t)], [loose])
                    with pytest.raises(OutOfInterval) as after:
                        fam.value(slot, order, t)
                    assert (str(after.value) == str(before.value)
                            == f"t={t} outside [{a}, {b}] (entry 0)")

    def test_slot_and_order_must_be_integers(self):
        fam = TestArrayLadder.family("trigonometric")
        want = fam.value(np.int64(1), np.int64(2), 0.5)
        assert np.array(fam.value(1, 2, 0.5)).tobytes() == np.array(want).tobytes()
        for slot, order in ((1.0, 2), (1, 2.0), (1, -1.0)):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                fam.value(slot, order, 0.5)

    def test_overflow_raises_as_in_the_array_path(self):
        # s**10 / 10! overflows on a span of length 1e40
        fam = build_family([0.0, 1e40], kind="linear")
        for t in (1e40, np.array([1e40])):
            with pytest.raises(OverflowError):
                fam.value(0, 9, t)

    def test_another_spans_overflow_leaves_a_scalar_call_alone(self):
        # h**9 overflows on the second span only; the first span's scalar
        # value is the array path's, bit for bit
        fam = build_family([0.0, 1.0, 1e40], kind="linear")
        want = fam.value(np.array([0]), 9, np.array([0.5]))[0, 0]
        assert want == 2.691144455467372e-10
        assert fam.value(0, 9, 0.5)[0].hex() == float(want).hex()
