"""Knot vectors and per-interval generator pairs with exact integral ladders.

A generator pair (u, v) lives on every knot interval of positive length:
u rises from 0 to 1 across the interval and v falls from 1 to 0.  Repeated
integrals are taken from the interval's left endpoint, so every positive
order vanishes there; this canonical choice keeps all downstream
bookkeeping free of integration constants.  Every order, derivatives too,
is a polynomial in the interval's local coordinate with per-span
coefficients, evaluated by Horner's rule.

All types are immutable after construction and safe for concurrent reads.
A family keeps a span's coefficients of an order from its first scalar
`value` call for that span and order; they depend only on the span, never
on `tol` or on the order of the calls, and are the numbers an array call
builds afresh, so a filled cache never changes a result.  Scalar parameters
are computed as Python floats whatever their type: numpy's float32 would
stay float32.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import index as _index

import numpy as np

from .errors import (
    DegreeTooSmall,
    IntervalStraddle,
    InvalidFamily,
    NotNondecreasing,
    NotOpen,
    OutOfActiveRegion,
    OutOfInterval,
    TooShort,
)
from .poly import DEFAULT_TOL

KINDS = ("linear", "trigonometric", "exponential")
_TRIGONOMETRIC, _EXPONENTIAL = KINDS.index("trigonometric"), KINDS.index("exponential")
# trigonometric pairs stop being Chebyshev at pi; sinh overflows past log(max)
_OMEGA_H_MAX = {"trigonometric": math.pi, "exponential": math.log(np.finfo(float).max)}


def readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Open nondecreasing knot sequence with its spline degree."""

    knots: np.ndarray
    degree: int
    _active: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "knots", readonly(self.knots))
        k, p, m = self.knots, self.degree, len(self.knots)
        if p < 0:
            raise DegreeTooSmall("degree must be nonnegative")
        if m < 2 * p + 2:
            raise TooShort(f"degree {p} needs at least {2 * p + 2} knots, got {m}")
        if not (np.all(np.isfinite(k)) and np.all(np.diff(k) >= 0)):
            raise NotNondecreasing("knots must be finite and nondecreasing")
        if k[0] != k[p] or k[m - p - 1] != k[m - 1]:
            raise NotOpen(f"first and last knots need multiplicity {p + 1}")
        object.__setattr__(self, "_active", k[p : m - p])

    @property
    def m(self) -> int:
        return len(self.knots)

    @property
    def n_basis(self) -> int:
        return self.m - self.degree - 1

    def active_region(self) -> np.ndarray:
        """Breakpoints t_p..t_{m-p-1}, interior multiplicities retained."""
        return self._active


def validate_open_knot_vector(knots, degree) -> KnotVector:
    """Validate and wrap a raw knot sequence."""
    return KnotVector(np.asarray(knots, dtype=float), int(degree))


# interval index ---------------------------------------------------------------

def find_interval(breaks, t, tol=DEFAULT_TOL):
    """Index j of the positive-length interval [breaks[j], breaks[j+1]) holding t.

    The final interval is closed on the right; zero-length intervals are
    skipped leftwards.  A 1-D array `t` gives an int array of one index per
    entry, from one search.  A scalar t (a real number or a 0-d array) is
    taken as a Python float and searched by bisection, fastest when
    `breaks` is a list of floats.  A t outside the breaks, or not finite,
    raises OutOfActiveRegion, naming the first such entry of an array; a t
    that is neither a number nor an array raises TypeError, and an array of
    two or more dimensions ValueError.
    """
    if type(t) is not float:
        if isinstance(t, np.ndarray) and t.ndim:
            return _find_intervals(np.asarray(breaks), t, tol)
        t = _as_float(t)
    if not breaks[0] <= t <= breaks[-1]:
        raise OutOfActiveRegion(f"t={t} outside [{breaks[0]}, {breaks[-1]}]")
    j = bisect_right(breaks, t, 0, len(breaks) - 1) - 1   # the last interval holds its right end
    if breaks[j + 1] - breaks[j] <= tol:   # _positive_at_or_left, for one j
        while j > 0 and not breaks[j + 1] - breaks[j] > tol:
            j -= 1
    return j


def _find_intervals(breaks, t, tol):
    """find_interval for an array t: one searchsorted over the break array."""
    if t.ndim > 1:
        raise ValueError(f"t must be a number or a 1-D array, got an array shaped {t.shape}")
    outside = np.flatnonzero(~((t >= breaks[0]) & (t <= breaks[-1])))
    if len(outside):
        i = int(outside[0])
        raise OutOfActiveRegion(f"t[{i}]={t[i]} outside [{breaks[0]}, {breaks[-1]}]")
    j = np.minimum(np.searchsorted(breaks, t, side="right") - 1, len(breaks) - 2)
    return _positive_at_or_left(breaks, tol)[j]


def _as_float(t):
    """A scalar parameter as a Python float (exact for float64 input)."""
    # float first, as np.float64 is one; an array here is 0-d
    if isinstance(t, (float, numbers.Real, np.ndarray)):
        return float(t)
    raise TypeError(f"t must be a real number or an array, not {type(t).__name__}")


def _positive_at_or_left(breaks, tol):
    """Per interval j, the last interval at or left of j longer than tol (0 if none)."""
    pos = np.diff(breaks) > tol
    pos[0] = True
    return np.maximum.accumulate(np.where(pos, np.arange(len(pos)), 0))


def containing_spans(spans, breaks, tol=DEFAULT_TOL) -> np.ndarray:
    """Row of `spans` (sorted, disjoint (s, 2) endpoints) holding each interval
    of `breaks`, or -1 for intervals of zero length.  An interval that fits
    in no span raises IntervalStraddle naming it."""
    br = np.asarray(breaks, dtype=float)
    a, b = br[:-1], br[1:]
    idx = np.searchsorted(spans[:, 0], a + tol, side="right") - 1
    lo, hi = spans[idx].T if len(spans) else (a, b)
    pos = b - a > tol
    bad = np.flatnonzero(pos & ((idx < 0) | (a < lo - tol) | (b > hi + tol)))
    if len(bad):
        j = int(bad[0])
        raise IntervalStraddle(
            f"interval {j} [{a[j]}, {b[j]}] does not sit inside a single source span")
    return np.where(pos, idx, -1)


# ladder values ------------------------------------------------------------------
#
# On a span of length h, with theta = omega*h and x = (t - left)/h, ladder
# member k (d/ds L_k = L_{k-1}, L_0 the generator) is the series
#   u_k = h^k (theta/S) sum_j (sigma theta^2)^j x^(2j+1+k) / (2j+1+k)!
#   v_k = h^k sum_j (sigma theta^2)^j [x^(2j+k) / (2j+k)!
#                                      - (theta C/S) x^(2j+1+k) / (2j+1+k)!]
# less its terms of negative power, with sigma, S, C = -1, sin, cos for the
# trigonometric kind, +1, sinh, cosh for the exponential one and theta = 0
# for the linear one.  A span keeps the terms j with theta^2j/(2j)! > 2^-53,
# those where theta exceeds _SERIES_THETAS[j-1].  The terms grow like
# e^theta before they fall, so exponential spans wider than
# _SERIES_THETA_MAX keep the closed forms u_k = (h/theta)^k G_k(theta x)/S
# + P_u(x) and v_k = (-h/theta)^k G_k(theta (1 - x))/S + P_v(x), G_k = sinh
# for even k and cosh for odd k, where the polynomials P make positive
# orders vanish at x = 0.

_SERIES_THETAS = np.array([(2.0**-53 * math.factorial(2 * j)) ** (0.5 / j) for j in range(1, 60)])
_SERIES_THETA_MAX = 4.0   # where the series' error overtakes the closed forms'
_FACTORIAL = np.array([math.factorial(n) for n in range(171)], dtype=float)


def _ladder_polys(codes, h, omega, orders):
    """u_k and v_k of each order k on spans of kind indices `codes`, lengths
    `h` and frequencies `omega`: (their coefficients in x, highest power
    first, shaped (size, len(orders), 2, spans) with u first and each span's
    own list preceded by zeros; the lengths of those lists; None, or (closed,
    theta, 1/S, [(h/theta)^k per order]) if some span keeps the closed forms).
    Only math's functions, pow and IEEE arithmetic enter, element by element,
    so a span's numbers do not depend on what is asked for with it; h**k
    raises OverflowError where it overflows."""
    n = len(h)
    theta = np.where(codes == KINDS.index("linear"), 0.0, omega * h)
    closed, trig = (codes == _EXPONENTIAL) & (theta > _SERIES_THETA_MAX), codes == _TRIGONOMETRIC
    sine, cosine = np.ones(n), np.ones(n)   # the linear kind's limits
    for on, s, c in ((trig, math.sin, math.cos), (codes == _EXPONENTIAL, math.sinh, math.cosh)):
        z = theta[on].tolist()
        sine[on], cosine[on] = list(map(s, z)), list(map(c, z))
    a = np.divide(theta, sine, out=np.ones(n), where=theta > 0)   # theta/S, 1 in the limit
    sq = np.where(closed, 0.0, np.where(trig, -theta, theta) * theta)
    terms = np.where(closed, 0, 1 + np.searchsorted(_SERIES_THETAS, theta))
    width, ks = 2 * terms.max(initial=0), np.array(orders, dtype=int)[:, None]
    q = np.maximum(-ks, 0) + np.arange(width)   # the series' indices 2j and 2j+1, per order
    powers = np.cumprod([np.ones(n)] + [sq] * (q.max(initial=0) // 2), axis=0)
    hk = np.array([x**k for k in orders for x in h.tolist()]).reshape(len(orders), 1, n)
    base = hk * powers[q // 2] / _FACTORIAL[q + ks][..., None]
    base[:, np.arange(width)[:, None] >= 2 * terms] = 0.0
    odd = (q % 2 == 1)[..., None]
    out = np.zeros((np.maximum(ks, 0).max(initial=0) + width, len(orders), 2, n))
    at = len(out) - 1 - np.maximum(ks, 0) - np.arange(width), np.arange(len(orders))[:, None]
    out[at + (0,)] = np.where(odd, a * base, 0.0)
    out[at + (1,)] = np.where(odd, -(a * cosine * base), base)
    lengths = np.maximum(ks, 0) + 2 * terms
    if not closed.any():
        return out, lengths, None
    tc, inv, scales = np.where(closed, theta, 1.0), 1.0 / np.where(closed, sine, 1.0), []
    for o, k in enumerate(orders):
        scales.append(hk[o, 0] / np.array([x**k for x in tc.tolist()]))
        power = np.ones(n)
        for i in range(k):   # minus the closed forms of orders k - i at x = 0
            c = scales[-1] * power / _FACTORIAL[i]
            pair = (-(c * inv), c * (cosine * inv)) if (k - i) % 2 else (np.zeros(n), -c)
            out[len(out) - 1 - i, o] = np.where(closed, pair, 0.0)
            power = power * tc
    return out, lengths, (closed, theta, inv, scales)


@dataclass(frozen=True, eq=False)
class KnotFunctionFamily:
    """Generator pairs for the positive-length intervals of a knot sequence.

    `slots[j]` maps global knot interval j to a row of `spans`/`kinds`/
    `omegas`, or -1 where the interval has zero length and carries no
    generators.
    """

    spans: np.ndarray   # (n_spans, 2) endpoints
    kinds: tuple
    omegas: np.ndarray
    slots: np.ndarray   # (number of knot intervals,)
    _kind_ids: np.ndarray = field(init=False, repr=False)
    _scalar: dict = field(init=False, repr=False)   # (slot, order) -> _span_series

    def __post_init__(self):
        object.__setattr__(self, "_kind_ids",
                           readonly([KINDS.index(k) for k in self.kinds], dtype=int))
        object.__setattr__(self, "_scalar", {})

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def value(self, slot, which, order, t, tol=DEFAULT_TOL):
        """Canonical ladder value of generator `which` at global parameter t.

        order 0 is the generator itself, positive orders are repeated
        integrals from the interval's left endpoint, negative orders are
        derivatives.  With an array `t` (and `slot` broadcasting against
        it), `order` may be a sequence and `which` "uv": one Horner pass gives
        an array shaped ([len(order),] [2,] *t.shape) whose entry [i, w] is
        value(slot, "uv"[w], order[i], t) bit for bit.  A scalar t reads the
        span's coefficients from a cache that the first call for (slot,
        order) fills; `tol` is checked on every call.
        """
        if isinstance(t, np.ndarray):
            if which not in ("u", "v", "uv"):
                raise ValueError("which must be 'u', 'v' or 'uv'")
            orders, shape = [int(k) for k in np.atleast_1d(order).tolist()], t.shape
            slot, t = np.broadcast_to(slot, shape).ravel(), t.astype(float, copy=False).ravel()
            left, right = self.spans[slot].T
            outside = np.flatnonzero((t < left - tol) | (t > right + tol))
            if len(outside):
                i = outside[0]
                raise OutOfInterval(f"t={t[i]} outside [{left[i]}, {right[i]}] (entry {i})")
            x = (t - left) / (right - left)
            spans, at = np.unique(slot, return_inverse=True)
            coefs, _, closed = _ladder_polys(self._kind_ids[spans], self.spans[spans, 1]
                                          - self.spans[spans, 0], self.omegas[spans], orders)
            out = np.zeros((len(orders), 2, len(t)))
            for c in coefs:
                out = out * x + np.take(c, at, axis=-1)
            if closed is not None:   # G through math, point by point, as in the scalar path
                on, theta, inv, scales = closed
                pts = np.flatnonzero(on[at])
                sp = at[pts]
                for i, k in enumerate(orders):
                    g = math.cosh if k & 1 else math.sinh
                    for w, z in enumerate((x[pts], 1.0 - x[pts])):
                        gz = np.fromiter(map(g, (theta[sp] * z).tolist()), float, len(pts))
                        out[i, w, pts] += (-1.0) ** (k * w) * scales[i][sp] * (inv[sp] * gz)
            out = out.reshape((len(orders), 2) + shape)
            out = out if which == "uv" else out[:, "uv".index(which)]
            return out if np.ndim(order) else out[0]
        u = which == "u"
        if not u and which != "v":
            raise ValueError("which must be 'u' or 'v'")
        slot, order = _index(slot), _index(order)   # so that 1.0 cannot find 1's entry
        entry = self._scalar.get((slot, order))
        if entry is None:
            entry = self._scalar[slot, order] = self._span_series(slot, order)
        left, right, h, coefs_u, coefs_v, closed = entry
        if type(t) is not float:
            t = _as_float(t)
        if t < left - tol or t > right + tol:
            raise OutOfInterval(f"t={t} outside [{left}, {right}]")
        x, val = (t - left) / h, 0.0
        for c in coefs_u if u else coefs_v:
            val = val * x + c
        if closed:
            theta, inv, scales, g = closed
            val += scales[not u] * (inv * g(theta * (x if u else 1.0 - x)))
        return val

    def _span_series(self, slot, k):
        """What a scalar value() call reads of its span, as Python floats: the
        ends, h, the span's own coefficients of u and of v, and None or the
        closed forms' theta, 1/S, scales for u and v and G_k.  Only this
        span's coefficients are built."""
        left, right = self.spans[slot].tolist()
        coefs, lengths, closed = _ladder_polys(self._kind_ids[[slot]], np.array([right - left]),
                                               self.omegas[[slot]], [k])
        own = [tuple(c) for c in coefs[len(coefs) - lengths[0, 0]:, 0, :, 0].T.tolist()]
        if on := closed is not None and closed[0][0]:
            theta, inv, scale = (float(a[0]) for a in closed[1:3] + (closed[3][0],))
            closed = theta, inv, (scale, (-1.0) ** k * scale), (math.sinh, math.cosh)[k & 1]
        return left, right, right - left, *own, closed if on else None


def build_family(knots, kind="trigonometric", omega=math.pi / 2, *,
                 kinds=None, omegas=None, tol=DEFAULT_TOL) -> KnotFunctionFamily:
    """Attach generator pairs to the intervals of `knots` longer than `tol`;
    there must be at least one.

    Give a single `kind`/`omega` for all intervals, or per-interval sequences
    (ordered over positive-length intervals only).  Frequencies must be
    finite; the linear kind ignores them otherwise.  Trigonometric intervals
    must keep omega * h < pi so the pair stays Chebyshev, exponential ones
    omega * h < log(largest float) so sinh stays finite.
    """
    knots = np.asarray(knots, dtype=float)
    pos = np.diff(knots) > tol
    slots = np.where(pos, np.cumsum(pos) - 1, -1)
    spans = np.stack([knots[:-1][pos], knots[1:][pos]], axis=1)
    count = len(spans)
    if not count:
        raise InvalidFamily(f"no knot interval is longer than tol={tol:g}")
    out_kinds = tuple([kind] * count) if kinds is None else tuple(kinds)
    out_omegas = (np.full(count, omega, dtype=float) if omegas is None
                  else np.asarray(omegas, dtype=float))
    if len(out_kinds) != count or len(out_omegas) != count:
        raise InvalidFamily(
            f"need one spec per positive interval: {count} intervals, "
            f"{len(out_kinds)} kinds, {len(out_omegas)} frequencies")
    for (a, b), kd, w in zip(spans.tolist(), out_kinds, out_omegas.tolist()):
        if kd not in KINDS:
            raise InvalidFamily(f"unknown kind {kd!r}")
        if not math.isfinite(w):
            raise InvalidFamily(f"frequency {w} on [{a}, {b}] must be finite")
        if kd != "linear":
            if not w > 0:
                raise InvalidFamily("frequency must be positive")
            if w * (b - a) >= _OMEGA_H_MAX[kd]:
                raise InvalidFamily(f"omega * h = {w * (b - a):.6g} on [{a}, {b}] "
                                    f"must stay below {_OMEGA_H_MAX[kd]:.6g}")
    return KnotFunctionFamily(
        spans=readonly(spans),
        kinds=out_kinds,
        omegas=readonly(out_omegas),
        slots=readonly(slots, dtype=int),
    )


def build_integral_table(fam: KnotFunctionFamily, breakpoints, derivative_offset,
                         max_order, tol=DEFAULT_TOL) -> np.ndarray:
    """Ladder values of (shifted) generators at target interval endpoints.

    Entry [k, j, e, w] is the k-th canonical integral of the
    `derivative_offset`-th derivative of generator w ('u' first) of the
    source interval containing target interval j, evaluated at endpoint e
    (left, then right).  Zero-length target intervals are left as zeros.
    One array `fam.value` call covers every order, generator and target.
    """
    if derivative_offset < 0:
        raise ValueError("derivative_offset must be nonnegative")
    br = np.asarray(breakpoints, dtype=float)
    slots = containing_spans(fam.spans, br, tol)
    live = np.flatnonzero(slots >= 0)
    ends = np.stack([br[live], br[live + 1]], axis=1)
    orders = range(-derivative_offset, max_order + 1 - derivative_offset)
    out = np.zeros((max_order + 1, len(slots), 2, 2))
    out[:, live] = np.moveaxis(fam.value(slots[live, None], "uv", orders, ends, tol), 1, -1)
    return out
