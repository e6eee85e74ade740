"""Knot vectors and per-interval generator pairs with exact integral ladders.

A generator pair (u, v) lives on every knot interval of positive length:
u rises from 0 to 1 across the interval and v falls from 1 to 0.  Repeated
integrals are taken from the interval's left endpoint, so every positive
order vanishes there; this canonical choice keeps all downstream
bookkeeping free of integration constants.  Every order, derivatives too,
is a polynomial in the interval's local coordinate with per-span
coefficients, evaluated by Horner's rule.  A span's values depend on its
kind, length and frequency alone, so one pass (`_ladders_at`) serves
several callers at once: a refinement reads the target basis's right ends,
the source generators' integral table and, with no basis given, the
source basis's right ends from the same call.

All types are immutable after construction and safe for concurrent reads.
Scalar parameters are computed as Python floats whatever their type:
numpy's float32 would stay float32.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index as _index

import numpy as np

from .errors import (
    DegreeTooSmall,
    IntervalStraddle,
    InvalidFamily,
    MultiplicityOverflow,
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
_OMEGA_H_MAX = np.array([math.inf, math.pi, math.log(np.finfo(float).max)])   # by kind index


def readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Open nondecreasing knot sequence with its spline degree; no knot,
    end or interior, is repeated more than degree + 1 times."""

    knots: np.ndarray
    degree: int

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
        over = np.flatnonzero(k[p + 1 :] == k[: m - p - 1])
        if len(over):   # a basis function over p + 2 equal knots is identically zero
            x = k[over[0]]
            raise MultiplicityOverflow(
                f"knot {x} has multiplicity {np.count_nonzero(k == x)} > {p + 1}")

    @property
    def m(self) -> int:
        return len(self.knots)

    @property
    def n_basis(self) -> int:
        return self.m - self.degree - 1

    def active_region(self) -> np.ndarray:
        """Breakpoints t_p..t_{m-p-1}, interior multiplicities retained."""
        return self.knots[self.degree : len(self.knots) - self.degree]


def validate_open_knot_vector(knots, degree) -> KnotVector:
    """Validate and wrap a raw knot sequence."""
    return KnotVector(np.asarray(knots, dtype=float), int(degree))


# interval index ---------------------------------------------------------------

def find_interval(breaks, t, tol=DEFAULT_TOL):
    """Index j of the positive-length interval [breaks[j], breaks[j+1]) holding t.

    The final interval is closed on the right; zero-length intervals are
    skipped leftwards.  A batch t (`_is_batch`) gives an int array of one
    index per entry, from one search; one sample is taken as a Python float
    and gives an int.  A t outside the breaks, or not finite, raises
    OutOfActiveRegion, naming the first such entry of a batch; a t that is
    neither, or a batch entry that is not a real number, raises TypeError,
    and a batch of two or more dimensions ValueError.  `PiecewiseCurve`'s
    scalar evaluator bisects its own list of the breaks to the same index.
    """
    breaks, scalar = np.asarray(breaks), not _is_batch(t)
    ts = np.array([_as_float(t)]) if scalar else _as_floats(t)
    if ts.ndim > 1:
        raise ValueError(f"t must be a number or a 1-D array, got an array shaped {ts.shape}")
    outside = np.flatnonzero(~((ts >= breaks[0]) & (ts <= breaks[-1])))
    if len(outside):
        i = int(outside[0])
        raise OutOfActiveRegion(f"{'t' if scalar else f't[{i}]'}={ts[i]} outside "
                                f"[{breaks[0]}, {breaks[-1]}]")
    j = np.minimum(np.searchsorted(breaks, ts, side="right") - 1, len(breaks) - 2)
    live = np.diff(breaks) > tol   # each interval's last one at or left of it longer than tol
    live[0] = True
    j = np.maximum.accumulate(np.where(live, np.arange(len(live)), 0))[j]
    return int(j[0]) if scalar else j


def _is_batch(t):
    """The one rule: an array of ndim >= 1, a list or a tuple is a batch, else one sample."""
    return isinstance(t, (list, tuple)) or isinstance(t, np.ndarray) and t.ndim > 0


def _as_float(t):
    """A scalar parameter as a Python float (exact for float64 input)."""
    # float first, as np.float64 is one; an array here is 0-d
    if isinstance(t, (float, numbers.Real, np.ndarray)):
        return float(t)
    raise TypeError(f"t must be a real number or an array, not {type(t).__name__}")


def _as_floats(t):
    """A batch as a float array; TypeError names its first entry that is not a real number."""
    ts = np.asarray(t)
    if ts.dtype.kind not in "biuf":   # strings, None, complex, objects
        for i, x in enumerate(np.asarray(t, dtype=object).flat):
            if not isinstance(x, numbers.Real):
                raise TypeError(f"entry {i} of t is a {type(x).__name__}, not a real number")
    return ts.astype(float, copy=False)


def containing_spans(spans, breaks, tol=DEFAULT_TOL) -> np.ndarray:
    """Row of `spans` (sorted, disjoint (s, 2) endpoints) holding each interval
    of `breaks`, or -1 for intervals of zero length.  An interval that fits
    in no span raises IntervalStraddle naming it.  One that fits two (it is
    at most 2 * tol long) goes to the left one unless the right one starts
    at or before its midpoint."""
    br = np.asarray(breaks, dtype=float)
    a, b = br[:-1], br[1:]
    idx = np.searchsorted(spans[:, 0], a + tol, side="right") - 1
    if len(spans):   # starts after the midpoint: back to the span before, if that one fits
        back = np.flatnonzero((idx > 0) & (spans[idx, 0] > (a + b) / 2))
        idx[back[b[back] <= spans[idx[back] - 1, 1] + tol]] -= 1
    lo, hi = spans[idx].T if len(spans) else (a, b)
    pos = b - a > tol
    bad = np.flatnonzero(pos & ((idx < 0) | (a < lo - tol) | (b > hi + tol)))
    if len(bad):
        j = int(bad[0])
        raise IntervalStraddle(
            f"interval {j} [{a[j]}, {b[j]}] does not sit inside a single source span")
    return np.where(pos, idx, -1)


def _unchecked(cls, **fields):
    """The frozen dataclass `cls` from fields derived from checked ones, without
    its constructor's checks; array fields (fresh, or views) are made read-only."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
_ENDS = np.array([[0], [1]])   # an interval's left and right end in the breaks


@lru_cache(maxsize=256)
def _series_tables(orders, width):
    """`_ladder_polys`' index tables for `orders` (a tuple) and `width` terms
    each, kept (read-only): they depend on nothing else."""
    ks, cols = np.array(orders, dtype=int)[:, None], np.arange(width)
    q = np.maximum(-ks, 0) + cols   # the series' indices 2j and 2j+1, per order
    size = np.maximum(ks, 0).max(initial=0) + width
    at = size - 1 - np.maximum(ks, 0) - cols, np.arange(len(orders))[:, None]
    out = q // 2, _FACTORIAL[q + ks][..., None], (q % 2 == 1)[..., None], cols[:, None], at
    for a in (*out[:4], *at):
        a.flags.writeable = False
    return *out, size, int(q.max(initial=0)) // 2


def _ladder_polys(codes, h, omega, orders, need=True):
    """u_k and v_k of each order k on spans of kind indices `codes`, lengths
    `h` and frequencies `omega`: (their coefficients in x, highest power
    first, shaped (size, len(orders), 2, spans) with u first and each span's
    own list preceded by zeros; None, or (closed, theta, 1/S, [(h/theta)^k
    per order]) if some span keeps the closed forms).
    Only math's functions, pow and IEEE arithmetic enter, element by element,
    so a span's numbers do not depend on what is asked for with it; h**k
    raises OverflowError where it overflows.  Where `need` (orders, spans)
    is False, h**k is taken as 1: those entries are not read."""
    n = len(h)
    theta = np.where(codes == KINDS.index("linear"), 0.0, omega * h)
    trig, expo = codes == _TRIGONOMETRIC, codes == _EXPONENTIAL
    closed = expo & (theta > _SERIES_THETA_MAX)
    sine, cosine = np.ones(n), np.ones(n)   # the linear kind's limits
    for on, s, c in ((trig, math.sin, math.cos), (expo, math.sinh, math.cosh)):
        z = theta[on].tolist()
        sine[on], cosine[on] = list(map(s, z)), list(map(c, z))
    a = np.divide(theta, sine, out=np.ones(n), where=theta > 0)   # theta/S, 1 in the limit
    sq = np.where(closed, 0.0, np.where(trig, -theta, theta) * theta)
    terms = np.where(closed, 0, 1 + _SERIES_THETAS.searchsorted(theta))
    half, fact, odd, cols, at, size, top = _series_tables(tuple(orders),
                                                          2 * int(terms.max(initial=0)))
    powers = np.array([np.ones(n)] + [sq] * top).cumprod(axis=0)
    hs = [h.tolist()] * len(orders) if need is True else np.where(need, h, 1.0).tolist()
    hk = np.array([x**k for k, row in zip(orders, hs) for x in row]).reshape(len(orders), 1, n)
    base = hk * powers[half] / fact
    base[:, cols >= 2 * terms] = 0.0
    out = np.zeros((size, len(orders), 2, n))
    out[at + (0,)] = np.where(odd, a * base, 0.0)
    out[at + (1,)] = np.where(odd, -(a * cosine * base), base)
    if not closed.any():
        return out, None
    tc, inv, scales = np.where(closed, theta, 1.0), 1.0 / np.where(closed, sine, 1.0), []
    for o, k in enumerate(orders):
        scales.append(hk[o, 0] / np.array([x**k for x in tc.tolist()]))
        power = np.ones(n)
        for i in range(k):   # minus the closed forms of orders k - i at x = 0
            c = scales[-1] * power / _FACTORIAL[i]
            pair = (-(c * inv), c * (cosine * inv)) if (k - i) % 2 else (np.zeros(n), -c)
            out[len(out) - 1 - i, o] = np.where(closed, pair, 0.0)
            power = power * tc
    return out, (closed, theta, inv, scales)


def _ladder_values(codes, h, omega, orders, x, at, need=True):
    """Ladder values (len(orders), 2, len(x)) of `_ladder_polys(codes, h,
    omega, orders, need)` at local coordinates x, sample i on span at[i]: the
    coefficients gathered once, one in-place Horner pass, then the closed
    forms' term point by point."""
    coefs, closed = _ladder_polys(codes, h, omega, orders, need)
    coefs = coefs[..., at]
    out = np.zeros(coefs.shape[1:])
    for c in coefs:
        out *= x
        out += c
    if closed is not None:   # G through math, point by point, as in the scalar path
        on, theta, inv, scales = closed
        pts = np.flatnonzero(on[at])
        sp = at[pts]
        for i, k in enumerate(orders):
            g = math.cosh if k & 1 else math.sinh
            for w, z in enumerate((x[pts], 1.0 - x[pts])):
                gz = np.fromiter(map(g, (theta[sp] * z).tolist()), float, len(pts))
                out[i, w, pts] += (-1.0) ** (k * w) * scales[i][sp] * (inv[sp] * gz)
    return out


def _ladders_at(*requests):
    """Ladder values for several requests from one `_ladder_values` pass.  A
    request (orders, fam, slots, breaks, both), `orders` a range, asks on
    every live interval j of `breaks` (fam's span slots[j]) for the right
    end, or both ends if `both`, and gets an array [k, j, (e,) w] (order,
    interval, end, generator 'u' first), zero on dead intervals."""
    spans, points = [], []
    for orders, fam, slots, breaks, both in requests:
        live = (slots >= 0).nonzero()[0]
        span = slots[live]
        left, right = fam.spans[span].T
        h = right - left
        spans.append((h, fam._kind_ids[span], fam.omegas[span]))
        points.append((live, (breaks[live + _ENDS if both else live + 1] - left) / h))   # [(e,) j]
    h, codes, omega = map(np.concatenate, zip(*spans))
    x = np.concatenate([x.ravel() for _, x in points])
    low = min(r[0].start for r in requests)
    orders = range(low, max(r[0].stop for r in requests))
    if len(requests) == 1 and len(x) == len(h):   # point i on span i: cheaper ungrouped
        values = _ladder_values(codes, h, omega, orders, x, np.arange(len(x)))
    else:   # spans of one kind, h and omega are built once, with the orders any request asks
        order = np.lexsort((omega, codes, h))
        key = np.array([h, codes, omega])[:, order]
        new = np.concatenate(([True], (key[:, 1:] != key[:, :-1]).any(axis=0)))
        group = np.empty(len(order), dtype=int)
        group[order] = new.cumsum() - 1
        need, start, at = np.zeros((len(orders), np.count_nonzero(new)), dtype=bool), 0, []
        for (asked, *_, both), (live, _) in zip(requests, points):
            g = group[start : start + len(live)]
            need[asked.start - low : asked.stop - low, g] = True
            at += [g, g] if both else [g]
            start += len(live)
        h, codes, omega = key[:, new]
        values = _ladder_values(codes.astype(int), h, omega, orders, x, np.concatenate(at), need)
    start, out = 0, []
    for (asked, _, slots, *_), (live, x) in zip(requests, points):
        part = values[asked.start - low : asked.stop - low, :, start : start + x.size]
        out.append(np.zeros((len(asked), len(slots)) + x.shape[:-1] + (2,)))
        out[-1][:, live] = part.reshape((len(asked), 2) + x.shape).swapaxes(1, -1)
        start += x.size
    return out


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

    @cached_property
    def _kind_ids(self):
        """Index in KINDS of each span's kind, built on first use."""
        return readonly([KINDS.index(k) for k in self.kinds], dtype=int)

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def value(self, slot, order, t, tol=DEFAULT_TOL):
        """Canonical ladder values of the generator pair (u, v) at global t.

        order 0 is the generator itself, positive orders are repeated
        integrals from the interval's left endpoint, negative orders are
        derivatives.  With an array `t` (and `slot` broadcasting against
        it), `order` may be a sequence: one Horner pass gives an array
        shaped ([len(order),] 2, *t.shape), u first.  A scalar t, with an
        integer slot and order, runs the same pass on one sample and gives
        the tuple (u, v) of Python floats.
        """
        if isinstance(t, np.ndarray):
            orders, shape = [int(k) for k in np.atleast_1d(order).tolist()], t.shape
            slot, t = np.broadcast_to(slot, shape).ravel(), t.astype(float, copy=False).ravel()
            left, right = self.spans[slot].T
            outside = np.flatnonzero((t < left - tol) | (t > right + tol))
            if len(outside):
                i = outside[0]
                raise OutOfInterval(f"t={t[i]} outside [{left[i]}, {right[i]}] (entry {i})")
            spans, at = np.unique(slot, return_inverse=True)
            out = _ladder_values(self._kind_ids[spans], self.spans[spans, 1] - self.spans[spans, 0],
                                 self.omegas[spans], orders, (t - left) / (right - left), at)
            out = out.reshape((len(orders), 2) + shape)
            return out if np.ndim(order) else out[0]
        slot, order = _index(slot), _index(order)   # a float is a TypeError, not truncated
        return tuple(self.value(slot, order, np.array([_as_float(t)]), tol)[:, 0].tolist())


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
    codes = np.array([KINDS.index(kd) if kd in KINDS else -1 for kd in out_kinds], dtype=int)
    with np.errstate(over="ignore"):
        theta = out_omegas * (spans[:, 1] - spans[:, 0])
    bad = ((codes < 0) | ~np.isfinite(out_omegas)
           | ((codes > 0) & ~((out_omegas > 0) & (theta < _OMEGA_H_MAX[codes]))))
    if bad.any():   # the first offending span names the error
        i = int(np.argmax(bad))
        (a, b), kd, w = spans[i].tolist(), out_kinds[i], out_omegas[i].item()
        if kd not in KINDS:
            raise InvalidFamily(f"unknown kind {kd!r}")
        if not math.isfinite(w):
            raise InvalidFamily(f"frequency {w} on [{a}, {b}] must be finite")
        if not w > 0:
            raise InvalidFamily("frequency must be positive")
        raise InvalidFamily(f"omega * h = {w * (b - a):.6g} on [{a}, {b}] "
                            f"must stay below {_OMEGA_H_MAX[KINDS.index(kd)]:.6g}")
    out = KnotFunctionFamily(spans=readonly(spans), kinds=out_kinds, omegas=readonly(out_omegas),
                             slots=readonly(slots, dtype=int))
    out.__dict__["_kind_ids"] = readonly(codes, dtype=int)   # the cached property, computed
    return out


def build_integral_table(fam: KnotFunctionFamily, breakpoints, derivative_offset,
                         max_order, tol=DEFAULT_TOL) -> np.ndarray:
    """Ladder values of (shifted) generators at target interval endpoints.

    Entry [k, j, e, w] is the k-th canonical integral of the
    `derivative_offset`-th derivative of generator w ('u' first) of the
    source interval containing target interval j, evaluated at endpoint e
    (left, then right).  Zero-length target intervals are left as zeros.
    One `_ladder_values` pass covers every order, generator and target.
    """
    if derivative_offset < 0:
        raise ValueError("derivative_offset must be nonnegative")
    br = np.asarray(breakpoints, dtype=float)
    slots = containing_spans(fam.spans, br, tol)
    orders = range(-derivative_offset, max_order + 1 - derivative_offset)
    return _ladders_at((orders, fam, slots, br, True))[0]
