"""Knot vectors and per-interval generator pairs with exact integral ladders.

A generator pair (u, v) lives on every knot interval of positive length:
u rises from 0 to 1 across the interval and v falls from 1 to 0.  Closed
forms exist for every integral and derivative order.  Repeated integrals
are taken from the interval's left endpoint, so every positive order
vanishes there; this canonical choice keeps all downstream bookkeeping
free of integration constants.

All types are immutable after construction and safe for concurrent reads.
A family fills a cache of per-span constants on its first scalar `value`
calls; what the cache holds depends only on the span, the generator order
and the family, never on `tol` or on the order of the calls, and it holds
exactly the numbers the closed forms would compute afresh, so a filled
cache never changes a result.  Scalar parameters are computed as Python
floats whatever their type: numpy's float32 arithmetic would stay float32.
"""
from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
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


# closed-form ladders ---------------------------------------------------------
#
# _pure_* return the k-th member of a ladder d/ds L_k = L_{k-1} with L_0
# the generator itself; negative k are derivatives.  The canonical value()
# subtracts the polynomial that makes positive orders vanish at s = 0.

def _pure_linear(which, k, s, h, omega):
    if which == "u":
        if k >= 0:
            return s ** (k + 1) / (math.factorial(k + 1) * h)
        if k == -1:
            return 1.0 / h
        return 0.0
    if k > 0:
        return s**k / math.factorial(k) - s ** (k + 1) / (math.factorial(k + 1) * h)
    if k == 0:
        return (h - s) / h
    if k == -1:
        return -1.0 / h
    return 0.0


def _pure_trigonometric(which, k, s, h, omega):
    c = 1.0 / math.sin(omega * h)
    if which == "u":
        return c * math.sin(omega * s - k * math.pi / 2) / omega**k
    return c * (-1.0) ** k * math.sin(omega * (h - s) - k * math.pi / 2) / omega**k


def _pure_exponential(which, k, s, h, omega):
    c = 1.0 / math.sinh(omega * h)
    g = math.sinh if k % 2 == 0 else math.cosh
    if which == "u":
        return c * g(omega * s) / omega**k
    return c * (-1.0) ** k * g(omega * (h - s)) / omega**k


_PURE = {
    "linear": _pure_linear,
    "trigonometric": _pure_trigonometric,
    "exponential": _pure_exponential,
}
_FACTORIAL = np.array([math.factorial(k) for k in range(171)], dtype=float)


def _each(fn, *args):
    """fn (a math function, or pow) over broadcast arrays, element by element
    through Python floats and ints.  numpy's sin, sinh and power differ from
    math's and pow's in the last ulp on some inputs, and array ladder values
    must equal scalar ones bit for bit."""
    shape = np.broadcast(*args).shape
    columns = []
    for a in args:
        full = np.empty(shape, np.result_type(a))
        full[...] = a
        columns.append(full.ravel().tolist())
    return np.fromiter(map(fn, *columns), float, math.prod(shape)).reshape(shape)


def _closed_forms(kind, orders, s, pw, h, omega, c, wk):
    """_pure_<kind> of u and v for each order at points s, operation for operation,
    from pw[e] = s**e and, per point, the span's h, omega, c = 1/sin(omega*h) or
    1/sinh(omega*h) and wk[k] = omega**k; shaped (len(orders), 2, n)."""
    out, x = np.zeros((len(orders), 2, len(s))), (s, h - s)
    g = {(w, r): _each((math.sinh, math.cosh)[r], omega * x[w]) for w in (0, 1)
         for r in {k % 2 for k in orders}} if kind == "exponential" else {}
    for i, k in enumerate(orders):
        if kind == "linear":
            rise = pw[k + 1] / (_FACTORIAL[k + 1] * h) if k >= 0 else 1.0 / h if k == -1 else 0.0
            out[i, 0], out[i, 1] = rise, (pw[k] / _FACTORIAL[k] - rise if k > 0 else (h - s) / h
                                          if k == 0 else -1.0 / h if k == -1 else 0.0)
            continue
        for w, sign in enumerate((1.0, (-1.0) ** k)):
            val = g[w, k % 2] if g else _each(math.sin, omega * x[w] - k * math.pi / 2)
            out[i, w] = c * sign * val / wk[k]
    return out


def _ladder_kernel(kind, orders, s, h, omega, at):
    """value() of u and v for every order at points s of one kind, in spans (h,
    omega) that `at` maps them to.  Powers of s, the span factors, exponential
    sinh/cosh and the Taylor subtraction's closed forms at s = 0 are shared."""
    top = max(max(orders, default=0), 0)
    c, wk = np.zeros(len(h)), {}
    if kind != "linear":
        c = 1.0 / _each(math.sin if kind == "trigonometric" else math.sinh, omega * h)
        wk = {0: np.ones_like(omega), 1: omega}   # pow gives x**0 = 1 and x**1 = x exactly
        wk.update((k, _each(pow, omega, k)) for k in {*orders, *range(top + 1)} - {0, 1})
    pw = {0: np.ones_like(s), 1: s}
    pw.update((e, _each(pow, s, e)) for e in range(2, top + 2 if kind == "linear" else top))
    val = _closed_forms(kind, orders, s, pw, h[at], omega[at], c[at],
                        {k: w[at] for k, w in wk.items()})
    # minus the order-j closed forms at s = 0 times s**(k-j)/(k-j)!
    zpw = {e: np.full(len(h), float(e == 0)) for e in range(top + 2)}
    zero = _closed_forms(kind, range(1, top + 1), np.zeros(len(h)), zpw, h, omega, c, wk)
    for i, k in enumerate(orders):
        for j in range(1, k + 1):
            val[i] = val[i] - zero[j - 1][:, at] * pw[k - j] / _FACTORIAL[k - j]
    return val


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
    _scalar: dict = field(init=False, repr=False)   # (slot, order) -> _span_constants

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
        it), `order` may be a sequence and `which` "uv": one kernel pass gives
        an array shaped ([len(order),] [2,] *t.shape) whose entry [i, w] is
        value(slot, "uv"[w], order[i], t) bit for bit.  A scalar t reads the
        span's constants from a cache that the first call for (slot, order)
        fills; `tol` is checked on every call.
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
            s, ids = t - left, self._kind_ids[slot]
            out = np.empty((len(orders), 2, len(t)))
            for code in np.flatnonzero(np.bincount(ids, minlength=len(KINDS))).tolist():
                sel = ids == code
                used = np.bincount(slot[sel], minlength=self.n_spans) > 0
                spans, at = np.flatnonzero(used), (np.cumsum(used) - 1)[slot[sel]]
                h, omega = self.spans[spans, 1] - self.spans[spans, 0], self.omegas[spans]
                out[:, :, sel] = _ladder_kernel(KINDS[code], orders, s[sel], h, omega, at)
            out = out.reshape((len(orders), 2) + shape)
            out = out if which == "uv" else out[:, "uv".index(which)]
            return out if np.ndim(order) else out[0]
        u = which == "u"
        if not u and which != "v":
            raise ValueError("which must be 'u' or 'v'")
        slot, order = _index(slot), _index(order)   # so that 1.0 cannot find 1's entry
        entry = self._scalar.get((slot, order))
        if entry is None:
            entry = self._scalar[slot, order] = self._span_constants(slot, order)
        code, left, right, h, omega, c, cv, wk, shift, zeros_u, zeros_v, exps, facts = entry
        if type(t) is not float:
            t = _as_float(t)
        if t < left - tol or t > right + tol:
            raise OutOfInterval(f"t={t} outside [{left}, {right}]")
        # the closed form _pure_<kind>(which, order, s, h, omega), operation for operation
        s = t - left
        if code == _TRIGONOMETRIC:
            val = (c * math.sin(omega * s - shift) if u
                   else cv * math.sin(omega * (h - s) - shift)) / wk
        elif code == _EXPONENTIAL:
            g = math.cosh if order & 1 else math.sinh
            val = (c * g(omega * s) if u else cv * g(omega * (h - s))) / wk
        elif order >= 0:   # linear: c = (order+1)! h, wk = order!
            val = s ** (order + 1) / c
            if not u:
                val = s**order / wk - val if order else (h - s) / h
        else:
            val = 0.0 if order < -1 else 1.0 / h if u else -1.0 / h
        for zero, e, f in zip(zeros_u if u else zeros_v, exps, facts):
            val -= zero * s**e / f
        return val

    def _span_constants(self, slot, order):
        """What a scalar value() call reads of its span, as Python floats: the
        kind's index in KINDS, the ends, h, omega, the closed form's factors
        (c = 1/sin(omega*h) or 1/sinh(omega*h), cv = c * (-1)**order for v,
        wk = omega**order and shift = order*pi/2; for the linear kind
        c = (order+1)! h and wk = order!), the closed forms of orders 1..order
        at s = 0 for u and for v, and the Taylor subtraction's exponents and
        factorials, shared by every span."""
        left, right = self.spans[slot].tolist()
        kind, h, omega, k = self.kinds[slot], right - left, float(self.omegas[slot]), order
        if kind != "linear":
            c, wk = 1.0 / (math.sin if kind == "trigonometric" else math.sinh)(omega * h), omega**k
        else:
            c, wk = (math.factorial(k + 1) * h, float(math.factorial(k))) if k >= 0 else (0.0, 0.0)
        pure = _PURE[kind]
        zeros = [tuple(pure(which, j, 0.0, h, omega) for j in range(1, max(k, 0) + 1))
                 for which in "uv"]
        return (KINDS.index(kind), left, right, h, omega, c, c * (-1.0) ** k, wk,
                k * math.pi / 2, *zeros, *_taylor_terms(k))


@cache
def _taylor_terms(order):
    """Exponents order-1..0 and their factorials, as floats, for the Taylor
    subtraction of a scalar value() of this order."""
    exps = tuple(float(order - j) for j in range(1, max(order, 0) + 1))
    return exps, tuple(float(math.factorial(int(e))) for e in exps)


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
