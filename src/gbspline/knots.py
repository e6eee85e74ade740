"""Knot vectors and per-interval generator pairs with exact integral ladders.

A generator pair (u, v) lives on every knot interval of positive length:
u rises from 0 to 1 across the interval and v falls from 1 to 0.  Closed
forms exist for every integral and derivative order.  Repeated integrals
are taken from the interval's left endpoint, so every positive order
vanishes there; this canonical choice keeps all downstream bookkeeping
free of integration constants.

All types are immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    entry, from one search.  A t outside the breaks, or not finite, raises
    OutOfActiveRegion, naming the first such entry of an array.
    """
    if not isinstance(t, np.ndarray) or t.ndim == 0:
        if not breaks[0] <= t <= breaks[-1]:
            raise OutOfActiveRegion(f"t={t} outside [{breaks[0]}, {breaks[-1]}]")
        j = min(int(np.searchsorted(breaks, t, side="right")) - 1, len(breaks) - 2)
        return int(_positive_at_or_left(breaks, tol)[j]) if breaks[j + 1] - breaks[j] <= tol else j
    outside = np.flatnonzero(~((t >= breaks[0]) & (t <= breaks[-1])))
    if len(outside):
        i = int(outside[0])
        raise OutOfActiveRegion(f"t[{i}]={t.flat[i]} outside [{breaks[0]}, {breaks[-1]}]")
    j = np.minimum(np.searchsorted(breaks, t, side="right") - 1, len(breaks) - 2)
    return _positive_at_or_left(breaks, tol)[j]


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
        full = np.empty(shape, a.dtype)
        full[...] = a
        columns.append(full.ravel().tolist())
    return np.fromiter(map(fn, *columns), float, math.prod(shape)).reshape(shape)


def _pure_array(kind, which, k, s, h, omega, at):
    """_pure_<kind>, operation for operation, over (rows, n) arrays `s` with
    one integer order per row (`k`, shaped (rows, 1)).  `h` and `omega` hold
    one entry per span and `at` maps each column to its span, so factors of
    span and order alone (1/sin(omega*h) or 1/sinh(omega*h), omega**k) are
    computed once per span."""
    if kind == "linear":
        e = np.maximum(k, 0)
        rise = _each(pow, s, e + 1) / (_FACTORIAL[e + 1] * h)[:, at]
        if which == "u":
            return np.where(k >= 0, rise, np.where(k == -1, (1.0 / h)[at], 0.0))
        fall = _each(pow, s, e) / _FACTORIAL[e] - rise
        return np.where(k > 0, fall, np.where(k == 0, (h[at] - s) / h[at],
                                              np.where(k == -1, (-1.0 / h)[at], 0.0)))
    sign, x = (1.0, s) if which == "u" else (np.where(k % 2 == 0, 1.0, -1.0), h[at] - s)
    if kind == "trigonometric":
        c = (1.0 / _each(math.sin, omega * h))[at]
        g = _each(math.sin, omega[at] * x - k * math.pi / 2)
    else:
        c = (1.0 / _each(math.sinh, omega * h))[at]
        arg, odd = omega[at] * x, np.broadcast_to(k % 2 == 1, s.shape)
        g = np.empty(arg.shape)
        g[~odd], g[odd] = _each(math.sinh, arg[~odd]), _each(math.cosh, arg[odd])
    return c * sign * g / _each(pow, omega, k)[:, at]


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

    def __post_init__(self):
        object.__setattr__(self, "_kind_ids",
                           readonly([KINDS.index(k) for k in self.kinds], dtype=int))

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def value(self, slot, which, order, t, tol=DEFAULT_TOL):
        """Canonical ladder value of generator `which` at global parameter t.

        order 0 is the generator itself, positive orders are repeated
        integrals from the interval's left endpoint, negative orders are
        derivatives.  With an array `t` (and `slot` broadcasting against
        it) every entry equals the scalar call bit for bit.
        """
        if which not in ("u", "v"):
            raise ValueError("which must be 'u' or 'v'")
        if isinstance(t, np.ndarray):
            return self._values(slot, which, order, t, tol)
        left, right = self.spans[slot]
        if t < left - tol or t > right + tol:
            raise OutOfInterval(f"t={t} outside [{left}, {right}]")
        h = right - left
        s = t - left
        pure = _PURE[self.kinds[slot]]
        omega = float(self.omegas[slot])
        val = pure(which, order, s, h, omega)
        for j in range(1, max(order, 0) + 1):
            val -= pure(which, j, 0.0, h, omega) * s ** (order - j) / math.factorial(order - j)
        return val

    def _values(self, slot, which, order, t, tol):
        shape = t.shape
        slot, t = np.broadcast_to(slot, shape).ravel(), t.astype(float).ravel()
        left, right = self.spans[slot].T
        outside = np.flatnonzero((t < left - tol) | (t > right + tol))
        if len(outside):
            i = outside[0]
            raise OutOfInterval(f"t={t[i]} outside [{left[i]}, {right[i]}]")
        s, ids = t - left, self._kind_ids[slot]
        val = np.empty(len(t))
        for code in np.flatnonzero(np.bincount(ids, minlength=len(KINDS))).tolist():
            sel = ids == code
            used = np.zeros(self.n_spans, dtype=bool)
            used[slot[sel]] = True
            spans, at = np.flatnonzero(used), (np.cumsum(used) - 1)[slot[sel]]
            h, omega = self.spans[spans, 1] - self.spans[spans, 0], self.omegas[spans]
            v = _pure_array(KINDS[code], which, np.array([[order]]), s[None, sel], h, omega, at)[0]
            if order > 0:   # minus the order-j closed forms at s = 0 times s**(order-j)/(order-j)!
                j = np.arange(1, order + 1)[:, None]
                zero = _pure_array(KINDS[code], which, j, np.zeros((order, len(spans))), h, omega,
                                   np.arange(len(spans)))
                e = order - j
                for term in zero[:, at] * _each(pow, s[None, sel], e) / _FACTORIAL[e]:
                    v = v - term
            val[sel] = v
        return val.reshape(shape)


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
    One array `fam.value` call per order and generator covers every target.
    """
    if derivative_offset < 0:
        raise ValueError("derivative_offset must be nonnegative")
    br = np.asarray(breakpoints, dtype=float)
    slots = containing_spans(fam.spans, br, tol)
    live = np.flatnonzero(slots >= 0)
    ends = np.stack([br[live], br[live + 1]], axis=1)
    out = np.zeros((max_order + 1, len(slots), 2, 2))
    for k in range(max_order + 1):
        for w, which in enumerate("uv"):
            out[k, live, :, w] = fam.value(slots[live, None], which, k - derivative_offset,
                                           ends, tol)
    return out
