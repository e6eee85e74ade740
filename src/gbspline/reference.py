"""Reference evaluation straight from the recursive-integral definition.

Test-only ground truth: generators from their definition and every integral
through adaptive Simpson quadrature, never the production path's ladder
values.  Cost grows steeply with degree; keep degree <= 4.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DepthExceeded
from .knots import KnotFunctionFamily
from .poly import DEFAULT_TOL


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")


def adaptive_simpson(f, a, b, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Integrate f over [a, b] to cfg.abs_tol by recursive bisection."""
    if b <= a:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, b, fa, fm, fb, whole, cfg.abs_tol, cfg.max_depth)


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    # the 1e-15 floor stops subdivision chasing floating-point noise once the
    # per-panel tolerance has been halved below machine resolution
    if abs(err) <= max(tol, 1e-15) or m <= a or b <= m:
        return left + right + err
    if depth <= 0:
        raise DepthExceeded(
            f"quadrature stalled on [{a}, {b}] (error estimate {err:.2e})")
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


class ReferenceEvaluator:
    """Evaluates basis functions by quadrature over the defining recursion.

    Degree 1 is the generator hat; each higher degree is the difference of
    two normalized running integrals, with a vanishing normalization area
    handled as a unit step at the right end of the lower function's support.
    Accepts any nondecreasing knot sequence (openness not required) and
    memoizes values, per-interval integrals, and areas per (function, degree).
    """

    def __init__(self, knots, fam: KnotFunctionFamily, cfg=None, tol=DEFAULT_TOL):
        self.knots = np.asarray(knots, dtype=float)
        self._knots, self._slots = self.knots.tolist(), fam.slots.tolist()   # Python types
        self._spans, self._omegas = fam.spans.tolist(), fam.omegas.tolist()
        self.fam = fam
        self.cfg = cfg if cfg is not None else QuadratureConfig()
        self.tol = tol
        self._vals: dict = {}
        self._ints: dict = {}
        self._areas: dict = {}

    def basis_value(self, i, p, t) -> float:
        knots = self._knots
        m = len(knots)
        # the final nonzero function takes the value 1 at the last knot
        if (i == m - p - 2 and t == knots[m - 1]
                and knots[m - p - 1] == knots[m - 1]
                and knots[m - p - 2] != knots[m - p - 1]):
            return 1.0
        if p == 1:
            return self._seed(i, t)
        memo = self._vals.setdefault((i, p), {})
        if t not in memo:
            memo[t] = self._phi(i, p - 1, t) - self._phi(i + 1, p - 1, t)
        return memo[t]

    def _seed(self, i, t):
        """Degree-1 function i at t from the generators' definition: span i's
        u = G(omega s)/G(omega h), then span i+1's v = G(omega (h - s))/G(omega h),
        s = t - left, G = sin or sinh; s/h and 1 - s/h on the linear kind.
        t belongs to the knot interval holding it, the last one closed; inside
        a run of intervals no longer than tol, to the longer one on its left."""
        knots, tol = self._knots, self.tol
        j = min(bisect_right(knots, t), len(knots) - 1) - 1   # -1 left of the knots
        while j > 0 and not knots[j + 1] - knots[j] > tol:
            j -= 1
        if t > knots[-1] or j - i not in (0, 1) or not knots[j + 1] - knots[j] > tol:
            return 0.0
        slot, rising = self._slots[j], j == i
        (left, right), omega, kind = self._spans[slot], self._omegas[slot], self.fam.kinds[slot]
        s, h = t - left, right - left
        if kind == "linear":
            return s / h if rising else 1.0 - s / h
        g = math.sin if kind == "trigonometric" else math.sinh
        return g(omega * (s if rising else h - s)) / g(omega * h)

    def _phi(self, i, p, t):
        d = self.delta(i, p)
        knots = self._knots
        if d == 0.0:
            return 0.0 if t < knots[i + p + 1] else 1.0
        if t <= knots[i]:
            return 0.0
        if t >= knots[i + p + 1]:
            return 1.0
        ints = self._interval_integrals(i, p)
        j = min(bisect_right(knots, t) - 1, i + p)
        acc = float(np.sum(ints[: j - i]))
        if t > knots[j]:
            acc += self._integrate(i, p, knots[j], t)
        return acc / d

    def _integrate(self, i, p, a, b):
        # step branches can make the integrand jump exactly at a knot; the
        # integral ignores that point, so take the left limit at b
        b_in = math.nextafter(b, a)
        return adaptive_simpson(
            lambda s: self.basis_value(i, p, s if s < b else b_in), a, b, self.cfg)

    def _interval_integrals(self, i, p):
        key = (i, p)
        if key not in self._ints:
            knots = self._knots
            vals = np.zeros(p + 1)
            for c in range(p + 1):
                a, b = knots[i + c], knots[i + c + 1]
                if b - a > self.tol:
                    vals[c] = self._integrate(i, p, a, b)
            self._ints[key] = vals
        return self._ints[key]

    def delta(self, i, p) -> float:
        """Integral of basis function (i, p) over its support."""
        key = (i, p)
        if key not in self._areas:
            if self._knots[i + p + 1] - self._knots[i] <= self.tol:
                self._areas[key] = 0.0
            else:
                self._areas[key] = float(np.sum(self._interval_integrals(i, p)))
        return self._areas[key]

