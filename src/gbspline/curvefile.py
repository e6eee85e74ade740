"""JSON curve files.

Schema (all four fields required, nothing extra):

    {
      "degree": 4,
      "knots": [0.0, 0.0, ...],
      "families": [{"kind": "trigonometric", "omega": 1.5707963267948966}, ...],
      "control_points": [[x0, y0], [x1, y1], ...]
    }

`families` lists one entry per positive-length knot interval, in order;
`omega` may be omitted for the linear kind.  Control points are vectors of
a common dimension d >= 1, one per basis function.  Numbers round-trip
exactly (shortest form preserving all 17 significant digits).  Lists are read
whole, entry by entry only to name the first bad one; files are written in the
layout above, one line per field, and never with a non-finite number.
"""
from __future__ import annotations

import json
import math
import numbers
from itertools import chain

import numpy as np

from .errors import CurveFileError, GBSplineError
from .knots import KnotFunctionFamily, KnotVector, build_family, validate_open_knot_vector
from .poly import DEFAULT_TOL

_FIELDS = {"degree", "knots", "families", "control_points"}
_FAMILY_FIELDS = {"kind", "omega"}


def _real(x, what):
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise CurveFileError(f"{what} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise CurveFileError(f"{what} must be finite, got {x!r}")
    return value


def _reals(xs, what):
    """A list of parsed JSON values as a float array, or `_real`'s error."""
    try:
        if set(map(type, xs)) <= {int, float}:   # json gives bool its own type
            values = np.array(xs, dtype=float)
            if np.isfinite(values).all():
                return values
    except OverflowError:   # an integer beyond the float range
        pass
    for x in xs:
        _real(x, what)


def load_curve(path, tol=DEFAULT_TOL):
    """Read and validate a curve file.

    Returns (KnotVector, KnotFunctionFamily, control points shaped (n, d)).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CurveFileError(f"invalid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise CurveFileError("top level must be an object")
    extra = set(doc) - _FIELDS
    if extra:
        raise CurveFileError(f"unknown fields: {sorted(extra)}")
    missing = _FIELDS - set(doc)
    if missing:
        raise CurveFileError(f"missing fields: {sorted(missing)}")

    degree = doc["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise CurveFileError(f"degree must be an integer, got {degree!r}")
    if not isinstance(doc["knots"], list):
        raise CurveFileError("knots must be a list")
    knots = _reals(doc["knots"], "knot")

    if not isinstance(doc["families"], list):
        raise CurveFileError("families must be a list")
    kinds, omegas = [], []
    try:
        for entry in doc["families"]:
            if not isinstance(entry, dict):
                raise CurveFileError("each family entry must be an object")
            unknown = set(entry) - _FAMILY_FIELDS
            if unknown:
                raise CurveFileError(f"unknown family fields: {sorted(unknown)}")
            kind = entry.get("kind")
            if not isinstance(kind, str):
                raise CurveFileError("family kind must be a string")
            if "omega" not in entry and kind != "linear":
                raise CurveFileError(f"kind {kind!r} requires omega")
            kinds.append(kind)
            omegas.append(entry.get("omega", 1.0))
    finally:   # an omega error met before the bad entry is reported first
        omegas = _reals(omegas, "omega")

    raw = doc["control_points"]
    if not isinstance(raw, list) or not raw:
        raise CurveFileError("control_points must be a nonempty list")
    if not (set(map(type, raw)) == {list} and len(set(map(len, raw))) == 1 and raw[0]):
        for point in raw:   # raises at the first bad point, or at a bad number before it
            if not isinstance(point, list) or not point:
                raise CurveFileError("each control point must be a nonempty list")
            if len(point) != len(raw[0]):
                raise CurveFileError("control points must share one dimension")
            _reals(point, "control point component")
    cpts = _reals(list(chain.from_iterable(raw)), "control point component").reshape(len(raw), -1)

    try:
        kv = validate_open_knot_vector(knots, degree)
        fam = build_family(knots, kinds=tuple(kinds), omegas=omegas, tol=tol)
    except GBSplineError as exc:
        raise CurveFileError(str(exc)) from exc
    if len(cpts) != kv.n_basis:
        raise CurveFileError(
            f"expected {kv.n_basis} control points for {kv.m} knots of degree "
            f"{degree}, got {len(cpts)}")
    return kv, fam, cpts


def save_curve(path, kv: KnotVector, fam: KnotFunctionFamily, cpts):
    """Write a curve file; `cpts` may be (n,) or (n, d).  Non-finite numbers write nothing."""
    cpts = np.asarray(cpts, dtype=float)
    cpts = cpts[:, None] if cpts.ndim == 1 else cpts
    for what, rows in (("omega", fam.omegas[:, None]), ("control point", cpts)):
        for i in np.flatnonzero(~np.isfinite(rows).all(axis=1))[:1]:
            raise CurveFileError(f"{what} {i} must be finite, got {rows[i].tolist()}")
    doc = {"degree": int(kv.degree), "knots": kv.knots.tolist(),
           "families": [{"kind": k, "omega": w} for k, w in zip(fam.kinds, fam.omegas.tolist())],
           "control_points": cpts.tolist()}
    text = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + text + "\n}\n")
