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
exactly (shortest form preserving all 17 significant digits).
"""
from __future__ import annotations

import json
import math
import numbers

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
    knots = [_real(x, "knot") for x in doc["knots"]]

    if not isinstance(doc["families"], list):
        raise CurveFileError("families must be a list")
    kinds, omegas = [], []
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
        omegas.append(_real(entry.get("omega", 1.0), "omega"))

    raw = doc["control_points"]
    if not isinstance(raw, list) or not raw:
        raise CurveFileError("control_points must be a nonempty list")
    rows = []
    dim = None
    for point in raw:
        if not isinstance(point, list) or not point:
            raise CurveFileError("each control point must be a nonempty list")
        if dim is None:
            dim = len(point)
        elif len(point) != dim:
            raise CurveFileError("control points must share one dimension")
        rows.append([_real(x, "control point component") for x in point])
    cpts = np.array(rows, dtype=float)

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
    """Write a curve file; `cpts` may be (n,) or (n, d)."""
    cpts = np.asarray(cpts, dtype=float)
    if cpts.ndim == 1:
        cpts = cpts[:, None]
    families = [{"kind": fam.kinds[s], "omega": float(fam.omegas[s])}
                for s in range(fam.n_spans)]
    doc = {
        "degree": int(kv.degree),
        "knots": [float(x) for x in kv.knots],
        "families": families,
        "control_points": [[float(x) for x in row] for row in cpts],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
