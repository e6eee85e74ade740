"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each listed function wherever a module of the
package binds it (and each listed method on its class) with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began.  Spans are kept in flat arrays in memory; ``summary`` turns
them into per-name call counts, inclusive time and self time, where self
time is a span's duration minus the durations of its direct children.
``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute); "Class.method" patches the class
LAYERS = (
    ("knots.value", "gbspline.knots", "KnotFunctionFamily.value"),
    ("knots.build_integral_table", "gbspline.knots", "build_integral_table"),
    ("poly.restrict_poly", "gbspline.poly", "restrict_poly"),
    ("basis.build_local_basis", "gbspline.basis", "build_local_basis"),
    ("basis.nonzero_basis_values", "gbspline.basis", "nonzero_basis_values"),
    ("basis.eval_curve", "gbspline.basis", "eval_curve"),
    ("basis.form_piecewise", "gbspline.basis", "form_piecewise"),
    ("basis.reverse_diagonal_averages", "gbspline.basis", "reverse_diagonal_averages"),
    ("basis.piecewise_value", "gbspline.basis", "PiecewiseCurve.value"),
    ("refine.derive_family", "gbspline.refine", "derive_family"),
    ("refine.refine_local", "gbspline.refine", "refine_local"),
    ("refine.represent_knot_funcs", "gbspline.refine", "represent_knot_funcs"),
    ("refine.refine_curve", "gbspline.refine", "refine_curve"),
    ("refine.refined_spline", "gbspline.refine", "refined_spline"),
    ("refine.greville_abscissae", "gbspline.refine", "greville_abscissae"),
    ("curvefile.load_curve", "gbspline.curvefile", "load_curve"),
    ("curvefile.save_curve", "gbspline.curvefile", "save_curve"),
    ("cli.main", "gbspline.cli", "main"),
)

OP = "op"   # root span of one benchmark operation


class Tracer:
    def __init__(self):
        self.names = [OP] + [name for name, _, _ in LAYERS]
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = []
        self._undo = []

    def _wrap(self, name_id, fn):
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return functools.wraps(fn)(traced)

    def span(self, fn):
        """Run `fn` as the root span of one operation."""
        return self._wrap(0, fn)()

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gbspline" or key.startswith("gbspline."))]
        for name_id, (_, module_name, attr) in enumerate(LAYERS, start=1):
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name_id, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.starts, dtype=np.int64),
                np.frombuffer(self.ends, dtype=np.int64),
                np.frombuffer(self.parents, dtype=np.int64))

    def summary(self):
        """{name: {"calls", "ms", "self_ms"}} over every recorded span."""
        ids, starts, ends, parents = self.arrays()
        dur = (ends - starts).astype(float)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        count = len(self.names)
        calls = np.bincount(ids, minlength=count)
        total = np.bincount(ids, weights=dur, minlength=count)
        own = np.bincount(ids, weights=dur - child, minlength=count)
        return {name: {"calls": int(calls[i]), "ms": total[i] / 1e6, "self_ms": own[i] / 1e6}
                for i, name in enumerate(self.names)}

    def save(self, path):
        ids, starts, ends, parents = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            start_ns=starts, end_ns=ends, parent=parents)
