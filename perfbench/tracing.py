"""Spans and counters recorded by wrappers around `drinfeld_cm` entry points.

The program itself is not instrumented: `installed(tracer)` replaces each
traced function or method for the duration of a `with` block, both where it
is defined and wherever another module holds it under an imported name
(for example `brownval.enumerate_points`).  Spans are kept in compact
arrays in memory and written out when the run ends; self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "ffield", "polyring", "laurent", "quadfield", "cmpoints", "modforms", "brownval",
    "classno", "certlog", "bounds", "sweeps", "verify", "cli",
)  # fmt: skip

# (module, attribute path, span name); a dotted path names a method
SPANS = (
    ("laurent", "LaurentSeries.__mul__", "laurent.mul"),
    ("laurent", "LaurentSeries.inverse", "laurent.inverse"),
    ("laurent", "pi_power_qm1", "laurent.pi_power_qm1"),
    ("modforms", "EvalContext.__init__", "modforms.EvalContext.init"),
    ("modforms", "eval_j", "modforms.eval_j"),
    ("modforms", "hilbert_poly", "modforms.hilbert_poly"),
    ("quadfield", "QuadSeries.__mul__", "quadfield.QuadSeries.mul"),
    ("quadfield", "embed", "quadfield.embed"),
    ("brownval", "moduli_of", "brownval.moduli_of"),
    ("cmpoints", "enumerate_points", "cmpoints.enumerate_points"),
    ("classno", "l_route", "classno.l_route"),
    ("classno", "class_number_by_conductor", "classno.class_number_by_conductor"),
    ("polyring", "factor", "polyring.factor"),
    ("polyring", "Poly.__divmod__", "polyring.Poly.divmod"),
    ("polyring", "Poly.__mul__", "polyring.Poly.mul"),
    ("polyring", "spf_table", "polyring.spf_table"),
    ("polyring", "factor_with_spf", "polyring.factor_with_spf"),
    ("certlog", "ln", "certlog.ln"),
    ("bounds", "lower_bounds_h", "bounds.lower_bounds_h"),
    ("sweeps", "order_report", "sweeps.order_report"),
    ("verify", "check_analytic_lemmas", "verify.check_analytic_lemmas"),
    ("verify", "check_counting_lemmas", "verify.check_counting_lemmas"),
    ("cli", "main", "cli.main"),
)

# call counters without spans: these run millions of times per op
COUNTS = (
    ("laurent", "LaurentSeries.__init__", "laurent.series_built"),
    ("ffield", "FieldDesc.add", "ffield.FieldDesc.add.calls"),
    ("ffield", "FieldDesc.mul", "ffield.FieldDesc.mul.calls"),
)

OP = "op"  # the benchmark's own root span around one op

LAYERS = {
    "arithmetic": ("ffield", "polyring"),
    "series": ("laurent", "quadfield"),
    "cm": ("cmpoints", "modforms", "brownval"),
    "invariants": ("classno", "certlog", "bounds"),
    "drivers": ("sweeps", "verify", "cli"),
}

_RATIO_METRICS = (
    ("laurent.mul.coeff_ops", "count"),
    ("modforms.eval_j.a_terms", "count"),
    ("brownval.evals_per_modulus", "ratio"),
    ("cmpoints.points", "count"),
    ("polyring.factor.repeat_ratio", "ratio"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name of the traced report with its unit."""
    units = {}
    for _, _, name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for _, _, name in COUNTS:
        units[name] = "count"
    units.update(_RATIO_METRICS)
    units["layers.laurent_modforms.share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Span store plus the derived counters of the traced functions."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter recorded so far (after a warm-up)."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list = []
        self.op_id = -1
        self.counts: dict = {name: 0 for _, _, name in COUNTS}
        self.coeff_ops = 0
        self.a_terms = 0
        self.points = 0
        self.moduli: dict = {}  # order key -> distinct moduli returned
        self.factor_seen: set = set()
        self.factor_repeats = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        return self.span(OP, fn)(*args)

    # -- derived counters ------------------------------------------------------

    def _mul_coeff_ops(self, args, kwargs):
        # s^2 * La * Lb after the truncation LaurentSeries.__mul__ applies
        a, b = args[0], args[1]
        la, lb = a.comps.shape[1], b.comps.shape[1]
        if not la or not lb:
            return
        rel = [x.prec - x.n0 for x in (a, b) if x.prec is not None]
        lout = la + lb - 1
        if rel:
            lout = min(lout, min(rel))
        if lout <= 0:
            return
        s = a.field.s
        self.coeff_ops += s * s * min(la, lout) * min(lb, lout)

    def _eval_j_terms(self, args, kwargs, result):
        q = args[0].order.field.q
        self.a_terms += (q ** (result.plan["max_deg_a"] + 1) - 1) // (q - 1)

    def _moduli(self, args, kwargs, result):
        order = args[0]
        self.moduli[(order.field.key(), order.f.coeffs)] = len(result)

    def _points(self, args, kwargs, result):
        self.points += len(result)

    def _factor_seen(self, args, kwargs):
        a = args[0]
        seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
        key = (a.field, a.coeffs, seed)
        if key in self.factor_seen:
            self.factor_repeats += 1
        else:
            self.factor_seen.add(key)

    def hooks(self, name: str) -> dict:
        return {
            "laurent.mul": {"before": self._mul_coeff_ops},
            "modforms.eval_j": {"after": self._eval_j_terms},
            "brownval.moduli_of": {"after": self._moduli},
            "cmpoints.enumerate_points": {"after": self._points},
            "polyring.factor": {"before": self._factor_seen},
        }.get(name, {})

    # -- report ------------------------------------------------------------------

    def self_times(self):
        """(name id, duration, self time) of every span, as numpy arrays."""
        name = np.asarray(self.name, dtype=np.int32)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child

    def metrics(self) -> tuple:
        """(per-layer metric values, total op seconds, op count, self seconds per span name)."""
        name, dur, self_s = self.self_times()
        by_name = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            by_name[label] = (int(mask.sum()), float(self_s[mask].sum()))
        op_calls, _ = by_name.get(OP, (0, 0.0))
        op_id = self.name_id(OP)
        op_time = float(dur[name == op_id].sum())
        out = {}
        for _, _, label in SPANS:
            calls, secs = by_name.get(label, (0, 0.0))
            out[f"{label}.calls"] = calls
            out[f"{label}.self_s"] = secs
        out.update(self.counts)
        out["laurent.mul.coeff_ops"] = self.coeff_ops
        out["modforms.eval_j.a_terms"] = self.a_terms
        distinct = sum(self.moduli.values())
        out["brownval.evals_per_modulus"] = out["modforms.eval_j.calls"] / distinct if distinct else 0.0
        out["cmpoints.points"] = self.points
        fcalls = out["polyring.factor.calls"]
        out["polyring.factor.repeat_ratio"] = self.factor_repeats / fcalls if fcalls else 0.0
        lm = sum(secs for label, (_, secs) in by_name.items() if label.startswith(("laurent.", "modforms.")))
        out["layers.laurent_modforms.share"] = lm / op_time if op_time else 0.0
        return out, op_time, op_calls, by_name

    def save(self, path) -> None:
        """Write every span (name id, start, end, parent, op id) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.asarray(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
        )


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"drinfeld_cm.{module}")
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    mods = [importlib.import_module(f"drinfeld_cm.{m}") for m in MODULES]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for module, path, label in SPANS + COUNTS:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        if any(label == c[2] for c in COUNTS):
            wrapper = tracer.counter(label, original)
        else:
            wrapper = tracer.span(label, original, **tracer.hooks(label))
        patch(owner, attr, wrapper)
        if "." not in path:
            # names other modules imported with `from .x import f`
            for m in mods:
                if m is not owner and m.__dict__.get(attr) is original:
                    patch(m, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
