"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions and methods of each vkit layer from
the outside; no file of the program changes.  A wrapped function is also
rebound wherever another vkit module imported it by name or holds it in a
registry (``GENERATORS``, ``ALL_CHECKS``), and every binding is restored
by :meth:`Recorder.uninstall`.

A span is ``(op, name, start, end, parent)``; spans stay in memory and
are written out once at the end.  A span's self time is its duration
minus the durations of its direct children, so the self times of all
spans of an op add up to the op's root span (``cli.main``).
"""

from __future__ import annotations

import csv
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPANNED = {
    "cli": ("vkit.cli", ["main", "cmd_persist", "cmd_straighten", "cmd_verify"]),
    "metric": ("vkit.metric", ["load_space_csv", "space_from_points", "validate_metric"]),
    "complexes": ("vkit.complexes", ["build_vr", "build_cech", "build_vietoris"]),
    "persistence": ("vkit.persistence", ["compute_diagram", "betti_at", "diagram_distance"]),
    "plots": ("vkit.plots", ["persistence_diagram_svg"]),
    "measures": ("vkit.measures", ["wasserstein", "mix"]),
    "oracles": ("vkit.oracles", ["wasserstein_bruteforce", "vr_subset_scan",
                                 "cech_subset_scan"]),
    "thickening": ("vkit.thickening", ["pump", "pump_homotopy", "build_bump",
                                       "shrink_to_inner", "compare_metrics"]),
    "fk": ("vkit.fk", ["FKTriangulation.simplices_containing_fraction"]),
    "generators": ("vkit.generators", ["constant_map", "sliding_dirac_map",
                                       "two_ball_map", "spread_map"]),
    "straightening": ("vkit.straightening", ["straighten", "label_simplices",
                                             "pump_vertex", "linearize"]),
    "verify": ("vkit.verify", ["run_all"]),
}
LAYERS = tuple(SPANNED)
ROOT = "cli.main"


def _count_columns(args, kwargs, result):
    K = args[0] if args else kwargs["K"]
    max_dim = args[1] if len(args) > 1 else kwargs["max_dim"]
    return {"persistence.columns": sum(1 for s in K.simplices if len(s) <= max_dim + 2),
            "persistence.intervals": len(result.intervals)}


def _count_complex(args, kwargs, result):
    return {"complexes.simplices": len(result.simplices),
            "complexes.simplices_d2": sum(1 for s in result.simplices if len(s) == 3)}


def _count_straighten(args, kwargs, result):
    gmap, log = result
    return {"straightening.records": len(log.records),
            "straightening.resolution_sum": gmap.tri.p,
            "straightening.resolved": 1}


# Counters read from a span's arguments and result after its op has ended,
# so counting adds nothing to any span.
COUNTERS = {
    "persistence.compute_diagram": _count_columns,
    "complexes.build_vr": _count_complex,
    "complexes.build_cech": _count_complex,
    "metric.load_space_csv": lambda a, k, r: {"metric.points": r.n_points},
    "straightening.straighten": _count_straighten,
}


class Recorder:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, stack[-1] if stack else -1)
            if counter is not None:
                self._pending.append((counter, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, setter, target, key, old, new):
        setter(target, key, new)
        self._undo.append((setter, target, key, old))

    def _rebind(self, old, new):
        """Point every vkit name and registry entry bound to ``old`` at ``new``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "vkit" and not modname.startswith("vkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(setattr, mod, attr, old, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is old:
                            self._set(dict.__setitem__, value, key, old, new)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, tuple) and any(x is old for x in item):
                            swapped = tuple(new if x is old else x for x in item)
                            self._set(list.__setitem__, value, i, item, swapped)

    def install(self):
        for layer, (modname, attrs) in SPANNED.items():
            mod = sys.modules[modname]
            for attr in attrs:
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    old = cls.__dict__[meth]
                    self._set(setattr, cls, meth, old, self._span(name, old))
                else:
                    old = getattr(mod, attr)
                    self._rebind(old, self._span(name, old))
        for check, fn in list(sys.modules["vkit.verify"].ALL_CHECKS):
            self._rebind(fn, self._span(f"verify.check.{check}", fn))
        measure = sys.modules["vkit.measures"].FiniteMeasure
        old = measure.__dict__["__post_init__"]
        self._set(setattr, measure, "__post_init__", old,
                  self._counting("measures.constructed", old))

    def uninstall(self):
        while self._undo:
            setter, target, key, old = self._undo.pop()
            setter(target, key, old)

    # -- per op ------------------------------------------------------------

    def end_op(self):
        """Evaluate the counters of the op that just ended, outside any span,
        and move on to the next op id."""
        for counter, args, kwargs, result in self._pending:
            for key, value in counter(args, kwargs, result).items():
                self.counts[key] += value
        self._pending.clear()
        self.op += 1

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "name", "start", "end", "parent"])
            out.writerows(self.spans)

    # -- metrics -----------------------------------------------------------

    def metrics(self, n_ops: int, check_names: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, times and counts per op."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        w1_calls = []
        for op, name, start, end, parent in self.spans:
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            if name == "measures.wasserstein":
                w1_calls.append(dur)
        self_by_layer = defaultdict(float)
        self_by_name = defaultdict(float)
        for idx, (op, name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[idx]
            self_by_layer[name.split(".")[0]] += own
            self_by_name[name] += own
        c = self.counts
        per_op = lambda x: x / n_ops
        s = lambda *names: per_op(sum(incl[n] for n in names))
        m = {
            "cli.op_s": (s(ROOT), "s/op"),
            "cli.self_s": (per_op(self_by_layer["cli"]), "s/op"),
            "metric.load_s": (s("metric.load_space_csv"), "s/op"),
            "metric.validate_s": (s("metric.validate_metric"), "s/op"),
            "metric.points": (per_op(c["metric.points"]), "count/op"),
            "complexes.build_s": (s("complexes.build_vr", "complexes.build_cech",
                                    "complexes.build_vietoris"), "s/op"),
            "complexes.simplices": (per_op(c["complexes.simplices"]), "count/op"),
            "complexes.simplices_d2": (per_op(c["complexes.simplices_d2"]), "count/op"),
            "persistence.reduce_s": (s("persistence.compute_diagram"), "s/op"),
            "persistence.columns": (per_op(c["persistence.columns"]), "count/op"),
            "persistence.intervals": (per_op(c["persistence.intervals"]), "count/op"),
            "persistence.betti_s": (s("persistence.betti_at"), "s/op"),
            "persistence.bottleneck_s": (s("persistence.diagram_distance"), "s/op"),
            "persistence.bottleneck_calls": (per_op(calls["persistence.diagram_distance"]),
                                             "count/op"),
            "plots.svg_s": (s("plots.persistence_diagram_svg"), "s/op"),
            "measures.w1_s": (s("measures.wasserstein"), "s/op"),
            "measures.w1_calls": (per_op(calls["measures.wasserstein"]), "count/op"),
            "measures.w1_call_p50_s": (statistics.median(w1_calls) if w1_calls else 0.0,
                                       "s"),
            "measures.mix_s": (s("measures.mix"), "s/op"),
            "measures.mix_calls": (per_op(calls["measures.mix"]), "count/op"),
            "measures.constructed": (per_op(c["measures.constructed"]), "count/op"),
            "oracles.w1_s": (s("oracles.wasserstein_bruteforce"), "s/op"),
            "oracles.subset_scan_s": (s("oracles.vr_subset_scan", "oracles.cech_subset_scan"),
                                      "s/op"),
            "thickening.pump_s": (s("thickening.pump"), "s/op"),
            "thickening.pump_calls": (per_op(calls["thickening.pump"]), "count/op"),
            "fk.containing_s": (s("fk.simplices_containing_fraction"), "s/op"),
            "fk.containing_calls": (per_op(calls["fk.simplices_containing_fraction"]),
                                    "count/op"),
            "generators.sample_s": (s("generators.constant_map", "generators.sliding_dirac_map",
                                      "generators.two_ball_map", "generators.spread_map"),
                                    "s/op"),
            "straightening.label_s": (s("straightening.label_simplices"), "s/op"),
            "straightening.pump_vertex_s": (s("straightening.pump_vertex"), "s/op"),
            "straightening.linearize_s": (s("straightening.linearize"), "s/op"),
            "straightening.self_s": (per_op(self_by_name["straightening.straighten"]), "s/op"),
            "straightening.records": (per_op(c["straightening.records"]), "count/op"),
            "straightening.resolution": (
                c["straightening.resolution_sum"] / c["straightening.resolved"]
                if c["straightening.resolved"] else 0.0, "cells"),
        }
        for check in check_names:
            m[f"verify.check_s.{check}"] = (s(f"verify.check.{check}"), "s/op")
        for layer in LAYERS:
            m[f"self.{layer}_s"] = (per_op(self_by_layer[layer]), "s/op")
        return m
