"""Spans around rentdiv's module boundaries, recorded from outside.

Tracer.install wraps the functions named in TARGETS wherever the package
holds a reference to them (modules import each other's functions by name, so
every module namespace that binds the same object is patched, as are class
attributes for methods). Each call records one span (name, start, end,
parent span) in memory; nothing is written until `write` at the end.

A name that no longer exists is skipped and listed in `skipped`, so that
refactors of the package keep the traced run working.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# module -> qualified names to wrap ("Class.method" for methods).
TARGETS = {
    "matching": ["max_welfare_assignment", "all_max_welfare_assignments",
                 "assignment_welfare"],
    "ef_base": ["initial_ef_allocation", "shift_rents"],
    "dynamics": ["EventEngine.scan", "EventEngine.weak_strong_adjacency"],
    "envy": ["build_envy_graph", "build_budget_graph", "scc_partition",
             "find_cycle_through", "reachable", "co_reachable", "_closure"],
    "budgets": ["combined_solve", "budget_aware_ef", "scc_max_rent",
                "build_subproblem"],
    "bounds": ["ef_rents_with_bounds", "maximin_rents", "leximin_rents",
               "minspread_rents"],
    "model": ["make_instance", "validate_instance", "check_envy_free",
              "check_constraints", "utilities"],
    "oracle": ["oracle_solve", "lp_solve"],
    "cli": ["load_json", "parse_instance", "outcome_to_json", "_emit",
            "cmd_verify"],
}

# Per-layer self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "matching.self_s": ["matching.max_welfare_assignment",
                        "matching.all_max_welfare_assignments",
                        "matching.assignment_welfare"],
    "matching.enumerate_self_s": ["matching.all_max_welfare_assignments"],
    "ef_base.self_s": ["ef_base.initial_ef_allocation", "ef_base.shift_rents"],
    "dynamics.scan_self_s": ["dynamics.EventEngine.scan"],
    "dynamics.adjacency_self_s": ["dynamics.EventEngine.weak_strong_adjacency"],
    "envy.self_s": [f"envy.{f}" for f in TARGETS["envy"]],
    "budgets.self_s": [f"budgets.{f}" for f in TARGETS["budgets"]],
    "bounds.repair_self_s": ["bounds.ef_rents_with_bounds"],
    "bounds.objective_self_s": ["bounds.maximin_rents", "bounds.leximin_rents",
                                "bounds.minspread_rents"],
    "model.check_self_s": ["model.check_envy_free", "model.check_constraints",
                           "model.utilities"],
    "model.validate_self_s": ["model.make_instance", "model.validate_instance"],
    "oracle.self_s": ["oracle.oracle_solve", "oracle.lp_solve"],
    "cli.parse_self_s": ["cli.load_json", "cli.parse_instance"],
    "cli.emit_self_s": ["cli.outcome_to_json", "cli._emit"],
    "cli.verify_self_s": ["cli.cmd_verify"],
}

# Per-layer call counts: metric -> span names counted.
CALLS = {
    "dynamics.scans": ["dynamics.EventEngine.scan"],
    "dynamics.adjacency_builds": ["dynamics.EventEngine.weak_strong_adjacency"],
    "budgets.components": ["budgets.scc_max_rent"],
    "model.ef_checks": ["model.check_envy_free"],
    "oracle.lp_solves": ["oracle.lp_solve"],
}


def _namespaces(package):
    prefix = package.__name__ + "."
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__
                                  or key.startswith(prefix))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, note]
        self._stack = []
        self._undo = []
        self.skipped = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def replace(self, package, module_name, attr, make):
        """Swap module_name.attr for make(original) wherever the package
        binds it; a name that is gone is recorded in `skipped`."""
        module = sys.modules.get(f"{package.__name__}.{module_name}")
        original = getattr(module, attr, None)
        if callable(original):
            self._patch_everywhere(_namespaces(package), original,
                                   make(original))
        else:
            self.skipped.append(f"{module_name}.{attr}")

    def install(self, package, notes=None):
        """Wrap every target that exists; record the rest in `skipped`."""
        notes = notes or {}
        prefix = package.__name__ + "."
        namespaces = _namespaces(package)
        for module_name, names in TARGETS.items():
            module = sys.modules.get(prefix + module_name)
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner else None
                if not callable(original):
                    self.skipped.append(f"{module_name}.{qualname}")
                    continue
                span_name = f"{module_name}.{qualname}"
                wrapper = self._wrap(span_name, original, notes.get(span_name))
                if owner is module:
                    self._patch_everywhere(namespaces, original, wrapper)
                else:
                    self._patch(owner, attr, wrapper)

    def _patch_everywhere(self, namespaces, original, replacement):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, key, replacement)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self):
        """Self time per span name: duration minus the time its direct
        children cover (calls within one thread never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def counts(self):
        return Counter(span[0] for span in self.spans)

    def notes(self, name):
        return [span[4] for span in self.spans
                if span[0] == name and span[4] is not None]

    def layer_metrics(self):
        own = self.self_times()
        calls = self.counts()
        metrics = {m: sum(own.get(n, 0.0) for n in names)
                   for m, names in SELF_TIME.items()}
        metrics.update({m: sum(calls.get(n, 0) for n in names)
                        for m, names in CALLS.items()})
        return metrics

    def write(self, path, meta):
        """Write every span once, at the end: a name table plus rows of
        [name index, start, end, parent]."""
        names = sorted({span[0] for span in self.spans})
        index = {name: k for k, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, skipped=self.skipped, names=names,
                   spans=[[index[s[0]], round(s[1] - t0, 7),
                           round(s[2] - t0, 7), s[3]] for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
