"""Spans and counters around the public seams of each quc layer.

A span is (name, start, end, parent): the wrapper that records it knows
which span was open when the call began, so nested calls form a tree.
Spans stay in memory and are summarised when the traced run ends.  Each
layer metric is derived from the spans and counters of its seams:

- ``<span>_s``: inclusive time of the span name, counting only calls that
  are not nested inside another call of the same name;
- ``<span>_self_s``: that time minus the time covered by child spans;
- ``<span>_calls``: the number of calls;
- counters named after the quantity they add up (points, bytes, ...).

A seam whose target is missing from the installed ``quc`` (a function that
was renamed or removed) is skipped, and every metric that depends on it is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

LEAF_CLASSES = ("PowerIntegrand", "AnisotropicQuadratic", "UhlenbeckIntegrand",
                "FinslerIntegrand", "BlendIntegrand")
QC_ANALYSIS = ("estimate_H", "measure_delta_monotonicity", "quasisymmetry_check",
               "eta_identities_check")
CHECKS = {"caccioppoli_check": "caccioppoli", "caccioppoli_l1_check": "caccioppoli_l1",
          "sobolev_stress_check": "sobolev", "lipschitz_check": "lipschitz"}


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._open = [-1]
        self.present = set()     # span names with at least one seam installed
        self.missing = set()     # seams whose target does not exist

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string, or a function of (args, kwargs) returning one
        of the strings in its ``names`` attribute;
        ``count(counters, args, kwargs, result)`` adds to the counters after
        the span is closed, so its own cost is not charged to the layer.
        """
        spans, opened, counters, clock = self.spans, self._open, self.counters, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   clock(), 0.0, opened[-1]]
            opened.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                opened.pop()
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        return traced

    def patch(self, target, name, count=None):
        """Replace ``module:attr[.attr]`` by its traced version.

        Returns False, and remembers the seam as missing, when the target
        does not exist.
        """
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.add(target)
            return False
        setattr(owner, attr, self.wrap(fn, name, count))
        self.present.update([name] if isinstance(name, str) else name.names)
        return True


def summarize(spans):
    """Per span name: calls, inclusive time (outermost calls only) and self time."""
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["total_s"] += end - start
    return out


# ---------------------------------------------------------------------------
# the seams of quc
# ---------------------------------------------------------------------------

def _add(key, amount):
    def count(counters, args, kwargs, out):
        counters[key] += amount(args, kwargs, out)
    return count


def _csv_size(args, kwargs, out):
    return os.path.getsize(args[0])


def _csv_rows(args, kwargs, out):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return len(rows)


def _energy_name(args, kwargs):
    return "solver.energy_grad" if kwargs.get("want_grad", True) else "solver.line_search"


_energy_name.names = ("solver.energy_grad", "solver.line_search")


def _count_all(*counts):
    def count(counters, args, kwargs, out):
        for c in counts:
            c(counters, args, kwargs, out)
    return count


# (target, span name, counter) for every call site that ``install`` wraps.
# Functions are patched where the caller looks them up, so a name that
# several modules import is listed once per module.
SEAMS = [
    ("quc.cli:main", "cli", None),
    ("quc.cli:parse_config", "config.parse", None),
    ("quc.cli:normalise", "integrand.normalise", None),
    ("quc.cli:analyze_rows", "cli.analyze_rows", None),
    ("quc.cli:write_csv", "csvio.write",
     _count_all(_add("csvio.bytes", _csv_size), _add("csvio.rows", _csv_rows))),
    ("quc.regularize:MoreauIntegrand.prox", "regularize.prox",
     _add("regularize.prox_points", lambda a, k, o: len(o.reshape(-1, 2)))),
    ("quc.cli:solve", "solver.solve",
     _add("solver.iterations", lambda a, k, o: o.iterations)),
    ("quc.solver:GridProblem.mesh", "solver.mesh", None),
    ("quc.solver:Mesh.node_tris", "solver.topology", None),
    ("quc.solver:Mesh.tri_neighbors", "solver.topology", None),
    ("quc.solver:assemble_energy", _energy_name, None),
    ("quc.solver:spsolve", "solver.linear_solve",
     _add("solver.linear_solve_nnz", lambda a, k, o: a[0].nnz)),
    ("quc.cli:stress_field", "solver.stress", None),
    ("quc.estimates:stress_field", "solver.stress", None),
    ("quc.solver:stress_field", "solver.stress", None),
]
SEAMS += [(f"quc.qc_analysis:{fn}", f"qc_analysis.{fn.removeprefix('measure_')}"
           .removesuffix("_check"), None) for fn in QC_ANALYSIS]
SEAMS += [(f"quc.estimates:{fn}", f"estimates.{check}", None) for fn, check in CHECKS.items()]
for _cls in LEAF_CLASSES:
    for _order in ("eval", "grad", "hess"):
        SEAMS.append((f"quc.integrand:{_cls}._{_order}", "integrand.leaf",
                      _add(f"integrand.leaf_{_order}_points",
                           lambda a, k, o: len(a[1]))))


def _time(span, key="total_s"):
    return lambda summary, counters: summary.get(span, {}).get(key, 0.0)


def _calls(span):
    return lambda summary, counters: summary.get(span, {}).get("calls", 0)


def _counter(key):
    return lambda summary, counters: counters.get(key, 0)


# A self time needs the seams of every span that can be a direct child:
# the time of a missing child would be charged to its parent.
SOLVE_CHILDREN = ["solver.solve", "solver.mesh", "solver.energy_grad", "solver.line_search",
                  "solver.linear_solve", "regularize.prox", "integrand.leaf"]
CLI_CHILDREN = (["cli", "config.parse", "integrand.normalise", "cli.analyze_rows",
                 "csvio.write", "solver.solve", "solver.stress", "qc_analysis.estimate_H"]
                + [f"estimates.{c}" for c in CHECKS.values()])

# metric name -> (span names whose seams it needs, reader)
METRICS = {
    "config.parse_s": (["config.parse"], _time("config.parse")),
    "integrand.normalise_s": (["integrand.normalise"], _time("integrand.normalise")),
    "integrand.leaf_eval_points": (["integrand.leaf"], _counter("integrand.leaf_eval_points")),
    "integrand.leaf_grad_points": (["integrand.leaf"], _counter("integrand.leaf_grad_points")),
    "integrand.leaf_hess_points": (["integrand.leaf"], _counter("integrand.leaf_hess_points")),
    "integrand.leaf_s": (["integrand.leaf"], _time("integrand.leaf")),
    "regularize.prox_calls": (["regularize.prox"], _calls("regularize.prox")),
    "regularize.prox_points": (["regularize.prox"], _counter("regularize.prox_points")),
    "regularize.prox_s": (["regularize.prox"], _time("regularize.prox")),
    "qc_analysis.estimate_H_s": (["qc_analysis.estimate_H"], _time("qc_analysis.estimate_H")),
    "qc_analysis.delta_monotonicity_s": (["qc_analysis.delta_monotonicity"],
                                         _time("qc_analysis.delta_monotonicity")),
    "qc_analysis.quasisymmetry_s": (["qc_analysis.quasisymmetry"],
                                    _time("qc_analysis.quasisymmetry")),
    "qc_analysis.eta_identities_s": (["qc_analysis.eta_identities"],
                                     _time("qc_analysis.eta_identities")),
    "solver.mesh_s": (["solver.mesh"], _time("solver.mesh")),
    "solver.topology_s": (["solver.topology"], _time("solver.topology")),
    "solver.solve_s": (["solver.solve"], _time("solver.solve")),
    "solver.solve_self_s": (SOLVE_CHILDREN, _time("solver.solve", "self_s")),
    "solver.iterations": (["solver.solve"], _counter("solver.iterations")),
    "solver.energy_grad_calls": (["solver.energy_grad"], _calls("solver.energy_grad")),
    "solver.energy_grad_s": (["solver.energy_grad"], _time("solver.energy_grad")),
    "solver.line_search_trials": (["solver.line_search"], _calls("solver.line_search")),
    "solver.line_search_s": (["solver.line_search"], _time("solver.line_search")),
    "solver.linear_solve_calls": (["solver.linear_solve"], _calls("solver.linear_solve")),
    "solver.linear_solve_s": (["solver.linear_solve"], _time("solver.linear_solve")),
    "solver.linear_solve_nnz": (["solver.linear_solve"], _counter("solver.linear_solve_nnz")),
    "solver.stress_s": (["solver.stress"], _time("solver.stress")),
    "cli.analyze_rows_s": (["cli.analyze_rows"], _time("cli.analyze_rows")),
    "cli.self_s": (CLI_CHILDREN, _time("cli", "self_s")),
    "csvio.write_s": (["csvio.write"], _time("csvio.write")),
    "csvio.bytes": (["csvio.write"], _counter("csvio.bytes")),
    "csvio.rows": (["csvio.write"], _counter("csvio.rows")),
}
METRICS.update({f"estimates.{c}_s": ([f"estimates.{c}"], _time(f"estimates.{c}"))
                for c in CHECKS.values()})
UNITS = {"_s": "s", "_points": "count", "_calls": "count", "_trials": "count",
         "_nnz": "count", "iterations": "count", ".bytes": "B", ".rows": "count"}


def unit(metric):
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


def install():
    """Patch every seam of the imported ``quc`` package; return the tracer."""
    tracer = Tracer()
    for target, name, count in SEAMS:
        tracer.patch(target, name, count)
    return tracer


def layer_metrics(tracer):
    """Layer metrics of everything traced so far; absent seams are left out."""
    summary = summarize(tracer.spans)
    return {metric: reader(summary, tracer.counters)
            for metric, (needs, reader) in METRICS.items()
            if all(n in tracer.present for n in needs)}
