"""In-memory spans around ddrloc's public calls, and the per-layer table.

The tracer replaces a public function in the module namespace where its
caller looks it up (``ddrloc.solvers.build_dddr`` for ``exact_solve``,
``ddrloc.benchmarks.second_stage_costs`` for ``train_sp``, and so on), so
that nothing under ``src/`` changes.  Each span is
``(id, parent, op, name, start, end, attrs)``; ``op`` numbers the benchmark
op that caused it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import ddrloc.benchmarks
import ddrloc.experiments
import ddrloc.solvers
import ddrloc.worstcase

# (module, attribute, span name, attrs from (args, result)).  simplex_solve
# is looked up in ddrloc.solvers at call time by worst_case_expectation, and
# linprog is the HiGHS LP relaxation inside branch_and_bound.
WRAPPED = (
    (ddrloc.solvers, "build_dddr", "milp.build_dddr",
     lambda a, out: {"rows": out.n_constraints, "cols": out.n_variables}),
    (ddrloc.solvers, "branch_and_bound", "solvers.branch_and_bound",
     lambda a, out: {"nodes": out.node_count}),
    (ddrloc.solvers, "linprog", "solvers.linprog", None),
    (ddrloc.solvers, "simplex_solve", "worstcase.moment_lp", None),
    (ddrloc.worstcase, "ambiguity_feasible", "worstcase.ambiguity_feasible", None),
    (ddrloc.worstcase, "worst_case_values", "worstcase.worst_case_values",
     lambda a, out: {"plans": len(out)}),
    (ddrloc.benchmarks, "train_sp", "benchmarks.train_sp", None),
    (ddrloc.benchmarks, "second_stage_costs", "transport.second_stage_costs", None),
    (ddrloc.benchmarks, "evaluate_plan", "benchmarks.evaluate_plan", None),
    (ddrloc.experiments, "generate_instance", "experiments.generate_instance", None),
    (ddrloc.experiments, "compare_methods", "benchmarks.compare_methods", None),
)

# Per-layer metrics in report order, with units.
LAYER_UNITS = {
    "milp.build_s": "s",
    "milp.rows": "count",
    "milp.cols": "count",
    "solvers.bnb_rounds": "count",
    "solvers.bnb_nodes": "count",
    "solvers.lp_calls": "count",
    "solvers.lp_ms.p50": "ms",
    "solvers.lp_s": "s",
    "solvers.bnb_self_s": "s",
    "worstcase.plans": "count",
    "worstcase.ms_per_plan": "ms",
    "worstcase.moment_lp_calls": "count",
    "worstcase.moment_lp_ms.p50": "ms",
    "worstcase.feasibility_calls": "count",
    "worstcase.vertex_s": "s",
    "benchmarks.train_sp_s": "s",
    "transport.second_stage_costs_calls": "count",
    "transport.second_stage_costs_s": "s",
    "benchmarks.evaluate_s": "s",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans while installed; restores the wrapped functions on removal."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op = -1

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [sid, parent, self.op, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            rec[6] = attrs(args, out)
        return out

    def install(self) -> None:
        for module, attr, name, attrs in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, _attrs=attrs, **kwargs):
                return self.span(_name, _fn, *args, attrs=_attrs, **kwargs)

            setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "attrs")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_metrics(spans: list[list], n_ops: int, overhead_s: float) -> dict:
    """Per-op averages of counts and times over the traced ops."""
    dur = [rec[5] - rec[4] for rec in spans]
    child_s = defaultdict(float)
    for rec, d in zip(spans, dur):
        if rec[1] >= 0:
            child_s[rec[1]] += d
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[3]].append(rec[0])

    # worst_case_values calls that reached a per-customer LP or feasibility
    # test took the fallback; the rest took the vectorized vertex path.
    fallback = set()
    for sid in by_name["worstcase.moment_lp"] + by_name["worstcase.ambiguity_feasible"]:
        p = spans[sid][1]
        while p >= 0 and spans[p][3] != "worstcase.worst_case_values":
            p = spans[p][1]
        if p >= 0:
            fallback.add(p)

    def total(name):
        return sum(dur[s] for s in by_name[name])

    def self_total(name):
        return sum(dur[s] - child_s[s] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def p50_ms(name):
        return 1e3 * statistics.median(dur[s] for s in by_name[name]) if by_name[name] else 0.0

    def attr(name, key):
        return [spans[s][6][key] for s in by_name[name]]

    plans = sum(attr("worstcase.worst_case_values", "plans"))
    out = {
        "milp.build_s": total("milp.build_dddr") / n_ops,
        "milp.rows": max(attr("milp.build_dddr", "rows"), default=0),
        "milp.cols": max(attr("milp.build_dddr", "cols"), default=0),
        "solvers.bnb_rounds": count("solvers.branch_and_bound") / n_ops,
        "solvers.bnb_nodes": sum(attr("solvers.branch_and_bound", "nodes")) / n_ops,
        "solvers.lp_calls": count("solvers.linprog") / n_ops,
        "solvers.lp_ms.p50": p50_ms("solvers.linprog"),
        "solvers.lp_s": total("solvers.linprog") / n_ops,
        "solvers.bnb_self_s": self_total("solvers.branch_and_bound") / n_ops,
        "worstcase.plans": plans / n_ops,
        "worstcase.ms_per_plan": (1e3 * total("worstcase.worst_case_values") / plans
                                  if plans else 0.0),
        "worstcase.moment_lp_calls": count("worstcase.moment_lp") / n_ops,
        "worstcase.moment_lp_ms.p50": p50_ms("worstcase.moment_lp"),
        "worstcase.feasibility_calls": count("worstcase.ambiguity_feasible") / n_ops,
        "worstcase.vertex_s": sum(dur[s] for s in by_name["worstcase.worst_case_values"]
                                  if s not in fallback) / n_ops,
        "benchmarks.train_sp_s": total("benchmarks.train_sp") / n_ops,
        "transport.second_stage_costs_calls":
            count("transport.second_stage_costs") / n_ops,
        "transport.second_stage_costs_s": total("transport.second_stage_costs") / n_ops,
        "benchmarks.evaluate_s": total("benchmarks.evaluate_plan") / n_ops,
        "experiments.self_s": self_total("experiments.run") / n_ops,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(out[name]), "unit": unit}
            for name, unit in LAYER_UNITS.items()}
