"""Spans and counts around the calls into each hypodist layer.

``install`` replaces the public entry points, as the modules that call them
bind them, with wrappers that record a span (name, start, end, parent) in
memory and bump counters; nothing in the package changes.  ``layer_metrics``
turns the recorded spans and counts into the benchmark's per-layer metrics.
Single-threaded runs only: spans nest on one stack.
"""

from __future__ import annotations

import functools
import time

import numpy as np


COUNT_SPAN = "trace.count"


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = {}
        self._stack: list = []

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  ``count(rec, args,
        result)`` runs after the span closes, in a span of its own that
        ``layer_metrics`` takes out of every enclosing span."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                t = time.perf_counter()
                count(self, args, result)
                spans.append(
                    [COUNT_SPAN, t, time.perf_counter(), stack[-1] if stack else -1]
                )
            return result

        setattr(owner, attr, wrapper)


def _count_assembly(rec, args, result) -> None:
    model, _ = result
    rec.add("estimator.probes", 1)
    rec.add("estimator.rows", model.n_constraints)
    rec.add("estimator.nnz", sum(row.indices.size for row in model.rows()))


def _count_solve(rec, args, sol) -> None:
    rec.add("lp.solves", 1)
    rec.add("lp.iterations", int(sol.iterations))
    rec.add("lp.infeasible", int(sol.status == "infeasible"))


def _count_estimate(rec, args, result) -> None:
    problem = args[0]
    rec.add("estimator.feasible_probes",
            sum(1 for _, s, _ in result.history if s <= problem.tol))


def _count_eval(rec, args, out) -> None:
    rec.add("functions.eval_calls", 1)
    rec.add("functions.eval_points", int(np.size(out)))


def _count_locate(rec, args, out) -> None:
    rec.add("grid.locate_points", int(out[0].shape[0]))


def install(rec: Recorder) -> None:
    from hypodist import cli, estimator, functions, lp, metrics

    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "estimate", "estimator.estimate", _count_estimate)
    rec.wrap(estimator, "assemble_lp", "estimator.assemble", _count_assembly)
    rec.wrap(lp, "solve", "lp.solve", _count_solve)
    rec.wrap(cli, "hypo_dist_estimate", "metrics.hypo_dist")
    rec.wrap(cli, "hat_dl_rho", "metrics.hat")
    rec.wrap(cli, "eta_minus", "metrics.eta_bounds")
    rec.wrap(cli, "eta_plus", "metrics.eta_bounds")
    rec.wrap(cli, "dl_rho_oracle", "metrics.oracle")
    rec.wrap(functions.GridFunction, "eval", "functions.eval", _count_eval)
    rec.wrap(functions, "locate_batch", "grid.locate", _count_locate)
    rec.wrap(metrics, "locate_batch", "grid.locate", _count_locate)
    rec.wrap(cli, "save_grid_function", "functions.save")


# per-layer metric -> span name whose time it reports; "self" reports the
# span's own time, net of the recorded spans it encloses
TIMES = {
    "estimator.estimate_s": ("estimator.estimate", "total"),
    "estimator.self_s": ("estimator.estimate", "self"),
    "estimator.assemble_s": ("estimator.assemble", "total"),
    "lp.solve_s": ("lp.solve", "total"),
    "metrics.hypo_dist_s": ("metrics.hypo_dist", "total"),
    "metrics.hat_s": ("metrics.hat", "total"),
    "metrics.eta_bounds_s": ("metrics.eta_bounds", "total"),
    "metrics.oracle_s": ("metrics.oracle", "total"),
    "functions.eval_s": ("functions.eval", "total"),
    "grid.locate_s": ("grid.locate", "total"),
    "functions.save_s": ("functions.save", "total"),
    "cli.self_s": ("cli.main", "self"),
}
COUNTS = (
    "estimator.probes", "estimator.rows", "estimator.nnz",
    "lp.solves", "lp.iterations", "lp.infeasible",
    "functions.eval_calls", "functions.eval_points", "grid.locate_points",
)


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer times (s) and counts from one traced run.  Time spent
    counting is taken out of every span that encloses it."""
    n = len(spans)
    overhead = [0.0] * n  # counting time inside each span
    inner = [0.0] * n  # time of the recorded spans directly inside
    # children are recorded after their parents, so one reverse pass suffices
    for i in range(n - 1, -1, -1):
        name, start, end, parent = spans[i]
        if parent < 0:
            continue
        if name == COUNT_SPAN:
            overhead[parent] += end - start
        else:
            overhead[parent] += overhead[i]
            inner[parent] += end - start - overhead[i]
    total: dict = {}
    own: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name == COUNT_SPAN:
            continue
        dur = end - start - overhead[i]
        own[name] = own.get(name, 0.0) + dur - inner[i]
        # a span inside another span of the same name is already counted
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + dur
    out = {
        metric: (own if kind == "self" else total).get(span, 0.0)
        for metric, (span, kind) in TIMES.items()
    }
    out.update({key: counts.get(key, 0) for key in COUNTS})
    probes = counts.get("estimator.probes", 0)
    out["estimator.feasible_probe_ratio"] = (
        counts.get("estimator.feasible_probes", 0) / probes if probes else 0.0
    )
    return out
