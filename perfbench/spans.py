"""Span recorder and the instrumentation the traced run installs.

Spans are recorded from the benchmark's side only: ``Instruments``
replaces public functions and methods of bcrbf (and the names under which
its modules import each other) with wrappers that time each call, and
puts the originals back when uninstalled.  Nothing in bcrbf changes.

A span is [name, start, end, parent index, run id].  A layer's self time
is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import statistics
import time

import bcrbf.constrained as constrained
import bcrbf.homogenize as homogenize
import bcrbf.kernels as kernels
import bcrbf.numerics as numerics
import bcrbf.pseudospectral as pseudospectral
import bcrbf.reporting as reporting


class Tracer:
    """In-memory spans and counters, keyed by the current run id."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = "setup"
        self.counts = collections.Counter()  # (run, name) -> total
        self.extremes = {}  # (run, name) -> (max or min so far)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.run]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def count(self, name, n=1):
        self.counts[(self.run, name)] += n

    def extreme(self, name, value, pick):
        key = (self.run, name)
        old = self.extremes.get(key)
        self.extremes[key] = value if old is None else pick(old, value)

    def totals(self, run):
        """{span name: (inclusive seconds, self seconds)} for one run id."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = collections.defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, _parent, r) in enumerate(self.spans):
            if r == run:
                out[name][0] += end - start
                out[name][1] += end - start - covered[i]
        return out

    def write(self, path, header):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "run": run,
                }) + "\n")


class _TracedExact:
    """The exact-solution field handed to error_metrics, with ``value`` traced."""

    def __init__(self, field, value):
        self._field = field
        self.dim = field.dim
        self.value = value

    def partial(self, orders, p):
        return self._field.partial(orders, p)


class Instruments:
    """The set of patches; ``install`` and ``uninstall`` toggle them."""

    def __init__(self, tracer):
        self.tracer = tracer
        t = tracer
        LU = numerics.LUFactorization
        self.patches = []

        def patch(owner, attr, wrapper):
            self.patches.append((owner, attr, getattr(owner, attr), wrapper))

        def spanned(owner, attr, name):
            patch(owner, attr, t.wrap(name, getattr(owner, attr)))

        get_example = reporting.get_example

        def traced_get_example(ident):
            record = get_example(ident)
            return dataclasses.replace(record, make=t.wrap("benchmarks.make", record.make))

        patch(reporting, "get_example", traced_get_example)
        spanned(reporting, "ensure_self_checked", "reporting.self_check")

        solve = t.wrap("pseudospectral.solve", reporting.solve)

        def traced_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            diag = sol.diagnostics
            t.count("solves")
            t.count("unknowns", len(sol.lam))
            if "refine_steps" in diag:
                t.count("numerics.refine_steps", diag["refine_steps"])
                t.extreme("numerics.factor_digits_max", diag["factor_digits"], max)
                t.extreme("numerics.work_digits_max", diag["work_digits"], max)
                t.extreme("numerics.effective_digits_min", diag["effective_digits"], min)
            return sol

        patch(reporting, "solve", traced_solve)
        kansa_solve = t.wrap("kansa.solve", reporting.kansa_solve)

        def traced_kansa_solve(*args, **kwargs):
            sol = kansa_solve(*args, **kwargs)
            t.count("solves")
            t.count("unknowns", len(sol.lam))
            return sol

        patch(reporting, "kansa_solve", traced_kansa_solve)
        error_metrics = t.wrap("reporting.error_metrics", reporting.error_metrics)

        def traced_error_metrics(solution, exact, ctx):
            value = t.wrap("fields.exact", exact.value)
            return error_metrics(solution, _TracedExact(exact, value), ctx)

        patch(reporting, "error_metrics", traced_error_metrics)
        spanned(pseudospectral, "homogenize_nd", "homogenize.build")
        for method in ("value", "partial"):
            fn = t.wrap("homogenize.eval", getattr(homogenize.HomogenizationMap, method))

            def counted(*args, _fn=fn):
                t.count("homogenize.eval_calls")
                return _fn(*args)

            patch(homogenize.HomogenizationMap, method, counted)
        spanned(pseudospectral, "impose_sequence", "constrained.impose")
        for cls in (kernels.GaussianKernel, constrained.ConstrainedKernel):
            def partial_counted(self, m, n, x, y, _fn=cls.mixed_partial):
                t.count("kernels.partial_calls")
                return _fn(self, m, n, x, y)

            patch(cls, "mixed_partial", partial_counted)
        spanned(pseudospectral, "build_evaluation_matrix", "pseudospectral.assemble")
        spanned(pseudospectral, "build_operator_matrix", "pseudospectral.assemble")
        spanned(pseudospectral.Solution, "evaluate_axes", "pseudospectral.evaluate")
        factor = t.wrap("numerics.factor", LU.__init__)

        def traced_factor(self, ctx, a):
            t.count("numerics.factor_calls")
            t.count("numerics.factor_ops", len(a) ** 3 / 3)
            factor(self, ctx, a)

        patch(LU, "__init__", traced_factor)
        for method in ("solve_vec", "solve", "solve_transpose_vec"):
            spanned(LU, method, "numerics.trisolve")
        spanned(LU, "cond1_estimate", "numerics.cond")
        spanned(pseudospectral, "refine", "numerics.refine")

    def install(self):
        for owner, attr, _original, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in reversed(self.patches):
            setattr(owner, attr, original)


# per-layer metric -> (span name, "self" or "incl"); the rest are counters
SPAN_METRICS = {
    "homogenize.build_s": ("homogenize.build", "incl"),
    "homogenize.eval_s": ("homogenize.eval", "self"),
    "constrained.impose_s": ("constrained.impose", "incl"),
    "pseudospectral.assemble_s": ("pseudospectral.assemble", "incl"),
    "pseudospectral.evaluate_s": ("pseudospectral.evaluate", "self"),
    "pseudospectral.solve_s": ("pseudospectral.solve", "self"),
    "numerics.factor_s": ("numerics.factor", "incl"),
    "numerics.trisolve_s": ("numerics.trisolve", "self"),
    "numerics.refine_s": ("numerics.refine", "self"),
    "numerics.cond_s": ("numerics.cond", "incl"),
    "kansa.solve_s": ("kansa.solve", "incl"),
    "fields.exact_s": ("fields.exact", "incl"),
    "reporting.error_metrics_s": ("reporting.error_metrics", "incl"),
}
SETUP_METRICS = {
    "benchmarks.make_s": ("benchmarks.make", "incl"),
    "reporting.self_check_s": ("reporting.self_check", "incl"),
}
COUNT_METRICS = (
    "homogenize.eval_calls",
    "kernels.partial_calls",
    "numerics.factor_calls",
    "numerics.factor_ops",
    "numerics.refine_steps",
)
EXTREME_METRICS = (
    "numerics.factor_digits_max",
    "numerics.work_digits_max",
    "numerics.effective_digits_min",
)


def run_metrics(tracer, run):
    """Per-layer values of one traced pass."""
    totals = tracer.totals(run)
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        incl, own = totals.get(span, (0.0, 0.0))
        out[metric] = incl if kind == "incl" else own
    for name in COUNT_METRICS:
        out[name] = tracer.counts[(run, name)]
    for name in EXTREME_METRICS:
        out[name] = tracer.extremes.get((run, name), 0)
    solves = tracer.counts[(run, "solves")]
    out["pseudospectral.system_n"] = tracer.counts[(run, "unknowns")] / solves
    out["numerics.factors_per_solve"] = out["numerics.factor_calls"] / solves
    return out


def layer_metrics(tracer, runs):
    """Median over the traced passes, plus set-up's own layers."""
    per_run = [run_metrics(tracer, r) for r in runs]
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    totals = tracer.totals("setup")
    for metric, (span, _kind) in SETUP_METRICS.items():
        out[metric] = totals.get(span, (0.0, 0.0))[0]
    return out
