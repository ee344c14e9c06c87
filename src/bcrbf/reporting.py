"""Benchmark runs, error metrics, and machine-readable tables.

Error conventions: the maximum absolute error is taken over an inclusive
uniform evaluation grid (201 points in 1D, 51x51 in 2D, 21x21x21 in 3D);
the relative error divides it by the maximum absolute exact value on the
same grid.  Reports are plain data (picklable), so sweep points can run in
worker processes; rows come back in input order regardless of job count.

Every run of one ``run_sweep`` call solves the same example at the same
precision and eps, so its exact solution's values on the evaluation grid
are the same for all of them: in one process the first run evaluates
them and the others read them, and they are dropped when the call
returns.  ``run_example`` called alone, and each run in a worker
process, evaluates its own.
"""

from __future__ import annotations

import concurrent.futures
import math
import sys
import time
from dataclasses import dataclass

import mpmath
from mpmath.libmp import fzero, to_str

from .benchmarks import get_example, self_check
from .errors import BcrbfError
from .fields import pointwise
from .kansa import kansa_solve
from .numerics import FLOAT64, _abs_gt, _round, _round_add
from .pseudospectral import build_grid, solve

CSV_COLUMNS = (
    "example",
    "method",
    "grid",
    "shape",
    "precision_digits",
    "max_abs_err",
    "rel_err",
    "cond_A",
    "cond_AL",
    "seconds",
)

_EVAL_POINTS = {1: 201, 2: 51, 3: 21}

_checked = set()


@dataclass
class RunReport:
    example: str
    method: str
    grid: str
    shape: float
    precision_digits: int
    max_abs_err: float = float("nan")
    rel_err: float = float("nan")
    cond_A: str = "nan"
    cond_AL: str = "nan"
    seconds: float = 0.0
    status: str = "ok"
    message: str = ""

    def row(self):
        return (
            self.example,
            self.method,
            self.grid,
            f"{self.shape:.6g}",
            str(self.precision_digits),
            _sci(self.max_abs_err),
            _sci(self.rel_err),
            self.cond_A,
            self.cond_AL,
            f"{self.seconds:.3f}",
        )


def _sci(x):
    """Scientific notation, six significant digits, ``%.5e``'s shape.

    An mpf outside the normal float range is formatted from its own
    digits: ``float`` gives inf, 0 or a subnormal for it and does not
    raise.
    """
    f = float(x)
    normal = sys.float_info.min <= abs(f) <= sys.float_info.max
    if hasattr(x, "_mpf_") and mpmath.isfinite(x) and x and not normal:
        return to_str(x._mpf_, 6, strip_zeros=False)
    return f"{f:.5e}"


def _fmt_cond(v):
    return "nan" if v is None else _sci(v)


def grid_label(counts):
    return "x".join(str(c) for c in counts)


def parse_counts(text):
    try:
        counts = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"malformed grid config {text!r} (want N, NxM or NxMxK)")
    if not 1 <= len(counts) <= 3 or any(c < 2 for c in counts):
        raise ValueError(f"malformed grid config {text!r}")
    return counts


def evaluation_axes(domain, ctx):
    """Inclusive uniform error-metric grid for a box domain."""
    counts = (_EVAL_POINTS[len(domain)],) * len(domain)
    return build_grid(domain, counts, "uniform-inclusive", ctx).axes


def error_metrics(solution, exact, ctx):
    """(max abs error, relative error) over the evaluation grid.

    The solution and the exact field are both evaluated on the grid as a
    whole; an exact field with only the per-point methods (no
    ``partial_axes``) is evaluated point by point.  When every value is
    an mpf of ``ctx``, the differences and both maxima are formed on the
    raw ``_mpf_`` tuples (``_raw_maxima``), otherwise from the number
    objects (``_maxima``): the same figures bit for bit.  A value that is
    not finite on either side raises BcrbfError naming that side: a
    maximum would pass over a nan.  ``run_sweep`` hands it an exact field
    whose grid values its runs share (``_SweepExact``).
    """
    axes = evaluation_axes(solution.grid.domain, ctx)
    approx = solution.evaluate_axes(axes)
    zeros = (0,) * len(axes)
    evaluate = getattr(exact, "partial_axes", None)
    values = evaluate(zeros, axes) if evaluate else pointwise(exact, zeros, axes)
    maxima = ctx.mode == "mp" and _raw_maxima(approx, values, ctx.mp)
    max_err, max_exact = maxima or _maxima(approx, values, ctx)
    rel = max_err / max_exact if max_exact > 0 else max_err
    return max_err, rel


def _maxima(approx, values, ctx):
    """(max |a - u|, max |u|) from the number objects, ``ctx.zero`` for
    none; raises BcrbfError on a value that is not finite."""
    isfinite = math.isfinite if ctx.mode == "float64" else ctx.mp.isfinite
    for side, vals in (("solution", approx), ("exact solution", values)):
        if not all(map(isfinite, vals)):
            raise BcrbfError(f"the {side} is not finite on the evaluation grid")
    max_err = max([ctx.zero, *(abs(a - u) for a, u in zip(approx, values))])
    max_exact = max([ctx.zero, *(abs(u) for u in values)])
    return max_err, max_exact


def _raw_maxima(approx, values, mp):
    """``_maxima``'s figures from the raw tuples of mpfs of context ``mp``:
    each difference rounded by ``numerics._round_add`` as ``a - u``
    rounds, and the magnitudes compared exactly by ``_abs_gt``; rounding
    is monotone, so max |u| is rounded once, at the end.  None when a
    value is of another context or type, or not finite."""
    cls, prec = mp.mpf, mp.prec
    err = top = fzero
    for a, u in zip(approx, values):
        if type(a) is not cls or type(u) is not cls:
            return None
        x, y = a._mpf_, u._mpf_
        if not x[1] and x[2] or not y[1] and y[2]:
            return None
        diff = _round_add(x, y, prec, 1)
        if _abs_gt(diff, err):
            err = diff
        if _abs_gt(y, top):
            top = y
    return mp.make_mpf((0, *err[1:])), mp.make_mpf(_round(top[1], top[2], prec))


def ensure_self_checked(ident):
    """Run the exact-solution residual self-check once per example; both
    residuals must be at most 1e-8 in float64."""
    if ident in _checked:
        return
    record = get_example(ident)
    pde, bc = self_check(record, FLOAT64)
    if not (pde <= 1e-8 and bc <= 1e-8):
        raise BcrbfError(
            f"{ident}: exact-solution self-check failed "
            f"(pde residual {pde:.3e}, bc residual {bc:.3e})"
        )
    _checked.add(ident)


def run_example(
    ident,
    method,
    counts,
    shape,
    precision,
    eps=None,
    mode="direct",
    scheme="uniform-interior",
):
    """Solve one benchmark configuration and fill a RunReport.

    Numerical failures (singular systems, degenerate constraints) come back
    as a failed-run record rather than an exception; argument errors raise.
    """
    return _run((ident, method, counts, shape, precision, eps, mode, scheme))


class _SweepExact:
    """An exact solution whose grid values come from ``shared``, a dict
    that one ``run_sweep`` call keeps for its runs: the first run to ask
    for a grid evaluates it, and the others read it.  Per-point calls go
    straight to the field."""

    def __init__(self, field, shared):
        self.field, self.shared = field, shared
        self.dim, self.value, self.partial = field.dim, field.value, field.partial

    def partial_axes(self, orders, axes):
        key = (tuple(orders), tuple(map(tuple, axes)))
        values = self.shared.get(key)
        if values is None:
            values = self.shared[key] = self.field.partial_axes(orders, axes)
        return values


def _run(task, shared=None):
    """``run_example`` of a task tuple, scoring against ``_SweepExact``
    when given a sweep's ``shared`` dict."""
    ident, method, counts, shape, ctx, eps, mode, scheme = task
    record = get_example(ident)
    if method not in ("constrained", "kansa"):
        raise ValueError(f"unknown method {method!r}")
    if len(counts) != record.dim:
        raise ValueError(
            f"{ident} is {record.dim}-dimensional; grid {grid_label(counts)} is not"
        )
    ensure_self_checked(ident)
    report = RunReport(
        example=ident,
        method=method,
        grid=grid_label(counts),
        shape=float(shape),
        precision_digits=ctx.digits,
    )
    start = time.perf_counter()
    try:
        problem = record.make(ctx, eps)
        if method == "constrained":
            sol = solve(problem, counts, shape, ctx, mode=mode, scheme=scheme)
        else:
            sol = kansa_solve(problem, counts, shape, ctx)
        # the solve's estimates stand even when the error metric fails
        report.cond_A = _fmt_cond(sol.diagnostics.get("cond_A"))
        report.cond_AL = _fmt_cond(sol.diagnostics.get("cond_AL"))
        exact = problem.exact if shared is None else _SweepExact(problem.exact, shared)
        max_err, rel = error_metrics(sol, exact, ctx)
        report.max_abs_err = float(max_err)
        report.rel_err = float(rel)
    except BcrbfError as exc:
        report.status = "failed"
        report.message = f"{type(exc).__name__}: {exc}"
    report.seconds = time.perf_counter() - start
    return report


def sweep_shapes(c_min, c_max, steps):
    """Logarithmically spaced shape parameters, ascending, from exactly
    ``c_min`` to exactly ``c_max``: an mp run takes its shape's float
    exactly, so a sweep's end runs are the single runs at those shapes."""
    if not (0 < c_min <= c_max):
        raise ValueError("shape range must be positive and ascending")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    c_min, c_max = float(c_min), float(c_max)
    if steps == 1:
        return [c_min]
    ratio = (c_max / c_min) ** (1.0 / (steps - 1))
    inner = (min(c_min * ratio**k, c_max) for k in range(1, steps - 1))
    return [c_min, *inner, c_max]


def run_sweep(
    ident,
    method,
    counts,
    c_min,
    c_max,
    steps,
    precision,
    eps=None,
    mode="direct",
    scheme="uniform-interior",
    jobs=1,
):
    """One RunReport per (shape, method); failures are recorded inline and
    the sweep continues.  ``method`` may be 'constrained', 'kansa' or
    'both'.

    With ``jobs <= 1`` the runs share their exact solution's grid values
    (``_SweepExact``), evaluated once by the first run that scores and
    dropped when this call returns: every run here makes the same problem
    from (ident, precision, eps), so each would compute the same values.
    With more jobs each worker's run evaluates its own.  Either way every
    row equals that of ``run_example`` at its shape and method, but for
    ``seconds``."""
    methods = ("constrained", "kansa") if method == "both" else (method,)
    shapes = sweep_shapes(c_min, c_max, steps)
    tasks = [
        (ident, m, tuple(counts), c, precision, eps, mode, scheme)
        for c in shapes
        for m in methods
    ]
    if jobs <= 1:
        shared = {}
        return [_run(t, shared) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run, tasks))


def emit(reports, fmt="csv"):
    """Render reports as CSV or a markdown table (same numbers either way)."""
    rows = [r.row() for r in reports]
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(",".join(r) for r in rows)
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |"]
        lines.append("|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|")
        lines.extend("| " + " | ".join(r) + " |" for r in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
