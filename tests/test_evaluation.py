"""Evaluating solutions: Gaussian rows by recurrence on uniform node axes,
and the constrained kernels' corrections applied to the coefficients.
Kernel matrices, for solves and evaluation alike, need mixed partials per
node or point, not per entry."""

import functools
import math

import mpmath
import pytest

from bcrbf.benchmarks import get_example
from bcrbf.constrained import ConstrainedKernel
from bcrbf.kansa import kansa_solve
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import Precision
from bcrbf.pseudospectral import build_grid, solve
from bcrbf.reporting import evaluation_axes

from oracles import dense_axis_matrix, number_rows, per_entry_expansion

MP150 = Precision("mp", 150)
UNIT = ((0, 1),)


@functools.lru_cache(maxsize=None)
def _solution(ident, counts, dps, method, scheme="uniform-interior"):
    ctx = Precision("mp", dps)
    record = get_example(ident)
    problem = record.make(ctx, 0.5) if record.has_eps else record.make(ctx)
    shape = record.default_shape
    if method == "kansa":
        return kansa_solve(problem, counts, shape, ctx)
    return solve(problem, counts, shape, ctx, mode=method, scheme=scheme)


@pytest.mark.parametrize(
    "nodes", ["uniform-interior", "uniform-inclusive"],
    ids=["uniform-interior", "kansa-inclusive"],
)
def test_recurrence_rows_match_exp(nodes):
    """On uniform node axes every Gaussian row entry, orders 0-2, is within
    10^-D relative of the entry by exp."""
    ctx = MP150
    axis = build_grid(UNIT, (72,), nodes, ctx).axes[0]
    (pts,) = evaluation_axes(UNIT, ctx)
    kernel = GaussianKernel("0.18", ctx)
    tol = mpmath.mpf(10) ** -ctx.digits
    for m in (0, 1, 2):
        rows = number_rows(kernel.partial_matrix(m, pts, axis, True))
        ref = dense_axis_matrix(kernel, m, pts, axis)
        assert len(rows) == len(pts)
        for row, ref_row in zip(rows, ref):
            assert len(row) == len(axis)
            for v, r in zip(row, ref_row):
                assert abs(v - r) <= tol * abs(r)


def test_chebyshev_axes_evaluate_entry_by_entry():
    """Chebyshev nodes keep one exp per entry.  In 1D each value is one
    exact dot of the per-entry Gaussian row, the correction traces
    d^m phi_k(x) and the map's monomial row with lam, the coefficients
    -phi_k . lam / gamma_k, carried at D + 10 digits, and the map's
    coefficients: bit for bit, orders 0-2 on the 201-point grid."""
    sol = _solution("ex1", (72,), 150, "direct", "chebyshev-interior")
    ctx, (kernel,), (nodes,) = sol.ctx, sol.kernels, sol.grid.axes
    assert isinstance(kernel, ConstrainedKernel) and not sol.grid.uniform
    (pts,) = evaluation_axes(UNIT, ctx)
    work = ctx.with_digits(ctx.digits + 10).mp
    ext = list(sol.lam) + [
        -(work.fdot([t.deriv(y, 0) for y in nodes], sol.lam) / g)
        for t, g in zip(kernel.traces, kernel.gammas)
    ]
    for m in (0, 1, 2):
        gauss = dense_axis_matrix(kernel.base, m, pts, nodes)
        parts = sol.hom.parts((m,), [pts])
        hom_coeffs = [v for c, _, _ in parts for v in c]
        ref = [
            ctx.mp.fdot(
                row + [t.deriv(x, m) for t in kernel.traces]
                + [v for _, _, (mat,) in parts for v in mat[i]],
                ext + hom_coeffs,
            )
            for i, (row, x) in enumerate(zip(gauss, pts))
        ]
        assert sol.partial_axes((m,), [pts]) == ref


def test_chebyshev_grid_evaluates_entry_by_entry():
    """On a 6x6 Chebyshev grid each axis has as many nodes in the other
    axis as in its own, so the corrected matrices are formed entry by
    entry and evaluation equals the per-entry dense contraction bit for
    bit."""
    sol = _solution("ex4", (6, 6), 100, "direct", "chebyshev-interior")
    axes = evaluation_axes(sol.grid.domain, sol.ctx)
    for orders in ((0, 0), (1, 0), (0, 2)):
        assert sol.partial_axes(orders, axes) == per_entry_expansion(sol, orders, axes)[0]


CASES = [
    ("ex1", (72,), 150, "direct", ((0,), (1,), (2,))),
    ("ex1", (72,), 150, "ps", ((0,),)),
    ("ex1", (72,), 150, "kansa", ((0,),)),
    ("ex4", (8, 8), 150, "direct", ((0, 0), (1, 0), (0, 2))),
    ("ex7", (4, 4, 4), 100, "direct", ((0, 0, 0), (0, 0, 2))),
    ("ex3", (8, 4), 100, "direct", ((0, 0), (1, 0), (0, 2))),
    ("ex6", (5, 10), 100, "direct", ((0, 0), (1, 0), (0, 2))),
]


@pytest.mark.parametrize("ident,counts,dps,method,orders_list", CASES)
def test_evaluation_matches_per_entry_oracle(ident, counts, dps, method, orders_list):
    """Evaluation agrees with the per-entry kernel matrices contracted by
    mode_sum with the map to 10^(5-D) sum|lam| prod_d max|K_d| on the error
    grid."""
    sol = _solution(ident, counts, dps, method)
    ctx = sol.ctx
    axes = evaluation_axes(sol.grid.domain, ctx)
    lam_sum = sum(abs(v) for v in sol.lam)
    for orders in orders_list:
        ref, mats = per_entry_expansion(sol, orders, axes)
        k_max = math.prod(max(abs(v) for row in mat for v in row) for mat in mats)
        tol = mpmath.mpf(10) ** (5 - ctx.digits) * lam_sum * k_max
        got = sol.partial_axes(orders, axes)
        assert len(got) == len(ref)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= tol


def _count_mixed_partials(monkeypatch):
    """A list that grows by one per kernel mixed-partial call."""
    calls = []
    for cls in (GaussianKernel, ConstrainedKernel):
        def counted(self, m, n, x, y, _fn=cls.mixed_partial):
            calls.append(1)
            return _fn(self, m, n, x, y)

        monkeypatch.setattr(cls, "mixed_partial", counted)
    return calls


def test_evaluation_kernel_calls_scale_with_points_plus_nodes(monkeypatch):
    """One constrained ex1 N=72 solution on the 201-point grid needs the
    kernels' mixed partials O(points + nodes) times, not points x nodes
    (14,472 when every entry was formed by mixed_partial)."""
    ctx = MP150
    sol = solve(get_example("ex1").make(ctx, 0.5), (72,), "0.18", ctx)
    (pts,) = evaluation_axes(UNIT, ctx)
    calls = _count_mixed_partials(monkeypatch)
    assert len(sol.evaluate_axes([pts])) == len(pts)
    assert 0 < len(calls) <= 10 * (len(pts) + 72)


def test_solve_kernel_calls_scale_with_nodes(monkeypatch):
    """One constrained ex1 N=72 solve needs the kernels' mixed partials at
    most 30 N times, for the correction traces at the nodes: its node
    tables come from ``partial_matrix`` (32,852 calls when each of their
    72 x 72 x 3 entries was a mixed partial)."""
    ctx = MP150
    problem = get_example("ex1").make(ctx, 0.5)
    calls = _count_mixed_partials(monkeypatch)
    solve(problem, (72,), "0.18", ctx)
    assert 0 < len(calls) <= 30 * 72


def test_a_point_or_grid_of_another_dimension_is_refused(monkeypatch):
    """A 2D solution refuses a 3D point, a 1D point and one derivative
    order for two axes with a ValueError naming its dimension, before any
    kernel matrix is formed."""
    ctx = Precision("mp", 30)
    record = get_example("ex4")
    sol = solve(record.make(ctx), (4, 4), record.default_shape, ctx)
    ax = [ctx.num("0.3")]
    for kernel in sol.kernels:
        monkeypatch.setattr(type(kernel), "partial_matrix", None)
    for call in (lambda: sol.value((0.3, 0.4, 0.5)), lambda: sol.value((0.3,)),
                 lambda: sol.partial_axes((0,), [ax, ax])):
        with pytest.raises(ValueError, match="2-dimensional"):
            call()
