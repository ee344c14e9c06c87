import math
import random

import mpmath
import pytest

from bcrbf.benchmarks import get_example
from bcrbf.fields import apply_functional
from bcrbf.functionals import make_dirichlet
from bcrbf import kansa
from bcrbf.kansa import kansa_solve
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import FLOAT64, Precision
from bcrbf.pseudospectral import (
    BoundaryCondition,
    OperatorSpec,
    OperatorTerm,
    ProblemSpec,
    solve,
)
from bcrbf.reporting import error_metrics

from oracles import apply_to_function, number_rows, product_kernel_partial


def _laplace_1d(ctx):
    return ProblemSpec(
        domain=((ctx.zero, ctx.one),),
        operator=OperatorSpec((OperatorTerm((2,), 1),)),
        bcs=(
            (
                BoundaryCondition(make_dirichlet(0, 0, ctx)),
                BoundaryCondition(make_dirichlet(1, 1, ctx)),
            ),
        ),
        rhs=lambda p: ctx.zero,
    )


def test_kansa_linear_solution_float64():
    # a 5-center Gaussian basis at c=1 cannot carry u=x below ~3e-3; the
    # spectral drop with n is the meaningful check (6.8e-8 by n=13)
    ctx = FLOAT64
    rng = random.Random(2)
    xs = [rng.random() for _ in range(50)]

    def err(n):
        sol = kansa_solve(_laplace_1d(ctx), (n,), 1.0, ctx)
        return max(abs(sol.evaluate((x,)) - x) for x in xs)

    e5, e9, e13 = err(5), err(9), err(13)
    assert e5 < 1e-2
    assert e9 < 1e-5
    assert e13 < 1e-6
    assert e13 < e9 < e5


def test_kansa_grid_includes_boundary():
    ctx = FLOAT64
    sol = kansa_solve(_laplace_1d(ctx), (5,), 1.0, ctx)
    assert sol.grid.axes[0][0] == 0.0
    assert sol.grid.axes[0][-1] == 1.0
    assert sol.hom.terms == ()  # the zero map


def test_kansa_bc_rows_hold_at_boundary_nodes():
    ctx = Precision("mp", 40)
    problem = _laplace_1d(ctx)
    sol = kansa_solve(problem, (6,), 1.0, ctx)
    lam_scale = max(abs(v) for v in sol.lam)
    tol = mpmath.mpf(10) ** (10 - 40) * max(lam_scale, 1)
    assert abs(sol.evaluate((ctx.zero,)) - 0) < tol
    assert abs(sol.evaluate((ctx.one,)) - 1) < tol


def test_kansa_2d_bc_rows_and_interior_rows():
    ctx = Precision("mp", 40)
    record = get_example("ex4")
    problem = record.make(ctx)
    sol = kansa_solve(problem, (5, 5), 1.0, ctx)
    # at a boundary collocation node the BC equation holds by construction
    xb = (sol.grid.axes[0][0], sol.grid.axes[1][2])
    data = problem.data_for(0, 0)
    lam_scale = max(abs(v) for v in sol.lam)
    tol = mpmath.mpf(10) ** (12 - 40) * max(lam_scale, 1)
    assert abs(sol.evaluate(xb) - data.value((xb[1],))) < tol


def test_kansa_contrast_with_constrained_between_nodes():
    """Between boundary collocation nodes the Kansa BC residual is far larger
    than the constrained method's."""
    ctx = Precision("mp", 60)
    record = get_example("ex4")
    problem = record.make(ctx)
    k_sol = kansa_solve(problem, (5, 5), ctx.num("0.01"), ctx)
    c_sol = solve(problem, (5, 5), ctx.num("0.01"), ctx)
    # midpoint of the x=0 edge between two boundary nodes
    mid = (ctx.zero, (k_sol.grid.axes[1][0] + k_sol.grid.axes[1][1]) / 2)
    data = problem.data_for(0, 0)
    k_res = abs(k_sol.evaluate(mid) - data.value((mid[1],)))
    c_res = abs(c_sol.evaluate(mid) - data.value((mid[1],)))
    assert k_res > 10 * c_res


def test_kansa_ex4_table_level():
    ctx = Precision("mp", 100)
    record = get_example("ex4")
    problem = record.make(ctx)
    sol = kansa_solve(problem, (5, 5), ctx.num("0.01"), ctx)
    err, _ = error_metrics(sol, problem.exact, ctx)
    assert float(err) < 1e-3  # published value 1.56591e-4


@pytest.mark.slow
def test_kansa_ex7_table_level():
    ctx = Precision("mp", 100)
    record = get_example("ex7")
    problem = record.make(ctx)
    sol = kansa_solve(problem, (4, 4, 4), ctx.num("0.01"), ctx)
    err, _ = error_metrics(sol, problem.exact, ctx)
    assert float(err) < 1e-3  # published value 3.8223e-5


def _per_entry_kansa_matrix(problem, grid, shape, ctx):
    """Kansa's matrix entry by entry, with the magnitude its rounding
    scales with: interior rows sum coeff * prod_d d^{m_d} R over the
    operator's terms, face rows apply the face's functional to R along
    the normal axis by its terms, times R along the other axes."""
    k = GaussianKernel(shape, ctx)
    counts = grid.counts
    rows = []
    for ii, p in zip(grid.indices(), grid.points()):
        face = next(
            ((d, 0 if i == 0 else 1) for d, i in enumerate(ii) if i in (0, counts[d] - 1)),
            None,
        )
        row = []
        for q in grid.points():
            if face is None:
                terms = [
                    t.coeff_at(p) * product_kernel_partial([k] * len(p), t.orders, p, q)
                    for t in problem.operator.terms
                ]
            else:
                d, side = face
                functional = problem.bcs[d][side].functional
                rest = math.prod(k.eval(p[e], q[e]) for e in range(len(p)) if e != d)
                terms = [
                    apply_to_function(
                        functional,
                        lambda x: k.eval(x, q[d]),
                        lambda x: k.mixed_partial(1, 0, x, q[d]),
                    )
                    * rest
                ]
            row.append((sum(terms), sum(abs(v) for v in terms)))
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "ident,counts", [("ex1", (12,)), ("ex4", (5, 5)), ("ex7", (4, 4, 4))]
)
def test_kansa_matrix_matches_per_entry_oracle(ident, counts, monkeypatch):
    """Kansa's matrices, built from per-axis tables and Kronecker rows,
    match the per-entry matrix to 10^(2-D) of each entry's magnitude: in
    2D and 3D, and in 1D with ex1's Robin faces and variable coefficients."""
    ctx = Precision("mp", 50)
    record = get_example(ident)
    problem = record.make(ctx, 0.5) if record.has_eps else record.make(ctx)
    factored = []
    factor = kansa._factor_kernel_matrix

    def captured(fctx, a, name):
        factored.append(a)
        return factor(fctx, a, name)

    monkeypatch.setattr(kansa, "_factor_kernel_matrix", captured)
    sol = kansa_solve(problem, counts, record.default_shape, ctx)
    (got,) = factored
    got = number_rows(got)
    ref = _per_entry_kansa_matrix(problem, sol.grid, ctx.num(record.default_shape), ctx)
    tol = mpmath.mpf(10) ** (2 - ctx.digits)
    assert len(got) == len(ref) == sol.grid.size
    for row, ref_row in zip(got, ref):
        for v, (r, scale) in zip(row, ref_row):
            assert abs(v - r) <= tol * scale


def test_kansa_validates_counts():
    with pytest.raises(ValueError):
        kansa_solve(_laplace_1d(FLOAT64), (5, 5), 1.0, FLOAT64)
