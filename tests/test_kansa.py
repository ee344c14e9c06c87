import random

import mpmath
import pytest

from bcrbf.benchmarks import get_example
from bcrbf.fields import apply_functional
from bcrbf.functionals import make_dirichlet
from bcrbf.kansa import kansa_solve
from bcrbf.numerics import FLOAT64, Precision
from bcrbf.pseudospectral import (
    BoundaryCondition,
    OperatorSpec,
    OperatorTerm,
    ProblemSpec,
    solve,
)
from bcrbf.reporting import error_metrics


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
    assert sol.hom is None


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


def test_kansa_validates_counts():
    with pytest.raises(ValueError):
        kansa_solve(_laplace_1d(FLOAT64), (5, 5), 1.0, FLOAT64)
