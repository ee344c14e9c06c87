"""Unsymmetric RBF collocation baseline (unmodified kernels, appended BC rows).

The comparison method for every benchmark table: plain Gaussian product
kernels centered at all nodes of an inclusive tensor grid, PDE equations at
interior nodes, boundary-functional equations at boundary nodes.  The grid
count convention matches the tables: N per direction counts the full
inclusive grid, whose outermost layer supplies the BC rows (whereas the
constrained method counts interior nodes only, keeping system sizes
comparable).

Boundary conditions hold exactly at the collocation boundary nodes --
they are equations of the solved system -- but generically not between
them; that contrast with the constrained-kernel method is the point of
the comparison.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .functionals import apply_to_kernel_slot
from .kernels import GaussianKernel
from .numerics import lu_factor
from .pseudospectral import Grid, Solution, _all_tables


def _inclusive_axes(domain, counts, ctx):
    axes = []
    for (a, b), n in zip(domain, counts):
        if n < 2:
            raise ValueError("need at least 2 nodes per direction")
        a, b = ctx.num(a), ctx.num(b)
        axes.append(tuple(a + (b - a) * j / (n - 1) for j in range(n)))
    return axes


def _face_of(ii, counts):
    """First (dimension, side) whose coordinate index sits on an endpoint."""
    for d, (i, c) in enumerate(zip(ii, counts)):
        if i == 0:
            return d, 0
        if i == c - 1:
            return d, 1
    return None


def kansa_solve(problem, counts, shape, ctx):
    """Solve by unsymmetric collocation; returns a Solution (without any
    homogenization map: the expansion carries the data itself).  Its
    diagnostics record ``cond_AL``, the 1-norm estimate from the factors
    that solved the system."""
    dim = problem.dim
    if len(counts) != dim:
        raise ValueError("counts must match the problem dimension")
    shape = ctx.num(shape)
    axes = _inclusive_axes(problem.domain, counts, ctx)
    grid = Grid(
        tuple(tuple(ctx.num(v) for v in ab) for ab in problem.domain),
        tuple(axes),
        "uniform-inclusive",
    )
    kernels = [GaussianKernel(shape, ctx) for _ in range(dim)]
    tables = _all_tables(kernels, grid, problem.operator)
    # per-face functional rows in the normal direction, one value per center
    face_vectors = {}
    for d in range(dim):
        for side in (0, 1):
            functional = problem.bcs[d][side].functional
            trace = apply_to_kernel_slot(functional, kernels[d], "first")
            face_vectors[(d, side)] = [trace(xj) for xj in axes[d]]

    idx = grid.indices()
    rows = []
    rhs = []
    for ii, p in zip(idx, grid.points()):
        face = _face_of(ii, grid.counts)
        row = []
        if face is None:
            coeffs = [t.coeff_at(p) for t in problem.operator.terms]
            for jj in idx:
                v = 0
                for t, c in zip(problem.operator.terms, coeffs):
                    prod = c
                    for tab, m, a_i, a_j in zip(tables, t.orders, ii, jj):
                        prod = prod * tab[m][a_i][a_j]
                    v += prod
                row.append(v)
            rhs.append(ctx.num(problem.rhs(p)))
        else:
            d, side = face
            fvec = face_vectors[(d, side)]
            for jj in idx:
                prod = fvec[jj[d]]
                for e in range(dim):
                    if e != d:
                        prod = prod * tables[e][0][ii[e]][jj[e]]
                row.append(prod)
            data = problem.data_for(d, side)
            tpoint = tuple(x for e, x in enumerate(p) if e != d)
            rhs.append(ctx.num(data.value(tpoint)))
        rows.append(row)

    try:
        fact = lu_factor(ctx, rows)
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"Kansa collocation matrix singular at pivot {exc.pivot_index}; "
            f"remedies: larger shape parameter, fewer nodes, or higher "
            f"precision",
            pivot_index=exc.pivot_index,
        ) from None
    lam = fact.solve_vec(rhs)
    diagnostics = {
        "mode": "kansa",
        "shape": shape,
        "counts": tuple(counts),
        "cond_AL": fact.cond1_estimate(),
    }
    return Solution(ctx, grid, kernels, lam, None, None, diagnostics)
