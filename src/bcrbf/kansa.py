"""Unsymmetric RBF collocation baseline (unmodified kernels, appended BC rows).

The comparison method for every benchmark table: plain Gaussian product
kernels centered at all nodes of an inclusive tensor grid, PDE equations at
interior nodes, boundary-functional equations at boundary nodes.  The grid
count convention matches the tables: N per direction counts the full
inclusive grid, whose outermost layer supplies the BC rows (whereas the
constrained method counts interior nodes only, keeping system sizes
comparable).

The system is built as the constrained method's is, from the per-axis
node tables and Kronecker rows of ``pseudospectral``; a boundary row
takes the face functional's kernel trace (``functionals.KernelTrace``)
at the centers along the normal axis.  The result is a ``Solution``, a
field like the constrained method's, whose homogenization map is zero.

Boundary conditions hold exactly at the collocation boundary nodes --
they are equations of the solved system -- but generically not between
them; that contrast with the constrained-kernel method is the point of
the comparison.
"""

from __future__ import annotations

from .functionals import KernelTrace
from .homogenize import HomogenizationMap
from .kernels import GaussianKernel
from .numerics import as_row, kron
from .pseudospectral import (
    Solution,
    _all_tables,
    _factor_kernel_matrix,
    _operator_row,
    build_grid,
)


def _face_of(ii, counts):
    """First (dimension, side) whose coordinate index sits on an endpoint."""
    for d, (i, c) in enumerate(zip(ii, counts)):
        if i == 0:
            return d, 0
        if i == c - 1:
            return d, 1
    return None


def kansa_solve(problem, counts, shape, ctx):
    """Solve by unsymmetric collocation; returns a Solution with the zero
    homogenization map: the expansion carries the data itself.  Its
    diagnostics record ``cond_AL``, the 1-norm estimate from the factors
    that solved the system."""
    dim = problem.dim
    if len(counts) != dim:
        raise ValueError("counts must match the problem dimension")
    shape = ctx.num(shape)
    grid = build_grid(problem.domain, counts, "uniform-inclusive", ctx)
    kernels = [GaussianKernel(shape, ctx) for _ in range(dim)]
    tables = _all_tables(kernels, grid, problem.operator)
    # per-face functional rows in the normal direction, one value per center
    face_vectors = {}
    for d in range(dim):
        for side in (0, 1):
            functional = problem.bcs[d][side].functional
            trace = KernelTrace(kernels[d], functional)
            face_vectors[(d, side)] = as_row(ctx, [trace(xj) for xj in grid.axes[d]])

    rows = []
    rhs = []
    for ii, p in zip(grid.indices(), grid.points()):
        face = _face_of(ii, grid.counts)
        if face is None:
            rows.append(_operator_row(tables, problem.operator.terms, ii, p))
            rhs.append(ctx.num(problem.rhs(p)))
        else:
            d, side = face
            rows.append(kron([
                face_vectors[face] if e == d else tables[e][0][ii[e]]
                for e in range(dim)
            ]))
            data = problem.data_for(d, side)
            tpoint = tuple(x for e, x in enumerate(p) if e != d)
            rhs.append(ctx.num(data.value(tpoint)))
    del tables, face_vectors  # not read again: free them for the factors

    fact = _factor_kernel_matrix(ctx, rows, "Kansa collocation matrix")
    lam = fact.solve_vec(rhs)
    diagnostics = {
        "mode": "kansa",
        "shape": shape,
        "counts": tuple(counts),
        "cond_AL": fact.cond1_estimate(rows),
    }
    hom = HomogenizationMap.zero(dim, ctx)
    return Solution(ctx, grid, kernels, lam, hom, None, diagnostics)
