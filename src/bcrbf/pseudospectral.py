"""Tensor-grid assembly and solution of linear BVPs with constrained kernels.

Pipeline: homogenize the boundary data (u = v + M), impose each direction's
homogeneous functionals on a per-direction Gaussian kernel, collocate the
PDE at interior tensor nodes, and solve either

* ``direct``: A_L lambda = F, or
* ``ps``:     the operational-matrix route L = A_L A^{-1}, L v = F for the
  nodal values, then A lambda = v.  A = T0_0 (x) ... (x) T0_{d-1} is the
  Kronecker product of the per-axis node tables, so A is never factored
  nor inverted explicitly: each T0_d is factored once, and a solve with A
  is one solve with T0_d along every fiber of axis d (``AxisFactors``).
  Row i of L solves A^T l_i = (row i of A_L) that way, and L is the only
  N x N matrix this route factors.

Both routes compute the nodal values A A_L^{-1} F + M, and both
precisions take one solve path, ``numerics.refine`` with the route's
factorizations; only the factorizations differ between the routes.  Each
route forms lambda, then the nodal values as A lambda + M.  In ``mp``
mode at D digits, A, A_L and F are assembled at D digits and each route
returns the solution of that assembled system to D digits: lambda is
refined against the residual F - A_L lambda, summed exactly, and carried
at an extended work precision, the nodal values are formed there, and
both are then rounded to D digits.  The two routes therefore agree to D
digits.  How close the D-digit assembled system is to the exact
discretization is a separate floor (see the README's reproduction
limits).  ``float64`` has no wider format: there ``refine`` does one
plain solve.

A and A_L are assembled from per-axis node tables, each formed once by
the kernel's ``partial_matrix``, and every row is a Kronecker product of
table rows (``numerics.kron``), or a sum of them over the operator's
terms.  Kansa's baseline (``kansa``) builds its system the same way.  In
``mp`` every table and every assembled row is a ``numerics.Aligned``
row, each product and sum rounded on raw mantissas as the numbers'
arithmetic rounds it; in 1D, A's rows are the table's own.

Boundary nodes are excluded by construction: with boundary-condition-
satisfying kernels the basis functions vanish under every boundary
functional, so boundary collocation rows would be identically zero.

Every number of a solve carries the digits of its ``Precision``, so
solves and evaluations may run in concurrent threads of one process, at
equal or different digits.  A Solution is a field of the ``fields``
protocol, and evaluates at its own digits, at points rounded to them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .constrained import impose_sequence
from .errors import NodeCollision, SingularMatrix
from .fields import ScalarField, apply_functional, as_data
from .homogenize import homogenize_nd
from .kernels import GaussianKernel
from .numerics import (
    REFINE_GUARD,
    CorrectedMatrix,
    LUFactorization,
    add_rows,
    as_row,
    kron,
    lu_factor,
    mode_sum,
    refine,
    scale_row,
    solve_along,
)

_COLLISION_RTOL = 1e-9


# -- problem description -------------------------------------------------------


@dataclass(frozen=True)
class OperatorTerm:
    """One term coeff(x) * d^orders u; ``coeff`` is a scalar or callable."""

    orders: tuple
    coeff: object

    def coeff_at(self, p):
        return self.coeff(p) if callable(self.coeff) else self.coeff


@dataclass(frozen=True)
class OperatorSpec:
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("operator needs at least one term")
        for t in self.terms:
            if sum(t.orders) > 2:
                raise ValueError("operator terms are limited to total order 2")

    @property
    def dim(self):
        return len(self.terms[0].orders)

    def apply_axes(self, field, axes):
        """The operator applied to a field at every point p of the tensor
        grid ``axes``, in flat order: sum over terms of coeff(p) times the
        field's ``partial_axes``, added term by term.  A single point is
        a grid of 1-point axes."""
        parts = [field.partial_axes(t.orders, axes) for t in self.terms]
        return [
            sum(t.coeff_at(p) * vals[i] for t, vals in zip(self.terms, parts))
            for i, p in enumerate(itertools.product(*axes))
        ]


def laplacian(dim):
    terms = []
    for d in range(dim):
        orders = [0] * dim
        orders[d] = 2
        terms.append(OperatorTerm(tuple(orders), 1))
    return OperatorSpec(tuple(terms))


@dataclass(frozen=True)
class BoundaryCondition:
    """A boundary functional plus its data.

    ``data`` may be None (constant ``functional.rhs``), a scalar, an Fn1,
    or a field over the tangential coordinates (see ``fields.as_data``).
    """

    functional: object
    data: object = None


@dataclass(frozen=True)
class ProblemSpec:
    """A linear BVP on a box: operator, per-direction BC pairs, rhs.

    Boundary-condition pairs are ordered (low side, high side): the first
    functional of each pair is anchored at the interval's left endpoint.
    """

    domain: tuple
    operator: OperatorSpec
    bcs: tuple
    rhs: object
    exact: object = None
    name: str = ""

    def __post_init__(self):
        dim = len(self.domain)
        if self.operator.dim != dim or len(self.bcs) != dim:
            raise ValueError("inconsistent dimensions in problem spec")
        for d, ((a, b), pair) in enumerate(zip(self.domain, self.bcs)):
            for bc in pair:
                for loc in bc.functional.support_locations():
                    if not (a <= loc <= b):
                        raise ValueError(
                            f"functional location {float(loc)} outside "
                            f"direction-{d} interval"
                        )

    @property
    def dim(self):
        return len(self.domain)

    def support_locations(self):
        out = []
        for d, pair in enumerate(self.bcs):
            for bc in pair:
                out.extend((d, loc) for loc in bc.functional.support_locations())
        return out

    def data_for(self, d, side):
        bc = self.bcs[d][side]
        return as_data(bc.data, bc.functional, self.dim - 1)


# -- grids ----------------------------------------------------------------------


_UNIFORM_SCHEMES = ("uniform-interior", "uniform-inclusive")


@dataclass(frozen=True)
class Grid:
    """Tensor grid of nodes.  ``scheme`` names how the axes were built;
    the uniform schemes space every axis's nodes equally."""

    domain: tuple
    axes: tuple
    scheme: str = None
    counts: tuple = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(len(ax) for ax in self.axes))

    @property
    def dim(self):
        return len(self.axes)

    @property
    def uniform(self):
        return self.scheme in _UNIFORM_SCHEMES

    @property
    def size(self):
        return math.prod(self.counts)

    def indices(self):
        """Per-axis node indices in flat order: lexicographic, last axis
        fastest, the order of every vector and matrix over the grid."""
        return list(itertools.product(*map(range, self.counts)))

    def points(self):
        """Node coordinates in flat order."""
        return list(itertools.product(*self.axes))


def build_grid(domain, counts, scheme, ctx, avoid=()):
    """Tensor grid; nodes never touch the support locations in ``avoid``.

    ``uniform-interior`` places a + (b-a) j/(N+1), j = 1..N.
    ``chebyshev-interior`` maps Chebyshev points of the first kind into
    (a, b), ascending.  ``uniform-inclusive`` places a + (b-a) j/(N-1),
    j = 0..N-1, endpoints included (Kansa's grid and the error grid).
    """
    axes = []
    for d, ((a, b), n) in enumerate(zip(domain, counts)):
        if n < 2:
            raise ValueError("need at least 2 nodes per direction")
        a = ctx.num(a)
        b = ctx.num(b)
        span = b - a
        if scheme == "uniform-interior":
            ax = [a + span * j / (n + 1) for j in range(1, n + 1)]
        elif scheme == "uniform-inclusive":
            ax = [a + span * j / (n - 1) for j in range(n)]
        elif scheme == "chebyshev-interior":
            pi = ctx.pi
            ts = [ctx.cos((2 * k - 1) * pi / (2 * n)) for k in range(n, 0, -1)]
            ax = [a + span * (t + 1) / 2 for t in ts]
        else:
            raise ValueError(f"unknown grid scheme {scheme!r}")
        tol = _COLLISION_RTOL * abs(span)
        for dd, loc in avoid:
            if dd != d:
                continue
            for x in ax:
                if abs(x - loc) <= tol:
                    raise NodeCollision(
                        f"node {float(x)} collides with functional support "
                        f"{float(loc)} in direction {d}; perturb the count "
                        f"or switch grid scheme"
                    )
        axes.append(tuple(ax))
    domain = tuple(tuple(ctx.num(v) for v in ab) for ab in domain)
    return Grid(domain, tuple(axes), scheme)


# -- product kernels and matrix assembly ----------------------------------------


def _axis_tables(kernel, nodes, orders):
    """Per-axis matrices T[m][i][j] = d^m kernel(node_i, node_j), from
    ``partial_matrix``, as its rows (``numerics.Aligned`` in mp); a
    CorrectedMatrix is made dense, one exact dot per entry.

    The nodes are not marked uniform, so each table is the per-entry
    ``mixed_partial`` bit for bit.  It costs about as much as its distinct
    offsets: the base kernel forms one entry per distinct offset
    node_i - node_j of the call (377 of the 5,184 entries on ex1's 72
    rounded uniform nodes).  The row recurrence serves evaluation points,
    whose offsets never repeat.
    """
    tables = {}
    for m in orders:
        mat = kernel.partial_matrix(m, nodes, nodes, False)
        tables[m] = mat.dense() if isinstance(mat, CorrectedMatrix) else mat
    return tables


def _all_tables(kernels, grid, operator):
    orders = [set((0,)) for _ in range(grid.dim)]
    if operator is not None:
        for t in operator.terms:
            for d, m in enumerate(t.orders):
                orders[d].add(m)
    return [
        _axis_tables(k, ax, sorted(os))
        for k, ax, os in zip(kernels, grid.axes, orders)
    ]


def _operator_row(tables, terms, ii, p):
    """Row of the operator collocated at node ii, point p: the sum over
    terms of coeff(p) times the Kronecker product of the table rows
    T_d^{m_d}[i_d] (``numerics.kron``), added term by term.  A unit
    coefficient multiplies nothing, and the sum starts from the first
    term: neither step could change a bit."""
    row = None
    for t in terms:
        c = t.coeff_at(p)
        prods = kron([tab[m][i] for tab, m, i in zip(tables, t.orders, ii)])
        if c != 1:
            prods = scale_row(c, prods)
        row = prods if row is None else add_rows(row, prods)
    return row


def build_evaluation_matrix(grid, kernels, tables=None):
    """A[i][j] = prod_d kernel_d(node_i_d, node_j_d); symmetric by
    construction.  Rows are the tables' form (``numerics.kron``)."""
    if tables is None:
        tables = _all_tables(kernels, grid, None)
    return [kron([t[0][i] for t, i in zip(tables, ii)]) for ii in grid.indices()]


def build_operator_matrix(grid, kernels, operator, tables=None):
    """A_L[i][j] = sum_terms coeff(node_i) * prod_d d^{m_d} kernel_d(...),
    rows of the tables' form (``_operator_row``)."""
    if tables is None:
        tables = _all_tables(kernels, grid, operator)
    return [
        _operator_row(tables, operator.terms, ii, p)
        for ii, p in zip(grid.indices(), grid.points())
    ]


def _factor_kernel_matrix(ctx, a, name):
    """LU factors of a kernel matrix; a singular one raises SingularMatrix
    naming the matrix and the remedies."""
    try:
        return lu_factor(ctx, a)
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"{name} numerically singular at pivot {exc.pivot_index}; "
            f"remedies: larger shape parameter, fewer nodes, or higher "
            f"precision",
            pivot_index=exc.pivot_index,
        ) from None


class AxisFactors:
    """LU factors of the per-axis tables T0_d of A = T0_0 (x) ... (x)
    T0_{d-1}, the Kronecker product in flat order, at the digits of
    ``ctx``; A itself is never factored.

    A^-1 is the Kronecker product of the T0_d^-1, so ``solve_vec`` solves
    A x = r by one solve with T0_d along every fiber of axis d
    (``numerics.solve_along``), axis 0 first, each pass rounded at the
    factors' digits, and ``solve_transpose_vec`` solves A^T x = r the same
    way with the T0_d^T.  In 1D they are the table's own solves.  A
    singular table raises the SingularMatrix that names the evaluation
    matrix.
    """

    def __init__(self, ctx, tables):
        self.shape = [len(t) for t in tables]
        self.factors = [_factor_kernel_matrix(ctx, t, "evaluation matrix") for t in tables]

    def solve_vec(self, r):
        for e, fact in enumerate(self.factors):
            r = solve_along(r, self.shape, e, fact.solve_vec)
        return r

    def solve_transpose_vec(self, r):
        for e, fact in enumerate(self.factors):
            r = solve_along(r, self.shape, e, fact.solve_transpose_vec)
        return r

    def cond_a(self, tables):
        """cond_1(A) for the tables factored: cond_1 of a Kronecker product
        is the product of its factors' cond_1, each estimated from its LU
        factors (``LUFactorization.cond1_estimate``)."""
        return math.prod(f.cond1_estimate(t) for f, t in zip(self.factors, tables))


def operational_matrix(ctx, axes, a_l):
    """L' with L' A = A_L, from the axis factors of A (``AxisFactors``):
    row i of L' solves A^T l_i = (row i of A_L) along the axes, and is
    rounded to the digits of ``ctx`` as a row of it (``numerics.as_row``).
    A is never inverted explicitly."""
    return [as_row(ctx, map(ctx.num, axes.solve_transpose_vec(row))) for row in a_l]


class _OperationalFactors:
    """The ps route's factorizations: the axis factors of A, and the LU of
    L' formed from them, at the digits of ``ctx``.  Since A_L = L' A,
    ``solve_vec`` applies A^-1 L'^-1, an approximate inverse of A_L, and
    ``solve_transpose_vec`` L'^-T A^-T, one of A_L^T: so
    ``cond1_estimate`` estimates cond_1(A_L) from these factors, with no
    factorization of A_L."""

    def __init__(self, ctx, axes, a_l):
        self.ctx = ctx
        self.n = len(a_l)
        self.axes = axes
        self.fact_lmat = lu_factor(ctx, operational_matrix(ctx, axes, a_l))

    def solve_vec(self, r):
        return self.axes.solve_vec(self.fact_lmat.solve_vec(r))

    def solve_transpose_vec(self, r):
        return self.fact_lmat.solve_transpose_vec(self.axes.solve_transpose_vec(r))

    def cond1_estimate(self, a):
        return LUFactorization.cond1_estimate(self, a)


# -- solution -------------------------------------------------------------------


class Solution(ScalarField):
    """Coefficient vector + per-direction kernels + homogenization map.

    A field of the ``fields`` protocol: ``partial_axes(orders, axes)``
    differentiates the expansion analytically on a tensor grid, so
    boundary functionals and operators apply to a Solution exactly like
    to any field.  ``evaluate`` and ``evaluate_axes`` name its values.
    """

    def __init__(self, ctx, grid, kernels, lam, hom, nodal=None, diagnostics=None):
        self.ctx = ctx
        self.grid = grid
        self.kernels = tuple(kernels)
        self.lam = tuple(lam)
        self.hom = hom
        self.nodal = tuple(nodal) if nodal is not None else None
        self.diagnostics = dict(diagnostics or {})

    @property
    def dim(self):
        return self.grid.dim

    def evaluate(self, p):
        return self.value(p)

    def evaluate_axes(self, axes):
        """Values on a tensor grid of points, flattened lexicographically."""
        return self.partial_axes((0,) * self.dim, axes)

    def partial_axes(self, orders, axes):
        """d^orders of the solution at every point of the tensor grid
        ``axes``, in flat order.

        lam, an n_0 x ... x n_{d-1} array in flat order, is contracted one
        axis at a time with that axis's kernel matrix, m_d x n_d, and M's
        parts on the same grid are contracted with their monomials
        (``HomogenizationMap.parts``).  ``numerics.mode_sum`` folds the
        last contraction of the expansion and of every part of M into one
        exact dot per grid value, rounded once.  A single point is a grid
        of 1-point axes.  Coordinates are rounded to the solution's digits
        first.

        A constrained kernel's matrix is the Gaussian's, G, minus the
        low-rank part P Gamma^-1 Q^T of its r <= 2 corrections, P and Q
        their traces at the points and at the nodes (``partial_matrix``).
        ``numerics.mode_sum`` applies it by its factors,
        K lam = G lam - P (Gamma^-1 Q^T lam), or forms its entries once,
        by the rule stated there.  On uniform grids
        the rows of G come from a two-term recurrence along the nodes
        (see ``kernels.GaussianKernel``).  Each entry depends on its own
        point only, so grid and pointwise values agree bit for bit.  Orders
        or axes of another dimension than the solution's raise ValueError.
        """
        self.check_dimension(orders, axes)
        ctx = self.ctx
        axes = [[ctx.num(x) for x in pts] for pts in axes]
        uniform = self.grid.uniform
        mats = [
            k.partial_matrix(m, pts, nodes, uniform)
            for k, m, pts, nodes in zip(self.kernels, orders, axes, self.grid.axes)
        ]
        parts = [(self.lam, self.grid.counts, mats), *self.hom.parts(orders, axes)]
        return mode_sum(ctx, parts, [len(pts) for pts in axes])

    def boundary_residual(self, d, side, problem, tpoint=()):
        bc = problem.bcs[d][side]
        data = problem.data_for(d, side)
        return apply_functional(bc.functional, d, self, tpoint) - data.value(tpoint)


# -- the solver -------------------------------------------------------------------


def solve(problem, counts, shape, ctx, mode="direct", scheme="uniform-interior"):
    """Solve a ProblemSpec on an interior tensor grid.

    Returns a Solution whose expansion satisfies every boundary condition
    exactly (the kernels annihilate the homogeneous functionals; M carries
    the data).

    Both routes and both precisions take one path, ``numerics.refine``,
    with the route's factorizations.  ``nodal`` holds A lambda + M and
    ``lam`` the coefficients, both rounded to the context's D digits.  In
    ``mp`` mode lambda is refined, and the nodal values are accurate to D
    digits for the assembled system.  The coefficients are large and
    cancel in A lambda, so the D-digit ``lam`` reproduces the nodal values
    only to D digits less the cancelled ones, which is also the floor of
    evaluating the expansion at D digits.  ``float64`` does one plain
    solve.

    ``direct`` factors A_L, at D digits, or at D + REFINE_GUARD when
    cond_A may exceed 10^(D - REFINE_GUARD).  ``ps`` factors the axis
    tables T0_d once, at D + REFINE_GUARD digits (``AxisFactors``), for
    cond_A and for every solve with A, and L' at D: the tables carry
    cond_A, and L' is conditioned like A_L.  When an attempt
    does not reach D digits, ``refine`` factors once more at
    REFINE_GUARD more digits, the axis tables included.

    The diagnostics record ``factor_digits`` (precision of the last
    factorization of the system: A_L, or L' on ``ps``), ``work_digits``
    (precision of the residuals and of lambda), ``refine_steps`` and
    ``effective_digits``: the significant digits of the nodal values,
    relative to the largest, that the refinement vouches for.  It equals
    D unless the refinement stalled even at the raised factor precision;
    float64 records 16 digits and no steps.  ``cond_A`` is the product of
    the per-axis estimates, from D-digit factors on ``direct`` (None when
    an axis table is singular there) and from the axis factors on ``ps``,
    rounded to D digits; ``cond_AL`` is the 1-norm estimate from the
    factors that solved the system.
    """
    if mode not in ("direct", "ps"):
        raise ValueError("mode must be 'direct' or 'ps'")
    dim = problem.dim
    if len(counts) != dim:
        raise ValueError("counts must match the problem dimension")
    shape = ctx.num(shape)
    pairs = []
    for d in range(dim):
        low, high = problem.bcs[d]
        pairs.append(
            (
                (low.functional, problem.data_for(d, 0)),
                (high.functional, problem.data_for(d, 1)),
            )
        )
    hom = homogenize_nd(pairs, ctx)

    kernels = []
    for d in range(dim):
        base = GaussianKernel(shape, ctx)
        funcs = [bc.functional.homogeneous() for bc in problem.bcs[d]]
        kernels.append(impose_sequence(base, funcs))

    grid = build_grid(
        problem.domain, counts, scheme, ctx, avoid=problem.support_locations()
    )

    tables = _all_tables(kernels, grid, problem.operator)
    a = build_evaluation_matrix(grid, kernels, tables)
    a_l = build_operator_matrix(grid, kernels, problem.operator, tables)
    t0 = [axis[0] for axis in tables]
    del tables  # the tables of nonzero order are not read again: free them
    f = [
        ctx.num(problem.rhs(p)) - lm
        for p, lm in zip(grid.points(), problem.operator.apply_axes(hom, grid.axes))
    ]

    if mode == "direct":
        # In the benchmark examples checked (ex1, ex4-ex7) cond_1(A_L)
        # stays below cond_1(A), so the first factorization takes guard
        # digits when this may exceed 10^(D - 30): D-digit factors of A_L
        # would refine slowly or not at all.  A wrong guess costs
        # ``refine`` a second factorization, not accuracy.
        try:
            cond_a = AxisFactors(ctx, t0).cond_a(t0)
        except SingularMatrix:
            cond_a = None
        del t0  # read by no factorization of A_L: free it for them
        risky = cond_a is None or cond_a >= ctx.num(10) ** (ctx.digits - REFINE_GUARD)
        guard = REFINE_GUARD if risky else 0

        def factor(fctx):
            return lu_factor(fctx, a_l)
    else:
        # the axis tables take the guard digits, L' the attempt's own
        # (cond_1(L') is at most 9.2e15 on the examples checked)
        first = AxisFactors(ctx.with_digits(ctx.digits + REFINE_GUARD), t0)
        cond_a = ctx.num(first.cond_a(t0))
        guard = 0

        def factor(fctx):
            axes = first if fctx.digits == ctx.digits else AxisFactors(
                fctx.with_digits(fctx.digits + REFINE_GUARD), t0)
            return _OperationalFactors(fctx, axes, a_l)

    run = refine(
        ctx, a_l, f, factor, guard=guard,
        image=a, shift=hom.partial_axes((0,) * dim, grid.axes),
    )
    lam = [ctx.num(v) for v in run.x]
    nodal = [ctx.num(v) for v in run.y]
    diagnostics = {
        "mode": mode,
        "shape": shape,
        "counts": tuple(counts),
        "factor_digits": run.factor_digits,
        "work_digits": run.work_digits,
        "refine_steps": run.steps,
        "effective_digits": run.effective_digits,
        "cond_A": cond_a,
        "cond_AL": run.solver.cond1_estimate(a_l),
    }
    return Solution(ctx, grid, kernels, lam, hom, nodal, diagnostics)
