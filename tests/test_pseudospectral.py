import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

from bcrbf.benchmarks import get_example
from bcrbf.constrained import impose, impose_sequence
from bcrbf.errors import DegenerateConstraint, NodeCollision, SingularMatrix
from bcrbf.fields import apply_functional
from bcrbf.functionals import make_dirichlet, make_multipoint, make_neumann, make_robin
from bcrbf.kansa import kansa_solve
from bcrbf import numerics
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import FLOAT64, Precision, lu_factor, norm_1, norm_inf
from bcrbf.pseudospectral import (
    BoundaryCondition,
    OperatorSpec,
    OperatorTerm,
    ProblemSpec,
    _OperationalFactors,
    _axis_tables,
    build_evaluation_matrix,
    build_grid,
    build_operator_matrix,
    build_grid as _bg,
    laplacian,
    operational_matrix,
    solve,
)

from oracles import (
    dense_axis_matrix,
    fd_mixed_partial_f64,
    identity,
    number_rows,
    product_kernel_eval,
    product_kernel_partial,
)

MP40 = Precision("mp", 40)


def test_build_grid_uniform():
    g = build_grid(((0.0, 1.0),), (3,), "uniform-interior", FLOAT64)
    assert g.axes[0] == (0.25, 0.5, 0.75)


def test_build_grid_lexicographic_2d():
    g = build_grid(((0.0, 1.0), (0.0, 1.0)), (2, 2), "uniform-interior", FLOAT64)
    third = 1.0 / 3.0
    assert g.size == 4
    pts = g.points()
    assert pts[0] == (third, third)
    assert pts[1] == (third, 2 * third)
    assert pts[2] == (2 * third, third)
    assert pts[3] == (2 * third, 2 * third)


def test_build_grid_chebyshev():
    g = build_grid(((0.0, 1.0),), (4,), "chebyshev-interior", FLOAT64)
    expect = sorted((math.cos((2 * k - 1) * math.pi / 8) + 1) / 2 for k in range(1, 5))
    assert list(g.axes[0]) == pytest.approx(expect)


def test_build_grid_node_collision():
    # 9 interior nodes on [0, 2] place one exactly at 0.6
    with pytest.raises(NodeCollision):
        build_grid(((0.0, 2.0),), (9,), "uniform-interior", FLOAT64, avoid=[(0, 0.6)])


def test_build_grid_uniform_inclusive():
    g = build_grid(((0.0, 1.0), (-1.0, 1.0)), (5, 3), "uniform-inclusive", FLOAT64)
    assert g.axes == ((0.0, 0.25, 0.5, 0.75, 1.0), (-1.0, 0.0, 1.0))
    assert g.uniform


def test_build_grid_validates():
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0),), (1,), "uniform-interior", FLOAT64)
    with pytest.raises(ValueError):
        build_grid(((0.0, 1.0),), (3,), "legendre", FLOAT64)


def test_product_kernel_eval_and_partial():
    ks = [GaussianKernel(1.0), GaussianKernel(2.0)]
    xs, ys = (0.2, 0.4), (0.7, 0.1)
    assert product_kernel_eval(ks, xs, ys) == pytest.approx(
        ks[0].eval(0.2, 0.7) * ks[1].eval(0.4, 0.1)
    )
    # 3D at identical points, unconstrained
    k3 = [GaussianKernel(0.5)] * 3
    assert product_kernel_eval(k3, (1, 2, 3), (1, 2, 3)) == 1.0
    got = product_kernel_partial(ks, (2, 0), xs, ys)
    assert got == pytest.approx(ks[0].mixed_partial(2, 0, 0.2, 0.7) * ks[1].eval(0.4, 0.1))


def test_product_laplacian_matches_2d_finite_differences():
    k1 = impose(GaussianKernel(1.0), make_dirichlet(0.0))
    k2 = impose(GaussianKernel(1.0), make_dirichlet(1.0))

    def f(x, y):
        return k1.eval(x, 0.4) * k2.eval(y, 0.6)

    x, y = 0.3, 0.7
    got = product_kernel_partial([k1, k2], (2, 0), (x, y), (0.4, 0.6)) + \
        product_kernel_partial([k1, k2], (0, 2), (x, y), (0.4, 0.6))
    ref = fd_mixed_partial_f64(f, 2, 0, x, y) + fd_mixed_partial_f64(f, 0, 2, x, y)
    assert got == pytest.approx(ref, rel=1e-4)


def test_evaluation_matrix_basics():
    g1 = build_grid(((0.0, 1.0),), (2,), "uniform-interior", FLOAT64)
    a = build_evaluation_matrix(g1, [GaussianKernel(1.0)])
    # nodes {1/3, 2/3}: off-diagonal exp(-1/9)
    assert a[0][0] == 1.0
    assert a[0][1] == pytest.approx(math.exp(-1.0 / 9))

    # spec's 2-node example nodes {0.25, 0.75}: off-diagonal exp(-0.25)
    class FakeGrid:
        pass

    from bcrbf.pseudospectral import Grid

    g2 = Grid(((0.0, 1.0),), ((0.25, 0.75),))
    a2 = build_evaluation_matrix(g2, [GaussianKernel(1.0)])
    assert a2[1][0] == pytest.approx(math.exp(-0.25))
    assert a2[1][0] == pytest.approx(0.77880078, rel=1e-7)


def test_single_node_matrix_is_one():
    from bcrbf.pseudospectral import Grid

    g = Grid(((0.0, 1.0),), ((0.5,),))
    a = build_evaluation_matrix(g, [GaussianKernel(1.0)])
    assert a == [[1.0]]


def test_constrained_evaluation_matrix_symmetric():
    ck = impose_sequence(
        GaussianKernel(1.0), [make_dirichlet(0.0), make_neumann(1.0)]
    )
    g = build_grid(((0.0, 1.0),), (5,), "uniform-interior", FLOAT64)
    a = build_evaluation_matrix(g, [ck])
    asym = max(abs(a[i][j] - a[j][i]) for i in range(5) for j in range(5))
    assert asym < 1e-14


def test_operator_matrix_identity_operator():
    ck = impose(GaussianKernel(1.0), make_dirichlet(0.0))
    g = build_grid(((0.0, 1.0),), (4,), "uniform-interior", FLOAT64)
    op = OperatorSpec((OperatorTerm((0,), 1),))
    a = build_evaluation_matrix(g, [ck])
    al = build_operator_matrix(g, [ck], op)
    assert al == a


def test_operator_matrix_second_derivative_single_node():
    from bcrbf.pseudospectral import Grid

    g = Grid(((0.0, 1.0),), ((0.5,),))
    op = OperatorSpec((OperatorTerm((2,), 1),))
    al = build_operator_matrix(g, [GaussianKernel(1.0)], op)
    assert al[0][0] == pytest.approx(-2.0)


def test_operator_matrix_variable_coefficient_rows():
    eps = 0.5
    ck = impose_sequence(
        GaussianKernel(1.0),
        [make_robin(1, -eps, 0.0), make_robin(1, 1, 1.0)],
    )
    op = OperatorSpec(
        (OperatorTerm((2,), eps), OperatorTerm((1,), lambda p: 1 / (1 + p[0])))
    )
    g = build_grid(((0.0, 1.0),), (4,), "uniform-interior", FLOAT64)
    al = build_operator_matrix(g, [ck], op)
    for i in (0, 2):
        xi = g.axes[0][i]
        for j in (1, 3):
            xj = g.axes[0][j]
            expect = eps * ck.mixed_partial(2, 0, xi, xj) + ck.mixed_partial(
                1, 0, xi, xj
            ) / (1 + xi)
            assert al[i][j] == pytest.approx(expect, rel=1e-13)
            ref = eps * fd_mixed_partial_f64(ck.eval, 2, 0, xi, xj) + \
                fd_mixed_partial_f64(ck.eval, 1, 0, xi, xj) / (1 + xi)
            assert al[i][j] == pytest.approx(ref, rel=1e-3, abs=1e-6)


def _constrained_kernel(kind, ctx):
    if kind == "robin":
        funcs = [make_robin(1, "-0.5", 0, ctx=ctx), make_robin(1, 1, 1, ctx=ctx)]
    else:
        funcs = [
            make_multipoint(0, [("0.25", "0.35"), ("0.5", "0.65")], ctx=ctx),
            make_dirichlet(1, ctx=ctx),
        ]
    return impose_sequence(GaussianKernel("1.5", ctx), [f.homogeneous() for f in funcs])


@pytest.mark.parametrize("kind", ["robin", "multipoint"])
@pytest.mark.parametrize("scheme", ["uniform-interior", "chebyshev-interior"])
@pytest.mark.parametrize("prec", ["mp:50", "float64"])
def test_node_tables_equal_per_entry_mixed_partials(kind, scheme, prec):
    """The node tables, built by ``partial_matrix`` and made dense, are the
    per-entry mixed partials bit for bit, orders 0-2.  The oracle uses a
    fresh kernel, so no memo is shared."""
    ctx = Precision.parse(prec)
    nodes = build_grid(((0, 1),), (9,), scheme, ctx).axes[0]
    tables = _axis_tables(_constrained_kernel(kind, ctx), nodes, (0, 1, 2))
    oracle = _constrained_kernel(kind, ctx)
    for m in (0, 1, 2):
        assert number_rows(tables[m]) == dense_axis_matrix(oracle, m, nodes, nodes)


def _exact(v):
    """The value of an mpf as an exact fraction."""
    sign, man, exp, _ = v._mpf_
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def _round(ctx, q):
    """The fraction q rounded once to the nearest number of ``ctx``."""
    return ctx.mp.make_mpf(
        from_rational(q.numerator, q.denominator, ctx.mp.prec, "n")
    )


@pytest.mark.parametrize("kind", ["robin", "multipoint"])
@pytest.mark.parametrize("scheme", ["uniform-interior", "chebyshev-interior"])
def test_dense_tables_round_each_entry_once(kind, scheme):
    """Every entry of a dense node table, orders 0-2 at mp:50, is the
    50-digit base entry B_ij plus the 50-digit left factors P_ik times the
    scaled right factors s_kj = -(Q_kj / gamma_k), each rounded once at 60
    digits, summed exactly and rounded once at 50 digits."""
    ctx = Precision("mp", 50)
    work = ctx.with_digits(60)
    nodes = build_grid(((0, 1),), (9,), scheme, ctx).axes[0]
    kernel = _constrained_kernel(kind, ctx)
    tables = _axis_tables(kernel, nodes, (0, 1, 2))
    for m in (0, 1, 2):
        mat = kernel.partial_matrix(m, nodes, nodes, False)
        rows = number_rows(mat.rows)
        n = len(nodes)
        scales = [
            [_round(work, -_exact(q) / _exact(g)) for q in qs]
            for qs, g in zip(mat.right, mat.gammas)
        ]
        expected = [
            [
                _round(ctx, _exact(row[j]) + sum(
                    _exact(p) * _exact(ss[j]) for p, ss in zip(row[n:], scales)
                ))
                for j in range(n)
            ]
            for row in rows
        ]
        assert number_rows(tables[m]) == expected


def test_node_tables_cost_their_distinct_offsets(monkeypatch):
    """The node tables of ex1 at N = 72 and mp:150 form one base entry per
    distinct offset x_i - x_j and order, not one per entry.  The correction
    traces are evaluated (and memoized) by a first build, so the second
    build's calls are the tables' own."""
    ctx = Precision("mp", 150)
    problem = get_example("ex1").make(ctx, 0.5)
    kernel = impose_sequence(
        GaussianKernel(ctx.num("0.18"), ctx),
        [bc.functional.homogeneous() for bc in problem.bcs[0]],
    )
    nodes = build_grid(
        problem.domain, (72,), "uniform-interior", ctx,
        avoid=problem.support_locations(),
    ).axes[0]
    offsets = len({x - y for x in nodes for y in nodes})
    assert offsets < len(nodes) ** 2 // 10
    _axis_tables(kernel, nodes, (0, 1, 2))
    calls = {0: 0, 1: 0, 2: 0}
    scaled = GaussianKernel._scaled

    def counting(self, m, n, delta, e):
        calls[m + n] += 1
        return scaled(self, m, n, delta, e)

    monkeypatch.setattr(GaussianKernel, "_scaled", counting)
    _axis_tables(kernel, nodes, (0, 1, 2))
    assert calls[1] == calls[2] == offsets
    assert calls[0] <= offsets


def test_singular_kernel_matrices_name_the_remedies():
    problem = _trivial_problem(FLOAT64)
    with pytest.raises(SingularMatrix, match="Kansa collocation matrix.*remedies"):
        kansa_solve(problem, (8,), "1e-9", FLOAT64)
    with pytest.raises(SingularMatrix, match="evaluation matrix.*remedies"):
        solve(problem, (8,), "1e-5", FLOAT64, mode="ps")


def test_operational_matrix_identity_and_scalar():
    al = [[3.0, 1.0], [0.0, 2.0]]
    lmat = operational_matrix(lu_factor(FLOAT64, identity(FLOAT64, 2)), al)
    assert lmat[0] == pytest.approx(al[0]) and lmat[1] == pytest.approx(al[1])
    assert operational_matrix(lu_factor(FLOAT64, [[4.0]]), [[2.0]])[0][0] == pytest.approx(0.5)


def test_operational_matrix_residual_mp():
    ctx = Precision("mp", 60)
    eps = ctx.num(2) ** -5
    ck = impose_sequence(
        GaussianKernel(ctx.num("0.5"), ctx),
        [make_robin(1, -eps, 0, 0, ctx), make_robin(1, 1, 1, 0, ctx)],
    )
    op = OperatorSpec(
        (OperatorTerm((2,), eps), OperatorTerm((1,), lambda p: 1 / (1 + p[0])))
    )
    g = build_grid(((ctx.zero, ctx.one),), (16,), "uniform-interior", ctx)
    a = build_evaluation_matrix(g, [ck])
    al = build_operator_matrix(g, [ck], op)
    lmat = operational_matrix(lu_factor(ctx, a), al)
    from oracles import mat_mul

    resid = mat_mul(number_rows(lmat), number_rows(a))
    al = number_rows(al)
    n = 16
    err = max(abs(resid[i][j] - al[i][j]) for i in range(n) for j in range(n))
    assert err <= 10.0 ** (12 - 60) * float(norm_inf(al))


def _trivial_problem(ctx):
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


def test_solve_trivial_laplace():
    ctx = MP40
    sol = solve(_trivial_problem(ctx), (5,), 1.0, ctx)
    got = sol.evaluate((ctx.num("0.5"),))
    assert abs(got - ctx.num("0.5")) < mpmath.mpf(10) ** -30


def test_solution_reproduces_nodal_values():
    ctx = MP40
    sol = solve(_trivial_problem(ctx), (5,), 1.0, ctx)
    for p, nodal in zip(sol.grid.points(), sol.nodal):
        assert abs(sol.evaluate(p) - nodal) < mpmath.mpf(10) ** (12 - 40)


def test_boundary_evaluation_equals_homogenization_map():
    # Dirichlet basis functions vanish at the boundary, so u_N there is M
    ctx = MP40
    sol = solve(_trivial_problem(ctx), (5,), 1.0, ctx)
    left = sol.evaluate((ctx.zero,))
    right = sol.evaluate((ctx.one,))
    assert abs(left - sol.hom.value((ctx.zero,))) < mpmath.mpf(10) ** -35
    assert abs(right - sol.hom.value((ctx.one,))) < mpmath.mpf(10) ** -35
    assert abs(left) < mpmath.mpf(10) ** -35
    assert abs(right - 1) < mpmath.mpf(10) ** -35


def test_solution_bc_exactness_robin():
    """The solved expansion satisfies the boundary functionals exactly
    (to working precision), including between collocation nodes."""
    ctx = Precision("mp", 60)
    eps = 0.5
    problem = ProblemSpec(
        domain=((ctx.zero, ctx.one),),
        operator=OperatorSpec(
            (OperatorTerm((2,), ctx.num(eps)), OperatorTerm((1,), lambda p: 1 / (1 + p[0])))
        ),
        bcs=(
            (
                BoundaryCondition(make_robin(1, -eps, 0, 1, ctx)),
                BoundaryCondition(make_robin(1, 1, 1, 1, ctx)),
            ),
        ),
        rhs=lambda p: p[0] + 1,
    )
    sol = solve(problem, (12,), 0.8, ctx)
    # the residual floor scales with the coefficient magnitudes the
    # ill-conditioned solve produces
    lam_scale = max(abs(v) for v in sol.lam)
    tol = mpmath.mpf(10) ** (10 - 60) * max(lam_scale, 1)
    for d in range(1):
        for side in (0, 1):
            r = sol.boundary_residual(d, side, problem)
            assert abs(r) < tol


def _robin_problem(ctx):
    """The Robin problem of test_solution_bc_exactness_robin."""
    eps = 0.5
    return ProblemSpec(
        domain=((ctx.zero, ctx.one),),
        operator=OperatorSpec(
            (OperatorTerm((2,), ctx.num(eps)), OperatorTerm((1,), lambda p: 1 / (1 + p[0])))
        ),
        bcs=(
            (
                BoundaryCondition(make_robin(1, -eps, 0, 1, ctx)),
                BoundaryCondition(make_robin(1, 1, 1, 1, ctx)),
            ),
        ),
        rhs=lambda p: p[0] + 1,
    )


def test_boundary_residual_computes_at_the_solution_digits():
    """boundary_residual, called with no precision set anywhere, forms the
    functional at the solution's 60 digits: it matches the same functional
    formed at 90 digits from the solution's partials."""
    ctx = Precision("mp", 60)
    problem = _robin_problem(ctx)
    sol = solve(problem, (12,), 0.8, ctx)
    got = sol.boundary_residual(0, 0, problem)
    mp90 = mpmath.MPContext()
    mp90.dps = 90
    terms = [
        mp90.mpf(t.coeff) * mp90.mpf(sol.partial((t.order,), (t.location,)))
        for t in problem.bcs[0][0].functional.terms
    ]
    data = mp90.mpf(problem.data_for(0, 0).value(()))
    ref = mp90.fsum(terms) - data
    scale = mp90.fsum(abs(v) for v in terms) + abs(data)
    assert abs(mp90.mpf(got) - ref) <= mp90.mpf(10) ** (10 - 60) * scale


def test_concurrent_threads_match_serial():
    """Solves at 60, 100 and again 60 digits, run at once in three threads
    (two sharing one precision), give the coefficients of the same solves
    run one after the other."""
    cases = (
        ("ex4", (5, 5), "mp:60", None),
        ("ex1", (16,), "mp:100", "0.5"),
        ("ex5", (5, 5), "mp:60", None),
    )

    def run(ident, counts, spec, eps):
        record = get_example(ident)
        ctx = Precision.parse(spec)
        problem = record.make(ctx, eps)
        sol = solve(problem, counts, record.default_shape, ctx)
        return [v._mpf_ for v in sol.lam]

    serial = [run(*case) for case in cases]
    results = [None] * len(cases)

    def worker(i):
        results[i] = run(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == serial


def test_span_reproduction():
    """If the exact solution is one constrained basis function plus M, the
    solver recovers it to near working precision."""
    ctx = Precision("mp", 50)
    problem = _trivial_problem(ctx)
    sol = solve(problem, (5,), 1.0, ctx)
    ck = sol.kernels[0]
    star = sol.grid.axes[0][2]
    hom = sol.hom

    rhs = lambda p: ck.mixed_partial(2, 0, p[0], star) + hom.partial((2,), p)
    target = ProblemSpec(
        domain=problem.domain,
        operator=problem.operator,
        bcs=problem.bcs,
        rhs=rhs,
    )
    sol2 = solve(target, (5,), 1.0, ctx)
    rng = random.Random(23)
    for _ in range(10):
        x = ctx.num(rng.random())
        expect = ck.eval(x, star) + hom.value((x,))
        assert abs(sol2.evaluate((x,)) - expect) < mpmath.mpf(10) ** -35


@pytest.mark.parametrize(
    "ident,counts,method",
    [
        ("ex1", (8,), "constrained"),
        ("ex4", (4, 4), "constrained"),
        ("ex7", (3, 3, 3), "constrained"),
        ("ex4", (4, 4), "kansa"),
        # a factored intermediate axis; a factored fold axis in 2D; a
        # factored intermediate axis in 3D
        ("ex3", (8, 4), "constrained"),
        ("ex6", (5, 10), "constrained"),
        ("ex7", (5, 2, 2), "constrained"),
    ],
)
def test_evaluate_axes_equals_pointwise_evaluate(ident, counts, method):
    """A tensor grid of points is contracted exactly as each of its points
    alone, so the values are identical, homogenization map included."""
    ctx = MP40
    record = get_example(ident)
    problem = record.make(ctx, 0.5) if record.has_eps else record.make(ctx)
    if method == "constrained":
        sol = solve(problem, counts, 1.0, ctx)
    else:
        sol = kansa_solve(problem, counts, 1.0, ctx)
    rng = random.Random(31)
    axes = [
        sorted([a, b] + [a + (b - a) * ctx.num(rng.random()) for _ in range(3)])
        for a, b in problem.domain
    ]
    got = sol.evaluate_axes(axes)
    assert got == [sol.evaluate(p) for p in itertools.product(*axes)]


def test_solution_partials_match_finite_differences():
    ctx = FLOAT64
    sol = solve(get_example("ex4").make(ctx), (5, 5), 2.0, ctx)

    def as_bivariate(x, y):
        return sol.evaluate((x, y))

    rng = random.Random(19)
    for _ in range(6):
        x, y = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        for orders in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
            got = sol.partial(orders, (x, y))
            ref = fd_mixed_partial_f64(as_bivariate, orders[0], orders[1], x, y)
            assert got == pytest.approx(ref, rel=2e-4, abs=1e-5)


def test_mode_equivalence_well_conditioned():
    ctx = Precision("mp", 40)
    problem = _trivial_problem(ctx)
    s_ps = solve(problem, (6,), 1.0, ctx, mode="ps")
    s_direct = solve(problem, (6,), 1.0, ctx, mode="direct")
    diff = max(abs(a - b) for a, b in zip(s_ps.nodal, s_direct.nodal))
    scale = max(abs(a) for a in s_direct.nodal)
    assert diff <= mpmath.mpf(10) ** (8 - 40) * scale


QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _boundary_condition(draw, a, ctx):
    """A Dirichlet, Neumann or Robin condition at ``a`` with coefficients
    and data in quarters of [-2, 2]."""
    kind = draw(st.sampled_from(["dirichlet", "neumann", "robin"]))
    rhs = draw(QUARTERS)
    if kind == "robin":
        alpha, beta = draw(QUARTERS), draw(QUARTERS)
        assume(alpha or beta)
        return BoundaryCondition(make_robin(alpha, beta, a, rhs, ctx))
    make = make_dirichlet if kind == "dirichlet" else make_neumann
    return BoundaryCondition(make(a, rhs, ctx))


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_ps_and_direct_routes_agree_within_their_digits(data):
    """u'' + q u = f on [0, 1], N <= 10 nodes, c log-uniform in [0.01, 2],
    mp:40: each route's nodal values are within 10^-E of the largest of
    the assembled system's solution, E its effective digits, so the two
    differ by at most 2 10^-E of it."""
    ctx = MP40
    pair = tuple(data.draw(_boundary_condition(a, ctx), label=f"bc at {a}") for a in (0, 1))
    q, f = data.draw(QUARTERS, label="q"), data.draw(QUARTERS, label="f")
    n = data.draw(st.integers(2, 10), label="N")
    shape = 10 ** data.draw(st.floats(-2, math.log10(2)), label="log10 c")
    problem = ProblemSpec(
        domain=((ctx.zero, ctx.one),),
        operator=OperatorSpec((OperatorTerm((2,), 1), OperatorTerm((0,), q))),
        bcs=(pair,),
        rhs=lambda p: ctx.num(f),
    )
    try:
        direct, ps = (solve(problem, (n,), shape, ctx, mode=m) for m in ("direct", "ps"))
    except DegenerateConstraint:
        assume(False)
    digits = min(s.diagnostics["effective_digits"] for s in (direct, ps))
    diff = max(abs(u - v) for u, v in zip(ps.nodal, direct.nodal))
    scale = max(abs(v) for v in direct.nodal)
    assert diff <= 2 * ctx.mp.mpf(10) ** -digits * scale


def _trivial_system(ctx, n):
    """A and A_L of ``_trivial_problem`` on n interior nodes, c = 1."""
    problem = _trivial_problem(ctx)
    funcs = [bc.functional.homogeneous() for bc in problem.bcs[0]]
    kernels = [impose_sequence(GaussianKernel(ctx.one, ctx), funcs)]
    g = build_grid(problem.domain, (n,), "uniform-interior", ctx)
    return (
        build_evaluation_matrix(g, kernels),
        build_operator_matrix(g, kernels, problem.operator),
    )


def test_operational_factors_solve_transpose():
    """L^-T after A^-T solves A_L^T x = b, A_L = L A, to the working
    precision: the residual is small against |A_L| |x|."""
    ctx = MP40
    a, a_l = _trivial_system(ctx, 6)
    b = [ctx.num(i % 3) - 1 for i in range(6)]
    x = _OperationalFactors(ctx, a, a_l).solve_transpose_vec(b)
    a_l = number_rows(a_l)
    resid = max(abs(sum(a_l[j][i] * x[j] for j in range(6)) - b[i]) for i in range(6))
    scale = norm_1(a_l) * max(abs(v) for v in x)
    assert resid <= mpmath.mpf(10) ** (8 - 40) * scale


def test_ps_solve_factors_a_axis_a_and_l_only(monkeypatch):
    """One 1D ps solve factors the axis table (cond_A), A and L: cond_AL
    comes from those factors, with no LU of A_L."""
    made = []
    init = numerics.LUFactorization.__init__

    def counted(self, ctx, a):
        made.append(len(a))
        init(self, ctx, a)

    monkeypatch.setattr(numerics.LUFactorization, "__init__", counted)
    solve(_trivial_problem(MP40), (6,), 1.0, MP40, mode="ps")
    assert made == [6, 6, 6]


def test_ps_cond_al_matches_the_lu_estimate():
    ctx = MP40
    a, a_l = _trivial_system(ctx, 6)
    sol = solve(_trivial_problem(ctx), (6,), 1.0, ctx, mode="ps")
    ref = lu_factor(ctx, a_l).cond1_estimate(a_l)
    assert ref / 10 <= sol.diagnostics["cond_AL"] <= ref * 10


def test_float64_routes_record_the_same_diagnostics():
    """float64 solves go through refine too: a plain solve, reported as
    16 digits with no refinement step, and nodal = A lambda + M on both
    routes."""
    problem = _trivial_problem(FLOAT64)
    sols = {m: solve(problem, (6,), 1.0, FLOAT64, mode=m) for m in ("direct", "ps")}
    for sol in sols.values():
        assert sol.diagnostics["effective_digits"] == 16
        assert sol.diagnostics["refine_steps"] == 0
        assert sol.diagnostics["cond_AL"] > 0
    direct, ps = sols["direct"].nodal, sols["ps"].nodal
    diff = max(abs(u - v) for u, v in zip(ps, direct))
    assert diff <= 1e-8 * max(abs(v) for v in direct)


def test_solve_validates_arguments():
    ctx = FLOAT64
    with pytest.raises(ValueError):
        solve(_trivial_problem(ctx), (5, 5), 1.0, ctx)
    with pytest.raises(ValueError):
        solve(_trivial_problem(ctx), (5,), 1.0, ctx, mode="iterative")


def test_problemspec_validates_locations():
    ctx = FLOAT64
    with pytest.raises(ValueError):
        ProblemSpec(
            domain=((0.0, 1.0),),
            operator=OperatorSpec((OperatorTerm((2,), 1),)),
            bcs=(
                (
                    BoundaryCondition(make_dirichlet(-0.5, 0, ctx)),
                    BoundaryCondition(make_dirichlet(1, 0, ctx)),
                ),
            ),
            rhs=lambda p: 0.0,
        )


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(())
    with pytest.raises(ValueError):
        OperatorSpec((OperatorTerm((3,), 1),))
