import itertools
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcrbf.benchmarks import get_example
from bcrbf.errors import NoHomogenizer
from bcrbf.fields import apply_functional
from bcrbf.functionals import (
    make_dirichlet,
    make_multipoint,
    make_neumann,
    make_robin,
)
from bcrbf.homogenize import HomogenizationMap, _ansatz_weights, homogenize_nd
from bcrbf.fields import FieldTraceData, Fn1, LambdaField, fn_constant
from bcrbf.numerics import FLOAT64, Precision

from oracles import (
    fd_mixed_partial_f64,
    functional_on_monomial,
    homogenize_1d,
    homogenize_2d_dirichlet,
)

MP40 = Precision("mp", 40)
MP50 = Precision("mp", 50)


def test_1d_robin_pair_constant_map():
    eps = 2.0**-5
    m = homogenize_1d(
        make_robin(1, -eps, 0, 1), make_robin(1, 1, 1, 1), FLOAT64
    )
    for x in (0.0, 0.3, 1.0):
        assert m.value((x,)) == pytest.approx(1.0)
        assert m.partial((1,), (x,)) == pytest.approx(0.0, abs=1e-13)


def test_1d_dirichlet_linear_interpolant():
    m = homogenize_1d(make_dirichlet(0, 0), make_dirichlet(1, 1), FLOAT64)
    for x in (0.0, 0.25, 0.7, 1.0):
        assert m.value((x,)) == pytest.approx(x)


def test_1d_homogeneous_data_gives_zero():
    m = homogenize_1d(make_dirichlet(0, 0), make_neumann(1, 0), FLOAT64)
    for x in (0.1, 0.9):
        assert m.value((x,)) == pytest.approx(0.0, abs=1e-15)


def test_1d_neumann_pair_escalates_degree():
    # u'(0) = 1, u'(1) = 3 has no linear solution; needs a quadratic
    l1, l2 = make_neumann(0, 1), make_neumann(1, 3)
    m = homogenize_1d(l1, l2, FLOAT64)
    assert apply_functional(l1, 0, m) == pytest.approx(1.0)
    assert apply_functional(l2, 0, m) == pytest.approx(3.0)


def test_1d_multipoint_with_dirichlet():
    l1 = make_multipoint(0.0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)], 0.5)
    l2 = make_dirichlet(2.0, 3.0)
    m = homogenize_1d(l1, l2, FLOAT64)
    assert apply_functional(l1, 0, m) == pytest.approx(0.5)
    assert apply_functional(l2, 0, m) == pytest.approx(3.0)


def test_multipoint_annihilating_linears_escalates_degree():
    # u(0) - 2 u(1) + u(2) is 0 on every linear polynomial: its degree-1
    # row is all zeros, and the ansatz moves on to x^2
    l1 = make_multipoint(0.0, [(2.0, 1.0), (-1.0, 2.0)], 0.5)
    l2 = make_dirichlet(3.0, 2.0)
    m = homogenize_1d(l1, l2, FLOAT64)
    assert apply_functional(l1, 0, m) == pytest.approx(0.5)
    assert apply_functional(l2, 0, m) == pytest.approx(2.0)


def test_no_homogenizer():
    # identical functionals with inconsistent data cannot be matched
    with pytest.raises(NoHomogenizer):
        homogenize_1d(make_dirichlet(0.5, 1), make_dirichlet(0.5, 2), FLOAT64)


def _term_by_term_weights(l1, l2, powers, ctx):
    """The inverse of the ansatz's 2x2 system at ``powers`` from rows
    formed term by term, in ``_ansatz_weights``' formula."""
    (s11, s12), (s21, s22) = [
        [functional_on_monomial(l, k, ctx) for k in powers] for l in (l1, l2)
    ]
    det = s11 * s22 - s12 * s21
    return (s22 / det, -s12 / det), (-s21 / det, s11 / det)


@pytest.mark.parametrize("ident", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7"])
def test_ansatz_rows_of_the_benchmarks_equal_the_term_by_term_sum(ident):
    """The ansatz rows, each functional applied to the monomials by
    ``BoundaryFunctional.apply``, give the weights that rows formed term
    by term give, bit for bit, for every pair of the examples."""
    ctx = Precision("mp", 150)
    problem = get_example(ident).make(ctx)
    for low, high in problem.bcs:
        l1, l2 = low.functional, high.functional
        powers, w = _ansatz_weights(l1, l2, ctx)
        assert w == _term_by_term_weights(l1, l2, powers, ctx)


_DYADIC = st.integers(-16, 16).map(lambda i: i / 8)
_COEFF = st.floats(-2, 2).filter(bool)


@st.composite
def _dyadic_functional(draw):
    """Any kind of functional at locations that are multiples of 1/8 in
    [-2, 2], with float coefficients: k x^(k-1) is exact there, so the
    apply form c (k x^(k-1)) and the term-by-term form (c k) x^(k-1) round
    the same product."""
    kind = draw(st.sampled_from(["dirichlet", "neumann", "robin", "multipoint"]))
    a = draw(_DYADIC)
    if kind == "dirichlet":
        return make_dirichlet(a, 0, MP40)
    if kind == "neumann":
        return make_neumann(a, 0, MP40)
    if kind == "robin":
        alpha, beta = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
        assume(alpha or beta)
        return make_robin(alpha, beta, a, 0, MP40)
    xis = draw(st.lists(_DYADIC.filter(lambda x: x > a), min_size=1, max_size=3,
                        unique=True))
    return make_multipoint(a, [(draw(_COEFF), xi) for xi in sorted(xis)], 0, MP40)


@settings(max_examples=100, deadline=None, database=None)
@given(l1=_dyadic_functional(), l2=_dyadic_functional())
def test_ansatz_rows_equal_the_term_by_term_sum(l1, l2):
    try:
        powers, w = _ansatz_weights(l1, l2, MP40)
    except NoHomogenizer:
        assume(False)
    assert w == _term_by_term_weights(l1, l2, powers, MP40)


def _scaled(s, value):
    return MP40.num(s) * MP40.num(value)


_SCALED_PAIRS = [
    *[pytest.param(make_robin(0, b, 0, _scaled(b, "0.75"), MP40),
                   make_dirichlet(1, "-1.25", MP40), id=f"neumann-times-{b}")
      for b in ("1e-30", "1e-36", "1e-60")],
    *[pytest.param(make_robin(s, 0, 0, _scaled(s, "0.75"), MP40),
                   make_robin(s, 0, 1, _scaled(s, "-1.25"), MP40),
                   id=f"dirichlet-pair-times-{s}")
      for s in ("1e-30", "1e-36", "1e30")],
    pytest.param(make_dirichlet(0, "0.75", MP40), make_dirichlet("1e-40", "-1.25", MP40),
                 id="dirichlet-pair-1e-40-apart"),
]


@pytest.mark.parametrize("l1, l2", _SCALED_PAIRS)
def test_ansatz_accepts_a_pair_at_any_scale(l1, l2):
    """A pair is judged on rows scaled to unit size, with no floor: a
    Neumann condition at 0 scaled by s beside a Dirichlet one at 1, a
    Dirichlet pair scaled by s, or a Dirichlet pair 1e-40 apart is
    matched, and the map reproduces each datum to 10^(5-D) relative."""
    m = homogenize_1d(l1, l2, MP40)
    for L in (l1, l2):
        assert abs(apply_functional(L, 0, m) - L.rhs) <= MP40.tol(5) * abs(L.rhs)


@pytest.mark.parametrize("s", ["1e-30", "1", "1e30"])
def test_same_point_dirichlet_pair_has_no_homogenizer_at_any_scale(s):
    with pytest.raises(NoHomogenizer):
        homogenize_1d(
            make_robin(s, 0, "0.5", 1, MP40), make_robin(s, 0, "0.5", 2, MP40), MP40
        )


def test_float64_pair_whose_determinant_underflows_has_no_homogenizer():
    """Scaled to unit size the pair is regular, but in binary64 its
    determinant, 1e-340, underflows to 0: no weights exist to divide by."""
    with pytest.raises(NoHomogenizer):
        homogenize_1d(make_robin(1e-170, 0, 0), make_robin(1e-170, 0, 1), FLOAT64)


def test_2d_dirichlet_all_zero():
    z = fn_constant(0.0)
    m = homogenize_2d_dirichlet(z, z, z, z, ((0.0, 1.0), (0.0, 1.0)), FLOAT64)
    rng = random.Random(4)
    for _ in range(10):
        p = (rng.random(), rng.random())
        assert m.value(p) == pytest.approx(0.0, abs=1e-15)


def test_2d_dirichlet_two_stage_formula():
    # g1(y) = y, g2 = 0, h1 = 0, h2(x) = 1 - x  =>  M(x, y) = (1 - x) y
    g1 = Fn1(lambda y: y, lambda y: 1.0, lambda y: 0.0)
    z = fn_constant(0.0)
    h2 = Fn1(lambda x: 1 - x, lambda x: -1.0, lambda x: 0.0)
    m = homogenize_2d_dirichlet(g1, z, z, h2, ((0.0, 1.0), (0.0, 1.0)), FLOAT64)
    assert m.value((0.5, 0.5)) == pytest.approx(0.25)
    rng = random.Random(6)
    for _ in range(20):
        x, y = rng.random(), rng.random()
        assert m.value((x, y)) == pytest.approx((1 - x) * y, rel=1e-12, abs=1e-13)


def _bc_residuals(problem, m, ctx, samples=10, seed=3):
    rng = random.Random(seed)
    worst = ctx.zero
    for d in range(problem.dim):
        for side in (0, 1):
            functional = problem.bcs[d][side].functional
            data = problem.data_for(d, side)
            for _ in range(samples):
                t = tuple(
                    ctx.num(a + (b - a) * rng.random())
                    for e, (a, b) in enumerate(problem.domain)
                    if e != d
                )
                r = abs(apply_functional(functional, d, m, t) - data.value(t))
                worst = max(worst, r)
    return worst


@pytest.mark.parametrize("ident", ["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7"])
def test_boundary_data_reproduced_for_benchmarks(ident):
    ctx = MP50
    record = get_example(ident)
    problem = record.make(ctx)
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    m = homogenize_nd(pairs, ctx)
    worst = _bc_residuals(problem, m, ctx)
    assert worst < mpmath.mpf(10) ** -40


def test_nd_all_homogeneous_data_gives_zero_map():
    ctx = FLOAT64
    problem = get_example("ex5").make(ctx)  # every face carries zero data
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    m = homogenize_nd(pairs, ctx)
    rng = random.Random(9)
    for _ in range(10):
        p = tuple(a + (b - a) * rng.random() for a, b in problem.domain)
        assert m.value(p) == 0.0


def test_idempotence_residual_problem():
    ctx = MP50
    record = get_example("ex4")
    problem = record.make(ctx)
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    m = homogenize_nd(pairs, ctx)

    from bcrbf.fields import ScalarField

    class ResidualData(ScalarField):
        dim = 1

        def __init__(self, d, side):
            self.functional = problem.bcs[d][side].functional
            self.data = problem.data_for(d, side)
            self.d = d

        def partial(self, orders, tpoint):
            if any(orders):
                raise NotImplementedError
            return self.data.value(tpoint) - apply_functional(
                self.functional, self.d, m, tpoint
            )

    pairs2 = [
        (
            (problem.bcs[d][0].functional, ResidualData(d, 0)),
            (problem.bcs[d][1].functional, ResidualData(d, 1)),
        )
        for d in range(problem.dim)
    ]
    m2 = homogenize_nd(pairs2, ctx)
    rng = random.Random(11)
    worst = max(
        abs(m2.value((ctx.num(rng.random()), ctx.num(rng.random()))))
        for _ in range(25)
    )
    assert worst < mpmath.mpf(10) ** -40


def test_map_smoothness_against_finite_differences():
    ctx = FLOAT64
    record = get_example("ex4")
    problem = record.make(ctx)
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    m = homogenize_nd(pairs, ctx)

    def as_bivariate(x, y):
        return m.value((x, y))

    rng = random.Random(17)
    for _ in range(15):
        x, y = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        for orders in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1)):
            got = m.partial(orders, (x, y))
            ref = fd_mixed_partial_f64(as_bivariate, orders[0], orders[1], x, y)
            assert got == pytest.approx(ref, rel=2e-4, abs=1e-5)


def _nonseparable_pairs(ctx, x_faces=None):
    """Neumann and Robin faces of u = 1 / (2 + x + 2y + 3z), traced;
    ``x_faces`` replaces the functionals in direction x."""
    weights = (1, 2, 3)

    def handler(orders, p):
        n = sum(orders)
        s = 2 + sum(w * x for w, x in zip(weights, p))
        scale = math.prod(w**o for w, o in zip(weights, orders))
        return (-1) ** n * math.factorial(n) * scale / s ** (n + 1)

    u = LambdaField(3, handler)
    faces = (
        x_faces or (make_neumann(0, 0, ctx), make_robin(1, "0.5", 1, 0, ctx)),
        (make_robin(1, "-0.25", 0, 0, ctx), make_neumann(1, 0, ctx)),
        (make_robin(2, 1, 0, 0, ctx), make_robin(1, 1, 1, 0, ctx)),
    )
    return [
        tuple((l, FieldTraceData(u, d, l)) for l in pair)
        for d, pair in enumerate(faces)
    ]


def test_3d_neumann_robin_faces_of_nonseparable_field():
    """Derivative traces frozen through three sweeps: every face functional
    of the map equals its data, u = 1 / (2 + x + 2y + 3z) traced."""
    ctx = MP50
    pairs = _nonseparable_pairs(ctx)
    m = homogenize_nd(pairs, ctx)
    rng = random.Random(12)
    for d, pair in enumerate(pairs):
        for functional, data in pair:
            for _ in range(4):
                t = (ctx.num(rng.random()), ctx.num(rng.random()))
                r = apply_functional(functional, d, m, t) - data.value(t)
                assert abs(r) < mpmath.mpf(10) ** -40


def _example_map(ident, ctx, eps=None):
    problem = get_example(ident).make(ctx, eps)
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    return homogenize_nd(pairs, ctx), problem.domain


def _term_by_term(m, orders, p, dps):
    """d^orders M at p summed term by term over ``m.terms`` at ``dps``
    digits, and the sum of the terms' magnitudes."""
    with mpmath.workdps(dps):
        total = absum = mpmath.mpf(0)
        for trace, monomials in m.terms:
            g = 1
            if trace is not None:
                data, slots = trace
                torders = tuple(orders[e] if f is None else f[0] for e, f in slots)
                tpoint = tuple(p[e] if f is None else f[1] for e, f in slots)
                g = mpmath.mpf(data.partial(torders, tpoint))
            for coeff, powers in monomials:
                term = mpmath.mpf(coeff) * g
                for k, o, x in zip(powers, orders, p):
                    if k is not None:
                        term *= mpmath.ff(k, o) * mpmath.mpf(x) ** (k - o) if o <= k else 0
                total += term
                absum += abs(term)
        return total, absum


@pytest.mark.parametrize(
    "ident, mode",
    [
        ("ex1", "mp"),
        ("ex4", "mp"),
        ("ex7", "mp"),
        ("nonseparable", "mp"),
        ("neumann-pair", "mp"),
        ("ex4", "float64"),
    ],
)
def test_grid_evaluation_equals_pointwise(ident, mode):
    """partial_axes on a non-uniform grid with a 1-point axis equals
    pointwise partial bit for bit, for every orders of total order <= 2,
    and the term-by-term sum at 30 more digits to 10^(5-D) of the sum of
    the terms' magnitudes.  The Neumann pair in x needs quadratics, so
    derivatives of x^2 are covered."""
    ctx = MP50 if mode == "mp" else FLOAT64
    if ident == "nonseparable":
        m = homogenize_nd(_nonseparable_pairs(ctx), ctx)
        domain = ((0, 1),) * 3
    elif ident == "neumann-pair":
        x_faces = (make_neumann(0, 0, ctx), make_neumann(1, 0, ctx))
        m = homogenize_nd(_nonseparable_pairs(ctx, x_faces), ctx)
        domain = ((0, 1),) * 3
    else:
        m, domain = _example_map(ident, ctx, "0.5" if ident == "ex1" else None)
    rng = random.Random(ident)
    axes = [
        tuple(ctx.num(a + (b - a) * rng.random()) for _ in range(n))
        for (a, b), n in zip(domain, (4, 1, 3))
    ]
    points = list(itertools.product(*axes))
    for orders in itertools.product(range(3), repeat=m.dim):
        if sum(orders) > 2:
            continue
        grid = m.partial_axes(orders, axes)
        assert len(grid) == len(points)
        for v, p in zip(grid, points):
            assert v == m.partial(orders, p)
            ref, absum = _term_by_term(m, orders, p, ctx.digits + 30)
            assert abs(v - ref) <= mpmath.mpf(10) ** (5 - ctx.digits) * absum


def test_zero_map():
    m = HomogenizationMap.zero(2, FLOAT64)
    assert m.value((0.3, 0.4)) == 0.0
    assert m.partial((1, 0), (0.3, 0.4)) == 0.0


def test_zero_map_on_a_grid():
    m = HomogenizationMap.zero(2, FLOAT64)
    assert m.partial_axes((0, 1), [(0.1, 0.2, 0.3), (0.4, 0.5)]) == [0.0] * 6
