import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcrbf.constrained import impose, impose_sequence
from bcrbf.errors import DegenerateConstraint
from bcrbf.functionals import (
    make_dirichlet,
    make_multipoint,
    make_neumann,
    make_robin,
)
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import FLOAT64, Precision
from bcrbf.pseudospectral import (
    OperatorSpec,
    OperatorTerm,
    build_grid,
    build_operator_matrix,
)
from bcrbf.numerics import lu_factor

from oracles import apply_to_function, bilinear, cholesky, fd_mixed_partial_f64

MP50 = Precision("mp", 50)


def slice_in_x(kernel, y):
    """x -> kernel(x, y) with derivative access, for functional application."""

    class _S:
        def __call__(self, x):
            return kernel.mixed_partial(0, 0, x, y)

        def deriv(self, x, order):
            return kernel.mixed_partial(order, 0, x, y)

    return _S()


def test_single_dirichlet_closed_form():
    k = GaussianKernel(1.0)
    ck = impose(k, make_dirichlet(0.0))
    # R1(x, y) = exp(-(x-y)^2) - exp(-x^2) exp(-y^2)
    assert ck.eval(0.0, 0.7) == pytest.approx(0.0, abs=1e-15)
    assert ck.eval(0.5, 0.5) == pytest.approx(1 - math.exp(-0.5))
    rng = random.Random(8)
    for _ in range(20):
        x, y = rng.uniform(-1, 2), rng.uniform(-1, 2)
        expect = math.exp(-((x - y) ** 2)) - math.exp(-x * x) * math.exp(-y * y)
        assert ck.eval(x, y) == pytest.approx(expect, rel=1e-13, abs=1e-15)


def test_multipoint_annihilation():
    k = GaussianKernel(1.0)
    L = make_multipoint(0.0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)])
    ck = impose(k, L)
    val = apply_to_function(L, slice_in_x(ck, 1.0))
    assert abs(val) < 1e-14


def test_sequence_two_dirichlet():
    k = GaussianKernel(1.0)
    ck = impose_sequence(k, [make_dirichlet(0.0), make_dirichlet(1.0)])
    for y in (0.25, 0.5, 0.9):
        assert abs(ck.eval(0.0, y)) < 1e-14
        assert abs(ck.eval(1.0, y)) < 1e-14


def test_sequence_robin_pair_all_slots():
    eps = 2.0**-5
    l1 = make_robin(1.0, -eps, 0.0)
    l2 = make_robin(1.0, 1.0, 1.0)
    ck = impose_sequence(GaussianKernel(1.0), [l1, l2])
    rng = random.Random(77)
    for _ in range(20):
        y = rng.uniform(0, 1)
        assert abs(apply_to_function(l1, slice_in_x(ck, y))) < 1e-12
        assert abs(apply_to_function(l2, slice_in_x(ck, y))) < 1e-12


def test_empty_sequence_returns_base():
    k = GaussianKernel(1.0)
    assert impose_sequence(k, []) is k


def test_preservation_after_second_imposition():
    # the first functional still annihilates after the second correction
    l1 = make_neumann(0.0)
    l2 = make_dirichlet(1.0)
    ck = impose_sequence(GaussianKernel(0.8), [l1, l2])
    rng = random.Random(5)
    for _ in range(20):
        y = rng.uniform(0, 1)
        assert abs(apply_to_function(l1, slice_in_x(ck, y))) < 1e-12


def test_symmetry():
    """Imposed kernels stay symmetric, mixed partials included:
    d_x^m d_y^n R1(x, y) = d_x^n d_y^m R1(y, x) for m + n <= 2, within
    10^(5-D) of scale in float64 and at mp:50.  Each correction reads one
    trace for both its factors on the strength of this."""
    ck = impose_sequence(
        GaussianKernel(1.2), [make_robin(1, -0.3, 0.0), make_dirichlet(1.0)]
    )
    rng = random.Random(13)
    for _ in range(20):
        x, y = rng.uniform(0, 1), rng.uniform(0, 1)
        assert ck.eval(x, y) == pytest.approx(ck.eval(y, x), rel=1e-12, abs=1e-15)
    for ctx in (FLOAT64, MP50):
        pairs = [
            [make_robin(1, "-0.3", 0, 0, ctx), make_robin(1, 1, 1, 0, ctx)],
            [make_neumann(0, 0, ctx), make_neumann(1, 0, ctx)],
            [
                make_multipoint(0, [("0.25", "0.6"), ("0.5", "1.2")], 0, ctx),
                make_dirichlet(1, 0, ctx),
            ],
        ]
        for functionals in pairs:
            ck = impose_sequence(GaussianKernel("1.2", ctx), functionals)
            for _ in range(5):
                x, y = ctx.num(rng.uniform(0, 1)), ctx.num(rng.uniform(0, 1))
                for m in range(3):
                    for n in range(3 - m):
                        a = ck.mixed_partial(m, n, x, y)
                        b = ck.mixed_partial(n, m, y, x)
                        assert abs(a - b) <= ctx.tol(5) * max(ctx.one, abs(a))


def test_annihilation_order_independent():
    l1 = make_dirichlet(0.0)
    l2 = make_neumann(1.0)
    ck_a = impose_sequence(GaussianKernel(1.0), [l1, l2])
    ck_b = impose_sequence(GaussianKernel(1.0), [l2, l1])
    rng = random.Random(31)
    for _ in range(10):
        y = rng.uniform(0, 1)
        for ck in (ck_a, ck_b):
            assert abs(apply_to_function(l1, slice_in_x(ck, y))) < 1e-12
            assert abs(apply_to_function(l2, slice_in_x(ck, y))) < 1e-12


def test_mixed_partial_consistency():
    ck = impose(GaussianKernel(1.0), make_dirichlet(0.0))
    assert ck.mixed_partial(0, 0, 0.3, 0.8) == ck.eval(0.3, 0.8)
    # d/dx R1 at (0.5, 0.5): closed form derivative of exp(-(x-y)^2) - e^{-x^2}e^{-y^2}
    expect = 0 - (-2 * 0.5 * math.exp(-0.25)) * math.exp(-0.25)
    assert ck.mixed_partial(1, 0, 0.5, 0.5) == pytest.approx(expect, rel=1e-12)


def test_mixed_partials_match_finite_differences():
    rng = random.Random(99)
    l1 = make_robin(1.0, -0.4, 0.0)
    l2 = make_dirichlet(1.0)
    ck = impose_sequence(GaussianKernel(1.1), [l1, l2])
    for _ in range(40):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        m = rng.randint(0, 2)
        n = rng.randint(0, 2 - m)
        got = ck.mixed_partial(m, n, x, y)
        ref = fd_mixed_partial_f64(ck.eval, m, n, x, y)
        assert abs(got - ref) <= 1e-4 * max(abs(got), 1e-2)


def test_degenerate_constraint():
    k = GaussianKernel(1.0)
    ck = impose(k, make_dirichlet(0.0))
    # the same functional again: gamma = R1(0, 0) = 0 exactly
    with pytest.raises(DegenerateConstraint) as exc:
        impose(ck, make_dirichlet(0.0))
    assert exc.value.gamma is not None
    with pytest.raises(DegenerateConstraint) as exc:
        impose_sequence(k, [make_dirichlet(0.0), make_dirichlet(0.0)])
    assert exc.value.index == 1


def test_degenerate_constraint_beyond_float_range():
    """At 400 digits the tolerance 10^(5-400) lies below the smallest
    float, and must still refuse gamma = 2c^2 = 2e-398 (a Neumann
    functional on a Gaussian with c = 1e-199), as 150 digits refuse a
    gamma below 10^-145."""
    for dps, c in ((400, "1e-199"), (150, "1e-74")):
        ctx = Precision("mp", dps)
        assert 0 < ctx.tol(5) < ctx.num(10) ** (6 - dps)
        with pytest.raises(DegenerateConstraint) as exc:
            impose(GaussianKernel(ctx.num(c), ctx), make_neumann(0, 0, ctx))
        assert exc.value.gamma > 0
        assert "e-" in str(exc.value)


BC_PAIRS = {
    "dirichlet": lambda ctx: [make_dirichlet(0, 0, ctx), make_dirichlet(1, 0, ctx)],
    "neumann": lambda ctx: [make_neumann(0, 0, ctx), make_neumann(1, 0, ctx)],
    "mixed": lambda ctx: [make_dirichlet(0, 0, ctx), make_neumann(1, 0, ctx)],
    "robin": lambda ctx: [
        make_robin(1, -0.03125, 0, 0, ctx),
        make_robin(1, 1, 1, 0, ctx),
    ],
    "multipoint": lambda ctx: [
        make_multipoint(0, [(0.25, 0.3), (0.5, 0.6), (0.25, 0.9)], 0, ctx),
        make_dirichlet(1, 0, ctx),
    ],
}


@pytest.mark.parametrize("bc_type", sorted(BC_PAIRS))
def test_positive_definiteness_on_clean_points(bc_type):
    """Gram matrices on points away from the functional supports pass
    Cholesky in big-float arithmetic."""
    ctx = MP50
    rng = random.Random(hash(bc_type) % 10_000)
    funcs = BC_PAIRS[bc_type](ctx)
    ck = impose_sequence(GaussianKernel(1, ctx), funcs)
    supports = [float(loc) for f in funcs for loc in f.support_locations()]
    for _ in range(5):
        pts = []
        while len(pts) < 6:
            t = rng.uniform(0.02, 0.98)
            if all(abs(t - s) > 2e-2 for s in supports + pts):
                pts.append(t)
        nodes = [ctx.num(t) for t in pts]
        gram = [[ck.eval(a, b) for b in nodes] for a in nodes]
        assert cholesky(ctx, gram) is not None


def test_operator_matrix_nonsingular_small_grids():
    """The collocation operator matrix factorizes for the benchmark-style
    operators on small grids (big-float)."""
    ctx = MP50
    eps = ctx.num(2) ** -5
    ck = impose_sequence(
        GaussianKernel(1, ctx),
        [make_robin(1, -eps, 0, 0, ctx), make_robin(1, 1, 1, 0, ctx)],
    )
    op = OperatorSpec(
        (OperatorTerm((2,), eps), OperatorTerm((1,), lambda p: 1 / (1 + p[0])))
    )
    for n in (4, 6, 8):
        grid = build_grid(((ctx.zero, ctx.one),), (n,), "uniform-interior", ctx)
        a_l = build_operator_matrix(grid, [ck], op)
        lu_factor(ctx, a_l)  # raises SingularMatrix on failure


def test_annihilation_mp_tolerance():
    """Big-float annihilation residuals stay below 10^(10-D)."""
    ctx = MP50
    rng = random.Random(41)
    funcs = [
        make_robin(1, -ctx.num("0.03125"), 0, 0, ctx),
        make_robin(1, 1, 1, 0, ctx),
    ]
    ck = impose_sequence(GaussianKernel(1, ctx), funcs)
    bound = mpmath.mpf(10) ** (10 - 50)
    for _ in range(20):
        y = ctx.num(rng.random())
        for L in funcs:
            assert abs(apply_to_function(L, slice_in_x(ck, y))) < bound


@pytest.mark.parametrize("s", ["1e-30", "3e-18", "1e-18", "1e30"])
def test_scaled_functionals_impose_as_unscaled_ones(s):
    """A Dirichlet pair scaled by s imposes at any s, at mp:40 on a
    Gaussian with c = 0.5: the degeneracy threshold scales with the
    functional as gamma does.  The kernel annihilates each functional to
    10^(5-D) of the functional applied to the base kernel, and the same
    scaled functional imposed twice is still refused."""
    ctx = Precision("mp", 40)
    base = GaussianKernel(ctx.num("0.5"), ctx)
    funcs = [make_robin(s, 0, 0, ctx=ctx), make_robin(s, 0, 1, ctx=ctx)]
    ck = impose_sequence(base, funcs)
    bound = mpmath.mpf(10) ** (5 - ctx.digits)
    for y in ("0.1", "0.5", "0.9"):
        y = ctx.num(y)
        for L in funcs:
            got = apply_to_function(L, slice_in_x(ck, y))
            assert abs(got) <= bound * abs(apply_to_function(L, slice_in_x(base, y)))
    with pytest.raises(DegenerateConstraint):
        impose_sequence(base, [funcs[0], funcs[0]])


def test_imposed_metadata():
    l1 = make_dirichlet(0.0)
    l2 = make_neumann(1.0)
    ck = impose_sequence(GaussianKernel(1.0), [l1, l2])
    assert ck.imposed == (l1, l2)
    assert len(ck.traces) == 2


COEFFS = st.floats(-2, 2)


@st.composite
def _admissible_pair(draw, ctx):
    """A low-side functional at 0 of any kind (multipoint with 1-3 supports
    in (0, 1)) and a high-side Dirichlet, Neumann or Robin functional at 1,
    with coefficients in [-2, 2]."""

    def simple(kind, a):
        if kind != "robin":
            return {"dirichlet": make_dirichlet, "neumann": make_neumann}[kind](a, 0, ctx)
        alpha, beta = draw(COEFFS), draw(COEFFS)
        assume(alpha or beta)
        return make_robin(alpha, beta, a, 0, ctx)

    kinds = ["dirichlet", "neumann", "robin"]
    low = draw(st.sampled_from([*kinds, "multipoint"]))
    if low == "multipoint":
        xis = draw(st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                            min_size=1, max_size=3, unique=True))
        first = make_multipoint(0, [(draw(COEFFS), xi) for xi in sorted(xis)], 0, ctx)
    else:
        first = simple(low, 0)
    return [first, simple(draw(st.sampled_from(kinds)), 1)]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_imposed_kernels_annihilate_random_admissible_functionals(data):
    """Both imposed functionals annihilate the kernel in x at any y, to
    10^(10-D) of the terms that cancel: per functional term c_k d^{o_k},
    the base entry and each correction phi_j(loc_k) phi_j(y) / gamma_j."""
    ctx = MP50
    shape = data.draw(st.floats(0.05, 3, exclude_min=True), label="c")
    funcs = data.draw(_admissible_pair(ctx), label="functionals")
    try:
        ck = impose_sequence(GaussianKernel(shape, ctx), funcs)
    except DegenerateConstraint:
        assume(False)
    ys = data.draw(st.lists(st.floats(0, 1), min_size=3, max_size=3), label="y")
    for y in map(ctx.num, ys):
        scaled = [t.deriv(y, 0) / g for t, g in zip(ck.traces, ck.gammas)]
        for L in funcs:
            size = sum(
                abs(t.coeff) * (
                    abs(ck.base.mixed_partial(t.order, 0, t.location, y))
                    + sum(abs(tr.deriv(t.location, t.order) * s)
                          for tr, s in zip(ck.traces, scaled))
                )
                for t in L.terms
            )
            residual = apply_to_function(L, slice_in_x(ck, y))
            assert abs(residual) <= ctx.tol(10) * max(ctx.one, size)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_gamma_from_the_trace_equals_the_double_sum(data):
    """Each correction's gamma, L applied to its own kernel trace, equals
    the double sum over the kernel's entries it was imposed on: bit for
    bit for a one-term functional, whose two forms round the same
    products, and within 10^(5-D) relative when the sums' orders differ."""
    ctx = MP50
    shape = data.draw(st.floats(0.05, 3, exclude_min=True), label="c")
    funcs = data.draw(_admissible_pair(ctx), label="functionals")
    kernel = GaussianKernel(shape, ctx)
    for L in funcs:
        expected = bilinear(L, L, kernel)
        try:
            kernel = impose(kernel, L)
        except DegenerateConstraint:
            assume(False)
        gamma = kernel.gammas[-1]
        if len(L.terms) == 1:
            assert gamma == expected
        else:
            assert abs(gamma - expected) <= ctx.tol(5) * abs(expected)
