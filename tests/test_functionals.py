import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcrbf.errors import InvalidFunctional
from bcrbf.functionals import (
    BoundaryFunctional,
    FunctionalTerm,
    KernelTrace,
    format_functional,
    make_dirichlet,
    make_multipoint,
    make_neumann,
    make_robin,
    parse_functional,
)
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import FLOAT64, Precision

from oracles import apply_to_function, bilinear, fd_mixed_partial_f64

MP40 = Precision("mp", 40)


def test_canonical_term_lists():
    d = make_dirichlet(0.4)
    assert [(t.coeff, t.order, t.location) for t in d.terms] == [(1.0, 0, 0.4)]
    n = make_neumann(1.0)
    assert [(t.coeff, t.order, t.location) for t in n.terms] == [(1.0, 1, 1.0)]
    r = make_robin(2.0, 3.0, 0.5)
    assert [(t.coeff, t.order, t.location) for t in r.terms] == [
        (2.0, 0, 0.5),
        (3.0, 1, 0.5),
    ]
    m = make_multipoint(0.0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)])
    assert [(t.coeff, t.order, t.location) for t in m.terms] == [
        (1.0, 0, 0.0),
        (-0.25, 0, 0.6),
        (-0.5, 0, 1.2),
        (-0.25, 0, 1.8),
    ]


def test_robin_with_zero_beta_reduces_to_dirichlet():
    r = make_robin(1.0, 0.0, 0.3)
    d = make_dirichlet(0.3)
    assert r.terms == d.terms
    f = lambda x: x**2 + 2
    assert apply_to_function(r, f, lambda x: 2 * x) == apply_to_function(d, f)


def test_example_boundary_encodings():
    # u(0) - eps u'(0) = 1 with eps = 2^-5
    eps = 2.0**-5
    r = make_robin(1.0, -eps, 0.0, rhs=1.0)
    assert r.rhs == 1.0
    assert r.terms[1].coeff == -eps
    # the multi-point condition u(x,0) = u/4(0.6) + u/2(1.2) + u/4(1.8)
    m = make_multipoint(0.0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)], 0.0)
    v = lambda x: 7.0  # constants annihilated since the weights sum to 1
    assert apply_to_function(m, v) == 0.0


def test_invalid_functionals():
    with pytest.raises(InvalidFunctional):
        make_robin(0, 0, 0.5)
    with pytest.raises(InvalidFunctional):
        make_multipoint(0.0, [(0.5, 0.8), (0.5, 0.4)])  # not ascending
    with pytest.raises(InvalidFunctional):
        make_multipoint(0.5, [(1.0, 0.2)])  # xi below anchor
    with pytest.raises(InvalidFunctional):
        make_multipoint(0.0, [])
    with pytest.raises(InvalidFunctional):
        BoundaryFunctional("custom", [FunctionalTerm(1.0, 2, 0.0)])
    with pytest.raises(InvalidFunctional):
        BoundaryFunctional("custom", [])


def test_apply_to_function_examples():
    assert apply_to_function(make_dirichlet(0.4), lambda x: x**2) == pytest.approx(0.16)
    got = apply_to_function(make_robin(2, 3, 1.0), lambda x: x**2, lambda x: 2 * x)
    assert got == pytest.approx(8.0)
    m = make_multipoint(0.0, [(1.0, 0.5)])
    assert apply_to_function(m, lambda x: 7.0) == 0.0


def test_apply_to_function_requires_derivative_access():
    with pytest.raises(TypeError):
        apply_to_function(make_neumann(0.0), lambda x: x)


def test_linearity_property():
    rng = random.Random(2024)
    for _ in range(50):
        coeffs_u = [rng.uniform(-2, 2) for _ in range(4)]
        coeffs_v = [rng.uniform(-2, 2) for _ in range(4)]
        u = lambda x: sum(c * x**k for k, c in enumerate(coeffs_u))
        du = lambda x: sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs_u) if k)
        v = lambda x: sum(c * x**k for k, c in enumerate(coeffs_v))
        dv = lambda x: sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs_v) if k)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        L = rng.choice(
            [
                make_dirichlet(rng.uniform(0, 1)),
                make_robin(rng.uniform(-2, 2), rng.uniform(0.1, 2), 0.3),
                make_multipoint(0.0, [(0.7, 0.4), (0.3, 0.9)]),
            ]
        )
        w = lambda x: a * u(x) + b * v(x)
        dw = lambda x: a * du(x) + b * dv(x)
        lhs = apply_to_function(L, w, dw)
        rhs = a * apply_to_function(L, u, du) + b * apply_to_function(L, v, dv)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def test_kernel_slot_traces():
    k = GaussianKernel(1.0)
    trace = KernelTrace(k, make_dirichlet(0.0))  # t -> exp(-t^2)
    assert trace(0.7) == pytest.approx(math.exp(-0.49))
    # derivative of the trace at t = 1: d/dt exp(-t^2) = -2 e^-1
    assert trace.deriv(1.0, 1) == pytest.approx(-2 * math.exp(-1))
    neum = KernelTrace(k, make_neumann(0.0))
    assert neum(0.0) == pytest.approx(0.0)  # odd derivative at zero separation


def test_trace_derivatives_match_finite_differences():
    k = GaussianKernel(1.3)
    L = make_robin(0.7, -1.2, 0.4)
    trace = KernelTrace(k, L)

    def as_bivariate(_, t):
        return trace(t)

    for t in (-0.5, 0.2, 1.1):
        fd = fd_mixed_partial_f64(as_bivariate, 0, 1, 0.0, t)
        assert trace.deriv(t, 1) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_bilinear_examples():
    """L1 L2 R as L1 applied to the kernel trace of L2."""
    k = GaussianKernel(1.0)
    a = 0.35

    def bilinear_via_apply(l1, l2):
        return l1.apply(KernelTrace(k, l2).deriv)

    assert bilinear_via_apply(make_dirichlet(a), make_dirichlet(a)) == pytest.approx(1.0)
    assert bilinear_via_apply(make_neumann(0.0), make_neumann(0.0)) == pytest.approx(2.0)
    got = bilinear_via_apply(make_dirichlet(0.0), make_dirichlet(1.0))
    assert got == pytest.approx(math.exp(-1))


def test_bilinear_slot_commutation():
    k = GaussianKernel(0.9)
    l1 = make_robin(1.0, -0.5, 0.0)
    l2 = make_multipoint(0.0, [(0.5, 0.3), (0.5, 0.8)])
    direct = bilinear(l1, l2, k)
    # apply L1 first then L2, and the other way around
    t1 = KernelTrace(k, l1)
    via_first = l2.apply(t1.deriv)
    t2 = KernelTrace(k, l2)
    via_second = l1.apply(t2.deriv)
    assert direct == pytest.approx(via_first, rel=1e-12)
    assert direct == pytest.approx(via_second, rel=1e-12)


def test_text_form_round_trips():
    ctx = FLOAT64
    cases = [
        make_dirichlet(0.25, 1.5),
        make_neumann(1.0),
        make_robin(1.0, -0.03125, 0.0, 1.0),
        make_robin(1.0, 0.0, 0.5),
        make_robin(0.0, 2.0, 0.5),
        make_multipoint(0.0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)], 0.0),
    ]
    for L in cases:
        text = format_functional(L)
        back = parse_functional(text, ctx)
        assert back.kind == L.kind
        assert back.rhs == L.rhs
        assert [(t.coeff, t.order, t.location) for t in back.terms] == [
            (t.coeff, t.order, t.location) for t in L.terms
        ]


@pytest.mark.parametrize("prec", ["float64", "mp:30"])
def test_constructors_reject_nonfinite_numbers(prec):
    """A nan or inf coefficient, location or value is refused where the
    functional is made, not left for the solve to fail on."""
    ctx = Precision.parse(prec)
    nan, inf = math.nan, math.inf
    makers = [
        lambda: make_robin(nan, 1, 0, 0, ctx),
        lambda: make_robin(inf, 1, 0, 0, ctx),
        lambda: make_robin(1, -inf, 0, 0, ctx),
        lambda: make_robin(1, 1, nan, 0, ctx),
        lambda: make_dirichlet(0, nan, ctx),
        lambda: make_neumann(inf, 0, ctx),
        lambda: make_multipoint(0, [(inf, 0.5)], 0, ctx),
        lambda: make_multipoint(0, [(0.5, 0.6)], -inf, ctx),
        lambda: BoundaryFunctional("custom", [FunctionalTerm(1.0, 0, 0.0)], nan),
    ]
    for make in makers:
        with pytest.raises(InvalidFunctional):
            make()


@pytest.mark.parametrize("prec", ["float64", "mp:30"])
def test_nonfinite_multipoint_locations_are_named_non_finite(prec):
    """A nan or inf anchor or location is reported as non-finite, not as
    out of order; finite locations out of order still are."""
    ctx = Precision.parse(prec)
    nan, inf = math.nan, math.inf
    for a, weights in ((0, [(0.5, nan)]), (nan, [(0.5, 0.6)]), (0, [(0.5, 0.6), (0.5, inf)])):
        with pytest.raises(InvalidFunctional, match="non-finite"):
            make_multipoint(a, weights, 0, ctx)
    with pytest.raises(InvalidFunctional, match="a < xi_1"):
        make_multipoint(0, [(0.5, 0.6), (0.5, 0.6)], 0, ctx)


@pytest.mark.parametrize("text", [
    "dirichlet @abc",
    "dirichlet @0 = x",
    "robin 1 abc @0",
    "multipoint @0 : 0.5 @0.6, w @1.2",
    "dirichlet @nan",
    "neumann @inf",
    "robin nan 1 @0",
    "robin 1 -inf @0",
    "dirichlet @0 = nan",
    "multipoint @0 : 0.5 @0.6, inf @1.2",
])
@pytest.mark.parametrize("prec", ["float64", "mp:50"])
def test_text_form_rejects_malformed_or_nonfinite_numbers(text, prec):
    with pytest.raises(InvalidFunctional):
        parse_functional(text, Precision.parse(prec))


def test_text_form_keeps_finite_mp_numbers_beyond_the_float_range():
    """1e400 is finite at mp digits; in float64 it parses to inf."""
    ctx = Precision("mp", 50)
    L = parse_functional("dirichlet @0 = 1e400", ctx)
    assert L.rhs == ctx.num(10) ** 400
    with pytest.raises(InvalidFunctional):
        parse_functional("dirichlet @0 = 1e400", FLOAT64)


def test_text_form_spec_example():
    L = parse_functional("robin 1 -0.03125 @0 = 1")
    assert L.kind == "robin"
    assert L.terms[1].coeff == -0.03125
    assert L.rhs == 1.0


def test_text_form_round_trips_at_mp_digits():
    """An mpf is printed with the digits of its own precision, so a
    coefficient that no short decimal gives (1/3 at 50 digits) survives
    the round trip."""
    ctx = Precision("mp", 50)
    L = parse_functional("robin 1 -1/3 @0 = 1", ctx)
    assert L.terms[1].coeff == -ctx.num(1) / 3
    back = parse_functional(format_functional(L), ctx)
    assert [t.coeff for t in back.terms] == [t.coeff for t in L.terms]


def _numbers(ctx):
    """Finite numbers of ``ctx``: floats as drawn, mp numbers as quotients
    p/q scaled by 10^k, rounded once at the context's digits."""
    if ctx.mode == "float64":
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(
        lambda p, q, k: ctx.num(p) / q * ctx.num(10) ** k,
        st.integers(-(10**60), 10**60),
        st.integers(1, 10**60),
        st.integers(-40, 40),
    )


@st.composite
def _functionals(draw, ctx):
    num = _numbers(ctx)
    kind = draw(st.sampled_from(["dirichlet", "neumann", "robin", "multipoint"]))
    rhs = draw(num)
    if kind == "dirichlet":
        return make_dirichlet(draw(num), rhs, ctx)
    if kind == "neumann":
        return make_neumann(draw(num), rhs, ctx)
    if kind == "robin":
        alpha, beta = draw(
            st.tuples(num, num).filter(lambda ab: ab[0] != 0 or ab[1] != 0)
        )
        return make_robin(alpha, beta, draw(num), rhs, ctx)
    locs = sorted(draw(st.lists(num, min_size=2, max_size=4, unique=True)))
    alphas = draw(st.lists(num, min_size=len(locs) - 1, max_size=len(locs) - 1))
    return make_multipoint(locs[0], list(zip(alphas, locs[1:])), rhs, ctx)


@pytest.mark.parametrize("prec", ["float64", "mp:50"])
def test_text_form_round_trip_property(prec):
    """parse_functional inverts format_functional for drawn coefficients,
    locations and right-hand sides of every kind, bit for bit."""
    ctx = Precision.parse(prec)

    @settings(max_examples=60, deadline=None)
    @given(_functionals(ctx))
    def check(L):
        back = parse_functional(format_functional(L), ctx)
        assert back.kind == L.kind
        assert back.rhs == L.rhs
        assert [(t.coeff, t.order, t.location) for t in back.terms] == [
            (t.coeff, t.order, t.location) for t in L.terms
        ]

    check()


def test_parse_errors():
    with pytest.raises(InvalidFunctional):
        parse_functional("dirichlet 0.5")  # missing @
    with pytest.raises(InvalidFunctional):
        parse_functional("cauchy @0")


def test_mp_mode_constructors():
    L = make_robin("1", "-0.03125", "0", "1", MP40)
    t = apply_to_function(L, lambda x: x * x, lambda x: 2 * x)
    assert abs(t - MP40.num(1)) == 1.0  # 0 - eps*0 = 0, rhs untouched
