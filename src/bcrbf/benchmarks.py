"""The benchmark problem registry.

Seven boundary-value problems spanning every boundary-condition type in
scope, each carrying its published error table for the constrained method
and the collocation baseline.  Exact solutions are implemented with
analytic derivative access so both the PDE residual self-check and the
boundary data can be generated consistently at any working precision.

The singularly perturbed problem's exact solution is assembled from its
general solution (particular cubic plus (1+x)^(1-1/eps) plus a constant)
with the two free constants solved from the Robin boundary pair at the
active precision: the published closed form misprints the trailing
constant's sign, so the constants are always rederived here rather than
transcribed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import (
    FieldTraceData,
    Fn1,
    LambdaField,
    ProductField,
    SumField,
    apply_functional,
    fn_constant,
    fn_cos,
    fn_exp,
    fn_product,
    fn_sin,
    fn_sum,
)
from .functionals import make_dirichlet, make_multipoint, make_neumann, make_robin
from .pseudospectral import (
    BoundaryCondition,
    OperatorSpec,
    OperatorTerm,
    ProblemSpec,
    laplacian,
)


@dataclass(frozen=True)
class TableRow:
    counts: tuple
    kansa: float
    constrained: float
    eps: float = None
    literature: float = None


@dataclass(frozen=True)
class ExampleRecord:
    ident: str
    title: str
    dim: int
    default_shape: float
    kansa_shape: float
    metric: str  # 'abs' or 'rel'
    make: object
    table: tuple
    has_eps: bool = False


def _dirichlet_bc(exact, d, loc, ctx):
    functional = make_dirichlet(loc, 0, ctx)
    return BoundaryCondition(functional, FieldTraceData(exact, d, functional))


# -- ex1: singularly perturbed convection-diffusion, Robin BCs (1D) -----------


def _make_ex1(ctx, eps=None):
    eps = ctx.num(eps if eps is not None else "0.03125")
    one = ctx.one
    a_p = 1 / (3 * (2 * eps + 1))
    q = 1 - 1 / eps

    # general solution a_p (1+x)^3 + K (1+x)^q + C; fit the Robin pair
    def l1(vals):  # u(0) - eps u'(0) on (value_at_0, deriv_at_0)
        return vals[0] - eps * vals[1]

    def l2(vals):  # u(1) + u'(1)
        return vals[0] + vals[1]

    two_q = ctx.power(ctx.num(2), q)
    g1 = l1((one, q))  # (1+x)^q at x=0: value 1, deriv q
    g2 = l2((two_q, q * two_q / 2))
    p1 = l1((a_p, 3 * a_p))
    p2 = l2((8 * a_p, 12 * a_p))
    c1v = l1((one, 0 * one))
    c2v = l2((one, 0 * one))
    det = g1 * c2v - g2 * c1v
    bigk = ((1 - p1) * c2v - (1 - p2) * c1v) / det
    const = ((1 - p2) * g1 - (1 - p1) * g2) / det

    def handler(orders, p):
        (o,) = orders
        s = 1 + p[0]
        if o == 0:
            return a_p * s**3 + bigk * ctx.power(s, q) + const
        if o == 1:
            return 3 * a_p * s**2 + bigk * q * ctx.power(s, q - 1)
        if o == 2:
            return 6 * a_p * s + bigk * q * (q - 1) * ctx.power(s, q - 2)
        raise ValueError("exact solution carries derivatives up to order 2")

    exact = LambdaField(1, handler)
    operator = OperatorSpec(
        (
            OperatorTerm((2,), eps),
            OperatorTerm((1,), lambda p: 1 / (1 + p[0])),
        )
    )
    bcs = (
        (
            BoundaryCondition(make_robin(1, -eps, 0, 1, ctx)),
            BoundaryCondition(make_robin(1, 1, 1, 1, ctx)),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.one),),
        operator=operator,
        bcs=bcs,
        rhs=lambda p: p[0] + 1,
        exact=exact,
        name="ex1",
    )


# -- ex2: Poisson with Dirichlet/Neumann/Robin faces (2D) ----------------------


def _make_ex2(ctx, eps=None):
    pi = ctx.pi
    sx = fn_product(fn_sin(ctx, pi / 6), fn_sin(ctx, 7 * pi / 4))
    sy = fn_product(fn_sin(ctx, 3 * pi / 4), fn_sin(ctx, 5 * pi / 4))
    exact = ProductField([sx, sy])
    operator = OperatorSpec(
        (OperatorTerm((2, 0), -1), OperatorTerm((0, 2), -1))
    )

    neum = make_neumann(1, 0, ctx)
    robin = make_robin(2, 1, 1, 0, ctx)  # outward normal at y=1: u_y + 2u
    bcs = (
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(neum, FieldTraceData(exact, 0, neum)),
        ),
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(robin, FieldTraceData(exact, 1, robin)),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.one), (ctx.zero, ctx.one)),
        operator=operator,
        bcs=bcs,
        rhs=lambda p: -(exact.partial((2, 0), p) + exact.partial((0, 2), p)),
        exact=exact,
        name="ex2",
    )


# -- ex3: Poisson, homogeneous Dirichlet on [0, pi] x [0, 1] -------------------


def _make_ex3(ctx, eps=None):
    e1 = ctx.exp(ctx.one)
    e3 = ctx.exp(ctx.num(3))
    c1 = -3 / (2 * (e1 + 1))
    c2 = c1 * e1
    d1 = 1 / (162 * (1 + e3))
    d2 = d1 * e3

    def quad_a(y):
        return ctx.num(3) / 4 * (y * y - y + 2)

    ay = fn_sum(
        Fn1(quad_a, lambda y: ctx.num(3) / 4 * (2 * y - 1), lambda y: ctx.num("1.5")),
        fn_exp(ctx, 1, c1),
        fn_exp(ctx, -1, c2),
    )
    by = fn_sum(
        Fn1(
            lambda y: -(9 * y * y - 9 * y + 2) / 324,
            lambda y: -(18 * y - 9) / 324,
            lambda y: ctx.num(-18) / 324,
        ),
        fn_exp(ctx, 3, d1),
        fn_exp(ctx, -3, d2),
    )
    exact = SumField(
        [
            ProductField([fn_sin(ctx, 1), ay]),
            ProductField([fn_sin(ctx, 3), by]),
        ]
    )
    bcs = (
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(make_dirichlet(ctx.pi, 0, ctx)),
        ),
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(make_dirichlet(1, 0, ctx)),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.pi), (ctx.zero, ctx.one)),
        operator=laplacian(2),
        bcs=bcs,
        rhs=lambda p: p[1] * (1 - p[1]) * ctx.sin(p[0]) ** 3,
        exact=exact,
        name="ex3",
    )


# -- ex4: Poisson 2 e^(x-y), nonhomogeneous Dirichlet on [0, 1]^2 --------------


def _make_ex4(ctx, eps=None):
    exact = SumField(
        [
            ProductField([fn_exp(ctx, 1), fn_exp(ctx, -1)]),
            ProductField([fn_exp(ctx, 1), fn_cos(ctx, 1)]),
        ]
    )
    bcs = (
        (
            _dirichlet_bc(exact, 0, ctx.zero, ctx),
            _dirichlet_bc(exact, 0, ctx.one, ctx),
        ),
        (
            _dirichlet_bc(exact, 1, ctx.zero, ctx),
            _dirichlet_bc(exact, 1, ctx.one, ctx),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.one), (ctx.zero, ctx.one)),
        operator=laplacian(2),
        bcs=bcs,
        rhs=lambda p: 2 * ctx.exp(p[0] - p[1]),
        exact=exact,
        name="ex4",
    )


# -- ex5: Poisson, mixed Dirichlet/Neumann on [0, pi/2] x [0, 2] ---------------


def _make_ex5(ctx, eps=None):
    quarter = ctx.one / 4
    exact = ProductField(
        [
            fn_sum(fn_sin(ctx, 1, -quarter), fn_sin(ctx, 3, -ctx.one / 36)),
            fn_constant(ctx.one),
        ]
    )
    bcs = (
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(make_neumann(ctx.pi / 2, 0, ctx)),
        ),
        (
            BoundaryCondition(make_neumann(0, 0, ctx)),
            BoundaryCondition(make_neumann(2, 0, ctx)),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.pi / 2), (ctx.zero, ctx.num(2))),
        operator=laplacian(2),
        bcs=bcs,
        rhs=lambda p: ctx.sin(p[0]) - ctx.sin(p[0]) ** 3,
        exact=exact,
        name="ex5",
    )


# -- ex6: multi-point Poisson on [0, 1] x [0, 2] -------------------------------


def _poly_mul(a, b):
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_fn(coeffs):
    def eval_at(t, cs):
        acc = cs[-1] * 0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    d1 = [k * c for k, c in enumerate(coeffs)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    return (
        lambda t: eval_at(t, coeffs),
        lambda t: eval_at(t, d1) if d1 else 0 * t,
        lambda t: eval_at(t, d2) if d2 else 0 * t,
    )


def _make_ex6(ctx, eps=None):
    pi = ctx.pi
    epi = ctx.exp(pi)
    scale = ctx.one / 500

    # E(x) = (e^(pi x) - 1)(e^(pi x) - e^pi)
    ex_factor = fn_sum(
        fn_exp(ctx, 2 * pi),
        fn_exp(ctx, pi, -(1 + epi)),
        fn_constant(epi),
    )
    # w(y) = exp(pi * y (3/5 - y)(6/5 - y)(9/5 - y))
    xi = [ctx.num(3) / 5, ctx.num(6) / 5, ctx.num(9) / 5]
    coeffs = [ctx.zero, ctx.one]  # y
    for r in xi:
        coeffs = _poly_mul(coeffs, [r, -ctx.one])
    p0, p1, p2 = _poly_fn([pi * c for c in coeffs])

    def w(t):
        return ctx.exp(p0(t))

    wf = Fn1(
        w,
        lambda t: p1(t) * w(t),
        lambda t: (p2(t) + p1(t) ** 2) * w(t),
    )
    exact = SumField(
        [
            ProductField([ex_factor, fn_sin(ctx, 5 * pi / 6, scale)]),
            ProductField([fn_sin(ctx, pi, scale), wf]),
        ]
    )
    multipoint = make_multipoint(
        0, [(ctx.one / 4, xi[0]), (ctx.one / 2, xi[1]), (ctx.one / 4, xi[2])], 0, ctx
    )
    top = make_dirichlet(2, 0, ctx)
    bcs = (
        (
            BoundaryCondition(make_dirichlet(0, 0, ctx)),
            BoundaryCondition(make_dirichlet(1, 0, ctx)),
        ),
        (
            BoundaryCondition(multipoint),
            BoundaryCondition(top, FieldTraceData(exact, 1, top)),
        ),
    )
    return ProblemSpec(
        domain=((ctx.zero, ctx.one), (ctx.zero, ctx.num(2))),
        operator=laplacian(2),
        bcs=bcs,
        rhs=lambda p: exact.partial((2, 0), p) + exact.partial((0, 2), p),
        exact=exact,
        name="ex6",
    )


# -- ex7: 3D Poisson, Dirichlet on [-1/2, 1/2]^3 -------------------------------


def _make_ex7(ctx, eps=None):
    def handler(orders, p):
        s = 4 + p[0] + p[1] + p[2]
        k = sum(orders)
        sign = -1 if k % 2 else 1
        fact = 1
        for j in range(2, k + 1):
            fact *= j
        return sign * fact / s ** (k + 1)

    exact = LambdaField(3, handler)
    half = ctx.one / 2
    bcs = tuple(
        (
            _dirichlet_bc(exact, d, -half, ctx),
            _dirichlet_bc(exact, d, half, ctx),
        )
        for d in range(3)
    )
    return ProblemSpec(
        domain=(((-half), half),) * 3,
        operator=laplacian(3),
        bcs=bcs,
        rhs=lambda p: 6 / (4 + p[0] + p[1] + p[2]) ** 3,
        exact=exact,
        name="ex7",
    )


# -- registry -------------------------------------------------------------------


EXAMPLES = {
    "ex1": ExampleRecord(
        ident="ex1",
        title="singularly perturbed convection-diffusion, Robin BCs (1D)",
        dim=1,
        default_shape=0.18,
        kansa_shape=0.18,
        metric="abs",
        make=_make_ex1,
        has_eps=True,
        table=(
            TableRow((32,), 2.151530648e-17, 1.677759019e-18, eps=0.5, literature=7.93e-2),
            TableRow((64,), 2.896067662e-36, 2.217079325e-37, eps=0.5, literature=4.02e-2),
            TableRow((128,), 2.141728769e-74, 1.623426611e-75, eps=0.5, literature=2.02e-2),
            TableRow((32,), 2.909789773e-4, 1.580306190e-6, eps=2.0**-5, literature=6.62e-1),
            TableRow((64,), 2.179862305e-16, 1.182127709e-18, eps=2.0**-5, literature=4.04e-1),
            TableRow((128,), 8.050946529e-47, 3.898941782e-49, eps=2.0**-5, literature=2.38e-1),
            TableRow((128,), 6.224300576, 3.310984775e-1, eps=2.0**-10, literature=2.68e-1),
            TableRow((256,), 1.657779099, 9.155282792e-4, eps=2.0**-10, literature=1.54e-1),
        ),
    ),
    "ex2": ExampleRecord(
        ident="ex2",
        title="Poisson, Dirichlet + Neumann + Robin faces (2D)",
        dim=2,
        default_shape=1.0,
        kansa_shape=1.0,
        metric="abs",
        make=_make_ex2,
        table=(
            TableRow((7, 7), 3.31818e-3, 2.64223e-4, literature=9.30e-3),
            TableRow((9, 9), 3.03747e-4, 1.42617e-5, literature=5.92e-5),
            TableRow((11, 11), 6.31077e-6, 2.11003e-7, literature=4.32e-6),
            TableRow((13, 13), 1.06431e-7, 1.0773e-8, literature=1.10e-6),
        ),
    ),
    "ex3": ExampleRecord(
        ident="ex3",
        title="Poisson, homogeneous Dirichlet on [0,pi]x[0,1] (2D)",
        dim=2,
        default_shape=0.01,
        kansa_shape=0.3041,
        metric="rel",
        make=_make_ex3,
        table=(
            TableRow((8, 4), 7.4357e-2, 2.84849e-3, literature=1.062891e-2),
            TableRow((10, 6), 1.58122e-3, 3.10566e-4, literature=3.451799e-3),
            TableRow((16, 8), 1.92361e-5, 1.59593e-7, literature=2.082886e-4),
            TableRow((20, 12), 3.60382e-9, 6.0899e-11, literature=1.273363e-5),
        ),
    ),
    "ex4": ExampleRecord(
        ident="ex4",
        title="Poisson 2e^(x-y), nonhomogeneous Dirichlet on [0,1]^2 (2D)",
        dim=2,
        default_shape=0.01,
        kansa_shape=0.01,
        metric="abs",
        make=_make_ex4,
        table=(
            TableRow((5, 5), 1.56591e-4, 8.12108e-9),
            TableRow((10, 10), 3.89263e-11, 4.6856e-15),
            TableRow((15, 15), 8.55909e-19, 3.36241e-23),
            TableRow((20, 20), 4.57185e-27, 1.92864e-32),
        ),
    ),
    "ex5": ExampleRecord(
        ident="ex5",
        title="Poisson, mixed Dirichlet/Neumann on [0,pi/2]x[0,2] (2D)",
        dim=2,
        default_shape=0.01,
        kansa_shape=0.5641,
        metric="rel",
        make=_make_ex5,
        table=(
            TableRow((5, 5), 1.56966e-2, 2.31536e-2, literature=4.327029e-2),
            TableRow((7, 7), 7.45327e-3, 1.33894e-3, literature=1.871798e-4),
            TableRow((10, 10), 5.75242e-4, 5.32917e-6, literature=5.126676e-5),
            TableRow((14, 14), 5.59595e-5, 1.74509e-9, literature=1.725526e-6),
            TableRow((20, 20), 1.34064e-6, 1.42493e-15, literature=6.217559e-7),
        ),
    ),
    "ex6": ExampleRecord(
        ident="ex6",
        title="Poisson with multi-point boundary condition on [0,1]x[0,2] (2D)",
        dim=2,
        default_shape=0.01,
        kansa_shape=0.01,
        metric="abs",
        make=_make_ex6,
        table=(
            TableRow((5, 10), 4.09711e-2, 5.47254e-3),
            TableRow((8, 16), 1.70686e-3, 1.09398e-4),
            TableRow((10, 20), 9.94226e-5, 1.44713e-5),
            TableRow((12, 24), 4.15599e-6, 2.80392e-6),
        ),
    ),
    "ex7": ExampleRecord(
        ident="ex7",
        title="Poisson 6/(4+x+y+z)^3, Dirichlet on [-1/2,1/2]^3 (3D)",
        dim=3,
        default_shape=0.01,
        kansa_shape=0.01,
        metric="abs",
        make=_make_ex7,
        table=(
            TableRow((4, 4, 4), 3.8223e-5, 1.02919e-7),
            TableRow((5, 5, 5), 4.86452e-6, 1.49101e-8, literature=1e-5),
            TableRow((6, 6, 6), 6.73616e-7, 2.4369e-9),
            TableRow((7, 7, 7), 8.47629e-8, 3.43708e-10),
        ),
    ),
}


def get_example(ident):
    try:
        return EXAMPLES[ident]
    except KeyError:
        raise KeyError(
            f"unknown example {ident!r}; known: {', '.join(sorted(EXAMPLES))}"
        ) from None


def self_check(record, ctx):
    """Max PDE and BC residuals of the registered exact solution at 50
    seeded interior points and 10 per face; both must vanish for the
    registry entry to be trusted."""
    problem = record.make(ctx)
    rng = random.Random(1234)
    dim = problem.dim

    def sample():
        return tuple(
            ctx.num(a + (b - a) * rng.random()) for a, b in problem.domain
        )

    pde = ctx.zero
    for _ in range(50):
        p = sample()
        lu = problem.operator.apply_axes(problem.exact, [(x,) for x in p])[0]
        r = abs(lu - ctx.num(problem.rhs(p)))
        pde = max(pde, r)
    bc = ctx.zero
    for d in range(dim):
        for side in (0, 1):
            functional = problem.bcs[d][side].functional
            data = problem.data_for(d, side)
            for _ in range(10):
                t = tuple(
                    ctx.num(a + (b - a) * rng.random())
                    for e, (a, b) in enumerate(problem.domain)
                    if e != d
                )
                r = abs(
                    apply_functional(functional, d, problem.exact, t)
                    - data.value(t)
                )
                bc = max(bc, r)
    return pde, bc
