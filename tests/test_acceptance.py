"""Acceptance criteria, one test per numbered item.

Each test pins the stated configuration and tolerance.  None is widened
to fit a measured precision floor: a criterion the solver does not meet
fails with the measured values in its assertion message.
"""

import math
import random
import time
from pathlib import Path

import mpmath
import pytest

from bcrbf.benchmarks import EXAMPLES, get_example
from bcrbf.constrained import impose_sequence
from bcrbf.fields import apply_functional
from bcrbf.functionals import (
    make_dirichlet,
    make_multipoint,
    make_neumann,
    make_robin,
)
from bcrbf.homogenize import homogenize_nd
from bcrbf.kansa import kansa_solve
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import FLOAT64, Precision
from bcrbf.pseudospectral import solve
from bcrbf.reporting import error_metrics, run_example, run_sweep, sweep_shapes

from oracles import apply_to_function, cholesky, fd_mixed_partial_f64

pytestmark = pytest.mark.acceptance

MP50 = Precision("mp", 50)
MP100 = Precision("mp", 100)
MP150 = Precision("mp", 150)


def bc_pairs(ctx):
    """One functional pair per boundary-condition type, on [0, 1] ([0, 2]
    for the multi-point case)."""
    return {
        "dirichlet": [make_dirichlet(0, 0, ctx), make_dirichlet(1, 0, ctx)],
        "neumann": [make_neumann(0, 0, ctx), make_neumann(1, 0, ctx)],
        "mixed": [make_dirichlet(0, 0, ctx), make_neumann(1, 0, ctx)],
        "robin": [
            make_robin(1, -0.03125, 0, 0, ctx),
            make_robin(1, 1, 1, 0, ctx),
        ],
        "multipoint": [
            make_multipoint(0, [(0.25, 0.6), (0.5, 1.2), (0.25, 1.8)], 0, ctx),
            make_dirichlet(2, 0, ctx),
        ],
    }


def _slice_x(kernel, y):
    class _S:
        def __call__(self, x):
            return kernel.mixed_partial(0, 0, x, y)

        def deriv(self, x, order):
            return kernel.mixed_partial(order, 0, x, y)

    return _S()


def test_criterion_01_bc_exactness_binary64():
    """Constrained kernels annihilate every BC type's functionals at 50
    random points to <= 1e-12 for c in {0.5, 1, 2} (binary64, < 1 s)."""
    start = time.perf_counter()
    rng = random.Random(1001)
    worst = 0.0
    for name, funcs in bc_pairs(FLOAT64).items():
        hi = 2.0 if name == "multipoint" else 1.0
        for c in (0.5, 1.0, 2.0):
            ck = impose_sequence(GaussianKernel(c), funcs)
            for _ in range(50):
                y = rng.uniform(0, hi)
                for L in funcs:
                    r = abs(apply_to_function(L, _slice_x(ck, y)))
                    worst = max(worst, r)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_positive_definiteness_mp50():
    """Gram matrices of constrained kernels on 6 random interior points
    (excluding supports) pass Cholesky at 50 digits, 20 trials per type."""
    start = time.perf_counter()
    ctx = MP50
    rng = random.Random(2002)
    for name, funcs in bc_pairs(ctx).items():
        hi = 2.0 if name == "multipoint" else 1.0
        ck = impose_sequence(GaussianKernel(1, ctx), funcs)
        supports = [float(loc) for f in funcs for loc in f.support_locations()]
        for _ in range(20):
            pts = []
            while len(pts) < 6:
                t = rng.uniform(0.01 * hi, 0.99 * hi)
                if all(abs(t - s) > 0.02 for s in supports + pts):
                    pts.append(t)
            nodes = [ctx.num(t) for t in pts]
            gram = [[ck.eval(a, b) for b in nodes] for a in nodes]
            assert cholesky(ctx, gram) is not None, f"{name} Gram not PD"
    elapsed = time.perf_counter() - start
    print(f"criterion 2: all Gram matrices PD, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_03_derivative_oracle():
    """Kernel and constrained-kernel mixed partials agree with central
    finite differences to relative 1e-4 over 200 random configurations."""
    start = time.perf_counter()
    rng = random.Random(3003)
    checked = 0
    for _ in range(120):  # base kernels, all orders up to 4
        c = rng.uniform(0.3, 2.0)
        k = GaussianKernel(c)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        m = rng.randint(0, 4)
        n = rng.randint(0, 4 - m)
        got = k.mixed_partial(m, n, x, y)
        ref = fd_mixed_partial_f64(k.eval, m, n, x, y)
        assert abs(got - ref) <= 1e-4 * max(abs(got), c ** (m + n), 1e-2)
        checked += 1
    pair_menu = bc_pairs(FLOAT64)
    for _ in range(80):  # constrained kernels, orders the PDE consumes
        c = rng.uniform(0.5, 2.0)
        name = rng.choice(sorted(pair_menu))
        hi = 2.0 if name == "multipoint" else 1.0
        ck = impose_sequence(GaussianKernel(c), pair_menu[name])
        x, y = rng.uniform(0.05, hi - 0.05), rng.uniform(0.05, hi - 0.05)
        m = rng.randint(0, 2)
        n = rng.randint(0, 2 - m)
        got = ck.mixed_partial(m, n, x, y)
        ref = fd_mixed_partial_f64(ck.eval, m, n, x, y)
        assert abs(got - ref) <= 1e-4 * max(abs(got), 1e-2)
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 3: {checked} configurations agree, {elapsed:.2f}s")
    assert checked == 200
    assert elapsed < 5.0


def test_criterion_04_homogenization_exactness():
    """Every example's homogenization map reproduces all boundary data to
    <= 1e-10 at 10 tangential samples (50 digits)."""
    start = time.perf_counter()
    ctx = MP50
    rng = random.Random(4004)
    worst = 0.0
    for ident in sorted(EXAMPLES):
        problem = get_example(ident).make(ctx)
        pairs = [
            (
                (problem.bcs[d][0].functional, problem.data_for(d, 0)),
                (problem.bcs[d][1].functional, problem.data_for(d, 1)),
            )
            for d in range(problem.dim)
        ]
        m = homogenize_nd(pairs, ctx)
        for d in range(problem.dim):
            for side in (0, 1):
                functional = problem.bcs[d][side].functional
                data = problem.data_for(d, side)
                for _ in range(10):
                    t = tuple(
                        ctx.num(a + (b - a) * rng.random())
                        for e, (a, b) in enumerate(problem.domain)
                        if e != d
                    )
                    r = abs(apply_functional(functional, d, m, t) - data.value(t))
                    worst = max(worst, float(r))
    elapsed = time.perf_counter() - start
    print(f"criterion 4: worst data residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_05_example1_table():
    """1D Robin problem, eps = 2^-5, N = 32, c = 0.18, 100 digits:
    max error <= 1e-4 and two orders below the cited 6.62e-1.

    Uniform interior nodes are precision-limited near 1.2e-3 at 100
    digits; the criterion is met with Chebyshev-clustered interior nodes
    (node placement is a free parameter of the method).
    """
    start = time.perf_counter()
    ctx = MP100
    problem = get_example("ex1").make(ctx, 2.0**-5)
    sol = solve(problem, (32,), "0.18", ctx, scheme="chebyshev-interior")
    err, _ = error_metrics(sol, problem.exact, ctx)
    err = float(err)
    elapsed = time.perf_counter() - start
    print(f"criterion 5: max abs error {err:.3e} (published 1.580306190e-6), {elapsed:.1f}s")
    assert err <= 1e-4
    assert err <= 6.62e-1 / 100.0
    assert elapsed < 30.0


def test_criterion_06_example4_table():
    """2D Dirichlet Poisson, 10x10, c = 0.01, 150 digits: error <= 1e-10
    and below the collocation baseline at the same configuration."""
    start = time.perf_counter()
    c_rep = run_example("ex4", "constrained", (10, 10), 0.01, MP150)
    k_rep = run_example("ex4", "kansa", (10, 10), 0.01, MP150)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: constrained {c_rep.max_abs_err:.3e} (published 4.6856e-15), "
        f"baseline {k_rep.max_abs_err:.3e} (published 3.89263e-11), {elapsed:.1f}s"
    )
    assert c_rep.status == "ok" and k_rep.status == "ok"
    assert c_rep.max_abs_err <= 1e-10
    assert c_rep.max_abs_err < k_rep.max_abs_err
    assert elapsed < 120.0


def test_criterion_07_example5_table():
    """2D mixed Dirichlet/Neumann Poisson, 10x10, c = 0.01, 150 digits:
    relative error <= 1e-3."""
    start = time.perf_counter()
    rep = run_example("ex5", "constrained", (10, 10), 0.01, MP150)
    elapsed = time.perf_counter() - start
    print(f"criterion 7: relative error {rep.rel_err:.3e} (published rho_2 5.32917e-6), {elapsed:.1f}s")
    assert rep.status == "ok"
    assert rep.rel_err <= 1e-3
    assert elapsed < 120.0


def test_criterion_08_example6_table():
    """2D multi-point Poisson, 10x20, c = 0.01, 100 digits: error <= 1e-3
    and below the collocation baseline."""
    start = time.perf_counter()
    c_rep = run_example("ex6", "constrained", (10, 20), 0.01, MP100)
    k_rep = run_example("ex6", "kansa", (10, 20), 0.01, MP100)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8: constrained {c_rep.max_abs_err:.3e} (published 1.44713e-5), "
        f"baseline {k_rep.max_abs_err:.3e} (published 9.94226e-5), {elapsed:.1f}s"
    )
    assert c_rep.status == "ok" and k_rep.status == "ok"
    assert c_rep.max_abs_err <= 1e-3
    assert c_rep.max_abs_err < k_rep.max_abs_err
    assert elapsed < 180.0


def test_criterion_09_example7_3d_table():
    """3D Dirichlet Poisson, 5x5x5, c = 0.01, 100 digits: error <= 1e-6,
    beating the cited 1e-5 level."""
    start = time.perf_counter()
    rep = run_example("ex7", "constrained", (5, 5, 5), 0.01, MP100)
    elapsed = time.perf_counter() - start
    print(f"criterion 9: max abs error {rep.max_abs_err:.3e} (published 1.49101e-8), {elapsed:.1f}s")
    assert rep.status == "ok"
    assert rep.max_abs_err <= 1e-6
    assert rep.max_abs_err < 1e-5
    assert elapsed < 300.0


_CONVERGENCE_SEQUENCES = {
    "ex1": dict(counts=[(32,), (64,), (128,)], shape="0.18", eps=0.5,
                scheme="uniform-interior"),
    "ex4": dict(counts=[(5, 5), (10, 10), (15, 15), (20, 20)], shape="0.01",
                eps=None, scheme="uniform-interior"),
    # uniform interior nodes at 12x24 collide with the multi-point support
    # xi = 1.2 (node 2*15/25), which the grid invariant forbids; Chebyshev
    # placement avoids every rational support location
    "ex6": dict(counts=[(5, 10), (8, 16), (10, 20), (12, 24)], shape="0.01",
                eps=None, scheme="chebyshev-interior"),
}


@pytest.mark.parametrize("ident", sorted(_CONVERGENCE_SEQUENCES))
def test_criterion_10_convergence(ident):
    """Error drops >= 10x per successive N of the published table sequence
    at 150 digits.

    The 1D problem's final row (N = 128, published error 1.6e-75) sits far
    below the 150-digit rounding floor (~1e-26 here), so its last ratio
    cannot reach 10x at this precision; the assertion states the criterion
    anyway.
    """
    cfg = _CONVERGENCE_SEQUENCES[ident]
    ctx = MP150
    record = get_example(ident)
    problem = (
        record.make(ctx, cfg["eps"]) if record.has_eps else record.make(ctx)
    )
    start = time.perf_counter()
    errs = []
    for counts in cfg["counts"]:
        sol = solve(problem, counts, cfg["shape"], ctx, scheme=cfg["scheme"])
        err, _ = error_metrics(sol, problem.exact, ctx)
        errs.append(float(err))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    elapsed = time.perf_counter() - start
    print(f"criterion 10 [{ident}]: errors {errs}, ratios {ratios}, {elapsed:.0f}s")
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), (
        f"{ident}: errors not monotone: {errs}"
    )
    assert all(r >= 10 for r in ratios), f"{ident}: ratios {ratios}"
    if ident == "ex4":
        assert errs[-1] <= 1e-25  # published 1.92864e-32 at the 20x20 row


def test_criterion_11_shape_stability():
    """2D Dirichlet Poisson at 10x10, 150 digits: the flat-limit error at
    c = 0.01 is within 100x of the error at c = 0.5, and a 20-point sweep
    over [0.01, 2] completes without failures."""
    start = time.perf_counter()
    ctx = MP150
    rep_flat = run_example("ex4", "constrained", (10, 10), 0.01, ctx)
    rep_mid = run_example("ex4", "constrained", (10, 10), 0.5, ctx)
    assert rep_flat.status == "ok" and rep_mid.status == "ok"
    assert rep_flat.max_abs_err <= 100 * rep_mid.max_abs_err
    reports = run_sweep("ex4", "constrained", (10, 10), 0.01, 2.0, 20, ctx)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 11: err(c=0.01) {rep_flat.max_abs_err:.3e}, "
        f"err(c=0.5) {rep_mid.max_abs_err:.3e}, sweep statuses "
        f"{sorted(set(r.status for r in reports))}, {elapsed:.0f}s"
    )
    assert len(reports) == 20
    assert all(r.status == "ok" for r in reports)
    assert [r.shape for r in reports] == sorted(sweep_shapes(0.01, 2.0, 20))
    assert elapsed < 300.0


@pytest.mark.parametrize(
    "ident,counts,shape,eps",
    [("ex1", (32,), "0.18", 0.5), ("ex4", (10, 10), "0.01", None)],
)
def test_criterion_12_mode_equivalence(ident, counts, shape, eps):
    """ps and direct nodal solutions agree to relative 10^(8-D) at 100
    digits.

    Both routes solve the same 100-digit assembled system, so only
    rounding inside the linear algebra can separate them.  cond_1(A_L)
    exceeds 10^100 in both cases: plain 100-digit solves differ near 1e-19
    (ex1) and 1e-22 (ex4).  The solver refines each route to 100 digits of
    the assembled system, which this criterion checks.
    """
    ctx = MP100
    record = get_example(ident)
    problem = record.make(ctx, eps) if record.has_eps else record.make(ctx)
    s_ps = solve(problem, counts, shape, ctx, mode="ps")
    s_direct = solve(problem, counts, shape, ctx, mode="direct")
    num = max(abs(a - b) for a, b in zip(s_ps.nodal, s_direct.nodal))
    den = max(abs(a) for a in s_direct.nodal)
    rel = float(num / den)
    tol = 1e-8 * 10.0 ** (16 - 100)
    print(f"criterion 12 [{ident}]: relative route difference {rel:.3e} vs {tol:.1e}")
    assert rel <= tol, (
        f"{ident}: ps/direct differ by {rel:.3e} relative, above the "
        f"stated tolerance {tol:.1e}"
    )


def test_criterion_13_reproduction_limits_stated():
    """The non-reproducibility of exact table digits at desk scale is
    stated explicitly in the user-facing documentation."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "Reproduction limits" in text
    assert "not reproducible at desk scale" in text
    statement = (
        "exact digit-matching of the published tables (e.g. 1e-75 at the "
        "largest 1D grid) is out of reach without the source's node "
        "placement and working precision; convergence rates and "
        "order-of-magnitude bounds substitute"
    )
    print(f"criterion 13: {statement}")
