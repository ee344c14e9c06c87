import itertools
import random

import mpmath
import pytest

from bcrbf.errors import SingularMatrix
from bcrbf.numerics import (
    FLOAT64,
    Precision,
    _affine_rows,
    dot,
    lu_factor,
    mat_vec,
    norm_inf,
    refine,
    transpose,
)

from oracles import (
    NotSymmetric,
    cholesky,
    identity,
    jacobi_eigenvalues,
    lu_solve,
    lu_solve_vec,
    mat_mul,
)

MP50 = Precision("mp", 50)


def hilbert(ctx, n):
    return [[ctx.one / (i + j + 1) for j in range(n)] for i in range(n)]


def test_precision_parse():
    assert Precision.parse("float64").mode == "float64"
    assert Precision.parse("mp").dps == 100
    assert Precision.parse("mp:37").digits == 37
    with pytest.raises(ValueError):
        Precision.parse("quad")


def test_lu_identity():
    x = lu_solve(FLOAT64, identity(FLOAT64, 3), [[1.0], [2.0], [3.0]])
    assert x == [[1.0], [2.0], [3.0]]


def test_lu_2x2_hand_check():
    x = lu_solve_vec(FLOAT64, [[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0])
    assert abs(x[0] - 1) < 1e-14 and abs(x[1] - 1) < 1e-14


def test_lu_hilbert_residual():
    h = hilbert(FLOAT64, 4)
    b = mat_vec(h, [1.0] * 4)
    x = lu_solve_vec(FLOAT64, h, b)
    resid = max(abs(v - w) for v, w in zip(mat_vec(h, x), b))
    assert resid <= 1e-10
    assert max(abs(v - 1) for v in x) < 1e-10


def test_lu_singular_reports_pivot():
    with pytest.raises(SingularMatrix) as exc:
        lu_factor(FLOAT64, [[1.0, 2.0], [2.0, 4.0]])
    assert exc.value.pivot_index == 1


def test_lu_beyond_the_float_range():
    """A matrix scaled past the float range factors: its pivot tolerance is
    10^(-2D) max(1, scale) in the context, not float(scale) = inf."""
    big = MP50.num("1e400")
    fact = lu_factor(MP50, [[2 * big, big], [big, 3 * big]])
    x = fact.solve_vec([3 * big, 4 * big])
    assert max(abs(v - 1) for v in x) <= MP50.tol(2)
    assert MP50.pivot_tol(big) == MP50.num(10) ** -100 * big


def test_lu_rectangular_rejected():
    with pytest.raises(ValueError):
        lu_factor(FLOAT64, [[1.0, 2.0]])


def _random_well_conditioned(ctx, rng, n):
    # diagonally dominant => condition stays modest
    a = [[ctx.num(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] += n
    return a


def test_lu_residual_property_float64():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 8)
        a = _random_well_conditioned(FLOAT64, rng, n)
        b = [rng.uniform(-1, 1) for _ in range(n)]
        x = lu_solve_vec(FLOAT64, a, b)
        resid = max(abs(v - w) for v, w in zip(mat_vec(a, x), b))
        assert resid <= 1e-8 * max(norm_inf(b), 1e-30)


def test_lu_residual_property_mp():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 6)
        a = _random_well_conditioned(MP50, rng, n)
        b = [MP50.num(rng.uniform(-1, 1)) for _ in range(n)]
        x = lu_solve_vec(MP50, a, b)
        resid = max(abs(v - w) for v, w in zip(mat_vec(a, x), b))
        assert resid <= 10.0 ** (10 - 50) * float(norm_inf(b))


def test_lu_matrix_rhs_and_transpose_solve():
    rng = random.Random(3)
    a = _random_well_conditioned(FLOAT64, rng, 5)
    b = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(5)]
    x = lu_solve(FLOAT64, a, b)
    prod = mat_mul(a, x)
    assert max(abs(prod[i][j] - b[i][j]) for i in range(5) for j in range(2)) < 1e-9
    fact = lu_factor(FLOAT64, a)
    bt = [rng.uniform(-1, 1) for _ in range(5)]
    y = fact.solve_transpose_vec(bt)
    at = transpose(a)
    assert max(abs(v - w) for v, w in zip(mat_vec(at, y), bt)) < 1e-9


def test_cond_estimate_diagonal():
    a = [[4.0, 0.0], [0.0, 0.5]]
    est = lu_factor(FLOAT64, a).cond1_estimate()
    assert abs(est - 8.0) < 1e-9


def test_lu_bit_reproducible():
    rng = random.Random(5)
    a = _random_well_conditioned(FLOAT64, rng, 6)
    b = [rng.uniform(-1, 1) for _ in range(6)]
    x1 = lu_solve_vec(FLOAT64, a, b)
    x2 = lu_solve_vec(FLOAT64, a, b)
    assert x1 == x2


def test_refine_reaches_working_precision_beyond_cond_one_over_u():
    """cond_1 of the 30-digit Hilbert matrix of order 22 exceeds 10^30, so
    a 30-digit LU solve keeps almost no digits; refinement recovers all 30
    (against a 200-digit solve of the same 30-digit system)."""
    mp30, mp200 = Precision("mp", 30), Precision("mp", 200)
    h = hilbert(mp30, 22)
    b = [mp30.one] * 22
    assert lu_factor(mp200, h).cond1_estimate() > mpmath.mpf(10) ** 30
    run = refine(mp30, h, b, lambda fctx: lu_factor(fctx, h))
    ref = lu_solve_vec(mp200, h, b)
    x = [mp30.num(v) for v in run.x]
    err = max(abs(u - v) for u, v in zip(x, ref)) / max(abs(v) for v in ref)
    assert err <= mpmath.mpf(10) ** -28
    assert run.effective_digits == 30


def test_refine_float64_is_the_plain_solve():
    h = hilbert(FLOAT64, 8)
    b = [float(i % 3) - 1.0 for i in range(8)]
    run = refine(FLOAT64, h, b, lambda fctx: lu_factor(fctx, h))
    assert run.x == lu_solve_vec(FLOAT64, h, b)
    assert run.steps == 0


def test_cholesky_identity():
    g = cholesky(FLOAT64, identity(FLOAT64, 2))
    assert g == identity(FLOAT64, 2)


def test_cholesky_2x2_closed_form():
    g = cholesky(FLOAT64, [[2.0, 1.0], [1.0, 2.0]])
    assert abs(g[0][0] - 2**0.5) < 1e-14
    assert g[0][1] == 0.0
    assert abs(g[1][0] - 2**-0.5) < 1e-14
    assert abs(g[1][1] - 1.5**0.5) < 1e-14


def test_cholesky_indefinite_flags_failure():
    assert cholesky(FLOAT64, [[1.0, 2.0], [2.0, 1.0]]) is None


def test_cholesky_not_symmetric():
    with pytest.raises(NotSymmetric):
        cholesky(FLOAT64, [[1.0, 0.5], [0.2, 1.0]])


def test_cholesky_matches_jacobi_oracle():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        a = [[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)]
        shift = rng.choice([-1.0, 0.5, 2.0])
        for i in range(n):
            a[i][i] += shift
        eigs = jacobi_eigenvalues(a)
        if abs(eigs[0]) < 1e-6:
            continue  # keep the decision unambiguous
        g = cholesky(FLOAT64, a)
        assert (g is not None) == (eigs[0] > 0)
        if g is not None:
            gg = mat_mul(g, transpose(g))
            assert max(
                abs(gg[i][j] - a[i][j]) for i in range(n) for j in range(n)
            ) < 1e-10


def test_cholesky_mp_reconstruction():
    a = hilbert(MP50, 5)
    g = cholesky(MP50, a)
    gg = mat_mul(g, transpose(g))
    err = max(abs(gg[i][j] - a[i][j]) for i in range(5) for j in range(5))
    assert err < mpmath.mpf(10) ** -45


# -- the exact inner-product kernel ------------------------------------------


def _bits(x):
    """The raw value of an mpf or mpc, to compare results bit for bit."""
    return getattr(x, "_mpf_", None) or x._mpc_


def _random_mpfs(ctx, rng, n):
    """n full-precision numbers of ``ctx`` spread over 2^-80 .. 2^80."""
    prec = ctx.mp.prec
    return [
        ctx.mp.mpf((rng.choice((-1, 1)) * rng.getrandbits(prec),
                    rng.randint(-80, 80) - prec))
        for _ in range(n)
    ]


def _affine_oracle(ctx, a, x, c):
    """c + a x row by row as the context's fdot forms it."""
    one = ctx.one
    return [
        ctx.mp.fdot(itertools.chain(((ci, one),), zip(row, x)))
        for ci, row in zip(c, a)
    ]


@pytest.mark.parametrize("digits", [30, 150, 283])
@pytest.mark.parametrize("n", [0, 1, 8, 72])
def test_dot_is_bit_identical_to_fdot(digits, n):
    ctx = Precision("mp", digits)
    rng = random.Random(1000 * digits + n)
    us, vs = _random_mpfs(ctx, rng, n), _random_mpfs(ctx, rng, n)
    assert _bits(dot(ctx, us, vs)) == _bits(ctx.mp.fdot(us, vs))
    # operands from a wider and from a narrower context are read as they are
    wide = _random_mpfs(ctx.with_digits(digits + 40), rng, n)
    narrow = _random_mpfs(ctx.with_digits(digits - 10), rng, n)
    assert _bits(dot(ctx, wide, narrow)) == _bits(ctx.mp.fdot(wide, narrow))
    # zeros among the operands
    zs = [ctx.zero if i % 3 == 0 else u for i, u in enumerate(us)]
    zv = [ctx.zero if i % 4 == 1 else v for i, v in enumerate(vs)]
    assert _bits(dot(ctx, zs, zv)) == _bits(ctx.mp.fdot(zs, zv))
    # generator input
    got = dot(ctx, (u for u in us), iter(vs))
    assert _bits(got) == _bits(ctx.mp.fdot(us, vs))
    # c + a x, a x and c + x, each row against fdot
    a = [_random_mpfs(ctx, rng, n) for _ in range(3)]
    c = _random_mpfs(ctx, rng, 3)
    assert list(map(_bits, _affine_rows(ctx, a, us, c))) == list(
        map(_bits, _affine_oracle(ctx, a, us, c))
    )
    assert list(map(_bits, _affine_rows(ctx, a, us))) == [
        _bits(ctx.mp.fdot(row, us)) for row in a
    ]
    one = ctx.one
    assert list(map(_bits, _affine_rows(ctx, None, vs, c))) == [
        _bits(ctx.mp.fdot(((ci, one), (xi, one)))) for ci, xi in zip(c, vs)
    ]


@pytest.mark.parametrize("digits", [30, 150])
def test_dot_drops_terms_as_mpf_sum_does(digits):
    """A term more than 2 prec bits below the running sum is dropped, and
    one more than 2 prec bits above it replaces the sum, as mpmath's
    mpf_sum does: after the cancellation below, fdot returns 0, not the
    tiny term."""
    ctx = Precision("mp", digits)
    mpf, one = ctx.mp.mpf, ctx.one
    tiny = mpf(2) ** (-3 * ctx.mp.prec)
    ones = [one] * 3
    for us in ([one, tiny, -one], [tiny, one, -one], [-tiny, one, tiny]):
        expect = ctx.mp.fdot(us, ones)
        assert _bits(dot(ctx, us, ones)) == _bits(expect)
        c, row = us[0], us[1:]
        assert _bits(_affine_rows(ctx, [row], ones[1:], [c])[0]) == _bits(expect)
    # the gap also forms in the products
    us = [mpf(2) ** 200, tiny, -mpf(2) ** 100]
    vs = [mpf(2) ** -200, one, mpf(2) ** -100]
    assert _bits(dot(ctx, us, vs)) == _bits(ctx.mp.fdot(us, vs))
    assert dot(ctx, [one, tiny, -one], ones) == 0


def test_dot_falls_back_to_fdot_for_other_operands():
    ctx = Precision("mp", 40)
    rng = random.Random(7)
    us, vs = _random_mpfs(ctx, rng, 6), _random_mpfs(ctx, rng, 6)
    for odd in (3, 0.5, ctx.mp.inf, -ctx.mp.inf, ctx.mp.nan, ctx.mp.mpc(1, 2)):
        for k in (0, 5):
            mixed = us[:k] + [odd] + us[k + 1:]
            expect = _bits(ctx.mp.fdot(mixed, vs))
            assert _bits(dot(ctx, mixed, vs)) == expect
            assert _bits(dot(ctx, vs, mixed)) == _bits(ctx.mp.fdot(vs, mixed))
            # an iterator restarts from its first term
            assert _bits(dot(ctx, iter(mixed), iter(vs))) == expect
    # 0 * inf is nan, as in fdot
    assert ctx.mp.isnan(dot(ctx, [ctx.zero], [ctx.mp.inf]))


def test_dot_float64_is_the_plain_sum():
    us, vs = [0.1, 0.2, 0.3], [3.0, -1.0, 7.0]
    assert dot(FLOAT64, us, vs) == 0.1 * 3.0 + 0.2 * -1.0 + 0.3 * 7.0
