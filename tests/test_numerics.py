import itertools
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_neg, mpf_sub, round_nearest

from bcrbf import pseudospectral
from bcrbf.benchmarks import get_example
from bcrbf.errors import SingularMatrix
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import (
    FLOAT64,
    Aligned,
    Precision,
    _affine_rows,
    _round,
    _round_add,
    _round_div,
    as_row,
    dot,
    lu_factor,
    mat_vec,
    norm_1,
    norm_inf,
    refine,
    transpose,
)

from oracles import (
    CroutLU,
    NotSymmetric,
    cholesky,
    identity,
    jacobi_eigenvalues,
    lu_solve,
    lu_solve_vec,
    mat_mul,
    number_rows,
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
    est = lu_factor(FLOAT64, a).cond1_estimate(a)
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
    assert lu_factor(mp200, h).cond1_estimate(h) > mpmath.mpf(10) ** 30
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
    # rows given as numbers, and as Aligned rows
    for rows in (a, [as_row(ctx, row) for row in a]):
        assert list(map(_bits, _affine_rows(ctx, rows, us, c))) == list(
            map(_bits, _affine_oracle(ctx, a, us, c))
        )
        assert list(map(_bits, _affine_rows(ctx, rows, us))) == [
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
        for rows in ([row], [as_row(ctx, row)]):
            assert _bits(_affine_rows(ctx, rows, ones[1:], [c])[0]) == _bits(expect)
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


def test_finite_mp_operands_never_reach_fdot(monkeypatch):
    """A dot of finite mp numbers is summed on their aligned integers, to
    fdot's bits, whatever the window of its products: below, at and far
    above 2 * prec bits, and across an exact cancellation.  Only operands
    that are not finite mp numbers are left to fdot."""
    ctx = Precision("mp", 30)
    mp = ctx.mp
    one, two, prec = ctx.one, mp.mpf(2), mp.prec
    rng = random.Random(11)
    cases = [
        ([one, two ** -prec, -two ** 7], [one, one, two ** -9]),
        ([one, two ** (-2 * prec), -one], [one] * 3),
        ([two ** (5 * prec), one, two ** (-5 * prec)], [one, two ** -3, one]),
        ([one, -one, two ** (-10 * prec)], [one] * 3),
        ([one, two ** (-3 * prec), -one], [one] * 3),
        (_random_mpfs(ctx, rng, 16), _random_mpfs(ctx.with_digits(300), rng, 16)),
    ]
    expect = [_bits(mp.fdot(us, vs)) for us, vs in cases]

    class Reached(Exception):
        pass

    def fdot(*args):
        raise Reached

    monkeypatch.setattr(mp, "fdot", fdot)
    assert [_bits(dot(ctx, us, vs)) for us, vs in cases] == expect
    assert [_bits(dot(ctx, iter(us), vs)) for us, vs in cases] == expect
    for odd in (3, 0.5, mp.mpc(1, 2), mp.inf, mp.nan):
        with pytest.raises(Reached):
            dot(ctx, [one, odd], [one, one])


def test_dot_float64_is_the_plain_sum():
    us, vs = [0.1, 0.2, 0.3], [3.0, -1.0, 7.0]
    assert dot(FLOAT64, us, vs) == 0.1 * 3.0 + 0.2 * -1.0 + 0.3 * 7.0


def _odd(draw, bits):
    """A signed odd mantissa of up to ``bits`` bits, so that a number made
    from it keeps the exponent it is given."""
    return draw(st.sampled_from((1, -1))) * (2 * draw(st.integers(0, 2 ** bits - 1)) + 1)


@st.composite
def _term_operands(draw):
    """(digits, us, vs) as raw tuples for the term loop of ``dot``.

    Mantissas have fewer, as many and more bits than the context carries,
    some operands are zero, and the nonzero products' exponents span a
    window of 2 * prec - 1 to 2 * prec + 2 bits (``mpf_sum`` first drops a
    1-bit term at 2 * prec + 2), a narrower one or a far wider one, from a
    lowest exponent below, at or above 0: the products lie on both sides
    of 0, or all on one side, as far as 3 prec bits away.  Optionally the
    highest product is cancelled by a last term, or the lowest product
    comes first with its negative, so that the others follow an exact
    cancellation, as far above it as the window reaches."""
    digits = draw(st.sampled_from((5, 15, 30, 150)))
    prec = Precision("mp", digits).mp.prec
    window = draw(st.sampled_from(
        (4, 2 * prec - 1, 2 * prec, 2 * prec + 1, 2 * prec + 2, 6 * prec)))
    lo = draw(st.sampled_from((-3 * prec - window, -(window // 2), 0, 3 * prec)))
    bits = (1, 20, prec, prec + 60)

    def term(exp):
        ue = draw(st.integers(-prec, prec))
        u = from_man_exp(_odd(draw, draw(st.sampled_from(bits))), ue)
        v = from_man_exp(_odd(draw, draw(st.sampled_from(bits))), exp - ue)
        if draw(st.integers(0, 9)) == 0:  # a zero operand
            u, v = draw(st.sampled_from(((_ZERO, v), (u, _ZERO), (_ZERO, _ZERO))))
        return u, v

    low = (from_man_exp(_odd(draw, 20), lo), _ONE)
    high = (from_man_exp(_odd(draw, 20), lo + window), _ONE)
    others = [term(draw(st.integers(lo, lo + window)))
              for _ in range(draw(st.integers(0, 8)))]
    terms = draw(st.permutations([low, high, *others]))
    cancel = draw(st.sampled_from(("none", "highest last", "lowest first")))
    if cancel == "highest last":
        terms.append((high[0], mpf_neg(high[1])))
    elif cancel == "lowest first":
        terms[:0] = [low, (low[0], mpf_neg(low[1]))]
    us, vs = zip(*terms)
    return digits, list(us), list(vs)


_ZERO = from_man_exp(0, 0)
_ONE = from_man_exp(1, 0)
_P30 = Precision("mp", 30).mp.prec


def _pow2(e, man=1):
    """man * 2**e as a raw tuple."""
    return from_man_exp(man, e)


@settings(max_examples=400, deadline=None, database=None)
@given(_term_operands())
# mixed mantissa lengths and zero operands
@example((30, [_pow2(0, 3), _ZERO, _pow2(-7, 2 ** 160 + 1), _pow2(5)],
          [_pow2(-2, 2 ** 20 - 1), _pow2(9), _pow2(3), _ZERO]))
# windows of 2 prec - 1 to 2 prec + 2 bits, with the highest product
# cancelled: the sum is the low term, until mpf_sum drops it at 2 prec + 2
@example((30, [_pow2(2 * _P30 - 1), _ONE, _pow2(2 * _P30 - 1, -1)], [_ONE] * 3))
@example((30, [_pow2(2 * _P30), _ONE, _pow2(2 * _P30, -1)], [_ONE] * 3))
@example((30, [_pow2(2 * _P30 + 1), _ONE, _pow2(2 * _P30 + 1, -1)], [_ONE] * 3))
@example((30, [_pow2(2 * _P30 + 2), _ONE, _pow2(2 * _P30 + 2, -1)], [_ONE] * 3))
# far wider: mpf_sum drops the low term, or replaces it by the high one
@example((30, [_ONE, _pow2(-3 * _P30), _pow2(0, -1)], [_ONE] * 3))
@example((30, [_pow2(-3 * _P30), _ONE, _pow2(0, -1)], [_ONE] * 3))
# products on both sides of exponent 0, across a window of 2 prec; and
# all far above or far below it, where mpf_sum's running sum, which
# starts at exponent 0, is replaced by the first term
@example((30, [_pow2(-_P30, 5), _pow2(_P30, 7)], [_ONE, _pow2(0, -3)]))
@example((30, [_pow2(3 * _P30, 5), _pow2(3 * _P30 + 9, 7)], [_ONE] * 2))
@example((30, [_pow2(-3 * _P30, 5), _pow2(-3 * _P30 - 9, 7)], [_ONE] * 2))
# an exact cancellation followed by a term far above it
@example((30, [_ONE, _ONE, _pow2(3 * _P30, 3)], [_ONE, _pow2(0, -1), _ONE]))
def test_dot_term_loop_is_bit_identical_to_fdot(operands):
    """A dot of two sequences of numbers is the context's fdot, bit for
    bit, within a window of 2 * prec bits and beyond it, in either order
    of the terms."""
    digits, us, vs = operands
    ctx = Precision("mp", digits)
    make = ctx.mp.make_mpf
    us, vs = [make(u) for u in us], [make(v) for v in vs]
    assert _bits(dot(ctx, us, vs)) == _bits(ctx.mp.fdot(us, vs))
    us.reverse()
    vs.reverse()
    assert _bits(dot(ctx, us, vs)) == _bits(ctx.mp.fdot(us, vs))


# -- aligned operands, and the LU on them --------------------------------------


def _raw_numbers(draw, n, bits, spread):
    """n raw tuples: signed mantissas of up to one of ``bits`` bits (0 gives
    a zero) at exponents in [-spread, spread]."""
    return [
        from_man_exp(
            draw(st.sampled_from((1, -1)))
            * draw(st.integers(0, 2 ** draw(st.sampled_from(bits)) - 1)),
            draw(st.integers(-spread, spread)),
        )
        for _ in range(n)
    ]


@st.composite
def _dot_operands(draw):
    """(digits, us, vs): mantissas of fewer, as many and more bits than the
    context carries, zeros among them, and exponents that keep the
    products' window within 2 * prec or spread it far wider."""
    digits = draw(st.sampled_from((15, 30, 150)))
    prec = Precision("mp", digits).mp.prec
    n = draw(st.integers(0, 10))
    bits = (1, 20, prec, prec + 60)
    spread = draw(st.sampled_from((4, prec // 2, 2 * prec, 6 * prec)))
    us, vs = _raw_numbers(draw, n, bits, spread), _raw_numbers(draw, n, bits, spread)
    # a last term that cancels the largest product exactly, lifted far
    # above the others or not, leaves the others or what mpf_sum dropped
    if n and draw(st.booleans()):
        i = max(range(n), key=lambda k: us[k][2] + us[k][3] + vs[k][2] + vs[k][3])
        sign, man, exp, bc = us[i]
        if man:
            us[i] = (sign, man, exp + draw(st.sampled_from((0, 2 * prec, 4 * prec))), bc)
        us.append(us[i])
        vs.append(mpf_neg(vs[i]))
    return digits, us, vs


_TINY = from_man_exp(1, -3 * Precision("mp", 30).mp.prec)


@settings(max_examples=300, deadline=None, database=None)
@given(_dot_operands())
# test_dot_drops_terms_as_mpf_sum_does: after 1 - 1 fdot returns 0, not
# the tiny term, and a tiny first term is replaced by 1
@example((30, [_ONE, _TINY, from_man_exp(-1, 0)], [_ONE] * 3))
@example((30, [_TINY, _ONE, from_man_exp(-1, 0)], [_ONE] * 3))
def test_aligned_dot_is_bit_identical_to_fdot(operands):
    """A dot of two Aligned vectors is the context's fdot of their numbers,
    bit for bit, within the 2 * prec window (one multiply-sum) and beyond
    it (mpf_sum); and vectors grown one entry at a time at either end are
    the ones built at once."""
    digits, us, vs = operands
    ctx = Precision("mp", digits)
    make = ctx.mp.make_mpf
    expect = _bits(ctx.mp.fdot([make(u) for u in us], [make(v) for v in vs]))
    au, av = Aligned(us), Aligned(vs)
    assert _bits(dot(ctx, au, av)) == expect
    assert [au[i] for i in range(len(us))] == us
    back, front = Aligned(), Aligned()
    for u in us:
        back.append(u)
    for v in reversed(vs):
        front.insert(0, v)
    assert (back.ints, back.lo, back.hi) == (au.ints, au.lo, au.hi)
    assert (front.ints, front.lo, front.hi) == (av.ints, av.lo, av.hi)
    assert _bits(dot(ctx, back, front)) == expect


def test_aligned_rejects_non_finite_entries():
    ctx = Precision("mp", 30)
    for special in (ctx.mp.inf, ctx.mp.nan):
        with pytest.raises(ValueError):
            Aligned([_ONE, special._mpf_])
        with pytest.raises(ValueError):
            Aligned().append(special._mpf_)


def _factor_entries(fact):
    """L below the diagonal, the pivots on it and U above it, read from
    every orientation the factors are stored in (raw tuples in mp)."""
    n = fact.n
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = fact.pivots[i]
        for j in range(i):
            out[i][j] = fact.lrows[i][j]
            assert fact.lcols[j][i - j - 1] == out[i][j]
        for j in range(i + 1, n):
            out[i][j] = fact.urows[i][j - i - 1]
            assert fact.ucols[j][i] == out[i][j]
    return out


def _assert_lu_is_the_oracle(ctx, a):
    """Factors, swaps and both solves of LUFactorization, and the 1-norm of
    ``a`` that its condition estimate forms, equal the oracle Crout's on
    number objects, bit for bit."""
    numbers = number_rows(a)
    ref, fact = CroutLU(ctx, numbers), lu_factor(ctx, a)
    bits = repr if ctx.mode == "float64" else _bits
    assert fact.swaps == ref.swaps
    assert bits(norm_1(a)) == bits(ref.norm1_a)
    factors = _factor_entries(fact)
    if ctx.mode == "float64":
        factors = [list(map(repr, row)) for row in factors]
    assert factors == [list(map(bits, row)) for row in ref.lu]
    rng = random.Random(len(a))
    for b in ([ctx.num(rng.uniform(-1, 1)) for _ in a], [row[0] for row in numbers]):
        for solve, oracle in ((fact.solve_vec, ref.solve_vec),
                              (fact.solve_transpose_vec, ref.solve_transpose_vec)):
            assert list(map(bits, solve(b))) == list(map(bits, oracle(b)))


@pytest.mark.parametrize("prec", ["mp:30", "mp:200", "float64"])
def test_lu_on_hilbert_matrices_is_the_oracle_crout(prec):
    """Hilbert matrices of orders 1-22, far beyond 1/u in mp:30; also
    factored at 30 digits more than they carry."""
    ctx = Precision.parse(prec)
    for n in (1, 2, 7, 22):
        _assert_lu_is_the_oracle(ctx, hilbert(ctx, n))
    _assert_lu_is_the_oracle(ctx.with_digits(ctx.digits + 30), hilbert(ctx, 22))


@pytest.mark.parametrize("ident, counts, shape, digits, eps", [
    ("ex1", (72,), 0.18, 150, 0.5),
    ("ex4", (8, 8), 0.01, 150, None),
])
def test_lu_on_collocation_systems_is_the_oracle_crout(
        ident, counts, shape, digits, eps, monkeypatch):
    """The A_L that the direct route factors for ex1 N=72 and ex4 8x8 at
    mp:150, at the digits it is factored at."""
    factored = []
    factor = pseudospectral.lu_factor

    def captured(fctx, a):
        factored.append((fctx, a))
        return factor(fctx, a)

    monkeypatch.setattr(pseudospectral, "lu_factor", captured)
    ctx = Precision("mp", digits)
    pseudospectral.solve(get_example(ident).make(ctx, eps), counts, shape, ctx)
    fctx, a_l = factored[-1]
    assert len(a_l) == math.prod(counts)
    _assert_lu_is_the_oracle(fctx, a_l)


def test_wide_span_solves_are_the_oracle():
    """An exponent span of 10^7 bits, t = 2^-(10^7) in [[1, t, 1], [t, 1, 1],
    [1, 1, 3]] at mp:30: the aligned integers of the solves are 10^7 bits
    wide.  The factors and both solves are the oracle Crout's, bit for bit,
    and the condition estimate returns."""
    ctx = Precision("mp", 30)
    one, t = ctx.one, ctx.mp.make_mpf((0, 1, -10 ** 7, 1))
    a = [[one, t, one], [t, one, one], [one, one, 3 * one]]
    _assert_lu_is_the_oracle(ctx, a)
    assert lu_factor(ctx, a).cond1_estimate(a) > 1


# -- rounding on integers ------------------------------------------------------


def _precs(digits):
    return Precision("mp", digits).mp.prec


def _tie(q, shift=0, sign=1):
    """sign * (2 q + 1) * 2**shift: rounding it at q's bit count is a tie,
    which goes to q when q is even and to q + 1 when q is odd."""
    return sign * ((2 * q + 1) << shift)


_P5 = _precs(5)


@st.composite
def _mantissas(draw):
    """(digits, man, exp): a signed mantissa of 1 bit to 3 prec bits, an
    exact tie at prec bits with an even or odd kept part, or prec one-bits
    followed by a tie or more, which carries to 2**prec; zero among them,
    with trailing zeros or not."""
    digits = draw(st.integers(5, 300))
    prec = _precs(digits)
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("any", "tie", "carry")))
    if kind == "any":
        bits = draw(st.sampled_from((1, prec - 1, prec, prec + 1, prec + 2, 2 * prec, 3 * prec)))
        man = sign * draw(st.integers(0, 2 ** bits - 1))
    elif kind == "tie":
        q = 2 ** (prec - 1) + draw(st.integers(0, 2 ** (prec - 1) - 1))
        man = _tie(q, 0, sign)
    else:
        tail = draw(st.integers(2 ** draw(st.integers(0, 8)), 2 ** 9 - 1))
        man = sign * ((2 ** prec - 1) << tail.bit_length() | tail)
    return digits, man << draw(st.sampled_from((0, 1, 9, 300))), draw(st.integers(-2000, 2000))


@settings(max_examples=500, deadline=None, database=None)
@given(_mantissas())
@example((5, 0, 7))  # zero
@example((5, _tie(2 ** (_P5 - 1)), 0))  # a tie to an even kept part
@example((5, _tie(2 ** (_P5 - 1) + 1), 0))  # a tie to an odd one, rounded up
@example((5, _tie(2 ** (_P5 - 1) + 2, 9, -1), -3))  # negative, trailing zeros
@example((5, _tie(2 ** (_P5 - 1) + 3, 0, -1), 3))
@example((5, _tie(2 ** _P5 - 1), -40))  # a tie that carries to 2**prec
@example((5, -((2 ** _P5 - 1) << 2 | 3), 11))  # above a tie, carrying
@example((5, 2 ** _P5 - 1, 0))  # prec bits: kept as it is
@example((300, -(2 ** 3000 + 1), -5000))  # far wider than prec
def test_round_is_from_man_exp(case):
    """``_round`` is mpmath's ``from_man_exp`` at round-to-nearest, bit for
    bit, at a precision and exactly."""
    digits, man, exp = case
    prec = _precs(digits)
    assert _round(man, exp, prec) == from_man_exp(man, exp, prec, round_nearest)
    assert _round(man, exp) == from_man_exp(man, exp)


def _raw(man, exp):
    return from_man_exp(man, exp)


@st.composite
def _add_operands(draw):
    """(digits, x, y, minus): canonical raw tuples of 1 bit to 2 prec bits,
    either sign, whose tops lie 0 bits apart, just under, at and just over
    prec + 4, or far beyond; y is sometimes x itself, which cancels to zero
    in x - y, or zero."""
    digits = draw(st.integers(5, 300))
    prec = _precs(digits)

    def number(top):
        bits = draw(st.sampled_from((1, 20, prec - 1, prec, prec + 1, 2 * prec)))
        man = draw(st.sampled_from((1, -1))) * draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        return _raw(man, top - bits)

    top = draw(st.integers(-3000, 3000))
    gap = draw(st.sampled_from((0, 1, prec - 1, prec, prec + 3, prec + 4, prec + 5, 100 * prec)))
    x, y = number(top), number(top - draw(st.sampled_from((1, -1))) * gap)
    kind = draw(st.sampled_from(("pair", "pair", "same", "zero")))
    if kind == "same":
        y = x
    elif kind == "zero":
        y = _ZERO
    if draw(st.booleans()):
        x, y = y, x
    return digits, x, y, draw(st.sampled_from((0, 1)))


@settings(max_examples=500, deadline=None, database=None)
@given(_add_operands())
@example((30, _raw(3, 0), _raw(3, 0), 1))  # x - x cancels to zero
@example((30, _raw(-3, 0), _raw(3, 0), 0))
@example((30, _raw(1, _P30), _raw(1, 0), 0))  # a tie at prec bits, kept even
@example((30, _raw(2 ** (_P30 - 1) + 1, 1), _raw(1, 0), 0))  # a tie, rounded up
@example((30, _raw(-(2 ** _P30 - 1), 1), _raw(-1, 0), 0))  # a tie that carries
@example((30, _raw(2 ** _P30 - 1, 1), _raw(-1, 0), 1))  # the same as x - (-y)
@example((30, _raw(1, 0), _raw(-1, -_P30 - 3), 0))  # tops prec + 3 apart
@example((30, _raw(1, 0), _raw(1, -_P30 - 4), 1))  # prec + 4: still exact
@example((30, _raw(1, 0), _raw(1, -_P30 - 5), 1))  # prec + 5: mpf_add's own
@example((30, _raw(1, -100 * _P30), _raw(-7, 0), 0))  # far beyond, y on top
@example((30, _ZERO, _raw(-5, 3), 1))  # a zero operand
# tops 50 bits apart, exponents 200: mpf_add's sticky bit leaves x above
# the tie that x - y lies below, so it is not the correctly rounded sum
@example((5, _raw(_tie(2 ** (_P5 - 1), 39) | 1, 1000), _raw(2 ** 209 + 1, 800), 1))
def test_round_add_is_mpf_add(case):
    """``_round_add`` is mpmath's ``mpf_add`` and ``mpf_sub`` at
    round-to-nearest, bit for bit."""
    digits, x, y, minus = case
    prec = _precs(digits)
    expect = (mpf_sub if minus else mpf_add)(x, y, prec, round_nearest)
    assert _round_add(x, y, prec, minus) == expect


@st.composite
def _div_operands(draw):
    """(digits, x, y): either sign, mantissas of 1 bit to 2 prec bits, a
    zero numerator, a power-of-two divisor, exact quotients, and quotients
    a remainder away from a tie at prec bits, where only the sticky bit
    tells the side."""
    digits = draw(st.integers(5, 300))
    prec = _precs(digits)

    def mantissa():
        bits = draw(st.sampled_from((1, 2, 20, prec - 1, prec, prec + 1, 2 * prec)))
        return draw(st.sampled_from((1, -1))) * draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))

    xm, ym = mantissa(), mantissa()
    kind = draw(st.sampled_from(("any", "any", "exact", "tie", "zero")))
    if kind == "exact":
        xm *= ym
    elif kind == "tie":
        q = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        xm = _tie(q) * ym + draw(st.sampled_from((-1, 0, 1)))
    elif kind == "zero":
        xm = 0
    exps = st.integers(-3000, 3000)
    return digits, _raw(xm, draw(exps)), _raw(ym, draw(exps))


@settings(max_examples=500, deadline=None, database=None)
@given(_div_operands())
@example((5, _ZERO, _raw(3, 0)))  # a zero numerator
@example((5, _raw(-(2 ** 3 * 3), 0), _raw(3, 7)))  # an exact quotient
@example((5, _raw(2 ** (2 * _P5) + 1, 0), _raw(1, 5)))  # a power of two divisor
@example((5, _raw(1, 0), _raw(3, 0)))  # a remainder
# just above a tie with an even kept part: only the sticky bit rounds up
@example((5, _raw(_tie(2 ** (_P5 - 1)) * 101 + 1, 0), _raw(101, 0)))
@example((5, _raw(-(_tie(2 ** (_P5 - 1)) * 101 + 1), 0), _raw(101, 0)))
@example((300, _raw(-(2 ** 2000 - 1), 9), _raw(2 ** 1000 - 3, -4)))
def test_round_div_is_mpf_div(case):
    """``_round_div`` is mpmath's ``mpf_div`` at round-to-nearest, bit for
    bit."""
    digits, x, y = case
    prec = _precs(digits)
    assert _round_div(x, y, prec) == mpf_div(x, y, prec, round_nearest)


@pytest.mark.parametrize("c, digits, n", [
    (0.18, 150, 72), (0.01, 30, 8), (2.0, 60, 11), (0.7, 5, 3),
])
def test_uniform_rows_are_the_mpf_recurrence(c, digits, n):
    """``GaussianKernel._uniform_rows`` is its recurrence run on number
    objects at the work digits, each entry rounded to the kernel's, bit for
    bit."""
    ctx = Precision("mp", digits)
    kernel = GaussianKernel(c, ctx)
    nodes = [ctx.num(j) / (n + 1) for j in range(1, n + 1)]
    xs = nodes + [ctx.num(0), ctx.num("0.3125"), ctx.num(1)]
    work = ctx.with_digits(digits + 5 + 2 * len(str(n))).mp
    y0 = work.convert(nodes[0])
    h = (work.convert(nodes[-1]) - y0) / (n - 1)
    c2 = work.convert(kernel.c) ** 2
    q = work.exp(-2 * c2 * h * h)
    expect = []
    for x in xs:
        t = work.convert(x) - y0
        g, r = work.exp(-c2 * t * t), work.exp(c2 * h * (2 * t - h))
        row = []
        for _ in range(n):
            row.append(_bits(ctx.mp.mpf(g)))
            g, r = g * r, r * q
        expect.append(row)
    # an Aligned row iterates over its entries' raw tuples
    assert [list(row) for row in kernel._uniform_rows(xs, nodes)] == expect
