import math
import random

import mpmath
import pytest

from bcrbf.errors import UnsupportedOrder
from bcrbf.kernels import GaussianKernel, hermite
from bcrbf.numerics import FLOAT64, Precision

from oracles import fd_mixed_partial_f64, fd_mixed_partial_mp


def test_eval_at_coincident_points():
    k = GaussianKernel(1.0)
    assert k.eval(0.3, 0.3) == 1.0


def test_eval_unit_separation():
    k = GaussianKernel(1.0)
    assert abs(k.eval(1.0, 0.0) - math.exp(-1)) < 1e-15


def test_eval_shape_scaling():
    k = GaussianKernel(0.5)
    assert abs(k.eval(2.0, 0.0) - math.exp(-1)) < 1e-15


def test_shape_must_be_positive():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)
    with pytest.raises(ValueError):
        GaussianKernel(-1.0)


def test_hermite_values():
    # H_0..H_4 at s = 0.5: 1, 1, -1, -5, 1
    vals = [hermite(p, 0.5, 1.0) for p in range(5)]
    assert vals == [1.0, 1.0, -1.0, -5.0, 1.0]


def test_mixed_partial_order_zero_is_eval():
    k = GaussianKernel(1.3)
    for x, y in [(0.2, -0.7), (1.0, 1.0), (-2.0, 0.4)]:
        assert k.mixed_partial(0, 0, x, y) == k.eval(x, y)


def test_mixed_partial_first_order():
    k = GaussianKernel(1.0)
    assert abs(k.mixed_partial(1, 0, 1.0, 0.0) - (-2 * math.exp(-1))) < 1e-14


def test_mixed_partial_cross_at_diagonal():
    for c in (0.5, 1.0, 2.0):
        k = GaussianKernel(c)
        assert abs(k.mixed_partial(1, 1, 0.37, 0.37) - 2 * c * c) < 1e-13


def test_unsupported_order():
    k = GaussianKernel(1.0)
    with pytest.raises(UnsupportedOrder):
        k.mixed_partial(3, 2, 0.0, 0.0)
    with pytest.raises(UnsupportedOrder):
        k.mixed_partial(-1, 0, 0.0, 0.0)


def test_derivative_symmetry_and_sign_flip():
    rng = random.Random(101)
    for _ in range(200):
        c = rng.uniform(0.3, 2.0)
        k = GaussianKernel(c)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        m = rng.randint(0, 4)
        n = rng.randint(0, 4 - m)
        v = k.mixed_partial(m, n, x, y)
        assert v == pytest.approx(k.mixed_partial(n, m, y, x), rel=1e-12, abs=1e-15)
        assert v == pytest.approx(
            (-1) ** (m + n) * k.mixed_partial(n, m, x, y), rel=1e-12, abs=1e-15
        )
        assert v == pytest.approx(
            (-1) ** (m + n) * k.mixed_partial(m, n, y, x), rel=1e-12, abs=1e-15
        )


def test_finite_difference_agreement_float64():
    rng = random.Random(55)
    for _ in range(120):
        c = rng.uniform(0.3, 2.0)
        k = GaussianKernel(c)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        m = rng.randint(0, 4)
        n = rng.randint(0, 4 - m)
        got = k.mixed_partial(m, n, x, y)
        ref = fd_mixed_partial_f64(k.eval, m, n, x, y)
        # scale floor: high orders carry c^(m+n) magnitudes
        assert abs(got - ref) <= 1e-4 * max(abs(got), c ** (m + n), 1e-2)


def test_finite_difference_agreement_mp():
    ctx = Precision("mp", 50)
    rng = random.Random(56)
    for _ in range(40):
        c = ctx.num(rng.uniform(0.3, 2.0))
        k = GaussianKernel(c, ctx)
        x = ctx.num(rng.uniform(-2, 2))
        y = ctx.num(rng.uniform(-2, 2))
        m = rng.randint(0, 4)
        n = rng.randint(0, 4 - m)
        got = k.mixed_partial(m, n, x, y)
        guarded = ctx.digits + 60  # the oracle evaluates at guard digits
        fresh = GaussianKernel(c, ctx.with_digits(guarded))
        ref = fd_mixed_partial_mp(fresh.eval, m, n, x, y, guarded)
        tol = mpmath.mpf(10) ** -10 * max(abs(got), c ** (m + n), mpmath.mpf("1e-2"))
        assert abs(got - ref) <= tol


def test_float64_context_by_default():
    k = GaussianKernel(1.0)
    assert k.ctx is FLOAT64
    assert isinstance(k.eval(0.1, 0.9), float)
