"""The field protocol: every field evaluates on tensor grids
(``partial_axes``), its pointwise ``partial`` and ``value`` give the same
bits on a grid of 1-point axes, and the error metric evaluates the exact
solution on the grid as a whole."""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcrbf.benchmarks import get_example
from bcrbf.fields import (
    ConstantData,
    FieldTraceData,
    LambdaField,
    ProductField,
    ScalarField,
    SumField,
    fn_cos,
    fn_exp,
    fn_sin,
)
from bcrbf.functionals import make_robin
from bcrbf.homogenize import homogenize_nd
from bcrbf.kansa import kansa_solve
from bcrbf.numerics import FLOAT64, Precision
from bcrbf.pseudospectral import solve
from bcrbf.reporting import error_metrics

MP40 = Precision("mp", 40)
CTXS = {"mp": MP40, "float64": FLOAT64}
UNIT3 = ((0, 1),) * 3


def _sum3(ctx):
    return SumField([
        ProductField([fn_sin(ctx, 1), fn_exp(ctx, -1), fn_cos(ctx, 3)]),
        ProductField([fn_exp(ctx, 2), fn_cos(ctx, 1), fn_sin(ctx, 2, 3)]),
    ])


def _map(ident, ctx):
    problem = get_example(ident).make(ctx)
    pairs = [
        (
            (problem.bcs[d][0].functional, problem.data_for(d, 0)),
            (problem.bcs[d][1].functional, problem.data_for(d, 1)),
        )
        for d in range(problem.dim)
    ]
    return homogenize_nd(pairs, ctx), problem.domain


def _solution(ident, counts, shape, ctx, method="direct"):
    record = get_example(ident)
    problem = record.make(ctx, 0.5) if record.has_eps else record.make(ctx)
    if method == "kansa":
        sol = kansa_solve(problem, counts, shape, ctx)
    else:
        sol = solve(problem, counts, shape, ctx)
    return sol, problem.domain


def _face(ident, counts, d, side, ctx, method="direct"):
    """A face's boundary functional applied to a solution: the field over
    the face's tangential coordinates and their box."""
    shape = "0.5" if ident == "ex1" else "1"
    sol, domain = _solution(ident, counts, shape, ctx, method)
    record = get_example(ident)
    problem = record.make(ctx, 0.5) if record.has_eps else record.make(ctx)
    functional = problem.bcs[d][side].functional
    face = tuple(ab for e, ab in enumerate(domain) if e != d)
    return FieldTraceData(sol, d, functional), face


@functools.lru_cache(maxsize=None)
def _field(name, mode):
    """(field, domain) per class under test."""
    ctx = CTXS[mode]
    if name == "product":
        return ProductField([fn_exp(ctx, 1), fn_cos(ctx, 2)]), ((0, 1),) * 2
    if name == "sum":
        return _sum3(ctx), UNIT3
    if name == "constant":
        return ConstantData(ctx.num("0.75"), 2), ((0, 1),) * 2
    if name == "trace":
        robin = make_robin(2, "-0.5", "0.25", 0, ctx)  # an order-0 and an order-1 term
        return FieldTraceData(_sum3(ctx), 1, robin), ((0, 1),) * 2
    if name == "lambda":
        return get_example("ex7").make(ctx).exact, ((-0.5, 0.5),) * 3
    if name == "map-ex2":  # Neumann and Robin faces: traces frozen and differentiated
        return _map("ex2", ctx)
    if name == "map-ex7":
        return _map("ex7", ctx)
    if name == "solution-ex1":  # 1D: corrections applied by their factors
        return _solution("ex1", (10,), "0.5", ctx)
    if name == "solution-ex4":
        return _solution("ex4", (5, 5), "1", ctx)
    if name == "solution-kansa":
        return _solution("ex4", (5, 5), "1", ctx, "kansa")
    if name == "face-ex1-robin":  # 1D: the face is a point
        return _face("ex1", (10,), 0, 0, ctx)
    if name == "face-ex2-neumann":
        return _face("ex2", (5, 5), 0, 1, ctx)
    if name == "face-ex2-robin":
        return _face("ex2", (5, 5), 1, 1, ctx)
    if name == "face-kansa-ex4":
        return _face("ex4", (5, 5), 0, 1, ctx, "kansa")
    raise ValueError(name)


FIELDS = [
    "product", "sum", "constant", "trace", "lambda",
    "map-ex2", "map-ex7", "solution-ex1", "solution-ex4", "solution-kansa",
    "face-ex1-robin", "face-ex2-neumann", "face-ex2-robin", "face-kansa-ex4",
]


def _bits(v):
    return v._mpf_ if hasattr(v, "_mpf_") else float(v).hex()


@st.composite
def _grid(draw, domain):
    """Non-uniform axes of 1-4 points in ``domain``, one of them 1 point,
    and derivative orders of total order at most 2."""
    dim = len(domain)
    single = draw(st.integers(0, dim - 1)) if dim else None
    axes = []
    for e, (a, b) in enumerate(domain):
        n = 1 if e == single else draw(st.integers(1, 4))
        ks = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n))
        axes.append([a + (b - a) * k / 1000 for k in ks])
    orders = draw(st.sampled_from([
        o for o in itertools.product(range(3), repeat=dim) if sum(o) <= 2
    ]))
    return axes, orders


@pytest.mark.parametrize("mode", ["mp", "float64"])
@pytest.mark.parametrize("name", FIELDS)
@settings(max_examples=15, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_grid_equals_pointwise(name, mode, data):
    """partial_axes on a grid equals partial (and value) at each of its
    points bit for bit, for every field class, in mp and float64, and for
    boundary functionals applied to solutions on face grids."""
    field, domain = _field(name, mode)
    ctx = CTXS[mode]
    axes, orders = data.draw(_grid(domain))
    axes = [[ctx.num(x) for x in ax] for ax in axes]
    grid = field.partial_axes(orders, axes)
    points = list(itertools.product(*axes))
    assert len(grid) == len(points)
    for v, p in zip(grid, points):
        assert _bits(v) == _bits(field.partial(orders, p))
        if not any(orders) and hasattr(field, "value"):
            assert _bits(v) == _bits(field.value(p))


class _PointOnly:
    """An exact solution with only the per-point methods."""

    def __init__(self, field):
        self._field = field
        self.dim = field.dim

    def value(self, p):
        return self._field.value(p)

    def partial(self, orders, p):
        return self._field.partial(orders, p)


@functools.lru_cache(maxsize=None)
def _ex4_run():
    ctx = Precision("mp", 150)
    problem = get_example("ex4").make(ctx)
    return solve(problem, (8, 8), "0.01", ctx), problem


def test_error_metrics_takes_a_per_point_field():
    """A field with only dim, value and partial goes through error_metrics,
    point by point, to the same bits as the field itself."""
    sol, problem = _ex4_run()
    grid = error_metrics(sol, problem.exact, sol.ctx)
    pointwise = error_metrics(sol, _PointOnly(problem.exact), sol.ctx)
    assert [_bits(v) for v in pointwise] == [_bits(v) for v in grid]


def test_error_metrics_makes_no_per_point_field_calls(monkeypatch):
    """error_metrics on ex4 8x8 evaluates the exact solution and the map's
    traces on the grid: no per-point partial or value call on any field."""
    ctx = Precision("mp", 150)
    problem = get_example("ex4").make(ctx)
    sol = solve(problem, (8, 8), "0.01", ctx)
    calls = []
    for cls in (ScalarField, LambdaField):
        for method in ("partial", "value"):
            def counted(self, *args, _fn=getattr(cls, method)):
                calls.append(type(self).__name__)
                return _fn(self, *args)

            monkeypatch.setattr(cls, method, counted)
    problem.exact.value((ctx.zero, ctx.zero))
    assert calls  # the counter sees a per-point call
    calls.clear()
    error_metrics(sol, problem.exact, ctx)
    assert calls == []
