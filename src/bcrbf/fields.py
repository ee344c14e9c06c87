"""Smooth functions with derivative access: boundary data and exact solutions.

Everything downstream speaks one protocol: a *field* is a ``ScalarField``
with a ``dim`` and a ``partial_axes(orders, axes)`` method returning the
mixed partial derivative of the given multi-order at every point of the
tensor grid ``axes`` (a sequence of coordinate sequences), in flat order,
last axis fastest.  ``partial(orders, p)`` and ``value(p)`` (the all-zero
order) evaluate the grid of 1-point axes at ``p``, so grid and pointwise
values agree bit for bit.  Exact solutions, boundary data, homogenization
maps and solver solutions are all subclasses defining ``partial_axes``
alone.  A boundary functional applies to any of them one way, as
``FieldTraceData`` (``apply_functional`` is its value at one point), and
a differential operator one way, ``OperatorSpec.apply_axes``.
Separable fields evaluate a grid from per-axis vectors (``ProductField``),
and the other classes combine their parts' grids; only ``LambdaField``,
defined point by point, evaluates one point at a time (``pointwise``), as
does the error metric for an exact solution with only the per-point
methods.

One-variable functions with memoized derivatives are ``Fn1``; the kernel
traces of ``functionals.KernelTrace`` are one too.

Boundary *data* lives on a face and speaks the same protocol: it is a
field over the face's tangential coordinates (``dim`` of them), with
mixed partials up to the orders the PDE operator needs after
homogenization.
"""

from __future__ import annotations

import itertools
import math

from .numerics import kron


def embed_point(tpoint, d, loc):
    """Insert coordinate ``loc`` at position ``d`` of a tangential point."""
    return tuple(tpoint[:d]) + (loc,) + tuple(tpoint[d:])


class Fn1:
    """Univariate function bundled with derivative closures.

    ``Fn1(f, df, d2f, ...)``; ``deriv(t, k)`` dispatches to the k-th entry.
    Evaluations are memoized per (order, argument): tensor-grid pipelines
    revisit the same few axis coordinates constantly, and the closures are
    assumed pure.  A subclass computing its derivatives another way
    overrides ``_compute`` and keeps the memo.
    """

    __slots__ = ("_derivs", "_cache")

    def __init__(self, *derivs):
        if not derivs:
            raise ValueError("Fn1 needs at least the value function")
        self._derivs = derivs
        self._cache = {}

    def __call__(self, t):
        return self.deriv(t, 0)

    def deriv(self, t, order):
        key = (order, t)
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = self._compute(t, order)
        return val

    def _compute(self, t, order):
        """The order-th derivative at t, unmemoized."""
        if order >= len(self._derivs):
            raise ValueError(f"Fn1 carries derivatives up to order {len(self._derivs) - 1}")
        return self._derivs[order](t)


def fn_constant(c):
    return Fn1(lambda t: c, lambda t: 0 * c, lambda t: 0 * c)


def fn_sin(ctx, freq, amp=1):
    """amp * sin(freq * t) with derivatives up to order 2."""
    freq = ctx.num(freq)
    amp = ctx.num(amp)
    return Fn1(
        lambda t: amp * ctx.sin(freq * t),
        lambda t: amp * freq * ctx.cos(freq * t),
        lambda t: -amp * freq * freq * ctx.sin(freq * t),
    )


def fn_cos(ctx, freq, amp=1):
    freq = ctx.num(freq)
    amp = ctx.num(amp)
    return Fn1(
        lambda t: amp * ctx.cos(freq * t),
        lambda t: -amp * freq * ctx.sin(freq * t),
        lambda t: -amp * freq * freq * ctx.cos(freq * t),
    )


def fn_exp(ctx, rate, amp=1):
    """amp * exp(rate * t)."""
    rate = ctx.num(rate)
    amp = ctx.num(amp)
    return Fn1(
        lambda t: amp * ctx.exp(rate * t),
        lambda t: amp * rate * ctx.exp(rate * t),
        lambda t: amp * rate * rate * ctx.exp(rate * t),
    )


def fn_product(f, g):
    """Product of two Fn1 with derivatives up to order 2 (Leibniz)."""
    return Fn1(
        lambda t: f(t) * g(t),
        lambda t: f.deriv(t, 1) * g(t) + f(t) * g.deriv(t, 1),
        lambda t: f.deriv(t, 2) * g(t)
        + 2 * f.deriv(t, 1) * g.deriv(t, 1)
        + f(t) * g.deriv(t, 2),
    )


def fn_sum(*fns):
    return Fn1(
        lambda t: sum(f(t) for f in fns),
        lambda t: sum(f.deriv(t, 1) for f in fns),
        lambda t: sum(f.deriv(t, 2) for f in fns),
    )


# -- scalar fields ------------------------------------------------------------


def pointwise(field, orders, axes):
    """d^orders of ``field`` at every point of the tensor grid ``axes``, in
    flat order, one ``partial`` call per point (``value`` for the zero
    orders): the path of fields defined point by point."""
    points = itertools.product(*axes)
    if any(orders):
        return [field.partial(orders, p) for p in points]
    return [field.value(p) for p in points]


def _added(vectors):
    """The elementwise sum of equal-length vectors, added in order."""
    out = vectors[0]
    for vec in vectors[1:]:
        out = [u + v for u, v in zip(out, vec)]
    return out


class ScalarField:
    """Base: d-variate function with mixed partials on tensor grids.

    A subclass defines ``partial_axes`` or, point by point, ``partial``;
    the other follows.  ``partial`` and ``value`` wrap ``partial_axes``
    with a grid of 1-point axes.
    """

    dim = None

    def value(self, p):
        return self.partial((0,) * self.dim, p)

    def partial(self, orders, p):
        return self.partial_axes(orders, [(x,) for x in p])[0]

    def partial_axes(self, orders, axes):
        return pointwise(self, orders, axes)


class ProductField(ScalarField):
    """Separable field prod_d f_d(x_d); on a grid, the outer product of the
    per-axis derivative vectors, multiplied in axis order."""

    def __init__(self, fns):
        self.fns = tuple(fns)
        self.dim = len(self.fns)

    def partial_axes(self, orders, axes):
        return kron([
            [f.deriv(x, o) for x in ax] for f, o, ax in zip(self.fns, orders, axes)
        ])


class SumField(ScalarField):
    """The sum of fields, added in field order."""

    def __init__(self, fields):
        fields = tuple(fields)
        self.fields = fields
        self.dim = fields[0].dim

    def partial_axes(self, orders, axes):
        return _added([f.partial_axes(orders, axes) for f in self.fields])


class LambdaField(ScalarField):
    """Field from an explicit (orders, p) -> value handler, evaluated point
    by point."""

    def __init__(self, dim, handler):
        self.dim = dim
        self._handler = handler

    def partial(self, orders, p):
        return self._handler(orders, p)


# -- boundary data ------------------------------------------------------------


class ConstantData(ScalarField):
    """The constant ``c`` over ``dim`` tangential coordinates."""

    def __init__(self, c, dim=0):
        self.c = c
        self.dim = dim

    def partial_axes(self, orders, axes):
        return [0 * self.c if any(orders) else self.c] * math.prod(map(len, axes))


class FieldTraceData(ScalarField):
    """Boundary data induced by applying a functional to a known field.

    For a functional L acting in direction ``d`` on field u, the data is
    t -> L(u)(t) over the tangential coordinates; tangential derivatives
    fall through to the field's mixed partials.  On a grid over the
    tangential coordinates, each term evaluates the field on that grid
    with the normal axis the 1-point axis at the term's location.
    Building data this way guarantees consistency between an exact
    solution and its boundary values.
    """

    def __init__(self, field, d, functional):
        self.field = field
        self.d = d
        self.terms = functional.terms
        self.dim = field.dim - 1

    def partial_axes(self, orders, axes):
        return _added([
            [t.coeff * v for v in self.field.partial_axes(
                embed_point(orders, self.d, t.order),
                embed_point(axes, self.d, (t.location,)),
            )]
            for t in self.terms
        ])


def apply_functional(functional, d, field, tpoint=()):
    """A boundary functional acting in direction ``d`` applied to a field
    at the tangential point ``tpoint`` (empty in 1D):
    sum_k c_k * (d^{o_k}/dx_d^{o_k} field)(..., loc_k, ...), the value of
    ``FieldTraceData`` there."""
    return FieldTraceData(field, d, functional).value(tpoint)


def as_data(data, functional, dim):
    """Normalize user data to a field over ``dim`` tangential coordinates:
    None -> the functional's rhs as a constant, an Fn1 -> a one-factor
    ProductField, any other non-field -> a constant."""
    if data is None:
        return ConstantData(functional.rhs, dim)
    if isinstance(data, Fn1):
        if dim != 1:
            raise ValueError("Fn1 data only fits one tangential coordinate")
        return ProductField([data])
    if isinstance(data, ScalarField):
        if data.dim != dim:
            raise ValueError(f"data over {data.dim} coordinates, expected {dim}")
        return data
    return ConstantData(data, dim)
