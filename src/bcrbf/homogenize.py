"""Construction of the boundary-data homogenization map.

The map M matches all nonhomogeneous boundary data, reducing a problem to
one with homogeneous boundary conditions via u = v + M and a modified
right-hand side F = f - (L M).  Construction sweeps the directions in
order: in direction d the two boundary functionals are matched by a
minimal-degree polynomial in x_d whose coefficients are that direction's
face data minus the functionals applied to the map built so far.  For
Dirichlet data this is the classic blending formula of transfinite
interpolation (Gordon & Hall, 1973); for other functionals it is the
natural generalization, obtained by solving the same small linear system.

M is kept expanded as a flat sum of separable terms

    coeff * prod_e x_e**k_e * g,

where g is the constant 1 or one face's datum, differentiated and frozen
at fixed coordinates along directions swept after its face's direction;
the monomials cover every direction g does not vary in.  A functional
applied along direction d maps each term to one term per point evaluation
of the functional, by differentiating and freezing g along d.  Terms with
equal monomials and equal frozen datum are merged, so the map holds few
terms over few distinct traces.

M is a field of the ``fields`` protocol: it defines ``partial_axes``
alone, a single point being a grid of 1-point axes.  Terms are grouped
by the directions their trace follows; per group each trace is
evaluated once on the subgrid over those directions by its data's
``partial_axes``, with a 1-point axis where it is frozen (memoized per
derivative orders and subgrid), and the coefficients are summed per
monomial degree.  Each group is contracted with the monomials'
derivatives on the grid along every swept direction but its last (mode
products, as for the kernel expansion), and the last contractions of all
groups are folded into one exact dot per grid value
(``numerics.mode_sum``), together with the kernel expansion's when a
solution is evaluated.  Sums are exact in mp (``numerics.dot``), and
every grid value equals the pointwise one bit for bit.

The polynomial ansatz starts at degree 1 and escalates to 2, then 3, when
the functional pair is singular on the lower-degree space (e.g. a pair of
Neumann conditions annihilates all linear polynomials' second coefficient
mismatch).  Corner-incompatible data is not rejected: the final sweep's
directions are matched exactly and earlier ones self-correct only when the
data are compatible, which is documented behavior.

A map evaluates at the digits of its ``Precision``, at points rounded to
them, and memoizes trace values into a dict it owns.  Threads sharing a
map at worst compute a memoized value twice, to the same bits (see
``numerics``).
"""

from __future__ import annotations

import itertools
import math

from .errors import NoHomogenizer
from .fields import ConstantData, ScalarField, as_data
from .numerics import dot, mode_sum

_MAX_ANSATZ_DEGREE = 3


class HomogenizationMap(ScalarField):
    """Smooth function matching all supplied (functional, data) pairs.

    Built from (coeff, powers, trace) terms.  ``powers[e]`` is the
    monomial degree in x_e, or None where the trace varies with x_e.
    ``trace`` is None (the constant 1) or (data, slots): a face's data, a
    field over its tangential coordinates (``fields.as_data``), and,
    per tangential coordinate of its face, (e, None) when it follows x_e or
    (e, (order, location)) when it is differentiated and frozen there.
    ``terms`` holds them grouped as (trace, [(coeff, powers), ...]), and
    the traces are grouped once more by the directions they follow, the
    unit of tensor-grid evaluation (``parts``, summed by ``partial_axes``).
    It is a ``fields.ScalarField``: ``value`` and ``partial`` are the
    protocol's, a grid of 1-point axes.
    """

    def __init__(self, dim, terms, ctx):
        self.dim = dim
        self.ctx = ctx
        by_trace = {}
        for coeff, powers, trace in terms:
            by_trace.setdefault(trace, []).append((coeff, powers))
        self.terms = tuple(by_trace.items())
        groups = {}
        for trace, monomials in self.terms:
            follows = tuple(e for e, k in enumerate(monomials[0][1]) if k is None)
            groups.setdefault(follows, []).append((trace, monomials))
        self._groups = tuple(groups.items())
        self._memo = {}

    def partial_axes(self, orders, axes):
        """d^orders M at every point of the tensor grid ``axes``, in flat
        order (last axis fastest): the groups' ``parts`` summed by
        ``numerics.mode_sum``, one exact dot per grid value."""
        return mode_sum(self.ctx, self.parts(orders, axes), [len(ax) for ax in axes])

    def parts(self, orders, axes):
        """d^orders M on the tensor grid ``axes`` as ``mode_sum`` parts
        (vals, shape, mats), one per group of traces with a monomial left
        under d^orders.

        Per group of traces following the directions T, the coefficients
        times the traces' values are summed exactly into a tensor C whose
        axis e runs over the grid's x_e for e in T and over the monomial
        degrees k >= orders[e] otherwise.  Its matrix along each swept
        axis e is d^o x^k at the grid's x_e (o = orders[e]), and None on
        T.  A trace whose monomials all vanish under d^orders is not
        evaluated.  Coordinates are rounded to the map's digits first.
        """
        ctx = self.ctx
        orders = tuple(orders)
        axes = [[ctx.num(x) for x in ax] for ax in axes]
        parts = []
        for follows, traces in self._groups:
            swept = [e for e in range(self.dim) if e not in follows]
            rows = []
            for trace, monomials in traces:
                # keyed by the degrees left after differentiating
                coeffs = {
                    tuple(powers[e] - orders[e] for e in swept): coeff
                    for coeff, powers in monomials
                    if all(powers[e] >= orders[e] for e in swept)
                }
                if coeffs:
                    rows.append((coeffs, self._trace_values(trace, orders, axes)))
            if not rows:
                continue
            shape = [len(ax) for ax in axes]
            for i, e in enumerate(swept):
                shape[e] = 1 + max(key[i] for coeffs, _ in rows for key in coeffs)
            c = []
            for idx in itertools.product(*map(range, shape)):
                key = tuple(idx[e] for e in swept)
                t = 0
                for e in follows:
                    t = t * shape[e] + idx[e]
                pairs = [(cs[key], g[t]) for cs, g in rows if key in cs]
                c.append(dot(ctx, *zip(*pairs)) if pairs else ctx.zero)
            mats = [None] * self.dim
            for e in swept:
                o = orders[e]
                mats[e] = [
                    [math.perm(o + k, o) * x**k for k in range(shape[e])]
                    for x in axes[e]
                ]
            parts.append((c, shape, mats))
        return parts

    def _trace_values(self, trace, orders, axes):
        """The trace's factor at every point of the subgrid over the
        directions it follows, in flat order, from its data's
        ``partial_axes`` with 1-point axes where it is frozen; memoized
        per derivative orders and subgrid."""
        if trace is None:
            return [self.ctx.one]
        data, slots = trace
        torders = tuple(orders[e] if fixed is None else fixed[0] for e, fixed in slots)
        coords = tuple(
            tuple(axes[e]) if fixed is None else (fixed[1],) for e, fixed in slots
        )
        key = (data, torders, coords)
        vals = self._memo.get(key)
        if vals is None:
            vals = self._memo[key] = data.partial_axes(torders, coords)
        return vals

    @classmethod
    def zero(cls, dim, ctx):
        return cls(dim, (), ctx)


def _apply_along(functional, d, terms):
    """The functional applied along direction d to a sum of terms, as
    {(powers, trace): coeff}.  Every term reaching a sweep along d has a
    trace that follows x_d, or is constant in x_d (power 0)."""
    out = {}
    for (powers, trace), c in terms.items():
        for t in functional.terms:
            if trace is None:
                if t.order:
                    continue
                key = (powers, None)
            else:
                data, slots = trace
                frozen = (t.order, t.location)
                key = (powers, (data, tuple(
                    (e, frozen if e == d else fixed) for e, fixed in slots)))
            out[key] = out.get(key, 0) + t.coeff * c
    return out


def _face_datum(data, d, dim):
    """A face's data along direction d as {(powers, trace): coeff}."""
    if isinstance(data, ConstantData):
        return {((0,) * dim, None): data.c}
    slots = tuple((e, None) for e in range(dim) if e != d)
    powers = tuple(0 if e == d else None for e in range(dim))
    return {(powers, (data, slots)): 1}


def _functional_on_monomial(functional, k, ctx):
    """L applied to x**k."""
    total = ctx.zero
    for t in functional.terms:
        if t.order == 0:
            total += t.coeff * (t.location**k if k else ctx.one)
        else:
            if k >= 1:
                total += t.coeff * k * (t.location ** (k - 1) if k > 1 else ctx.one)
    return total


def _ansatz_weights(l1, l2, ctx):
    """Pick monomial powers (k1, k2) and the 2x2 inverse mapping data to
    coefficients, escalating the degree while the system stays singular."""
    for degree in range(1, _MAX_ANSATZ_DEGREE + 1):
        rows = [
            [_functional_on_monomial(l, k, ctx) for k in range(degree + 1)]
            for l in (l1, l2)
        ]
        best = None
        for k1 in range(degree + 1):
            for k2 in range(k1 + 1, degree + 1):
                det = rows[0][k1] * rows[1][k2] - rows[0][k2] * rows[1][k1]
                scale = max(
                    abs(rows[0][k1]) + abs(rows[1][k1]), ctx.one
                ) * max(abs(rows[0][k2]) + abs(rows[1][k2]), ctx.one)
                if best is None or abs(det) / scale > best[0]:
                    best = (abs(det) / scale, k1, k2, det)
        rel, k1, k2, det = best
        if rel > ctx.tol(5):
            s11, s12 = rows[0][k1], rows[0][k2]
            s21, s22 = rows[1][k1], rows[1][k2]
            w = (
                (s22 / det, -s12 / det),
                (-s21 / det, s11 / det),
            )
            return (k1, k2), w
    raise NoHomogenizer(
        f"no polynomial ansatz up to degree {_MAX_ANSATZ_DEGREE} matches "
        f"{l1!r} and {l2!r}"
    )


def homogenize_nd(pairs_per_dim, ctx):
    """Build M from per-direction ((L1, data1), (L2, data2)) assignments.

    Data items may be None (use the functional's rhs), scalars, Fn1, or
    fields over the tangential coordinates.
    """
    dim = len(pairs_per_dim)
    terms = {}
    for d, ((l1, data1), (l2, data2)) in enumerate(pairs_per_dim):
        (k1, k2), w = _ansatz_weights(l1, l2, ctx)
        # data_s - L_s(M), the mismatch each functional leaves
        resid = []
        for l, data in ((l1, data1), (l2, data2)):
            mismatch = _face_datum(as_data(data, l, dim - 1), d, dim)
            for key, c in _apply_along(l, d, terms).items():
                mismatch[key] = mismatch.get(key, 0) - c
            resid.append(mismatch)
        for row, k in zip(w, (k1, k2)):
            for weight, mismatch in zip(row, resid):
                for (powers, trace), c in mismatch.items():
                    key = (powers[:d] + (k,) + powers[d + 1:], trace)
                    terms[key] = terms.get(key, 0) + weight * c
    return HomogenizationMap(
        dim, [(c, powers, trace) for (powers, trace), c in terms.items() if c], ctx
    )

