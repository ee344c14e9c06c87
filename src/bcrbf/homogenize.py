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
terms over few distinct traces, and evaluation memoizes each datum value
per derivative orders and tangential point.

The polynomial ansatz starts at degree 1 and escalates to 2, then 3, when
the functional pair is singular on the lower-degree space (e.g. a pair of
Neumann conditions annihilates all linear polynomials' second coefficient
mismatch).  Corner-incompatible data is not rejected: the final sweep's
directions are matched exactly and earlier ones self-correct only when the
data are compatible, which is documented behavior.

A map evaluates at its own precision and memoizes into a dict it owns;
like the rest of the package it is meant for one thread (see
``numerics``).
"""

from __future__ import annotations

from .errors import NoHomogenizer
from .fields import ConstantData, as_data
from .functionals import make_dirichlet

_MAX_ANSATZ_DEGREE = 3


def _monomial_partial(powers, orders, xpowers):
    """d^orders of prod_e x_e**k_e over the directions with a power;
    ``xpowers[e][j]`` is x_e**j."""
    out = 1
    for k, o, xs in zip(powers, orders, xpowers):
        if k is None:
            continue
        if o > k:
            return 0
        for j in range(o):
            out *= k - j
        if k > o:
            out *= xs[k - o]
    return out


class HomogenizationMap:
    """Smooth function matching all supplied (functional, data) pairs.

    Built from (coeff, powers, trace) terms.  ``powers[e]`` is the
    monomial degree in x_e, or None where the trace varies with x_e.
    ``trace`` is None (the constant 1) or (data, slots): a BoundaryData and,
    per tangential coordinate of its face, (e, None) when it follows x_e or
    (e, (order, location)) when it is differentiated and frozen there.
    ``terms`` holds them grouped as (trace, [(coeff, powers), ...]), so
    evaluation looks each trace up once per point.
    """

    def __init__(self, dim, terms, ctx):
        self.dim = dim
        self.ctx = ctx
        by_trace = {}
        for coeff, powers, trace in terms:
            by_trace.setdefault(trace, []).append((coeff, powers))
        self.terms = tuple(by_trace.items())
        self._memo = {}

    def value(self, p):
        return self._eval((0,) * self.dim, p)

    def partial(self, orders, p):
        return self._eval(tuple(orders), p)

    def _eval(self, orders, p):
        with self.ctx.workprec():
            xpowers = []
            for x in p:
                xs = [1]
                for _ in range(_MAX_ANSATZ_DEGREE):
                    xs.append(xs[-1] * x)
                xpowers.append(xs)
            total = self.ctx.zero
            for trace, monomials in self.terms:
                poly = 0
                for coeff, powers in monomials:
                    factor = _monomial_partial(powers, orders, xpowers)
                    if factor:
                        poly += coeff * factor
                if not poly:
                    continue
                if trace is not None:
                    poly *= self._trace(trace, orders, p)
                total += poly
            return total

    def _trace(self, trace, orders, p):
        data, slots = trace
        torders = tuple(orders[e] if fixed is None else fixed[0] for e, fixed in slots)
        tpoint = tuple(p[e] if fixed is None else fixed[1] for e, fixed in slots)
        key = (data, torders, tpoint)
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = data.partial_multi(torders, tpoint)
        return val

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
    with ctx.workprec():
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

    Entries of ``pairs_per_dim`` may be None to skip a direction.  Data
    items may be None (use the functional's rhs), scalars, Fn1, or
    BoundaryData over the tangential coordinates.
    """
    dim = len(pairs_per_dim)
    terms = {}
    with ctx.workprec():
        for d, pair in enumerate(pairs_per_dim):
            if pair is None:
                continue
            (l1, data1), (l2, data2) = pair
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


def homogenize_1d(l1, l2, ctx):
    """Minimal-degree polynomial p with L1 p = rhs1, L2 p = rhs2."""
    return homogenize_nd([((l1, None), (l2, None))], ctx)


def homogenize_2d_dirichlet(g1, g2, h1, h2, rect, ctx):
    """Dirichlet data on the four edges of [a,b] x [c,d].

    g1, g2 are data on x = a and x = b (functions of y); h1, h2 on y = c
    and y = d (functions of x).  This is the x-blend / y-blend two-stage
    construction, expressed through the general directional sweep.
    """
    (a, b), (c, d) = rect
    pairs = [
        (
            (make_dirichlet(a, 0, ctx), g1),
            (make_dirichlet(b, 0, ctx), g2),
        ),
        (
            (make_dirichlet(c, 0, ctx), h1),
            (make_dirichlet(d, 0, ctx), h2),
        ),
    ]
    return homogenize_nd(pairs, ctx)
