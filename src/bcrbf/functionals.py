"""Boundary conditions as linear functionals.

A boundary functional is a finite combination of derivative point
evaluations, L(u) = sum_k coeff_k * u^(order_k)(location_k), with orders
restricted to {0, 1}: every boundary condition in scope involves at most
u'.  Higher orders are rejected, not truncated.  The nonhomogeneous value
is carried on the functional itself (``rhs``) so homogenization can consume
(functional, value) pairs uniformly.

That sum is written once, ``BoundaryFunctional.apply(derivative)``, for
any ``derivative(location, order)``: a kernel's mixed partial in one slot
(``KernelTrace``), a trace's ``Fn1.deriv`` (the denominator gamma of a
correction, ``constrained.impose``) and a monomial's derivative (the
rows of the homogenization ansatz).  A functional applied to one slot of
a symmetric kernel is a ``KernelTrace``, a one-variable function of the
other slot (an ``fields.Fn1``); applied to a field it is
``fields.FieldTraceData``, which sums whole grids of values.

Functionals are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath.libmp import repr_dps

from .errors import InvalidFunctional
from .fields import Fn1
from .numerics import FLOAT64


@dataclass(frozen=True)
class FunctionalTerm:
    coeff: object
    order: int
    location: object


class BoundaryFunctional:
    """L(u) = sum coeff * u^(order)(location), plus a right-hand value.
    Every coefficient, location and the value must be finite."""

    __slots__ = ("kind", "terms", "rhs")

    def __init__(self, kind, terms, rhs=0):
        if not terms:
            raise InvalidFunctional("a functional needs at least one term")
        for t in terms:
            if t.order not in (0, 1):
                raise InvalidFunctional(
                    f"derivative order {t.order} not supported (only 0 or 1)"
                )
            if not (mpmath.isfinite(t.coeff) and mpmath.isfinite(t.location)):
                raise InvalidFunctional(
                    f"non-finite term {t.coeff} * u^({t.order})({t.location})"
                )
        if not mpmath.isfinite(rhs):
            raise InvalidFunctional(f"non-finite value {rhs}")
        self.kind = kind
        self.terms = tuple(terms)
        self.rhs = rhs

    def apply(self, derivative):
        """sum_k coeff_k * derivative(location_k, order_k), in term order;
        ``derivative`` takes its arguments as ``Fn1.deriv`` does."""
        return sum(t.coeff * derivative(t.location, t.order) for t in self.terms)

    def support_locations(self):
        return tuple(t.location for t in self.terms)

    def homogeneous(self):
        """Copy of this functional with rhs = 0."""
        if self.rhs == 0:
            return self
        return BoundaryFunctional(self.kind, self.terms, 0)

    def __repr__(self):
        return f"<{format_functional(self)}>"


def make_dirichlet(a, rhs=0, ctx=FLOAT64):
    a = ctx.num(a)
    return BoundaryFunctional(
        "dirichlet", [FunctionalTerm(ctx.one, 0, a)], ctx.num(rhs)
    )


def make_neumann(a, rhs=0, ctx=FLOAT64):
    a = ctx.num(a)
    return BoundaryFunctional(
        "neumann", [FunctionalTerm(ctx.one, 1, a)], ctx.num(rhs)
    )


def make_robin(alpha, beta, a, rhs=0, ctx=FLOAT64):
    alpha, beta, a = ctx.num(alpha), ctx.num(beta), ctx.num(a)
    if alpha == 0 and beta == 0:
        raise InvalidFunctional("robin requires (alpha, beta) != (0, 0)")
    # zero coefficients are dropped, so robin(1, 0, a) carries exactly the
    # dirichlet term list
    terms = [
        FunctionalTerm(coeff, order, a)
        for coeff, order in ((alpha, 0), (beta, 1))
        if coeff != 0
    ]
    return BoundaryFunctional("robin", terms, ctx.num(rhs))


def make_multipoint(a, weights, psi=0, ctx=FLOAT64):
    """u(a) - sum_j alpha_j u(xi_j) = psi with a < xi_1 < ... < xi_J.

    ``weights`` is a sequence of (alpha_j, xi_j) pairs.
    """
    if not weights:
        raise InvalidFunctional("multipoint requires at least one (alpha, xi) pair")
    terms = [FunctionalTerm(ctx.one, 0, ctx.num(a))]
    terms += [FunctionalTerm(-ctx.num(alpha_j), 0, ctx.num(xi_j)) for alpha_j, xi_j in weights]
    # made first, so that a non-finite number is refused as such
    functional = BoundaryFunctional("multipoint", terms, ctx.num(psi))
    locations = [t.location for t in terms]
    if not all(x < y for x, y in zip(locations, locations[1:])):
        raise InvalidFunctional("multipoint locations must satisfy a < xi_1 < ... < xi_J")
    return functional


# -- application -------------------------------------------------------------


class KernelTrace(Fn1):
    """A kernel contracted against a functional in its second slot,
    value(t) = sum_k c_k * d_y^{o_k} R(t, loc_k): a function of the first
    slot with derivative access, an ``fields.Fn1``.  Every kernel here is
    symmetric, so this is also the functional applied to the first slot,
    as a function of the second.

    Evaluations are memoized per (order, point) by ``Fn1.deriv``: matrix
    assembly hits each trace at every grid node many times.
    """

    __slots__ = ("kernel", "functional")

    def __init__(self, kernel, functional):
        self.kernel = kernel
        self.functional = functional
        self._cache = {}

    def _compute(self, t, order):
        partial = self.kernel.mixed_partial
        return self.functional.apply(lambda loc, o: partial(order, o, t, loc))


# -- plain-text form ----------------------------------------------------------

# Grammar (one functional per line, '#' comments allowed around it):
#   dirichlet @LOC [= RHS]
#   neumann @LOC [= RHS]
#   robin ALPHA BETA @LOC [= RHS]
#   multipoint @A : ALPHA1 @XI1, ALPHA2 @XI2, ... [= PSI]
# Numbers are plain decimals, parsed at the digits of ``ctx``.


def _fmt_num(x):
    """x as text that parses back to x: an integer as one, a float by its
    repr, an mpf with the digits that identify it at its own context's
    precision."""
    try:
        if x == int(x):
            return str(int(x))
    except (OverflowError, ValueError):
        pass
    if isinstance(x, float):
        return repr(x)
    return mpmath.nstr(x, repr_dps(x.context.prec), strip_zeros=True)


def format_functional(functional):
    k = functional.kind
    terms = functional.terms
    rhs = functional.rhs
    tail = "" if rhs == 0 else f" = {_fmt_num(rhs)}"
    if k == "dirichlet":
        return f"dirichlet @{_fmt_num(terms[0].location)}{tail}"
    if k == "neumann":
        return f"neumann @{_fmt_num(terms[0].location)}{tail}"
    if k == "robin":
        alpha = sum(t.coeff for t in terms if t.order == 0)
        beta = sum(t.coeff for t in terms if t.order == 1)
        return (
            f"robin {_fmt_num(alpha)} {_fmt_num(beta)} "
            f"@{_fmt_num(terms[0].location)}{tail}"
        )
    if k == "multipoint":
        pairs = ", ".join(
            f"{_fmt_num(-t.coeff)} @{_fmt_num(t.location)}" for t in terms[1:]
        )
        return f"multipoint @{_fmt_num(terms[0].location)} : {pairs}{tail}"
    raise ValueError(f"cannot format functional kind {k!r}")


def parse_functional(text, ctx=FLOAT64):
    """Inverse of :func:`format_functional`.  Malformed text, or a number
    that does not parse or is not finite (``BoundaryFunctional``), raises
    ``InvalidFunctional``."""

    def num(tok):
        try:
            return ctx.num(tok)
        except ValueError:
            raise InvalidFunctional(f"expected a number, got {tok!r}") from None

    body, _, rhs_part = text.partition("=")
    rhs = num(rhs_part.strip()) if rhs_part.strip() else ctx.zero
    toks = body.split()
    if not toks:
        raise InvalidFunctional("empty functional text")
    kind = toks[0].lower()

    def loc(tok):
        if not tok.startswith("@"):
            raise InvalidFunctional(f"expected @location, got {tok!r}")
        return num(tok[1:])

    if kind == "dirichlet" and len(toks) == 2:
        return make_dirichlet(loc(toks[1]), rhs, ctx)
    if kind == "neumann" and len(toks) == 2:
        return make_neumann(loc(toks[1]), rhs, ctx)
    if kind == "robin" and len(toks) == 4:
        return make_robin(num(toks[1]), num(toks[2]), loc(toks[3]), rhs, ctx)
    if kind == "multipoint":
        head, _, rest = body.partition(":")
        htoks = head.split()
        if len(htoks) != 2:
            raise InvalidFunctional(f"malformed multipoint head {head!r}")
        a = loc(htoks[1])
        weights = []
        for chunk in rest.split(","):
            w = chunk.split()
            if len(w) != 2:
                raise InvalidFunctional(f"malformed multipoint pair {chunk!r}")
            weights.append((num(w[0]), loc(w[1])))
        return make_multipoint(a, weights, rhs, ctx)
    raise InvalidFunctional(f"cannot parse functional {text!r}")
