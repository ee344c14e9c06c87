"""Closed-form exact solutions and the checks the benchmark applies to
solver output.

Nothing here imports bcrbf: the references are written from the problem
statements (PDE, boundary conditions, exact solution) in mpmath, and are
evaluated GUARD digits above the solver's working precision.  Points are
binary fractions k / 2^20, so the solver and the reference see exactly
the same coordinates at every precision.
"""

from __future__ import annotations

import mpmath

GUARD = 20
_DENOM = 2**20


def _at_least(digits):
    """Work at ``digits``, or at the current precision if that is higher
    (mpmath.diff raises it to take its differences)."""
    return mpmath.workdps(max(digits, mpmath.mp.dps))


def dyadic(rng, a, b):
    """A seeded point of the open interval (a, b), as an exact binary fraction."""
    lo = int(mpmath.ceil(mpmath.mpf(a) * _DENOM)) + 1
    hi = int(mpmath.floor(mpmath.mpf(b) * _DENOM)) - 1
    return mpmath.mpf(rng.randint(lo, hi)) / _DENOM


class Ex1:
    """eps u'' + u' / (1 + x) = x + 1 on [0, 1] with the Robin pair
    u(0) - eps u'(0) = 1 and u(1) + u'(1) = 1.

    The general solution is a (1+x)^3 + K (1+x)^q + C with
    a = 1 / (3 (2 eps + 1)) and q = 1 - 1/eps; K and C are solved here from
    the Robin pair.
    """

    dim = 1
    domain = ((0, 1),)

    def __init__(self, eps, digits):
        self.digits = digits + GUARD
        with mpmath.workdps(self.digits):
            self.eps = eps = mpmath.mpf(eps)
            self.a = 1 / (3 * (2 * eps + 1))
            self.q = 1 - 1 / eps
            a, q = self.a, self.q
            two_q = mpmath.power(2, q)
            # rows: [coefficient of K, coefficient of C, right-hand side]
            left = [1 - eps * q, 1, 1 - (a - 3 * eps * a)]
            right = [two_q + q * two_q / 2, 1, 1 - (8 * a + 12 * a)]
            det = left[0] * right[1] - right[0] * left[1]
            self.k = (left[2] * right[1] - right[2] * left[1]) / det
            self.c = (left[0] * right[2] - right[0] * left[2]) / det

    def derivs(self, x):
        """(u, u', u'') at x."""
        with _at_least(self.digits):
            s = 1 + mpmath.mpf(x)
            a, k, q = self.a, self.k, self.q
            return (
                a * s**3 + k * mpmath.power(s, q) + self.c,
                3 * a * s**2 + k * q * mpmath.power(s, q - 1),
                6 * a * s + k * q * (q - 1) * mpmath.power(s, q - 2),
            )

    def value(self, p):
        return self.derivs(p[0])[0]

    def pde_residual(self, p):
        u, du, d2u = self.derivs(p[0])
        with mpmath.workdps(self.digits):
            return self.eps * d2u + du / (1 + p[0]) - (p[0] + 1)

    def faces(self):
        """(direction, side, residual(field_partial, tpoint)) per face.

        ``field_partial(orders, point)`` is the field under test."""
        eps, zero, one = self.eps, (mpmath.mpf(0),), (mpmath.mpf(1),)
        return [
            (0, 0, lambda f, t: f((0,), zero) - eps * f((1,), zero) - 1),
            (0, 1, lambda f, t: f((0,), one) + f((1,), one) - 1),
        ]


class _Dirichlet:
    """A problem with Dirichlet data equal to the exact solution on every face."""

    domain = None

    def __init__(self, digits):
        self.digits = digits + GUARD

    def faces(self):
        out = []
        for d, (a, b) in enumerate(self.domain):
            for side, loc in ((0, a), (1, b)):
                def residual(f, t, d=d, loc=loc):
                    p = tuple(t[:d]) + (mpmath.mpf(loc),) + tuple(t[d:])
                    return f((0,) * self.dim, p) - self.value(p)
                out.append((d, side, residual))
        return out


class Ex4(_Dirichlet):
    """Laplace u = 2 e^(x - y) on [0, 1]^2; u = e^(x - y) + e^x cos y."""

    dim = 2
    domain = ((0, 1), (0, 1))

    def value(self, p):
        with _at_least(self.digits):
            x, y = p
            return mpmath.exp(x - y) + mpmath.exp(x) * mpmath.cos(y)

    def pde_residual(self, p):
        with mpmath.workdps(self.digits):
            lap = mpmath.diff(lambda x: self.value((x, p[1])), p[0], 2)
            lap += mpmath.diff(lambda y: self.value((p[0], y)), p[1], 2)
            return lap - 2 * mpmath.exp(p[0] - p[1])


class Ex7(_Dirichlet):
    """Laplace u = 6 / (4 + x + y + z)^3 on [-1/2, 1/2]^3; u = 1 / (4 + x + y + z)."""

    dim = 3
    domain = ((-0.5, 0.5),) * 3

    def value(self, p):
        with _at_least(self.digits):
            return 1 / (4 + p[0] + p[1] + p[2])

    def pde_residual(self, p):
        with mpmath.workdps(self.digits):
            lap = 0
            for d in range(3):
                def along(t, d=d):
                    q = list(p)
                    q[d] = t
                    return self.value(q)
                lap += mpmath.diff(along, p[d], 2)
            return lap - 6 / (4 + sum(p)) ** 3


def exact_for(ident, digits, eps=None):
    if ident == "ex1":
        return Ex1(eps, digits)
    if ident == "ex4":
        return Ex4(digits)
    if ident == "ex7":
        return Ex7(digits)
    raise KeyError(ident)


def interior_points(exact, rng, n):
    """n seeded points strictly inside the exact solution's box."""
    return [tuple(dyadic(rng, a, b) for a, b in exact.domain) for _ in range(n)]


def max_error(values, points, exact):
    """Largest |value - exact| over the points, at the reference precision."""
    with mpmath.workdps(exact.digits):
        return max(abs(v - exact.value(p)) for v, p in zip(values, points))


def boundary_residual(solution, exact, rng, per_face, digits):
    """Largest |L(solution) - data| over every face's functional, at
    ``per_face`` seeded tangential points of each face (points between the
    collocation nodes almost surely).  The solution's derivatives are
    evaluated at its own working precision ``digits``."""
    def partial(orders, p):
        with mpmath.workdps(digits):
            return solution.partial(orders, p)

    worst = mpmath.mpf(0)
    for d, _side, residual in exact.faces():
        tangential = [ab for e, ab in enumerate(exact.domain) if e != d]
        for _ in range(per_face if tangential else 1):
            t = tuple(dyadic(rng, a, b) for a, b in tangential)
            with mpmath.workdps(exact.digits):
                worst = max(worst, abs(residual(partial, t)))
    return worst


def check_solution(solution, exact, rng, digits, bound, constrained,
                   n_points=16, per_face=4):
    """Check one solver output; returns (problems found, interior error,
    (boundary residual, rounding floor), or None for the Kansa baseline).

    * The error at ``n_points`` seeded interior points is at most ``bound``.
    * For the constrained method, every boundary functional minus its data
      is at most the rounding floor of the expansion at ``digits``:
      10^(-digits) times the sum of |coefficients|, the size of the terms
      that cancel.  This is the paper's central property: the basis itself
      satisfies the boundary conditions, so they hold between the nodes
      too, and not only to the accuracy of the solution.  Where the
      interior error is far above the floor, the residual is far below
      the interior error; where the interior error is itself at the floor
      (robin1d), no evaluation at ``digits`` can show more.
    """
    problems = []
    points = interior_points(exact, rng, n_points)
    with mpmath.workdps(digits):
        values = [solution.evaluate(p) for p in points]
    err = max_error(values, points, exact)
    if not err <= bound:
        problems.append(f"error {mpmath.nstr(err, 3)} at seeded points exceeds {bound:.3g}")
    if not constrained:
        return problems, err, None
    bc = boundary_residual(solution, exact, rng, per_face, digits)
    with mpmath.workdps(digits):
        floor = mpmath.mpf(10) ** -digits * max(1, mpmath.fsum(map(abs, solution.lam)))
    if not bc <= floor:
        problems.append(f"boundary residual {mpmath.nstr(bc, 3)} above the rounding floor "
                        f"{mpmath.nstr(floor, 3)} (interior error {mpmath.nstr(err, 3)})")
    return problems, err, (bc, floor)


def relative_difference(xs, ys, digits):
    """max |x - y| / max |y| over two equally long vectors."""
    with mpmath.workdps(digits + GUARD):
        num = max(abs(x - y) for x, y in zip(xs, ys))
        den = max(abs(y) for y in ys)
        return num / den
