"""Base kernels with closed-form mixed partial derivatives.

The Gaussian kernel here uses the convention exp(-c^2 (x-y)^2): the shape
parameter multiplies the distance, matching the RBF-PS literature.

A kernel handle downstream is any symmetric kernel, R(x, y) = R(y, x),
with ``eval(x, y)``, ``mixed_partial(m, n, x, y)`` and
``partial_matrix(m, xs, nodes, uniform)``.  Only boundary functionals
use the first two, entry by entry, and by symmetry they apply them to
the second slot alone (``functionals.KernelTrace``): a correction's
denominator is the functional applied to that trace, so it reads no
entry of its own.  Every kernel matrix -- the node tables of the
constrained and Kansa systems, and the matrices that evaluate a
solution -- comes from the third: d^m/dx^m R(x, y) over points xs and
one axis's nodes, as a list of rows or as a ``numerics.CorrectedMatrix``
for a constrained kernel.  ``uniform`` says that the nodes are equally
spaced, as the grid builders know.  A kernel computes at the digits of
its ``Precision`` and may be shared between threads (see ``numerics``).
"""

from __future__ import annotations

from functools import partial
from operator import sub

from .errors import UnsupportedOrder
from .numerics import FLOAT64, _round, _round_add

MAX_TOTAL_ORDER = 4


def hermite(p, s, one):
    """Physicists' Hermite polynomial H_p(s), iterative recurrence.

    H_0 = 1, H_1 = 2s, H_{p+1} = 2 s H_p - 2 p H_{p-1}.  Iteration keeps
    big-float allocation flat and predictable.
    """
    if p == 0:
        return one
    h_prev, h = one, 2 * s
    for k in range(1, p):
        h_prev, h = h, 2 * s * h - 2 * k * h_prev
    return h


def _check_orders(m, n):
    if m < 0 or n < 0 or m + n > MAX_TOTAL_ORDER:
        raise UnsupportedOrder(
            f"Gaussian kernel supports total derivative order <= "
            f"{MAX_TOTAL_ORDER}, got ({m}, {n})"
        )


class GaussianKernel:
    """R(x, y) = exp(-c^2 (x - y)^2), c > 0.

    Mixed partials come from the closed form

        d^m/dx^m d^n/dy^n R = (-1)^m c^(m+n) H_{m+n}(c (x-y)) R(x, y),

    valid for total order m + n <= 4: the worst case in scope is a
    second-order operator applied to a kernel already constrained by two
    first-order boundary functionals.
    """

    def __init__(self, shape, ctx=FLOAT64):
        shape = ctx.num(shape)
        if not shape > 0:
            raise ValueError("shape parameter must be positive")
        self.c = shape
        self.ctx = ctx
        self._expcache = {}

    def _gauss(self, delta):
        """exp(-(c*delta)^2), memoized per offset at the kernel's
        digits."""
        e = self._expcache.get(delta)
        if e is None:
            s = self.c * delta
            e = self.ctx.exp(-s * s)
            self._expcache[delta] = e
        return e

    def _scaled(self, m, n, delta, e):
        """d^m/dx^m d^n/dy^n R at offset delta, from e = R there."""
        p = m + n
        if p == 0:
            return e
        c = self.c
        val = hermite(p, c * delta, self.ctx.one) * c**p * e
        return -val if m % 2 else val

    def eval(self, x, y):
        return self._gauss(x - y)

    def mixed_partial(self, m, n, x, y):
        _check_orders(m, n)
        delta = x - y
        return self._scaled(m, n, delta, self._gauss(delta))

    def partial_matrix(self, m, xs, nodes, uniform):
        """Rows [d^m/dx^m R(x, y) for y in nodes] for x in xs.

        On equally spaced nodes in mp, the Gaussians of a row come from
        ``_uniform_rows``: two exps per row instead of one per entry.
        Otherwise every entry is exactly ``mixed_partial(m, 0, x, y)``,
        formed once per distinct offset x - y of the call: a node grid's
        n^2 entries share far fewer offsets.
        """
        _check_orders(m, 0)
        if uniform and self.ctx.mode == "mp":
            gauss = self._uniform_rows(xs, nodes)
            if m == 0:
                return gauss
            return [
                [self._scaled(m, 0, x - y, e) for y, e in zip(nodes, row)]
                for x, row in zip(xs, gauss)
            ]
        if self.ctx.mode == "mp":
            # an offset's raw tuple is canonical: it keys the offset as its
            # value does, and hashes as a tuple
            mp = self.ctx.mp
            offset, number = partial(_round_add, prec=mp.prec, minus=1), mp.make_mpf
            xs, nodes = [x._mpf_ for x in xs], [y._mpf_ for y in nodes]
        else:
            offset, number = sub, float
        values = {}
        rows = []
        for x in xs:
            row = []
            for y in nodes:
                key = offset(x, y)
                v = values.get(key)
                if v is None:
                    d = number(key)
                    v = values[key] = self._scaled(m, 0, d, self._gauss(d))
                row.append(v)
            rows.append(row)
        return rows

    def _uniform_rows(self, xs, nodes):
        """[exp(-c^2 (x - y_j)^2) for y_j in nodes] for x in xs, for nodes
        y_j = y_0 + j h, by the two-term recurrence

            g_{j+1} = g_j r_j,  r_{j+1} = r_j q,  q = exp(-2 c^2 h^2),

        from g_0 = exp(-c^2 (x - y_0)^2) and r_0 = exp(c^2 h (2 (x - y_0) - h)).
        The j-th entry carries about j^2 / 2 roundings, so the recurrence
        runs with digits to spare for n^2 of them and each entry is then
        rounded to the kernel's digits: within a unit in the last place
        of exp.  The recurrence steps on integer mantissas and exponents,
        each product rounded at the work digits by ``numerics._round``,
        which also rounds each entry.
        """
        ctx, n = self.ctx, len(nodes)
        digits = ctx.digits + 5 + 2 * len(str(n))
        work = ctx.with_digits(digits).mp
        y0 = work.convert(nodes[0])
        h = (work.convert(nodes[-1]) - y0) / (n - 1)
        c2 = work.convert(self.c) ** 2
        q = work.exp(-2 * c2 * h * h)
        wprec, prec = work.prec, ctx.mp.prec
        make = ctx.mp.make_mpf
        _, qm, qe, _ = q._mpf_
        rows = []
        for x in xs:
            t = work.convert(x) - y0
            _, gm, ge, _ = work.exp(-c2 * t * t)._mpf_
            _, rm, re, _ = work.exp(c2 * h * (2 * t - h))._mpf_
            row = []
            for _ in range(n):
                row.append(make(_round(gm, ge, prec)))
                _, gm, ge, _ = _round(gm * rm, ge + re, wprec)
                _, rm, re, _ = _round(rm * qm, re + qe, wprec)
            rows.append(row)
        return rows

    def __repr__(self):
        return f"GaussianKernel(c={float(self.c)!r}, {self.ctx!r})"
