"""Base kernels with closed-form mixed partial derivatives.

The Gaussian kernel here uses the convention exp(-c^2 (x-y)^2): the shape
parameter multiplies the distance, matching the RBF-PS literature.  Any
object exposing ``eval(x, y)`` and ``mixed_partial(m, n, x, y)`` works as a
kernel handle downstream.  A kernel computes at the digits of its
``Precision`` and may be shared between threads (see ``numerics``).
"""

from __future__ import annotations

from .errors import UnsupportedOrder
from .numerics import FLOAT64

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
        """exp(-(c*delta)^2), memoized per offset.

        Every cached value is at the kernel's digits.  Threads sharing a
        kernel at worst compute an entry twice, to the same bits.
        """
        e = self._expcache.get(delta)
        if e is None:
            s = self.c * delta
            e = self.ctx.exp(-s * s)
            self._expcache[delta] = e
        return e

    def eval(self, x, y):
        return self._gauss(x - y)

    def mixed_partial(self, m, n, x, y):
        if m < 0 or n < 0 or m + n > MAX_TOTAL_ORDER:
            raise UnsupportedOrder(
                f"Gaussian kernel supports total derivative order <= "
                f"{MAX_TOTAL_ORDER}, got ({m}, {n})"
            )
        delta = x - y
        e = self._gauss(delta)
        p = m + n
        if p == 0:
            return e
        c = self.c
        val = hermite(p, c * delta, self.ctx.one) * c**p * e
        return -val if m % 2 else val

    def __repr__(self):
        return f"GaussianKernel(c={float(self.c)!r}, {self.ctx!r})"
