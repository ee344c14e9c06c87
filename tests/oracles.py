"""Independent numerical oracles and helpers used by the test suite only.

The oracles deliberately avoid the package's analytic derivative paths:
finite differences check mixed partials, and a Jacobi sweep checks
definiteness decisions, each from first principles.  A Cholesky
factorization tests positive definiteness, and ``per_entry_expansion``
evaluates a solution from kernel matrices formed entry by entry, and
``CroutLU`` is the LU factorization on number objects that the package's
factors on aligned integers must reproduce bit for bit, as
``error_maxima`` is the error metric on number objects that the
package's on raw tuples must.  ``bilinear`` and ``functional_on_monomial``
apply a boundary functional term by term, without the package's one
formula (``BoundaryFunctional.apply``).  The helpers at the end are
conveniences over the package that only tests use.
"""

import math

import mpmath

from bcrbf.errors import BcrbfError, SingularMatrix
from bcrbf.functionals import make_dirichlet
from bcrbf.homogenize import homogenize_nd
from bcrbf.numerics import (
    Aligned,
    check_finite,
    dot,
    lu_factor,
    max_abs,
    mode_sum,
    transpose,
)

# central difference coefficients on offsets -order..order (step h)
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}

# step sizes balancing truncation vs roundoff in binary64; keyed by the
# TOTAL derivative order, since stencil roundoff compounds as eps / h^(m+n)
_F64_STEPS = {0: 1.0, 1: 1e-5, 2: 1e-4, 3: 2e-3, 4: 6e-3}


def _fd_once(f, m, n, x, y, h):
    total = 0.0
    for ox, wx in _STENCILS[m]:
        for oy, wy in _STENCILS[n]:
            total += wx * wy * f(x + ox * h, y + oy * h)
    return total / h ** (m + n)


def fd_mixed_partial_f64(f, m, n, x, y):
    """Central-difference estimate of d^m/dx^m d^n/dy^n f(x, y) in binary64.

    Orders 3 and 4 use Richardson extrapolation (two step sizes) to knock the
    O(h^2) truncation term down; plain central differences with those wide
    steps would not reach 1e-4 relative accuracy."""
    h = _F64_STEPS[m + n]
    if m + n < 3:
        return _fd_once(f, m, n, x, y, h)
    coarse = _fd_once(f, m, n, x, y, h)
    fine = _fd_once(f, m, n, x, y, h / 2)
    return (4 * fine - coarse) / 3


def fd_mixed_partial_mp(f, m, n, x, y, digits, h="1e-12"):
    """Same in big-float arithmetic at ``digits`` digits.  ``f`` must
    evaluate at those digits too; enough guard digits above the target's
    keep the subtractive cancellation of the stencil below its
    tolerance."""
    mp = mpmath.MPContext()
    mp.dps = digits
    x, y, h = mp.convert(x), mp.convert(y), mp.mpf(h)
    total = mp.mpf(0)
    for ox, wx in _STENCILS[m]:
        for oy, wy in _STENCILS[n]:
            total += mp.mpf(wx) * mp.mpf(wy) * f(x + ox * h, y + oy * h)
    return total / h ** (m + n)


def jacobi_eigenvalues(a, sweeps=50, tol=1e-14):
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations."""
    n = len(a)
    a = [[float(v) for v in row] for row in a]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (abs(theta) + math.sqrt(theta**2 + 1))
                c = 1 / math.sqrt(t**2 + 1)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


class NotSymmetric(BcrbfError):
    """Cholesky input deviates from symmetry beyond tolerance."""


def cholesky(ctx, a):
    """Lower-triangular G with G*G^T ~= A, or None when A is not numerically
    positive definite (a flag, not an exception: callers use this as a PD
    test).  Raises NotSymmetric when A deviates from symmetry beyond
    tolerance."""
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("cholesky requires a nonempty square matrix")
    check_finite(a, "cholesky input")
    scale = max_abs(a)
    tol_sym = ctx.tol(5) * max(1.0, scale)
    asym = max(
        abs(a[i][j] - a[j][i]) for i in range(n) for j in range(i + 1, n)
    ) if n > 1 else 0.0
    if asym > tol_sym:
        raise NotSymmetric(f"asymmetry {float(asym):.3e} exceeds {float(tol_sym):.3e}")
    # fail when a diagonal residual dips below minus a noise-level margin
    tol_pivot = ctx.tol(2) * max(1.0, float(scale))
    g = zeros(ctx, n, n)
    for j in range(n):
        d = a[j][j]
        for k in range(j):
            d -= g[j][k] * g[j][k]
        if d <= -tol_pivot:
            return None
        if d <= 0:
            # numerically semidefinite: zero pivot, zero column
            continue
        gjj = ctx.sqrt(d)
        g[j][j] = gjj
        for i in range(j + 1, n):
            s = a[i][j]
            for k in range(j):
                s -= g[i][k] * g[j][k]
            g[i][j] = s / gjj
    return g


class CroutLU:
    """P A = L U by the left-looking (Crout) sweep on number objects, the
    bit-identity oracle of ``numerics.LUFactorization``.

    Each entry of L and U is its entry of A minus one ``dot`` (summed
    exactly and rounded once in mp), rounded at the digits of ``ctx``,
    and the entries of L are then divided by their pivot.  The pivot is
    the first entry of largest magnitude.  ``lu`` holds both factors in
    place, ``swaps`` the row exchanges and ``norm1_a`` the largest column
    sum of |A| as ``sum`` forms it; the solves subtract each ``dot`` from
    its right-hand side entry and divide by the pivot in the same order.
    """

    def __init__(self, ctx, a):
        n = len(a)
        self.ctx = ctx
        self.n = n
        self.norm1_a = norm_1_of_numbers(a)
        convert = (lambda v: v) if ctx.mode == "float64" else ctx.mp.convert
        lu = [[convert(v) for v in row] for row in a]
        swaps = []
        tol_pivot = ctx.pivot_tol(max(abs(v) for row in a for v in row))
        for k in range(n):
            if k:
                col = [lu[j][k] for j in range(k)]
                for i in range(k, n):
                    lu[i][k] -= dot(ctx, lu[i][:k], col)
            p = max(range(k, n), key=lambda i: abs(lu[i][k]))
            if abs(lu[p][k]) <= tol_pivot:
                raise SingularMatrix(f"pivot {k}", pivot_index=k)
            if p != k:
                lu[k], lu[p] = lu[p], lu[k]
            swaps.append(p)
            row_k = lu[k]
            piv = row_k[k]
            if k:
                for j in range(k + 1, n):
                    col = [lu[i][j] for i in range(k)]
                    row_k[j] -= dot(ctx, row_k[:k], col)
            for i in range(k + 1, n):
                lu[i][k] /= piv
        self.lu = lu
        self.swaps = swaps

    def _minus_dot(self, s, us, vs):
        return -(dot(self.ctx, us, vs) - s)

    def solve_vec(self, b):
        n, lu = self.n, self.lu
        x = list(b)
        for k, p in enumerate(self.swaps):
            if p != k:
                x[k], x[p] = x[p], x[k]
        for i in range(1, n):
            x[i] = self._minus_dot(x[i], lu[i][:i], x[:i])
        for i in range(n - 1, -1, -1):
            row = lu[i]
            x[i] = self._minus_dot(x[i], row[i + 1:], x[i + 1:]) / row[i]
        return x

    def solve_transpose_vec(self, b):
        n, lu = self.n, self.lu
        x = list(b)
        for i in range(n):
            col = [lu[j][i] for j in range(i)]
            x[i] = self._minus_dot(x[i], col, x[:i]) / lu[i][i]
        for i in range(n - 1, -1, -1):
            col = [lu[j][i] for j in range(i + 1, n)]
            x[i] = self._minus_dot(x[i], col, x[i + 1:])
        for k in range(n - 1, -1, -1):
            p = self.swaps[k]
            if p != k:
                x[k], x[p] = x[p], x[k]
        return x


def bilinear(l1, l2, kernel):
    """L1 applied to the first slot, L2 to the second, as one flat double
    sum: sum_ij c1_i (c2_j d_x^{o1_i} d_y^{o2_j} R(loc1_i, loc2_j)),
    from the kernel's entries.  L applied to L's kernel trace is a
    correction's gamma; for one-term functionals the two agree bit for
    bit, and otherwise they differ only in the order of the sum."""
    total = 0
    for t1 in l1.terms:
        for t2 in l2.terms:
            total += t1.coeff * (t2.coeff * kernel.mixed_partial(
                t1.order, t2.order, t1.location, t2.location
            ))
    return total


def functional_on_monomial(functional, k, ctx):
    """L applied to x**k, case by case in the order and the power."""
    total = ctx.zero
    for t in functional.terms:
        if t.order == 0:
            total += t.coeff * (t.location**k if k else ctx.one)
        else:
            if k >= 1:
                total += t.coeff * k * (t.location ** (k - 1) if k > 1 else ctx.one)
    return total


# -- helpers over the package -------------------------------------------------


def error_maxima(approx, values, ctx):
    """``reporting.error_metrics``' figures from the grid values of the
    solution and of the exact solution, formed from the number objects:
    max |a - u| and that over max |u| (itself when the exact values are
    all 0).  A value that is not finite raises BcrbfError naming its
    side, the solution first."""
    isfinite = math.isfinite if ctx.mode == "float64" else ctx.mp.isfinite
    for side, vals in (("solution", approx), ("exact solution", values)):
        if not all(map(isfinite, vals)):
            raise BcrbfError(f"the {side} is not finite on the evaluation grid")
    max_err = max([ctx.zero, *(abs(a - u) for a, u in zip(approx, values))])
    max_exact = max([ctx.zero, *(abs(u) for u in values)])
    rel = max_err / max_exact if max_exact > 0 else max_err
    return max_err, rel


def zeros(ctx, rows, cols):
    z = ctx.zero
    return [[z] * cols for _ in range(rows)]


def identity(ctx, n):
    a = zeros(ctx, n, n)
    one = ctx.one
    for i in range(n):
        a[i][i] = one
    return a


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt] for ra in a]


def lu_solve(ctx, a, b):
    """Solve A X = B (B given as an n x k matrix) via partially pivoted LU."""
    return lu_factor(ctx, a).solve(b)


def lu_solve_vec(ctx, a, b):
    return lu_factor(ctx, a).solve_vec(b)


def product_kernel_eval(kernels, xs, ys):
    out = 1
    for k, x, y in zip(kernels, xs, ys):
        out *= k.eval(x, y)
    return out


def product_kernel_partial(kernels, orders, xs, ys):
    """prod_d d^{m_d}/dx_d^{m_d} k_d(x_d, y_d) (derivatives in the first slot)."""
    out = 1
    for k, m, x, y in zip(kernels, orders, xs, ys):
        out *= k.mixed_partial(m, 0, x, y)
    return out


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


def apply_to_function(functional, f, df=None):
    """Apply L to a univariate function.

    ``f`` is a callable; first-derivative terms need either ``df`` or an
    ``f.deriv(t, order)`` method (kernel traces provide the latter).
    """
    total = 0
    for t in functional.terms:
        if t.order == 0:
            total += t.coeff * f(t.location)
        elif df is not None:
            total += t.coeff * df(t.location)
        elif hasattr(f, "deriv"):
            total += t.coeff * f.deriv(t.location, t.order)
        else:
            raise TypeError(
                "functional has derivative terms but no derivative access given"
            )
    return total


def norm_1_of_numbers(a):
    """The largest column sum of |a_ij| of a matrix of numbers, by ``sum``
    and ``max`` on the number objects: the first of the largest, each
    partial sum rounded at its column's first entry's digits."""
    return max(sum(abs(row[j]) for row in a) for j in range(len(a[0])))


def norm_inf_of_numbers(a):
    """The largest row sum of |a_ij|, by ``sum`` and ``max`` on numbers."""
    return max(sum(abs(v) for v in row) for row in a)


def max_abs_of_numbers(a):
    """The first largest |a_ij|, by ``abs`` and ``max`` on numbers."""
    return max(abs(v) for row in a for v in row)


def number_rows(a):
    """A matrix as lists of numbers: an mp matrix's ``Aligned`` rows as
    their entries' numbers, exactly; float64 rows as they are."""
    return [row.numbers() if isinstance(row, Aligned) else row for row in a]


def dense_axis_matrix(kernel, m, pts, nodes):
    """[[d^m/dx^m kernel(x, y) for y in nodes] for x in pts], entry by entry."""
    return [[kernel.mixed_partial(m, 0, x, y) for y in nodes] for x in pts]


def per_entry_expansion(sol, orders, axes):
    """d^orders of a Solution on the tensor grid ``axes`` from its per-axis
    kernel matrices formed entry by entry, contracted with the parts of the
    homogenization map by ``mode_sum``.  Returns the values and the
    matrices."""
    ctx = sol.ctx
    axes = [[ctx.num(x) for x in pts] for pts in axes]
    mats = [
        dense_axis_matrix(k, m, pts, nodes)
        for k, m, pts, nodes in zip(sol.kernels, orders, axes, sol.grid.axes)
    ]
    parts = [(sol.lam, sol.grid.counts, mats), *sol.hom.parts(orders, axes)]
    return mode_sum(ctx, parts, [len(pts) for pts in axes]), mats
