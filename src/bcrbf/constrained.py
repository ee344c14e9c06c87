"""Kernels constrained to annihilate boundary functionals exactly.

Given a kernel R and a functional L with L_x L_y R != 0, the corrected
kernel

    R1(x, y) = R(x, y) - (L_y R)(x) * (L_x R)(y) / (L_x L_y R)

satisfies L R1 = 0 in either slot, exactly, for every value of the other
variable.  Imposing a second functional on R1 the same way preserves the
first annihilation, so a sequence of impositions yields a kernel that
satisfies all its boundary functionals at once.  Corrections are stored,
never expanded symbolically, and every correction trace carries analytic
derivative access (differentiating the underlying kernel's mixed
partials, never numeric differentiation).

Entry by entry (``mixed_partial``) a kernel is its base entry plus, per
correction, phi_k(x) times the scaled right factor -psi_k(y) / gamma_k
(rounded once with ten guard digits), summed exactly and rounded once
(``numerics.corrected_entry``).  Over points xs and nodes y_j
(``partial_matrix``) it is the base kernel's matrix minus the low-rank
part Phi diag(gamma)^-1 Psi^T, Phi[x][k] = d^m phi_k(x) and
Psi[j][k] = psi_k(y_j), kept as those factors (``numerics.
CorrectedMatrix``): the corrections cost O(#points + #nodes) trace
values, and are applied to the coefficients of an expansion instead of
to every entry.  Made dense, its entries are ``mixed_partial``'s, bit
for bit, with each scaled right factor formed once per node.

A ConstrainedKernel is immutable after construction and computes at the
digits of its base kernel's ``Precision``, in any thread (see
``numerics``).
"""

from __future__ import annotations

import mpmath

from .errors import DegenerateConstraint
from .functionals import KernelTrace, bilinear
from .numerics import CorrectedMatrix, corrected_entry, correction_scales


class RankOneCorrection:
    """One subtracted term phi(x) * psi(y) / gamma."""

    __slots__ = ("phi", "psi", "gamma")

    def __init__(self, phi, psi, gamma):
        self.phi = phi
        self.psi = psi
        self.gamma = gamma


class ConstrainedKernel:
    """Base kernel minus accumulated rank-one corrections.

    Public derivative access is meant for total order m + n <= 2 (what the
    PDE pipeline consumes); deeper requests are forwarded and fail inside
    the base kernel once its total-order budget is exceeded.
    """

    __slots__ = ("base", "corrections", "imposed", "ctx")

    def __init__(self, base, corrections, imposed):
        self.base = base
        self.corrections = tuple(corrections)
        self.imposed = tuple(imposed)
        self.ctx = base.ctx

    def eval(self, x, y):
        return self.mixed_partial(0, 0, x, y)

    def mixed_partial(self, m, n, x, y):
        corrs = self.corrections
        scales = correction_scales(
            self.ctx, [c.psi.deriv(y, n) for c in corrs], [c.gamma for c in corrs]
        )
        return corrected_entry(
            self.ctx,
            self.base.mixed_partial(m, n, x, y),
            [c.phi.deriv(x, m) for c in corrs],
            scales,
        )

    def partial_matrix(self, m, xs, nodes, uniform):
        """d^m/dx^m of the kernel over xs x nodes: the base kernel's rows
        beside the correction traces d^m phi_k(x), with psi_k at the nodes
        and the denominators, as a CorrectedMatrix."""
        rows = self.base.partial_matrix(m, xs, nodes, uniform)
        corrs = self.corrections
        return CorrectedMatrix(
            self.ctx,
            [row + [c.phi.deriv(x, m) for c in corrs] for row, x in zip(rows, xs)],
            [[c.psi.deriv(y, 0) for y in nodes] for c in corrs],
            [c.gamma for c in corrs],
        )

    def __repr__(self):
        names = ",".join(f.kind for f in self.imposed)
        return f"ConstrainedKernel({self.base!r}; imposed=[{names}])"


def impose(kernel, functional):
    """Append one rank-one correction annihilating ``functional``.

    ``kernel`` may be a base kernel or an already-constrained one.  Raises
    DegenerateConstraint when |L_x L_y R| falls below the working-precision
    threshold: a vanishing denominator makes the correction numerically
    meaningless before it is exactly zero.
    """
    ctx = kernel.ctx
    gamma = bilinear(functional, functional, kernel)
    if abs(gamma) <= ctx.tol(5):
        raise DegenerateConstraint(
            f"bilinear denominator {mpmath.nstr(gamma, 4)} is numerically zero "
            f"for {functional!r}",
            gamma=gamma,
        )
    phi = KernelTrace(kernel, functional, "second")  # function of x
    psi = KernelTrace(kernel, functional, "first")  # function of y
    corr = RankOneCorrection(phi, psi, gamma)
    if isinstance(kernel, ConstrainedKernel):
        return ConstrainedKernel(
            kernel.base,
            kernel.corrections + (corr,),
            kernel.imposed + (functional,),
        )
    return ConstrainedKernel(kernel, (corr,), (functional,))


def impose_sequence(kernel, functionals):
    """Fold ``impose`` left to right; empty input returns the kernel as is."""
    out = kernel
    for i, functional in enumerate(functionals):
        try:
            out = impose(out, functional)
        except DegenerateConstraint as exc:
            raise DegenerateConstraint(
                f"functional {i} of {len(functionals)}: {exc}",
                gamma=exc.gamma,
                index=i,
            ) from None
    return out
