"""Kernels constrained to annihilate boundary functionals exactly.

Given a symmetric kernel R and a functional L with gamma = L_x L_y R != 0,
the corrected kernel

    R1(x, y) = R(x, y) - phi(x) * phi(y) / gamma,  phi = L_y R = L_x R,

satisfies L R1 = 0 in either slot, exactly, for every value of the other
variable.  R1 is symmetric again, and imposing a second functional on it
the same way preserves the first annihilation, so a sequence of
impositions yields a kernel that satisfies all its boundary functionals
at once.  A correction is stored as its trace phi and gamma, never
expanded symbolically; phi (``functionals.KernelTrace``) differentiates
the underlying kernel's mixed partials, never numerically, and gamma is
L applied to that same trace, gamma = L phi, read from its memo.

Entry by entry (``mixed_partial``) a kernel is its base entry plus, per
correction, d^m phi_k(x) times the scaled right factor
-d^n phi_k(y) / gamma_k (rounded once with ten guard digits), summed
exactly and rounded once (``numerics.corrected_entry``).  Over points xs
and nodes y_j (``partial_matrix``) it is the base kernel's matrix minus
the low-rank part P diag(gamma)^-1 Q^T, P[x][k] = d^m phi_k(x) and
Q[j][k] = phi_k(y_j), kept as those factors (``numerics.
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
from .functionals import KernelTrace
from .numerics import CorrectedMatrix, corrected_entry, correction_scales, extend_row


class ConstrainedKernel:
    """Base kernel minus rank-one corrections phi_k(x) phi_k(y) / gamma_k.

    Public derivative access is meant for total order m + n <= 2 (what the
    PDE pipeline consumes); deeper requests are forwarded and fail inside
    the base kernel once its total-order budget is exceeded.
    """

    __slots__ = ("base", "traces", "gammas", "imposed", "ctx")

    def __init__(self, base, traces, gammas, imposed):
        self.base = base
        self.traces = tuple(traces)
        self.gammas = tuple(gammas)
        self.imposed = tuple(imposed)
        self.ctx = base.ctx

    def eval(self, x, y):
        return self.mixed_partial(0, 0, x, y)

    def mixed_partial(self, m, n, x, y):
        traces = self.traces
        scales = correction_scales(
            self.ctx, [t.deriv(y, n) for t in traces], self.gammas
        )
        return corrected_entry(
            self.ctx,
            self.base.mixed_partial(m, n, x, y),
            [t.deriv(x, m) for t in traces],
            scales,
        )

    def partial_matrix(self, m, xs, nodes, uniform):
        """d^m/dx^m of the kernel over xs x nodes: the base kernel's rows
        with the correction traces d^m phi_k(x) appended, rows of [B | P]
        in the base's form, with phi_k at the nodes and the denominators,
        as a CorrectedMatrix."""
        traces = self.traces
        rows = self.base.partial_matrix(m, xs, nodes, uniform)
        for row, x in zip(rows, xs):
            extend_row(row, [t.deriv(x, m) for t in traces])
        return CorrectedMatrix(
            self.ctx,
            rows,
            [[t.deriv(y, 0) for y in nodes] for t in traces],
            self.gammas,
        )

    def __repr__(self):
        names = ",".join(f.kind for f in self.imposed)
        return f"ConstrainedKernel({self.base!r}; imposed=[{names}])"


def impose(kernel, functional):
    """Append one rank-one correction annihilating ``functional``.

    ``kernel`` may be a base kernel or an already-constrained one.  The
    denominator is gamma = L phi, the functional applied to its own trace
    phi = L_y R.  Raises DegenerateConstraint when |gamma| falls to the
    working-precision threshold tol(5) times (sum_k |c_k|)^2, the size of
    gamma's coefficients c_k c_j against kernel entries of size 1: a
    vanishing denominator makes the correction numerically meaningless
    before it is exactly zero.  Scaling the functional by s scales gamma
    and the threshold alike by s^2, so it does not decide whether the
    functional can be imposed.
    """
    trace = KernelTrace(kernel, functional)
    gamma = functional.apply(trace.deriv)
    size = sum(abs(t.coeff) for t in functional.terms) ** 2
    if abs(gamma) <= kernel.ctx.tol(5) * size:
        raise DegenerateConstraint(
            f"bilinear denominator {mpmath.nstr(gamma, 4)} is numerically zero "
            f"for {functional!r}",
            gamma=gamma,
        )
    if isinstance(kernel, ConstrainedKernel):
        return ConstrainedKernel(
            kernel.base,
            kernel.traces + (trace,),
            kernel.gammas + (gamma,),
            kernel.imposed + (functional,),
        )
    return ConstrainedKernel(kernel, (trace,), (gamma,), (functional,))


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
