"""Self-test of the harness: the references solve their problems, and the
checks accept a correct solution and reject a perturbed one, one with
wrong boundary data and the Kansa baseline's boundary values.  Runs in
seconds (ex4 5x5 and ex1 N=12 at mp:100).

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import random

import mpmath

from bcrbf.benchmarks import get_example
from bcrbf.kansa import kansa_solve
from bcrbf.numerics import Precision
from bcrbf.pseudospectral import BoundaryCondition, Solution, solve

import reference

DIGITS = 100
# ten times the paper's ex4 5x5 constrained error, 8.12e-9
EX4_BOUND = 8.12e-8


def _expect(ok, what, failures):
    print(f"# self-test {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main():
    failures = []
    rng = random.Random(0)
    ctx = Precision("mp", DIGITS)

    for ident, eps in (("ex1", 0.5), ("ex1", 2.0**-5), ("ex4", None), ("ex7", None)):
        exact = reference.exact_for(ident, 30, eps)
        points = reference.interior_points(exact, rng, 3)
        pde = max(abs(exact.pde_residual(p)) for p in points)
        _expect(pde < 1e-20, f"{ident} eps={eps} reference solves its PDE ({mpmath.nstr(pde, 3)})",
                failures)
        bc = reference.boundary_residual(ExactField(exact), exact, rng, 3, 30)
        _expect(bc < 1e-20, f"{ident} eps={eps} reference meets its boundary "
                f"conditions ({mpmath.nstr(bc, 3)})", failures)

    exact = reference.exact_for("ex4", DIGITS)
    problem = get_example("ex4").make(ctx)
    sol = solve(problem, (5, 5), "0.01", ctx)
    problems, err, bc = reference.check_solution(sol, exact, rng, DIGITS, EX4_BOUND, True)
    _expect(not problems and bc[0] <= 1e-3 * err,
            f"ex4 5x5 mp:100 accepted, boundary residual far below the interior error "
            f"(error {mpmath.nstr(err, 3)}, boundary residual {mpmath.nstr(bc[0], 3)}, "
            f"floor {mpmath.nstr(bc[1], 3)})", failures)

    with mpmath.workdps(DIGITS):
        lam = [v * (1 + mpmath.mpf("1e-3")) for v in sol.lam]
    perturbed = Solution(ctx, sol.grid, sol.kernels, lam, sol.hom, sol.nodal)
    problems, _, _ = reference.check_solution(perturbed, exact, rng, DIGITS, EX4_BOUND, True)
    _expect(any("at seeded points exceeds" in p for p in problems),
            f"perturbed coefficients rejected: {problems}", failures)

    low, high = problem.bcs[0]
    wrong = dataclasses.replace(
        problem, bcs=((BoundaryCondition(low.functional, ctx.zero), high), problem.bcs[1]))
    sol_wrong = solve(wrong, (5, 5), "0.01", ctx)
    problems, _, _ = reference.check_solution(sol_wrong, exact, rng, DIGITS, EX4_BOUND, True)
    _expect(any("boundary residual" in p for p in problems),
            f"wrong boundary data rejected: {problems}", failures)

    # the Kansa baseline meets its boundary conditions only at the nodes,
    # so the boundary check, given its solution, must reject it
    sol_kansa = kansa_solve(problem, (5, 5), "0.01", ctx)
    problems, _, _ = reference.check_solution(sol_kansa, exact, rng, DIGITS, 1.0, True)
    _expect(any("above the rounding floor" in p for p in problems),
            f"Kansa ex4 5x5 fails the boundary check: {problems}", failures)

    exact1 = reference.exact_for("ex1", DIGITS, 0.5)
    problem1 = get_example("ex1").make(ctx, 0.5)
    sol1 = solve(problem1, (12,), "0.18", ctx)
    problems, err, _ = reference.check_solution(sol1, exact1, rng, DIGITS, 1e-6, True)
    _expect(not problems, f"ex1 N=12 mp:100 Robin faces accepted (error {mpmath.nstr(err, 3)}) "
            f"{problems}", failures)

    print("# self-test " + ("passed" if not failures else f"FAILED: {len(failures)} checks"))
    return 1 if failures else 0


class ExactField:
    """A reference solution seen through the field protocol the checks use,
    so the boundary check can be run on the reference itself."""

    def __init__(self, exact):
        self.exact = exact

    def evaluate(self, p):
        return self.exact.value(p)

    def partial(self, orders, p):
        if not any(orders):
            return self.exact.value(p)
        (d,) = [i for i, o in enumerate(orders) if o]
        q = list(p)

        def along(t):
            q[d] = t
            return self.exact.value(q)

        with mpmath.workdps(self.exact.digits):
            return mpmath.diff(along, p[d], orders[d])
