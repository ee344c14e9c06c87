"""The row form of mp matrices: node tables, assembled systems, evaluation
rows and their contractions are ``numerics.Aligned`` integer rows, and
every number made from them is the number the per-entry mpf path makes,
bit for bit.  float64 keeps lists of floats."""

import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcrbf.benchmarks import get_example
from bcrbf.constrained import impose_sequence
from bcrbf.functionals import make_dirichlet, make_multipoint, make_robin
from bcrbf.kernels import GaussianKernel
from bcrbf.numerics import (
    FLOAT64,
    Aligned,
    CorrectedMatrix,
    Precision,
    _contract,
    _fibers,
    as_row,
    corrected_entry,
    correction_scales,
    dot,
    max_abs,
    mode_sum,
    norm_1,
    norm_inf,
)
from bcrbf.pseudospectral import (
    OperatorSpec,
    OperatorTerm,
    _all_tables,
    _axis_tables,
    _operator_row,
    build_evaluation_matrix,
    build_grid,
    build_operator_matrix,
)
from bcrbf.reporting import evaluation_axes

from oracles import (
    dense_axis_matrix,
    max_abs_of_numbers,
    norm_1_of_numbers,
    norm_inf_of_numbers,
    number_rows,
)


def _kernel(kind, c, ctx):
    base = GaussianKernel(c, ctx)
    if kind == "gaussian":
        return base
    if kind == "robin":
        funcs = [make_robin(1, "-0.25", 0, ctx=ctx), make_robin(1, 1, 1, ctx=ctx)]
    else:
        funcs = [make_multipoint(0, [("0.5", "0.45")], ctx=ctx), make_dirichlet(1, ctx=ctx)]
    return impose_sequence(base, funcs)


def _raws(rows):
    """Each entry's raw tuple: an Aligned row's own, a number's ``_mpf_``."""
    return [list(row) if isinstance(row, Aligned) else [v._mpf_ for v in row] for row in rows]


def _operator(ctx):
    """A Laplacian plus a first-order term with a variable coefficient, so
    that rows are scaled by coefficients and summed over terms."""
    return OperatorSpec((
        OperatorTerm((2, 0), 1),
        OperatorTerm((0, 2), ctx.num("0.75")),
        OperatorTerm((1, 0), lambda p: 1 / (2 + p[1])),
    ))


def _per_entry_tables(kind, c, ctx, axes):
    """The node tables as lists of numbers, each entry one mixed partial of
    a fresh kernel."""
    tables = []
    for nodes in axes:
        kernel = _kernel(kind, c, ctx)
        tables.append({m: dense_axis_matrix(kernel, m, nodes, nodes) for m in (0, 1, 2)})
    return tables


def _contraction_oracle(ctx, plan, total):
    """``_contract`` by ``dot`` of number lists: one dot per output of the
    plan's rows and fibers concatenated."""
    out = []
    for j in range(total):
        us, vs = [], []
        for rows, fibers, inner, m in plan:
            q, r = divmod(j, inner)
            us += rows[q % m].numbers()
            vs += fibers[q // m * inner + r].numbers()
        out.append(dot(ctx, us, vs))
    return out


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    digits=st.sampled_from([20, 50, 150]),
    counts=st.tuples(st.integers(2, 6), st.integers(2, 5)),
    c=st.sampled_from(["0.01", "0.3", "2", "10"]),
    kind=st.sampled_from(["gaussian", "robin", "multipoint"]),
    scheme=st.sampled_from(["uniform-interior", "chebyshev-interior"]),
    seed=st.integers(0, 2 ** 16),
)
def test_row_form_is_the_per_entry_mpf_path(digits, counts, c, kind, scheme, seed):
    """Node tables against mixed partials; A and A_L rows against the
    Kronecker products, coefficients and sums of number rows; evaluation
    rows against mixed partials; contractions against ``dot`` of number
    lists; and ``norm_1``, ``norm_inf`` and ``max_abs`` against ``sum``,
    ``abs`` and ``max`` over the numbers, bit for bit."""
    ctx = Precision("mp", digits)
    grid = build_grid(((0, 1), (0, 1)), counts, scheme, ctx)
    kernels = [_kernel(kind, c, ctx) for _ in counts]
    op = _operator(ctx)
    tables = [_axis_tables(k, ax, (0, 1, 2)) for k, ax in zip(kernels, grid.axes)]
    oracle = _per_entry_tables(kind, c, ctx, grid.axes)
    for got, ref in zip(tables, oracle):
        for m in (0, 1, 2):
            assert all(isinstance(row, Aligned) for row in got[m])
            assert _raws(got[m]) == _raws(ref[m])

    a = build_evaluation_matrix(grid, kernels, tables)
    a_l = build_operator_matrix(grid, kernels, op, tables)
    for ii, p, row, row_l in zip(grid.indices(), grid.points(), a, a_l):
        assert _raws([row, row_l]) == _raws([
            [u * v for u in oracle[0][0][ii[0]] for v in oracle[1][0][ii[1]]],
            _operator_row(oracle, op.terms, ii, p),
        ])
    for matrix in (a, a_l):
        numbers = number_rows(matrix)
        for norm, oracle in ((norm_1, norm_1_of_numbers), (norm_inf, norm_inf_of_numbers),
                             (max_abs, max_abs_of_numbers)):
            assert norm(matrix)._mpf_ == oracle(numbers)._mpf_
            # rows given as numbers are aligned on entry
            assert norm(numbers)._mpf_ == oracle(numbers)._mpf_

    rng = random.Random(seed)
    pts = [ctx.num(rng.uniform(-0.25, 1.25)) for _ in range(4)]
    nodes = grid.axes[0]
    for m in (0, 1, 2):
        mat = _kernel(kind, c, ctx).partial_matrix(m, pts, nodes, False)
        dense = mat.dense() if isinstance(mat, CorrectedMatrix) else mat
        assert _raws(dense) == _raws(dense_axis_matrix(_kernel(kind, c, ctx), m, pts, nodes))
        # one term, and two folded together, against dot of the numbers
        vals = [ctx.num(rng.uniform(-1, 1)) * 10 ** rng.randint(-20, 20)
                for _ in range(len(nodes) * 3)]
        fibers = [Aligned([v._mpf_ for v in f], ctx.mp) for f in _fibers(vals, [len(nodes), 3], 0)]
        for plan in ([(dense, fibers, 3, len(pts))],
                     [(dense, fibers, 3, len(pts)), (dense, fibers[::-1], 3, len(pts))]):
            got = _contract(ctx, plan, len(pts) * 3)
            expect = _contraction_oracle(ctx, plan, len(pts) * 3)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in expect]


def test_dense_entry_wider_than_its_window_is_fdots_sum():
    """A dense entry whose products span more than 2 * prec bits is
    ``fdot``'s sum, not the exact one: B_ij = 2^(-3 prec) first, then
    P_i1 s_1j = -1 and P_i2 s_2j = 1.  ``mpf_sum`` lets -1 replace the tiny
    sum, so the entry is 0, as ``corrected_entry`` forms it."""
    ctx = Precision("mp", 30)
    one, tiny = ctx.one, ctx.num(2) ** (-3 * ctx.mp.prec)
    mat = CorrectedMatrix(ctx, [as_row(ctx, [tiny, one, -one])], [[one], [one]], [one, one])
    scales = correction_scales(ctx, [one, one], [one, one])
    expect = corrected_entry(ctx, tiny, [one, -one], scales)
    assert expect == 0
    assert mat.dense()[0][0] == expect._mpf_


@pytest.mark.parametrize("kind", ["gaussian", "robin"])
def test_float64_rows_stay_lists_of_the_per_entry_values(kind):
    ctx = FLOAT64
    grid = build_grid(((0, 1), (0, 1)), (4, 3), "uniform-interior", ctx)
    kernels = [_kernel(kind, 0.7, ctx) for _ in range(2)]
    op = _operator(ctx)
    tables = [_axis_tables(k, ax, (0, 1, 2)) for k, ax in zip(kernels, grid.axes)]
    oracle = _per_entry_tables(kind, 0.7, ctx, grid.axes)
    assert tables == oracle
    a_l = build_operator_matrix(grid, kernels, op, tables)
    assert all(type(row) is list for row in a_l)
    assert a_l == [_operator_row(oracle, op.terms, ii, p)
                   for ii, p in zip(grid.indices(), grid.points())]


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_wide_span_rows_keep_values_and_time():
    """Gaussian rows at c * delta up to 10, entries down to exp(-100), about
    2^-144: the row's integers are about 140 bits wider than its
    mantissas.  The rows and their contraction with a spread of
    coefficients are the per-entry numbers and ``dot`` of number lists,
    bit for bit, and the aligned contraction takes no longer than ``dot``
    on the same numbers, the path that formed these values before rows
    were aligned."""
    ctx = Precision("mp", 150)
    kernel = GaussianKernel(10, ctx)
    nodes = build_grid(((0, 1),), (48,), "uniform-interior", ctx).axes[0]
    pts = build_grid(((0, 1),), (101,), "uniform-inclusive", ctx).axes[0]
    rows = kernel.partial_matrix(0, pts, nodes, False)
    assert _raws(rows) == _raws(dense_axis_matrix(GaussianKernel(10, ctx), 0, pts, nodes))
    assert max(row.hi - row.lo for row in rows) > 130  # exponent span in bits
    rng = random.Random(7)
    lam = [ctx.num(rng.uniform(-1, 1)) * 10 ** rng.randint(-6, 6) for _ in nodes]
    part = [(lam, (len(nodes),), [rows])]
    got = mode_sum(ctx, part, [len(pts)])
    numbers = number_rows(rows)
    assert [v._mpf_ for v in got] == [dot(ctx, row, lam)._mpf_ for row in numbers]
    aligned = per_entry = math.inf  # best of 7, taken in turns
    for _ in range(7):
        aligned = min(aligned, _seconds(lambda: mode_sum(ctx, part, [len(pts)])))
        per_entry = min(per_entry, _seconds(lambda: [dot(ctx, row, lam) for row in numbers]))
    assert aligned <= per_entry


def test_ex1_system_and_evaluation_rows_retain_little_memory():
    """ex1 at N = 72, c = 0.18, eps = 0.5 and mp:150, the system the
    robin1d benchmark solves: its node tables and A_L retain at most
    2.5 MB (6.1 MB as one number object per entry), and the constrained
    kernel's rows at the 201 error-grid points at most 2 MB (4.3 MB).
    The kernel's memos are filled by a first build, so the figures are
    the matrices' own."""
    ctx = Precision("mp", 150)
    problem = get_example("ex1").make(ctx, 0.5)
    funcs = [bc.functional.homogeneous() for bc in problem.bcs[0]]
    kernels = [impose_sequence(GaussianKernel(ctx.num("0.18"), ctx), funcs)]
    grid = build_grid(problem.domain, (72,), "uniform-interior", ctx,
                      avoid=problem.support_locations())
    (pts,) = evaluation_axes(problem.domain, ctx)
    _all_tables(kernels, grid, problem.operator)
    kernels[0].partial_matrix(0, pts, grid.axes[0], True)
    tracemalloc.start()
    try:
        tables = _all_tables(kernels, grid, problem.operator)
        a_l = build_operator_matrix(grid, kernels, problem.operator, tables)
        system = tracemalloc.get_traced_memory()[0]
        rows = kernels[0].partial_matrix(0, pts, grid.axes[0], True)
        evaluation = tracemalloc.get_traced_memory()[0] - system
    finally:
        tracemalloc.stop()
    assert len(a_l) == 72 and len(rows.rows) == len(pts)
    assert system <= 2.5 * 2 ** 20
    assert evaluation <= 2 * 2 ** 20
