import dataclasses
import math
import operator
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcrbf.benchmarks import get_example
import bcrbf.cli as cli
from bcrbf.cli import main
from bcrbf.errors import BcrbfError
from bcrbf.fields import ScalarField
from bcrbf.numerics import FLOAT64, Precision, _round
from bcrbf.pseudospectral import Solution, solve
import bcrbf.reporting as reporting
from bcrbf.reporting import (
    CSV_COLUMNS,
    RunReport,
    _sci,
    emit,
    error_metrics,
    evaluation_axes,
    grid_label,
    parse_counts,
    run_example,
    run_sweep,
    sweep_shapes,
)

from oracles import error_maxima

MP60 = Precision("mp", 60)


def test_parse_counts():
    assert parse_counts("32") == (32,)
    assert parse_counts("10x20") == (10, 20)
    assert parse_counts("5X5x5") == (5, 5, 5)
    for bad in ("0x4", "axb", "4x4x4x4", ""):
        with pytest.raises(ValueError):
            parse_counts(bad)


def test_grid_label_round_trip():
    for counts in ((32,), (10, 20), (5, 5, 5)):
        assert parse_counts(grid_label(counts)) == counts


def test_sweep_shapes():
    assert sweep_shapes(0.5, 0.5, 1) == [0.5]
    shapes = sweep_shapes(0.01, 2.0, 30)
    assert len(shapes) == 30
    assert shapes == sorted(shapes)
    assert shapes[0] == 0.01
    assert shapes[-1] == 2.0
    assert sweep_shapes(0.01, 2, 3)[-1] == 2
    with pytest.raises(ValueError):
        sweep_shapes(-1, 2, 5)
    with pytest.raises(ValueError):
        sweep_shapes(0.1, 2, 0)


def test_emit_empty_and_single():
    header = ",".join(CSV_COLUMNS)
    assert emit([]) == header + "\n"
    rep = RunReport("ex1", "constrained", "32", 0.18, 100, 1.5e-6, 3.1e-7,
                    "1.0e+20", "2.0e+21", 0.25)
    text = emit([rep])
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == header
    assert lines[1].startswith("ex1,constrained,32,0.18,100,1.50000e-06,")


def test_markdown_round_trips_csv_numbers():
    reps = [
        RunReport("ex4", "constrained", "5x5", 0.01, 100, 8.1e-9, 3.0e-9,
                  "1.0e+60", "3.0e+61", 1.0),
        RunReport("ex4", "kansa", "5x5", 0.01, 100, 1.6e-4, 6.0e-5,
                  "nan", "5.0e+59", 2.0),
    ]
    csv_rows = [line.split(",") for line in emit(reps).strip().split("\n")[1:]]
    md_lines = emit(reps, "markdown").strip().split("\n")[2:]
    md_rows = [[c.strip() for c in line.strip("|").split("|")] for line in md_lines]
    assert csv_rows == md_rows


def test_sci_keeps_its_shape_beyond_the_float_range():
    """At mp:400 a value above or below the float range prints in %.5e's
    shape, from its own digits, not as inf or 0."""
    ctx = Precision("mp", 400)
    assert _sci(ctx.num(10) ** 350) == "1.00000e+350"
    assert _sci(-3 * ctx.num(10) ** -350) == "-3.00000e-350"
    assert _sci(ctx.num("1.234567e-320")) == "1.23457e-320"  # a float subnormal
    assert _sci(ctx.num("2.5e-5")) == f"{2.5e-5:.5e}" == "2.50000e-05"
    assert _sci(ctx.zero) == "0.00000e+00"
    assert _sci(ctx.num("inf")) == "inf"
    assert _sci(float("nan")) == "nan"


def test_evaluation_axes_at_the_context_digits():
    """The error-metric grid is built at the precision's digits, with no
    precision set anywhere: at mp:150 point 7 of [0, 1] is 7/200."""
    ctx = Precision("mp", 150)
    (axis,) = evaluation_axes(((0, 1),), ctx)
    assert axis[7] == ctx.num("0.035")


def test_run_example_fills_report():
    rep = run_example("ex1", "constrained", (8,), 0.8, MP60, eps=0.5)
    assert rep.status == "ok"
    assert rep.max_abs_err > 0 and rep.rel_err > 0
    assert rep.precision_digits == 60
    assert rep.grid == "8"
    assert rep.cond_A != "nan" and rep.cond_AL != "nan"


def test_run_example_validates_arguments():
    with pytest.raises(KeyError):
        run_example("ex99", "constrained", (8,), 1.0, FLOAT64)
    with pytest.raises(ValueError):
        run_example("ex1", "newton", (8,), 1.0, FLOAT64)
    with pytest.raises(ValueError):
        run_example("ex4", "constrained", (8,), 1.0, FLOAT64)  # wrong dim


def test_run_example_records_numerical_failure():
    # in binary64 the flat limit collapses: the kernel constraint degenerates
    # (or the system goes exactly singular), and the run is recorded, not raised
    rep = run_example("ex4", "constrained", (6, 6), 1e-9, FLOAT64)
    assert rep.status == "failed"
    assert "DegenerateConstraint" in rep.message or "SingularMatrix" in rep.message
    assert rep.max_abs_err != rep.max_abs_err  # nan
    row = emit([rep]).strip().split("\n")[1]
    assert "nan" in row


_EX6_COLLISION = (
    "NodeCollision: node 1.2 collides with functional support 1.2 in "
    "direction 1; perturb the count or switch grid scheme"
)


def test_ex6_12x24_uniform_interior_nodes_collide(capsys):
    """On 24 uniform interior nodes along y, one lands on the multipoint
    condition's support at y = 1.2: the run fails, recorded by name, and
    the CLI exits 3 with the message on stderr."""
    rep = run_example("ex6", "constrained", (12, 24), 0.01, Precision("mp", 30))
    assert rep.status == "failed"
    assert rep.message == _EX6_COLLISION
    code = main(["solve", "--example", "ex6", "--n", "12x24", "--shape", "0.01",
                 "--precision", "mp:30"])
    assert code == 3
    assert _EX6_COLLISION in capsys.readouterr().err


def test_run_sweep_single_step_matches_run_example():
    sweep = run_sweep("ex1", "constrained", (8,), 0.8, 0.8, 1, MP60, eps=0.5)
    single = run_example("ex1", "constrained", (8,), 0.8, MP60, eps=0.5)
    assert len(sweep) == 1
    assert sweep[0].max_abs_err == single.max_abs_err


def test_run_sweep_both_methods_sorted_with_failures_inline():
    reports = run_sweep("ex4", "both", (5, 5), 1e-9, 1.0, 3, FLOAT64)
    assert len(reports) == 6
    shapes = [r.shape for r in reports[::2]]
    assert shapes == sorted(shapes)
    assert {r.method for r in reports} == {"constrained", "kansa"}
    statuses = {r.status for r in reports}
    assert "failed" in statuses and "ok" in statuses


def test_run_sweep_parallel_jobs_match_serial():
    serial = run_sweep("ex1", "constrained", (6,), 0.5, 1.0, 2, FLOAT64, eps=0.5)
    parallel = run_sweep(
        "ex1", "constrained", (6,), 0.5, 1.0, 2, FLOAT64, eps=0.5, jobs=2
    )
    assert [r.max_abs_err for r in serial] == [r.max_abs_err for r in parallel]


def test_deterministic_output_modulo_seconds():
    def stable(reports):
        rows = emit(reports).strip().split("\n")
        return [",".join(r.split(",")[:-1]) for r in rows]

    a = run_sweep("ex1", "constrained", (6,), 0.3, 1.0, 3, MP60, eps=0.5)
    b = run_sweep("ex1", "constrained", (6,), 0.3, 1.0, 3, MP60, eps=0.5)
    assert stable(a) == stable(b)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweeps_rows_are_the_rows_of_its_runs_made_alone(jobs):
    """Runs in one process share the exact solution's grid values, runs in
    workers make their own: every field but seconds is the single run's."""

    def fields(r):
        return (*r.row()[:-1], r.status, r.message)

    sweep = run_sweep("ex4", "both", (5, 5), 0.05, 1.0, 3, MP60, jobs=jobs)
    alone = [
        run_example("ex4", m, (5, 5), c, MP60)
        for c in sweep_shapes(0.05, 1.0, 3)
        for m in ("constrained", "kansa")
    ]
    assert [fields(r) for r in sweep] == [fields(r) for r in alone]


def test_a_sweep_evaluates_its_exact_solution_on_the_grid_once(monkeypatch):
    """Once per run_sweep call, not once per run, and nothing outlives the
    call."""
    record = get_example("ex4")
    grids = []

    class Counted(ScalarField):
        dim = 2

        def __init__(self, field):
            self.field = field

        def partial_axes(self, orders, axes):
            grids.append(len(axes[0]))
            return self.field.partial_axes(orders, axes)

    def make(ctx, eps=None):
        problem = record.make(ctx, eps)
        return dataclasses.replace(problem, exact=Counted(problem.exact))

    reporting.ensure_self_checked("ex4")
    monkeypatch.setattr(
        reporting, "get_example", lambda ident: dataclasses.replace(record, make=make)
    )
    run_sweep("ex4", "both", (5, 5), 0.05, 1.0, 2, MP60)
    assert grids == [51]
    run_sweep("ex4", "both", (5, 5), 0.05, 1.0, 2, MP60)
    assert grids == [51, 51]
    run_example("ex4", "kansa", (5, 5), 0.5, MP60)
    assert grids == [51, 51, 51]


@pytest.mark.slow
@pytest.mark.parametrize(
    "ident,counts,c_constrained,c_kansa",
    [
        ("ex2", (7, 7), 1.0, 1.0),
        ("ex4", (5, 5), 0.01, 0.01),
        ("ex5", (5, 5), 0.4641, 0.5641),  # the published per-method shapes
        ("ex6", (5, 10), 0.01, 0.01),
    ],
)
def test_constrained_beats_baseline_on_first_table_rows(
    ident, counts, c_constrained, c_kansa
):
    ctx = Precision("mp", 100)
    c_rep = run_example(ident, "constrained", counts, c_constrained, ctx)
    k_rep = run_example(ident, "kansa", counts, c_kansa, ctx)
    assert c_rep.status == "ok" and k_rep.status == "ok"
    assert c_rep.max_abs_err < k_rep.max_abs_err
    if ident == "ex4":
        assert c_rep.max_abs_err < 1e-7  # published value 8.12108e-9


def test_run_example_ex1_published_row():
    rep = run_example(
        "ex1", "constrained", (32,), "0.18", Precision("mp", 150), eps=0.5
    )
    assert rep.status == "ok"
    # published 1.677759019e-18; node placement differs, order of magnitude holds
    assert 1e-21 <= rep.max_abs_err <= 1e-15


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for ident in ("ex1", "ex4", "ex7"):
        assert ident in out
    assert "robin 1 -0.03125 @0 = 1" in out
    assert "multipoint @0 : 0.25 @0.6, 0.5 @1.2, 0.25 @1.8" in out


def test_cli_solve_to_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main([
        "solve", "--example", "ex1", "--n", "8", "--eps", "0.5",
        "--shape", "0.8", "--method", "constrained",
        "--precision", "mp:60", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))
    assert "ex1,constrained,8,0.8,60," in text


def test_cli_sweep_markdown(capsys):
    code = main([
        "sweep", "--example", "ex1", "--n", "6", "--eps", "0.5",
        "--shape-min", "0.5", "--shape-max", "1.0", "--steps", "2",
        "--method", "constrained", "--precision", "float64",
        "--format", "markdown",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("| example |")


def test_cli_bad_arguments_exit_2(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "ex99", "--n", "8", "--shape", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "ex1", "--n", "5x5", "--shape", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "ex4", "--n", "5x5", "--shape", "1.0",
              "--eps", "0.5"])
    assert exc.value.code == 2
    # an --out that cannot be opened for writing (a directory, a missing
    # parent) exits 2 naming the path, before any run; so does a job count
    # below one
    runs = []
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: runs.append(a) or [])
    for out in (tmp_path, tmp_path / "no" / "such" / "x.csv"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--example", "ex1", "--n", "8", "--shape", "1.0",
                  "--precision", "float64", "--out", str(out)])
        assert exc.value.code == 2
        assert str(out) in capsys.readouterr().err
    for jobs in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--example", "ex1", "--n", "8", "--shape-min", "0.1",
                  "--shape-max", "1", "--jobs", jobs, "--precision", "float64"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert runs == []


def test_cli_rejects_nonpositive_shape_and_steps(capsys):
    """A shape parameter <= 0 or fewer than one sweep step is a bad
    argument: exit code 2 and a usage message, no traceback."""
    for shape in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--example", "ex1", "--n", "8", "--shape", shape,
                  "--precision", "float64"])
        assert exc.value.code == 2
        assert "--shape" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--example", "ex1", "--n", "8", "--shape-min", "0.1",
              "--shape-max", "1", "--steps", "0", "--precision", "float64"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_cli_rejects_nonfinite_or_nonpositive_numbers(capsys):
    """--eps, --shape, --shape-min and --shape-max take finite numbers > 0
    only; anything else is a bad argument (exit 2, no traceback)."""
    solve = ["solve", "--example", "ex1", "--n", "8", "--precision", "float64"]
    sweep = ["sweep", "--example", "ex1", "--n", "8", "--precision", "float64"]
    cases = [
        *(solve + ["--shape", "1", "--eps", v] for v in ("0", "-0.5", "nan", "inf")),
        *(solve + ["--shape", v] for v in ("nan", "inf", "1e400", "one")),
        sweep + ["--shape-min", "nan", "--shape-max", "1"],
        sweep + ["--shape-min", "0.1", "--shape-max", "inf"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "finite number > 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(sweep + ["--shape-min", "1", "--shape-max", "0.5"])
    assert exc.value.code == 2


def test_error_metrics_rejects_nonfinite_values(capsys):
    """A nan on either side of the error is a failed run, not an error of
    zero: at eps = 1e-320 ex1's exact solution is nan in float64."""
    rep = run_example("ex1", "constrained", (8,), 1.0, FLOAT64, eps=1e-320)
    assert rep.status == "failed"
    assert "exact solution is not finite" in rep.message
    code = main(["solve", "--example", "ex1", "--n", "8", "--eps", "1e-320",
                 "--shape", "1", "--precision", "float64"])
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    problem = get_example("ex1").make(FLOAT64, 0.5)
    sol = solve(problem, (8,), 1.0, FLOAT64)
    broken = Solution(FLOAT64, sol.grid, sol.kernels, [math.nan] * 8, sol.hom)
    with pytest.raises(BcrbfError, match="the solution is not finite"):
        error_metrics(broken, problem.exact, FLOAT64)


class _GridValues:
    """A solution or an exact field with the given values on any grid."""

    def __init__(self, values):
        self.values = values
        self.grid = SimpleNamespace(domain=((0, 1),))

    def evaluate_axes(self, axes):
        return self.values

    def partial_axes(self, orders, axes):
        return self.values


def _numbers(ctx):
    """Numbers of ``ctx`` of either sign: floats, or mpfs of short or long
    mantissas, rounded to its digits or held exact with up to 8 bits more."""
    if ctx.mode == "float64":
        return st.floats(-1e3, 1e3)
    prec = ctx.mp.prec
    long = st.integers(2**prec, 2 ** (prec + 8))
    return st.builds(
        lambda m, e, exact: ctx.mp.make_mpf(_round(m, e, 0 if exact else prec)),
        st.one_of(st.integers(-8, 8), long, long.map(operator.neg)),
        st.integers(-prec - 40, 40),
        st.booleans(),
    )


MP20 = Precision("mp", 20)


@st.composite
def _error_cases(draw):
    """(ctx, solution values, exact values): ties in the maximum (values
    drawn from a small pool), both signs, an all-zero exact solution, a
    value at other digits and a value that is not finite, on either side."""
    ctx = draw(st.sampled_from([MP60, MP20, FLOAT64]))
    number = _numbers(ctx)
    pool = draw(st.lists(number, min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), number, st.just(ctx.zero))
    n = draw(st.integers(1, 12))
    approx = draw(st.lists(entry, min_size=n, max_size=n))
    values = draw(st.lists(entry, min_size=n, max_size=n))
    twist = draw(st.sampled_from([None, "zero exact", "other digits", "special"]))
    if twist == "zero exact":
        values = [ctx.zero] * n
    elif twist:
        if twist == "other digits":
            odd = draw(_numbers(Precision("mp", 30) if ctx.mode == "mp" else MP60))
        else:
            inf = math.inf if ctx.mode == "float64" else ctx.mp.inf
            odd = draw(st.sampled_from([inf, -inf, inf - inf]))
        side = draw(st.sampled_from([approx, values]))
        side[draw(st.integers(0, n - 1))] = odd
    return ctx, approx, values


@settings(max_examples=300, deadline=None, database=None)
@given(case=_error_cases())
# an exact value held with 3 bits more than its context's enters max |u|
# rounded, as abs rounds it
@example(case=(MP20, [MP20.zero], [MP20.mp.make_mpf(_round(2**73 + 5, 0))]))
def test_error_metrics_is_the_number_object_oracle(case):
    """The figures on raw tuples are those of the number objects bit for
    bit, and the same side is named when a value is not finite."""
    ctx, approx, values = case

    def bits(v):
        return type(v), v.hex() if isinstance(v, float) else v._mpf_

    try:
        want = error_maxima(approx, values, ctx)
    except BcrbfError as exc:
        with pytest.raises(BcrbfError, match=f"^{re.escape(str(exc))}$"):
            error_metrics(_GridValues(approx), _GridValues(values), ctx)
        return
    got = error_metrics(_GridValues(approx), _GridValues(values), ctx)
    assert [bits(v) for v in got] == [bits(v) for v in want]


@pytest.mark.parametrize("special", ["nan", "inf", "-inf"])
def test_error_metrics_names_the_side_of_an_mp_special(special):
    value = MP60.mp.mpf(special)
    ok = [MP60.one] * 4
    for approx, values, side in (
        ([*ok[:3], value], ok, "the solution"),
        (ok, [value, *ok[:3]], "the exact solution"),
        ([value, *ok[:3]], [*ok[:3], value], "the solution"),
    ):
        with pytest.raises(BcrbfError, match=f"^{side} is not finite on the"):
            error_metrics(_GridValues(approx), _GridValues(values), MP60)


def test_condition_estimates_survive_a_failed_error_metric(capsys):
    """The solve succeeds and the error metric fails: the row keeps the
    condition estimates of the solve, and only the errors read nan."""
    problem = get_example("ex1").make(FLOAT64, 1e-320)
    sol = solve(problem, (8,), 1.0, FLOAT64)
    rep = run_example("ex1", "constrained", (8,), 1.0, FLOAT64, eps=1e-320)
    assert rep.status == "failed"
    assert rep.cond_A == _sci(sol.diagnostics["cond_A"])
    assert rep.cond_AL == _sci(sol.diagnostics["cond_AL"])
    assert math.isnan(rep.max_abs_err) and math.isnan(rep.rel_err)
    code = main(["solve", "--example", "ex1", "--n", "8", "--eps", "1e-320",
                 "--shape", "1", "--precision", "float64"])
    assert code == 3
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[5:9] == ["nan", "nan", rep.cond_A, rep.cond_AL]
    assert "nan" not in rep.cond_A + rep.cond_AL


def test_cli_numerical_failure_exit_3(capsys):
    code = main([
        "solve", "--example", "ex4", "--n", "6x6", "--shape", "1e-9",
        "--method", "constrained", "--precision", "float64",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "DegenerateConstraint" in err or "SingularMatrix" in err


def test_cli_env_precision(monkeypatch, capsys):
    monkeypatch.setenv("BCRBF_PRECISION", "mp:60")
    code = main([
        "solve", "--example", "ex1", "--n", "6", "--eps", "0.5",
        "--shape", "0.8", "--method", "constrained",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert ",60," in out


@pytest.mark.parametrize("value", ["garbage", "mp:3"])
def test_cli_rejects_a_bad_env_precision(monkeypatch, capsys, value):
    """A bad BCRBF_PRECISION is a bad argument: exit 2, no traceback."""
    monkeypatch.setenv("BCRBF_PRECISION", value)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--example", "ex1", "--n", "8", "--shape", "1"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_cli_solve_both_methods_is_one_row_each(capsys):
    code = main([
        "solve", "--example", "ex1", "--n", "8", "--eps", "0.5", "--shape", "1",
        "--method", "both", "--precision", "float64",
    ])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [row[:4] for row in rows] == [
        ["ex1", "constrained", "8", "1"], ["ex1", "kansa", "8", "1"],
    ]


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "bcrbf.cli", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ex1" in proc.stdout
