"""Command-line interface.

    bcrbf solve --example ex1 --n 32 --eps 0.03125 --shape 0.18 \
        --method constrained --precision mp:100 --out run.csv
    bcrbf sweep --example ex3 --n 10x6 --shape-min 0.01 --shape-max 2 \
        --steps 30 --method both --jobs 4 --format csv
    bcrbf list

Grid configs are N, NxM or NxMxK.  Precision is ``float64``, ``mp`` or
``mp:D``; the BCRBF_PRECISION environment variable overrides the default
(mp:100).  Exit codes: 0 success, 2 bad arguments, 3 numerical failure.

Boundary conditions print in the plain-text functional grammar, e.g.
``robin 1 -0.03125 @0 = 1`` or ``multipoint @0 : 0.25 @0.6, 0.5 @1.2,
0.25 @1.8``; see ``functionals.parse_functional`` for the inverse.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .benchmarks import EXAMPLES, get_example
from .functionals import format_functional
from .numerics import FLOAT64, Precision
from .reporting import emit, grid_label, parse_counts, run_sweep


def _precision_arg(text):
    try:
        return Precision.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _counts_arg(text):
    try:
        return parse_counts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_arg(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return value


def _example_arg(text):
    try:
        get_example(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc.args[0]))
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bcrbf",
        description="Boundary-condition-constrained RBF pseudospectral solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--example", required=True, type=_example_arg)
        p.add_argument("--n", required=True, type=_counts_arg, metavar="NxM")
        p.add_argument("--eps", type=_positive_arg, default=None,
                       help="perturbation parameter (ex1 only)")
        # argparse runs a string default through type=: a bad value exits 2
        p.add_argument("--precision", type=_precision_arg,
                       default=os.environ.get("BCRBF_PRECISION", "mp:100"),
                       metavar="float64|mp:D")
        p.add_argument("--mode", choices=("direct", "ps"), default="direct",
                       help="constrained solver route")
        p.add_argument("--scheme",
                       choices=("uniform-interior", "chebyshev-interior"),
                       default="uniform-interior",
                       help="interior node placement (constrained method)")
        p.add_argument("--out", default=None, help="write table to this file")
        p.add_argument("--format", choices=("csv", "markdown"), default="csv")

    ps = sub.add_parser("solve", help="run one benchmark configuration")
    add_common(ps)
    ps.add_argument("--shape", type=_positive_arg, required=True)
    ps.add_argument("--method", choices=("constrained", "kansa", "both"),
                    default="constrained")

    pw = sub.add_parser("sweep", help="sweep the shape parameter")
    add_common(pw)
    pw.add_argument("--shape-min", type=_positive_arg, required=True)
    pw.add_argument("--shape-max", type=_positive_arg, required=True)
    pw.add_argument("--steps", type=int, default=20)
    pw.add_argument("--method", choices=("constrained", "kansa", "both"),
                    default="both")
    pw.add_argument("--jobs", type=int, default=1)

    sub.add_parser("list", help="print the example registry")
    return parser


def _do_list():
    lines = []
    for ident in sorted(EXAMPLES):
        rec = EXAMPLES[ident]
        lines.append(f"{ident}: {rec.title}")
        lines.append(
            f"  default shape c = {rec.default_shape:g} "
            f"(baseline c = {rec.kansa_shape:g}), error metric: {rec.metric}"
        )
        problem = rec.make(FLOAT64)
        for d, pair in enumerate(problem.bcs):
            for bc in pair:
                lines.append(f"  bc[{d}]: {format_functional(bc.functional)}")
        for row in rec.table:
            eps = f" eps={row.eps:g}" if row.eps is not None else ""
            lines.append(
                f"  table {grid_label(row.counts)}{eps}: "
                f"constrained {row.constrained:.6g}, baseline {row.kansa:.6g}"
            )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(_do_list())
        return 0

    record = get_example(args.example)
    if len(args.n) != record.dim:
        parser.error(
            f"{args.example} is {record.dim}-dimensional; --n {grid_label(args.n)} is not"
        )
    if args.eps is not None and not record.has_eps:
        parser.error(f"{args.example} takes no --eps parameter")

    if args.command == "solve":
        # a one-step sweep is the one shape, a row per method
        shapes, jobs = (args.shape, args.shape, 1), 1
    else:
        if args.shape_max < args.shape_min:
            parser.error("need --shape-min <= --shape-max")
        if args.steps < 1:
            parser.error("need --steps >= 1")
        if args.jobs < 1:
            parser.error("need --jobs >= 1")
        shapes, jobs = (args.shape_min, args.shape_max, args.steps), args.jobs
    # a path that cannot be written is a bad argument, found before the sweep
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        parser.error(f"cannot write --out {args.out!r}: {exc.strerror}")
    try:
        reports = run_sweep(
            args.example, args.method, args.n, *shapes, args.precision,
            eps=args.eps, mode=args.mode, scheme=args.scheme, jobs=jobs,
        )
        out.write(emit(reports, args.format))
    finally:
        if out is not sys.stdout:
            out.close()

    failed = [r for r in reports if r.status != "ok"]
    for r in failed:
        sys.stderr.write(
            f"bcrbf: {r.example} {r.method} {r.grid} c={r.shape:g}: {r.message}\n"
        )
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
