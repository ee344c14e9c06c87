"""Benchmark of bcrbf: runs one workload in one process and one thread.

    python3 perfbench/run.py --workload cube3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cube3d --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it alternates plain and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result as one JSON object; the result and, for traced runs,
the spans as JSON lines are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up samples taken before the first pass and after each one: the
# machine's speed drifts over seconds, so samples spread over the run
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the harness's checks on a tiny configuration")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def git_sha():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(args):
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def setup_seconds(workload, n):
    """Wall times of ``n`` set-ups, each in a fresh interpreter: start
    Python, import bcrbf, build the workload's problems, run the
    self-check."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return samples


def run(args, workload):
    import mpmath
    import spans as tracing
    import workloads

    if args.trace:
        tracer = tracing.Tracer()
        capture = workloads.Capture()
        instruments = tracing.Instruments(tracer)
        instruments.install()
        workload.setup()
        instruments.uninstall()
    else:
        setup_samples = setup_seconds(workload.name, SETUP_SAMPLES)
        capture = workloads.Capture()
        workload.setup()

    inputs = workload.inputs(args.seed)
    print(f"# {workload.name} {workload.describe(inputs)}", flush=True)
    plain_walls, cpus, traced_walls, traced_runs = [], [], [], []
    attempted = failed = 0
    worst_digits = math.inf
    start = time.perf_counter()
    for index in range(1_000_000):
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.run = f"pass{index}"
            traced_runs.append(tracer.run)
            instruments.install()
        t0, c0 = time.perf_counter(), time.process_time()
        outcomes = workload.run_pass(inputs, capture)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            instruments.uninstall()
            tracer.run = "checks"
            traced_walls.append(wall)
        else:
            plain_walls.append(wall)
            cpus.append(cpu)
        workload.check(outcomes, inputs, random.Random(f"checks:{args.seed}"))
        for o in outcomes:
            attempted += 1
            failed += o.failed
            if o.method == "constrained" and o.status == "ok":
                worst_digits = min(worst_digits, -math.log10(max(o.rel_err, 1e-300)))
            note = "; ".join(o.problems) or o.message or "ok"
            found = "" if o.ref_err is None else f" seeded_err={mpmath.nstr(o.ref_err, 3)}"
            if o.boundary is not None:
                bc, floor = o.boundary
                found += f" bc_residual={mpmath.nstr(bc, 3)} floor={mpmath.nstr(floor, 3)}"
            print(f"# pass {index} {'traced ' if traced else ''}{o.label} {o.method} "
                  f"c={o.shape:.6g} rel_err={o.rel_err:.4e}{found} -> {note}", flush=True)
        print(f"# pass {index} wall {wall:.3f} s cpu {cpu:.3f} s", flush=True)
        outcomes = None  # the next pass must not run with this one's solutions alive
        if not args.trace:
            setup_samples += setup_seconds(workload.name, SETUP_SAMPLES)
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds and (traced_walls or not args.trace):
            break

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.trace:
        layers = tracing.layer_metrics(tracer, traced_runs)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(plain_walls))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(plain_walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "err_digits": {"value": worst_digits, "unit": "digits"},
        }
    result["metrics"] = metrics
    return result, (tracer if args.trace else None)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_max") or metric.endswith("_min"):
        return "digits"
    return "count"


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "bcrbf" / "__init__.py").is_file():
        print(f"bcrbf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.self_test:
        import selftest

        return selftest.main()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload.setup()
        return 0

    cond = conditions(args)
    print("# conditions " + json.dumps(cond), flush=True)
    result, tracer = run(args, workload)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"conditions": cond, **result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.jsonl", {"conditions": cond})
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
