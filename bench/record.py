"""Record the benchmark: seeded perfbench runs of one or more checkouts,
summarized into one JSON file.

    python3 bench/record.py --seeds 10 --seconds 32 --out BENCH_1.json \\
        --checkout parent=../bcrbf-parent --checkout change=.

Each checkout's own ``perfbench/run.py`` runs unchanged, in a subprocess
per (workload, seed, checkout), with ``--trace 0``, on every workload that
``BENCHMARK.json`` names.  For every seed the
checkouts take turns, and the one that goes first alternates from seed to
seed, so that drift of the machine's speed falls on both alike.  The file
holds, per checkout and workload, the median, quartiles and sample count
of every end-to-end metric that ``BENCHMARK.json`` names, with the
samples themselves, and the conditions each checkout's runs report
(Python version, mpmath backend, ``nproc``, git SHA), with whether the
checkout's tree differs from that SHA.  With two checkouts it also
counts, per workload and metric, the seeds on which the second reads
better than the first, worse, or the same.

The command exits with 1 when a run fails, reports a failed check or
lacks one of the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--checkout", action="append", metavar="LABEL=PATH",
                   help="a checkout to run (default: this one, as 'change')")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_1.json")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be at least 1")
    checkouts = {}
    for item in args.checkout or [f"change={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            p.error(f"--checkout needs a distinct LABEL=PATH, got {item!r}")
        path = Path(path).resolve()
        if not (path / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {path}")
        checkouts[label] = path
    args.checkout = checkouts
    return args


def run_once(checkout, workload, seed, seconds):
    """(conditions, result) of one perfbench run, or None on a failure."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        print(proc.stderr, file=sys.stderr)
        return None
    prefix = "# conditions "
    conditions = next((json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix)), {})
    return conditions, json.loads(lines[-1])


def worktree(checkout):
    """'clean' or 'modified' against the checkout's git HEAD, None without
    git: a modified tree's runs are not those of its SHA."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    if proc.returncode:
        return None
    return "modified" if proc.stdout.strip() else "clean"


def summary(samples):
    """Median, quartiles and count of a metric's samples."""
    q1, q3 = (statistics.quantiles(samples, n=4, method="inclusive")[::2]
              if len(samples) > 1 else (samples[0], samples[0]))
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def compare(first, second, better):
    """Seeds on which ``second`` reads better than ``first``, worse, or the
    same, for a metric whose ``better`` direction is given."""
    sign = 1 if better == "lower" else -1
    out = {"better": 0, "worse": 0, "same": 0}
    for a, b in zip(first, second):
        out["better" if sign * (a - b) > 0 else "worse" if sign * (a - b) < 0 else "same"] += 1
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    labels = list(args.checkout)
    samples = {label: {w: {m: [] for m in metrics} for w in workloads} for label in labels}
    conditions = {label: None for label in labels}
    failed = {label: {w: 0 for w in workloads} for label in labels}
    problems = 0
    for workload in workloads:
        for seed in range(1, args.seeds + 1):
            order = labels if seed % 2 else labels[::-1]
            for label in order:
                got = run_once(args.checkout[label], workload, seed, seconds)
                missing = sorted(set(metrics) - set(got[1]["metrics"] if got else ()))
                if got is None or missing or not got[1]["correct"]:
                    problems += 1
                    print(f"{label} {workload} seed {seed}: run failed, failed a check "
                          f"or lacks {missing}", file=sys.stderr)
                if got is None:
                    continue
                cond, result = got
                if conditions[label] is None:
                    keys = ("python", "mpmath", "mpmath_backend", "nproc", "git_sha")
                    conditions[label] = {k: cond.get(k) for k in keys}
                    conditions[label]["worktree"] = worktree(args.checkout[label])
                failed[label][workload] += result["failed"]
                for m in metrics:
                    if m in result["metrics"]:
                        samples[label][workload][m].append(result["metrics"][m]["value"])
                print(f"{label} {workload} seed {seed} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "checkouts": {
            label: {
                "conditions": conditions[label],
                "workloads": {
                    w: {"failed": failed[label][w],
                        "metrics": {m: summary(v) for m, v in samples[label][w].items() if v}}
                    for w in workloads
                },
            }
            for label in labels
        },
    }
    if len(labels) == 2:
        first, second = labels
        record["pairs"] = {
            "first": first, "second": second,
            "workloads": {
                w: {m: compare(samples[first][w][m], samples[second][w][m], better)
                    for m, better in metrics.items()
                    if len(samples[first][w][m]) == len(samples[second][w][m]) == args.seeds}
                for w in workloads
            },
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
