#!/usr/bin/env python3
"""Run one benchmark workload, check its answers and print its metrics.

    python3 perfbench/run.py --workload cold_n1 --seed 1 --seconds 12 --trace 0

Run from the repository root (the program is imported from ``src/``).  The
run sets up the workload several times (set-up time is the median plus the
one-off tracking prime), then times rounds of it until ``--seconds`` have
passed (at least the workload's minimum number of rounds), then checks every
answer against an IPM reference outside the timed region.

With ``--trace 0`` nothing in the program is patched and the metrics are the
end-to-end ones; with ``--trace 1`` every layer listed in
``perfbench/layers.py`` is wrapped in spans and the metrics are the
per-layer ones (the span tree is written to ``.perfbench/traces/``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every answer passed its checks and no deterministic counter drifted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where runs keep IPM references, the counter ledger and span trees.
STATE_DIR = ROOT / ".perfbench"
SETUP_REPS = 20
#: Thread pools pinned to one thread in this process and its pool workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "period_p50_s": "s", "period_p90_s": "s",
    "max_obj_gap": "frac", "max_violation": "pu", "solved_frac": "frac",
    "peak_rss_mb": "MB",
}


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with q % of samples at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie above their nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q * n / 100))


def layer_unit(name: str) -> str:
    if name == "tron.s" or name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("occupancy"):
        return "frac"
    return "count"


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's Python source."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"),
                        *(root / "perfbench").rglob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # Linux reports KiB


def counter_drift(per_round: list[dict], store, name: str) -> list[str]:
    """Deterministic counters that differ between rounds or from earlier runs.

    ``store`` keeps, under ``name``, the counters that earlier runs of the
    same source, workload and seed saw; this run's first round joins them.
    """
    first = per_round[0]
    drift = [f"round {r}: {key} {counts[key]} != {first[key]}"
             for r, counts in enumerate(per_round[1:], start=1)
             for key in first if counts.get(key) != first[key]]
    earlier = store.recall(name) or {}
    drift += [f"{key} {first[key]} != {earlier[key]} in an earlier run"
              for key in first if key in earlier and earlier[key] != first[key]]
    store.record(name, {**earlier, **first})
    return drift


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_n1", "track_warm", "track_pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # before NumPy loads its BLAS
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy
    import repro
    from perfbench import layers, workloads
    from perfbench.tracer import Tracer

    digest = source_digest(ROOT)
    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    with layers.instrument(tracer) if args.trace else contextlib.nullcontext():
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            with tracer.span("setup"):
                workload.setup()
            setup_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        with tracer.span("prime"):
            workload.prime()
        prime_s = time.perf_counter() - start

        rounds, counts = [], []
        begin = time.perf_counter()
        while (len(rounds) < workload.min_rounds
               or time.perf_counter() - begin < args.seconds):
            before = layers.snapshot(tracer)
            rounds.append(workload.run_round())
            counts.append({**layers.delta(layers.snapshot(tracer), before),
                           **rounds[-1].counters})
        peak_mb = peak_rss_mb()

    store = workloads.Store(STATE_DIR / digest[:16])
    check = workload.check(rounds, store)
    measured = (layers.DETERMINISTIC if args.trace else rounds[0].counters)
    drift = counter_drift(
        [{key: c.get(key, 0) for key in layers.DETERMINISTIC if key in measured}
         for c in counts],
        store, f"counters-{args.workload}-seed{args.seed}")

    walls = [r.wall_s for r in rounds]
    latencies = [x for r in rounds for x in r.latencies]
    if samples_beyond(len(latencies), 90) < 10:
        print(f"perfbench: period_p90_s rests on {len(latencies)} samples "
              f"({samples_beyond(len(latencies), 90)} beyond it)", file=sys.stderr)
    tree_errors = tracer.tree_errors()
    if args.trace:
        period_wall = sum(latencies) / len(rounds) if workload.periodic else 0.0
        metrics = layers.layer_metrics(tracer, counts, SETUP_REPS, period_wall)
        metrics["trace.solve_s"] = statistics.median(walls)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) + prime_s,
            "solve_s": statistics.median(walls),
            "period_p50_s": percentile(latencies, 50),
            "period_p90_s": percentile(latencies, 90),
            "max_obj_gap": check.max_gap,
            "max_violation": check.max_violation,
            "solved_frac": 1.0 - check.failed / check.attempted,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "latency_samples": len(latencies),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(ROOT),
        "source_sha256": digest, "kernel_backend": repro.get_backend(None).name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    if args.trace:
        workloads.write_json(
            STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}.json",
            {"stamp": stamp, "metrics": metrics, "tree": tracer.tree(),
             "layer_map": [{"metrics": list(names), "moves": target, "on": where}
                           for names, target, where in layers.LAYER_MAP]})
    for problem in check.problems[:20] + drift + tree_errors:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = check.failed == 0 and not drift and not tree_errors
    for name, value in metrics.items():
        print(f"{name:<32} {value:>16.6g} {units[name]}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": check.attempted, "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
