"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload mc_poisson --seed 1010 --seconds 50 --trace 0

With --trace 0 it reports the end-to-end metrics; with --trace 1 it spends
the first half of the time untraced and the second half traced, and
reports the per-layer metrics plus the tracing overhead.  Workloads,
metrics and their meaning are listed in perfbench/README.md.

Each repetition is timed alone; its outputs are checked after the clock
stops.  A repetition that raises, or whose check fails, counts its
operations as failed.  A human-readable table goes to stderr and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import env

SETUP_PROBES = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are built."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def one_rep(wl, k: int, tally: dict, tracer=None):
    """Run and check repetition k; (wall, cpu) seconds, or None if it raised."""
    tally["attempted"] += wl.ops_per_rep
    if tracer is not None:
        tracer.run = k
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer:
                out = wl.run(k)
        else:
            out = wl.run(k)
    except Exception:
        traceback.print_exc()
        tally["failed"] += wl.ops_per_rep
        return None
    timing = time.perf_counter() - t0, time.process_time() - c0
    tally["failed"] += wl.check(k, out)
    return timing


def timed_reps(wl, seconds: float, first_k: int, tally: dict, tracer=None):
    """Run repetitions until `seconds` have passed.

    Returns per-part lists of (wall, cpu) seconds, indexed by k % wl.parts,
    and the next repetition index.
    """
    parts = [[] for _ in range(wl.parts)]
    k = first_k
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        timing = one_rep(wl, k, tally, tracer)
        if timing is not None:
            parts[k % wl.parts].append(timing)
        k += 1
    return parts, k


def per_run(parts, stat, which: int) -> float:
    """stat over the repetitions of each part, summed over the parts."""
    return sum(stat([t[which] for t in part]) for part in parts)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    env.prepare()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    cls = workloads.WORKLOADS[args.workload]
    out_dir = env.ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)

    if args.setup_only:
        wl = cls(seed, out_dir)
        print("ready", flush=True)
        wl.close()
        return 0

    setup = [] if args.trace else [probe_setup(args.workload, seed) for _ in range(SETUP_PROBES)]
    tally = {"attempted": 0, "failed": 0}
    wl = cls(seed, out_dir)
    try:
        # one untimed repetition of each part first, so lazy set-up and
        # caches are warm
        for k in range(wl.parts):
            one_rep(wl, k, tally)
        plain_s = args.seconds / 2 if args.trace else args.seconds
        plain, k = timed_reps(wl, plain_s, wl.parts, tally)
        traced = None
        if args.trace:
            tr = tracing.Tracer()
            traced, _ = timed_reps(wl, args.seconds - plain_s, k, tally, tracer=tr)
            tr.write(out_dir / f"trace-{args.workload}-seed{seed}.jsonl")
    finally:
        wl.close()
    if not all(plain) or (traced is not None and not all(traced)):
        print("a part of the workload completed no repetition", file=sys.stderr)
        return 1

    # Best of N: repetitions of a part do the same work, and a shared machine
    # slows whole stretches of a run; the slow repetitions measure the
    # neighbours' load; between runs the median moved up to 2.5 times as much
    # as the minimum (README.md).
    run_s = per_run(plain, min, 0)
    if args.trace:
        # per-layer means are per workload run, i.e. per wl.parts repetitions
        reps = sum(map(len, traced)) / wl.parts
        metrics = tracing.layer_metrics(tr, reps)
        metrics["trace.rep_s"] = (per_run(traced, statistics.mean, 0), "s")
        metrics["trace_overhead_frac"] = (per_run(traced, min, 0) / run_s - 1.0, "ratio")
        if tr.absent:
            print("absent wrap targets: " + ", ".join(tr.absent), file=sys.stderr)
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "run_cpu_s": (per_run(plain, min, 1), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (wl.ops_per_rep * wl.parts / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        n = min(map(len, plain))
        tail = tracing.tail_percentile(n)
        tail_note = (f", p{tail:g} {per_run(plain, lambda v: np.percentile(v, tail), 0):.4g} s"
                     if tail else "")
        print(f"{args.workload} seed {seed}: {sum(map(len, plain))} timed repetitions, "
              f"wall time min {run_s:.4g} s, median {per_run(plain, statistics.median, 0):.4g} s"
              f"{tail_note}; {len(setup)} set-up probes", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"  attempted {tally['attempted']}, failed {tally['failed']}", file=sys.stderr)
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
