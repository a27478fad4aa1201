#!/usr/bin/env python3
"""The repository benchmark: label -> train -> serve, timed from outside.

    python3 perfbench/run.py --workload <label|train|serve_small|serve_bulk>
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the src/ libraries plus the perfbench executable) into
.bench_build/perfbench; later runs rebuild only what changed. Every file a
workload writes is a memory-backed file (memfd) owned by this process, so no
run touches a disk and nothing is left behind. Worker threads are pinned
with AIRCH_THREADS=2.

The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Lines before it starting with "#" describe the run. See
perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# AIRCH_THREADS per workload. train runs single-threaded: at 2 threads every
# large matmul of a training step forks and joins its own workers, so each
# step waits for the slower of two freshly woken threads, and on a shared VM
# that wake-up time moves with the host's load far more than the work does.
THREADS = {"label": "2", "train": "1", "serve_prep": "2", "serve_small": "2", "serve_bulk": "2"}
# Time limits: the first build, then everything a run does after it.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
FILES = {"label": 6, "train": 3, "serve_small": 3, "serve_bulk": 3}


def build():
    """Configures (once) and builds the perfbench executable; returns its path."""
    build_dir = ROOT / ".bench_build" / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def run_perfbench(exe, workload, seed, seconds, trace, fds, deadline):
    env = dict(os.environ, AIRCH_THREADS=THREADS[workload])
    cmd = [str(exe), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--files", ",".join(f"/proc/self/fd/{fd}" for fd in fds)]
    proc = subprocess.run(cmd, env=env, pass_fds=fds, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    fds = [os.memfd_create(f"perfbench-{i}") for i in range(FILES[args.workload])]
    try:
        if args.workload in metrics.SERVE_WORKLOADS:
            # Untimed: trains the served models in a process of their own.
            run_perfbench(exe, "serve_prep", args.seed, args.seconds, False, fds, deadline)
        raw = run_perfbench(exe, args.workload, args.seed, args.seconds, args.trace, fds, deadline)
    finally:
        for fd in fds:
            os.close(fd)
    raw["spans"] = metrics.parse_spans(raw["spans"])

    e2e, notes = metrics.end_to_end(args.workload, raw)
    for note in notes:
        print("#", note)
    for error in raw["errors"]:
        print("# check failed:", error)
    if args.trace:
        values, units = metrics.per_layer(args.workload, raw), metrics.PER_LAYER
        if args.workload in metrics.SERVE_WORKLOADS:
            by_case = metrics.recommend_p50_us_by_case(raw["spans"])
            print("# recommend_batch p50 by case (us):",
                  ", ".join(f"case{c} {us:.1f}" for c, us in by_case.items()))
    else:
        values, units = e2e, metrics.END_TO_END
    line = metrics.result_line(raw["attempted"], raw["failed"], values, units)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
