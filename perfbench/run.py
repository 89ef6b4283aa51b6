#!/usr/bin/env python3
"""Build the flowsched benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a flowsched checkout.  It builds
perfbench/main.exe with dune into .bench_build (release profile, no shared
cache), runs the workload for S seconds, and passes on the program's
output: a table of every metric with its unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
--trace 1 reports the per-layer metrics of a traced run instead of the
end-to-end ones.  --seed held-out runs the workload's held-out seed, kept
for checking a claimed gain on inputs not used while writing it.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("serve-steady", "serve-backlog", "sweep-paper", "offline-solve")

# One seed per workload that tuning never uses.
HELD_OUT = {
    "serve-steady": 7919,
    "serve-backlog": 7927,
    "sweep-paper": 7933,
    "offline-solve": 7937,
}

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
CHECK_EVERY_S = 0.5
PROBE_SPINS = 20000
FAST_WITHIN = 1.2


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, help="an integer, or held-out")
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny shrinks every input, for the benchmark's own test")
    args = ap.parse_args()
    seed = HELD_OUT[args.workload] if args.seed == "held-out" else int(args.seed)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("run from the root of a flowsched checkout (no dune-project here)")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/main.exe"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    out_dir = os.path.join("perfbench", "_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-%d.tsv" % (args.workload, seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--state", os.path.join("perfbench", "_state")]
    if args.trace == 1:
        cmd += ["--spans", spans]
    sys.exit(run_on_fast_cpu(cmd))


def probe_speed(cpu):
    """Seconds a fixed spin loop takes on cpu (this process moves there)."""
    os.sched_setaffinity(0, {cpu})
    t0 = time.perf_counter()
    x = 0
    for k in range(PROBE_SPINS):
        x += k * k
    return time.perf_counter() - t0


def run_on_fast_cpu(cmd):
    """Run cmd, keeping it on a CPU that is in its fast phase.

    On a shared host each CPU alternates between a fast phase and one about
    1.7x slower, for seconds at a time and independently of the other CPUs;
    a run that stays on one CPU can spend all of its time in a slow phase.
    Every CHECK_EVERY_S this probes a CPU the run is not on, with a spin
    loop of a few milliseconds, and moves the run there when that CPU is
    near the fastest speed seen.  The run itself stays one thread.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speeds = {c: probe_speed(c) for c in cpus} if len(cpus) > 1 else {}
    best = min(speeds.values(), default=0.0)
    on = min(speeds, key=speeds.get) if speeds else None
    proc = subprocess.Popen(cmd)
    if on is not None:
        os.sched_setaffinity(proc.pid, {on})
    deadline = time.monotonic() + RUN_TIMEOUT_S
    turn = 0
    try:
        while True:
            try:
                return proc.wait(timeout=CHECK_EVERY_S)
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                fail("run exceeded %d s" % RUN_TIMEOUT_S)
            if on is None:
                continue
            turn += 1
            others = [c for c in cpus if c != on]
            cand = others[turn % len(others)]
            t = probe_speed(cand)
            best = min(best, t)
            if t <= FAST_WITHIN * best:
                on = cand
            os.sched_setaffinity(proc.pid, {on})
    except OSError:
        # The run may have ended between the wait and the move.
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
