#!/usr/bin/env python3
"""Build and run the repository benchmark.

Measure one workload for one seed (run from the repository root):

    python3 perfbench/run.py --workload serve-teams --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones (see perfbench/PREDICTIONS.md).

Steadiness report: run one workload several times, each with another
seed, and compare the quartile spread of every end-to-end metric with
its bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness paql-shapes --runs 10

The program is built from source with dune into .bench_build/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "dune")
BENCH_EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
RECOMMEND_EXE = os.path.join(BUILD, "default", "bin", "recommend.exe")
WORKLOADS = ["serve-teams", "churn-teams", "paql-shapes"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    """BENCHMARK.json: the run length and the metrics with their bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the daemon and the measuring program from this checkout."""
    for need in ["dune-project", "lib", os.path.join("bin", "recommend.ml")]:
        if not os.path.exists(need):
            fail("not a checkout of the repository: %s is missing" % need)
    os.makedirs(".bench_build", exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PKG_")}
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD),
           "--profile", "release", "--cache", "disabled",
           "./bin/recommend.exe", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def one_cpu():
    """Keep the measuring program and the daemon it spawns on one CPU.

    The benchmark scales its timings by a reference kernel timed in the
    measuring program (see perfbench/PREDICTIONS.md); on a shared VM the
    vCPUs change speed independently, so the kernel must run on the CPU
    the daemon's work runs on.  The last CPU this process may use.
    """
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def measure(workload, seed, seconds, trace, echo=True):
    """One run of the measuring program; returns its result object."""
    work = os.path.join(".bench_build", "work", "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PKG_")}
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--recommend", RECOMMEND_EXE, "--work", work]
    # its own process group, so that a run that overstays is stopped
    # together with the daemon it spawned
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, text=True, preexec_fn=one_cpu(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        give_up = time.monotonic() + 5
        while time.monotonic() < give_up:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail("%s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S), 1)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    if proc.returncode != 0:
        fail("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode), 1)
    result = json.loads(out.strip().splitlines()[-1])
    # the measuring program and BENCHMARK.json must name the same metrics
    declared = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail("metrics printed by %s differ from BENCHMARK.json" % workload, 1)
    return result


def steadiness(workload, runs, first_seed):
    """Quartile spread of each end-to-end metric over [runs] seeds."""
    bench = spec()
    seconds = bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in range(first_seed, first_seed + runs):
        result = measure(workload, seed, seconds, 0, echo=False)
        failed += result["failed"]
        line = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append("%s=%.6g" % (name, v))
        print("seed %d: %s" % (seed, " ".join(line)), flush=True)
    misfits = []
    print("%-14s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "fits"))
    for m in bench["end_to_end"]:
        name, vals = m["name"], values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        fits = spread <= m["bound"]
        third = spread <= m["bound"] / 3
        verdict = "yes" if fits else "NO"
        if fits and not third:
            verdict += " (above a third of the bound)"
        if not fits:
            misfits.append(name)
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (name, med, q1, q3, spread, m["bound"], verdict))
    print("failed ops over all runs: %d" % failed)
    if misfits:
        print("metrics that do not fit their bound: " + ", ".join(misfits))
        return 1
    print("every metric fits its bound")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", choices=WORKLOADS, help="steadiness report for one workload")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.steadiness:
        build()
        sys.exit(steadiness(args.steadiness, args.runs, args.seed))
    if not args.workload:
        ap.error("--workload or --steadiness is required")
    build()
    measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
