#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see FINDINGS.md).

One measured run, from the root of a checkout:

    python3 perfbench/run.py --workload paper_cycle --seed 7 --seconds 10 --trace 0

builds the simulator libraries from src/ and the perfbench binary into
.bench_build/ (or $CARGO_TARGET_DIR), runs the workload, and passes the
binary's output through: its last stdout line is the JSON result. The
exit status is the binary's (1 = an output check failed).

Steadiness mode repeats each workload K times with seeds 1..K and prints,
for every end-to-end metric, the median and quartiles next to the bound
in BENCHMARK.json, flagging any spread above its bound:

    python3 perfbench/run.py --steady 10 [--workloads paper_cycle,tlm_paper]
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ beside perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-G", "Ninja", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "--", "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def run_once(binary, workload, seed, seconds, trace, capture=False):
    """Runs the binary; returns (exit status, captured stdout or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(OUT, workload),
           "--oracle", os.path.join(HERE, "oracle.txt")]
    # A process group of its own, so a timeout also stops forked campaign
    # workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {workload} ran longer than {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, spec, runs, workloads, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            status, out = run_once(binary, workload, seed, seconds, 0, capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            if status != 0 or not result["correct"]:
                sys.exit(f"perfbench: {workload} seed {seed} failed its checks")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {runs} runs, seeds 1..{runs}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3f}{flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    return 0 if worst <= 1.0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured time per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="K",
                   help="repeat each workload K times and report the spreads")
    p.add_argument("--workloads", help="comma-separated subset for --steady")
    args = p.parse_args()
    if args.steady is None and args.workload is None:
        p.error("--workload or --steady is required")
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    if args.steady is not None:
        subset = args.workloads.split(",") if args.workloads else None
        return steady(binary, spec, args.steady, subset, seconds)
    sys.stdout.flush()
    return run_once(binary, args.workload, args.seed, seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
