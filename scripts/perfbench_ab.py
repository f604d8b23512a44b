#!/usr/bin/env python3
"""Alternating A/B runs of perfbench on two checkouts.

    python3 scripts/perfbench_ab.py --parent ../base --change . \\
        --workload paper_observed --pairs 10 --seconds 20 --seed0 31

--workload takes one workload, a comma list, or `all` (every workload in
the parent's BENCHMARK.json); the workloads run one after another, each
on the same seeds, and each gets its own table.

Each tree's perfbench is built and run through that tree's own
perfbench/run.py, so both sides use their own benchmark code. Pair i runs
both trees on seed seed0 + i, the parent first in even pairs and the
change first in odd ones. Any run that exits non-zero or reports
`correct: false` stops the script with status 1.

For every end-to-end metric in the parent's BENCHMARK.json it prints the
parent's median and quartiles, the change's median, the ratio
change / parent and the pairs the change won (ties count for neither
side). With --trace 1 the runs are traced and the per-layer metrics are
printed the same way (medians of a traced run, not end-to-end numbers).

The verdict column reads, in this order of precedence:
  gain        the change won at least 9 of every 10 pairs and its median
              beats the parent's by more than the parent's q1-q3 spread;
  worse       the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound (a fraction of the
              parent's median);
  unresolved  the parent's q1-q3 spread is wider than that bound, and
              not every run of the change beats every run of the parent;
  same        anything else.
Per-layer metrics have no bound, so they read only gain or same.

Before the first pair it checks that each tree will build its own
sources, and exits with status 2 if --parent and --change name the same
tree, if both trees resolve to one build directory (an absolute
$CARGO_TARGET_DIR), or if an existing build directory's CMakeCache.txt
belongs to another tree (a `cp -a` copy of a checkout keeps the
original's .bench_build/, which rebuilds the original's sources).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build_dir(tree):
    """The build directory perfbench/run.py in `tree` uses."""
    return os.path.realpath(os.path.join(
        tree, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def cache_home(build):
    """CMAKE_HOME_DIRECTORY of the cache in `build`, or None if unbuilt."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        pass
    return None


def check_trees(parent, change):
    """Returns None if each tree builds its own sources, else the problem."""
    if os.path.realpath(parent) == os.path.realpath(change):
        return (f"--parent and --change are the same tree "
                f"({os.path.realpath(parent)}); clone the parent commit into "
                "another directory with git clone or git archive")
    if build_dir(parent) == build_dir(change):
        return (f"both trees build in {build_dir(parent)}; unset "
                "CARGO_TARGET_DIR or make it a relative path")
    for tree in (parent, change):
        build = build_dir(tree)
        home = cache_home(build)
        want = os.path.realpath(os.path.join(tree, "perfbench"))
        if home is not None and os.path.realpath(home) != want:
            return (f"{build}/CMakeCache.txt was configured for {home}, "
                    f"not {want}; delete {build} (rm -rf) so the tree "
                    "rebuilds from its own sources")
    return None


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench_ab: {tree} {workload} seed {seed} "
                 f"exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"perfbench_ab: {tree} {workload} seed {seed} "
                 "reported correct: false")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(pairs, better):
    """Parent q1, median and q3, change median, and the pairs the change
    won (ties count for neither side) over (parent, change) value pairs."""
    q1, pmed, q3 = quartiles([p for p, _ in pairs])
    cmed = statistics.median([c for _, c in pairs])
    sign = 1 if better == "higher" else -1
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return q1, pmed, q3, cmed, won


def verdict(pairs, better, bound):
    """gain, worse, unresolved or same for (parent, change) value pairs;
    `bound` is None for a metric without one."""
    q1, pmed, q3, cmed, won = compare(pairs, better)
    sign = 1 if better == "higher" else -1
    gap = sign * (cmed - pmed)
    if won * 10 >= 9 * len(pairs) and gap > q3 - q1:
        return "gain"
    if bound is None:
        return "same"
    if gap < -bound * abs(pmed):
        return "worse"
    beats_every_parent_run = (min(sign * c for _, c in pairs) >
                              max(sign * p for p, _ in pairs))
    if q3 - q1 > bound * abs(pmed) and not beats_every_parent_run:
        return "unresolved"
    return "same"


def report(title, metrics, parent, change):
    print(f"\n{title}")
    print(f"  {'metric':<34} {'parent med':>12} {'parent q1':>12} "
          f"{'parent q3':>12} {'change med':>12} {'ratio':>7} {'won':>7} "
          f"{'verdict':>10}")
    for m in metrics:
        name = m["name"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if name in p and name in c]
        if not pairs:
            continue
        q1, pmed, q3, cmed, won = compare(pairs, m["better"])
        ratio = f"{cmed / pmed:7.3f}" if pmed else "      -"
        print(f"  {name:<34} {pmed:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{cmed:>12.6g} {ratio} {won:>3}/{len(pairs):<3} "
              f"{verdict(pairs, m['better'], m.get('bound')):>10}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="changed checkout")
    p.add_argument("--workload", required=True,
                   help="a workload, a comma list of them, or all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    problem = check_trees(args.parent, args.change)
    if problem:
        print(f"perfbench_ab: {problem}", file=sys.stderr)
        return 2

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in workloads:
        parent, change = [], []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                order.reverse()
            got = {side: run(tree, workload, seed, args.seconds, args.trace)
                   for side, tree in order}
            parent.append(got["parent"])
            change.append(got["change"])
            print(f"pair {i + 1}/{args.pairs} seed {seed}: "
                  f"{order[0][0]} first, all runs correct", file=sys.stderr)
        report(f"{workload}: {args.pairs} alternating pairs, seeds "
               f"{args.seed0}..{args.seed0 + args.pairs - 1}, "
               f"{args.seconds:g} s runs{', traced' if args.trace else ''}",
               metrics, parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
