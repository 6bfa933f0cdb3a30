#!/usr/bin/env python3
"""Alternating A/B comparison of two checkouts on one perfbench workload.

    tools/perfbench_ab.py PARENT CHANGE --workload W --pairs N --seed0 S

Runs `perfbench/run.py --workload W --seed S+i --seconds T --trace 0` in
each checkout for i = 0..N-1, where T is the run_seconds of the CHANGE
checkout's BENCHMARK.json. Each pair runs both sides on the same seed;
the side that runs first alternates (the parent first in even pairs), so a
drift in host load falls on both sides alike. Each checkout builds its own
driver into its .bench_build/ on the first run.

For every end-to-end metric of the CHANGE checkout's BENCHMARK.json it
prints both medians, the parent's quartiles q1-q3, the ratio of the medians,
whether the change's median is better by more than the parent's q3 - q1,
and the pairs the change won out of N (a pair whose two values are equal
counts for neither side). Every run whose `correct` is false is listed
after the table. Progress, one line per run, goes to standard error.

Exit code: 0 when every run was correct, 1 when some run was not, 2 when a
run gave no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


class AbError(Exception):
    pass


def load_spec(checkout):
    """The run length and the (name, better) of each end-to-end metric, in
    BENCHMARK.json order."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["run_seconds"], [(metric["name"], metric["better"])
                                 for metric in spec["end_to_end"]]


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns its result object (the last stdout line)."""
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise AbError("%s seed %d: perfbench/run.py exited %d with no result"
                      % (checkout, seed, done.returncode))
    return json.loads(lines[-1])


def better(change, parent, direction):
    return change > parent if direction == "higher" else change < parent


def report(metrics, runs, pairs):
    """Prints the comparison table; `runs[side]` lists result objects by pair."""
    print("%-18s %13s %13s %13s %13s %8s %6s %6s" % (
        "metric", "parent", "q1", "q3", "change", "ratio", ">iqr", "wins"))
    for name, direction in metrics:
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        q1, parent_median, q3 = statistics.quantiles(parent, n=4)  # as perfbench/run.py
        change_median = statistics.median(change)
        wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
        clear = (better(change_median, parent_median, direction)
                 and abs(change_median - parent_median) > q3 - q1)
        ratio = change_median / parent_median if parent_median else float("nan")
        print("%-18s %13.6g %13.6g %13.6g %13.6g %8.4f %6s %3d/%-2d" % (
            name, parent_median, q1, q3, change_median, ratio, "yes" if clear else "no", wins,
            pairs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (the parent's quartiles need two runs)")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    try:
        seconds, metrics = load_spec(checkouts["change"])
        runs = {"parent": [], "change": []}
        incorrect = []
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], args.workload, seed, seconds)
                runs[side].append(result)
                if not result["correct"]:
                    incorrect.append((side, seed, result))
                print("pair %d seed %d %s: correct=%s %s" % (
                    pair, seed, side, result["correct"],
                    " ".join("%s=%.6g" % (name, result["metrics"][name]["value"])
                             for name, _ in metrics)), file=sys.stderr, flush=True)
    except (AbError, OSError, ValueError, KeyError) as error:
        print("perfbench_ab: %s" % error, file=sys.stderr)
        return 2
    print("%s: %d alternating pairs, seeds %d-%d, %d s runs" % (
        args.workload, args.pairs, args.seed0, args.seed0 + args.pairs - 1, seconds))
    report(metrics, runs, args.pairs)
    for side, seed, result in incorrect:
        print("not correct: %s seed %d (attempted %s, failed %s)" % (
            side, seed, result["attempted"], result["failed"]))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
