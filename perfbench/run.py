#!/usr/bin/env python3
"""End-to-end benchmark of the POSG reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat N [--workload W] [--seconds S]
    python3 perfbench/run.py --selftest

The first form builds the driver (Release, DCHECKs and sanitizers off) into
.bench_build/, runs one workload, checks its outputs and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics. The exit code is 0
only when every output check passed.

--repeat runs each workload N times with seeds 1..N and prints, per
metric, the median, the quartiles, their distance as a share of the median
and the min/max ratio: the steadiness report the bounds are set from.

--selftest runs the driver's helper self-tests, this script's own checks and
a short smoke run of every workload, traced and untraced, checking metric
names and units against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "run")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# The driver refuses to run in any other configuration as well.
REQUIRED_BUILD = {"build_type": "Release", "dchecks": False, "sanitizer": False}
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    """Environment for the build and the driver: temporary files stay
    inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources at src/ next to perfbench/; nothing to measure")
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=child_env())
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))


def load_spec():
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "run_seconds": spec["run_seconds"],
    }


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is itself a git repository, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_driver(workload, seed, seconds, trace):
    """Runs one driver invocation and returns its parsed result record."""
    command = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scratch", SCRATCH_DIR]
    # Own process group, so a timeout also ends the forked instances.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env(), start_new_session=True)
    try:
        stdout, stderr = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        raise BenchError("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed no result (exit code %d)" % driver.returncode)
    record = json.loads(lines[-1])
    for key, value in REQUIRED_BUILD.items():
        if record["provenance"].get(key) != value:
            raise BenchError("refusing numbers from a non-Release/DCHECK/sanitizer build: %r"
                             % record["provenance"])
    if driver.returncode not in (0, 1):
        raise BenchError("driver failed with exit code %d" % driver.returncode)
    return record


def select_metrics(record, expected):
    """The metrics of `record` named in `expected` (name -> unit); a
    missing name or a unit mismatch is an error."""
    chosen = {}
    for name, unit in expected.items():
        metric = record["metrics"].get(name)
        if metric is None:
            raise BenchError("metric %s missing from the driver's output" % name)
        if metric["unit"] != unit:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, metric["unit"], unit))
        chosen[name] = {"value": metric["value"], "unit": unit}
    return chosen


def measure(workload, seed, seconds, trace, spec):
    """One benchmark run: returns (final result object, details object)."""
    record = run_driver(workload, seed, seconds, trace)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = select_metrics(record, expected)
    correct = not record["violations"] and record["attempted"] >= 1
    result = {"correct": correct, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "provenance": dict(record["provenance"], commit=commit(),
                                  source_sha256=source_digest()),
               "violations": record["violations"], "notes": record["notes"]}
    return result, details


def quartile_report(values):
    """Median, quartiles (as statistics.quantiles(n=4) gives them), their
    distance as a share of the median, and the min/max ratio."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "min_max_ratio": min(values) / max(values) if max(values) else 1.0,
            "n": len(values)}


def steadiness(args, spec):
    workloads = [args.workload] if args.workload else spec["workloads"]
    report = {}
    for workload in workloads:
        values = {}
        for seed in range(1, args.repeat + 1):
            result, details = measure(workload, seed, args.seconds, 0, spec)
            if not result["correct"]:
                raise BenchError("%s seed %d failed its output checks: %s"
                                 % (workload, seed, details["violations"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()})))
        report[workload] = {name: dict(quartile_report(v), values=v)
                            for name, v in values.items()}
        print("%s (%d runs of %s s, seeds 1..%d)" % (workload, args.repeat, args.seconds,
                                                    args.repeat))
        print("  %-18s %14s %14s %14s %9s %8s %7s" % ("metric", "median", "q1", "q3", "iqr/med",
                                                   "min/max", "bound"))
        for name, row in report[workload].items():
            bound = spec["bounds"].get(name)
            print("  %-18s %14.6g %14.6g %14.6g %9.4f %8.4f %7s" % (
                name, row["median"], row["q1"], row["q3"], row["iqr_share"],
                row["min_max_ratio"], bound))
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    path = os.path.join(SCRATCH_DIR, "steadiness.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print("report written to %s" % os.path.relpath(path, ROOT))
    return 0


def check(condition, what):
    if not condition:
        raise BenchError("selftest: " + what)


def selftest(spec):
    done = subprocess.run([DRIVER, "--selftest"])
    check(done.returncode == 0, "driver helper self-tests failed")
    report = quartile_report([1.0, 2.0, 3.0, 4.0, 100.0])
    check(report["median"] == 3.0 and report["q1"] == 1.5 and report["q3"] == 52.0,
          "quartiles follow statistics.quantiles(n=4)")
    try:
        select_metrics({"metrics": {"a": {"value": 1, "unit": "s"}}}, {"a": "ms"})
        check(False, "a unit mismatch must be rejected")
    except BenchError as error:
        check("unit" in str(error), "unit mismatch message")
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result, details = measure(workload, 1, 1.0, trace, spec)
            check(result["correct"], "%s trace=%d smoke run failed: %s"
                  % (workload, trace, details["violations"]))
            names = set(spec["per_layer"] if trace else spec["end_to_end"])
            check(set(result["metrics"]) == names, "metric names match BENCHMARK.json")
            log("selftest: %s trace=%d ok" % (workload, trace))
    log("selftest: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        build()
        if args.selftest:
            return selftest(spec)
        if args.repeat > 0:
            return steadiness(args, spec)
        if args.workload is None:
            raise BenchError("--workload is required")
        result, details = measure(args.workload, args.seed, args.seconds, args.trace, spec)
        print(json.dumps(details))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
