#!/usr/bin/env python3
"""Benchmark regression gate for the hot-path micro-benchmarks.

Two subcommands:

  emit     Normalize a raw google-benchmark JSON dump (--benchmark_out)
           into the checked-in BENCH_hotpath.json format, optionally
           carrying a `before` section so the speedup achieved by an
           optimization PR stays recorded next to the numbers it produced.

  compare  Gate a candidate run against a baseline: exit non-zero when any
           benchmark's per-item time regressed by more than --max-regression
           (default 10%). Accepts either raw google-benchmark JSON or the
           emitted BENCH_hotpath.json on both sides. Comparison uses
           cpu_time_ns: on a loaded machine wall-clock per-item times are
           inflated by preemption, while CPU time stays attributable to
           the benchmarked code. Run with --benchmark_repetitions=N for
           extra robustness — repeated entries are folded to their min.

The emitted schema (validated by `compare` and by the CI bench job):

  {
    "schema": "posg-hotpath-bench/1",
    "generated_by": "tools/run_hotpath_bench.sh",
    "context": { ... host/build info from google-benchmark, plus
                 posg_commit: `git describe --always --dirty` of the
                 tree the numbers came from ... },
    "benchmarks": { "<name>": {"real_time_ns": float, "cpu_time_ns": float,
                                "items_per_second": float|null}, ... },
    "before": { "<name>": {"real_time_ns": float, ...}, ... }   # optional
  }

Per-item times are compared via cpu_time_ns (google-benchmark already
normalizes per iteration); names must match exactly. Benchmarks present
only on one side are reported but never fail the gate (new benchmarks must
not brick CI; deleted ones are caught by review).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

SCHEMA = "posg-hotpath-bench/1"


def fail(message: str) -> None:
    print(f"bench_compare: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read {path}: {exc}")
        raise AssertionError  # unreachable


def normalize(raw: dict, source: str) -> dict:
    """Returns {name: {real_time_ns, cpu_time_ns, items_per_second}}."""
    if raw.get("schema") == SCHEMA:
        return raw["benchmarks"]
    if "benchmarks" not in raw or not isinstance(raw["benchmarks"], list):
        fail(f"{source}: neither {SCHEMA} nor raw google-benchmark JSON")
    out: dict = {}
    for entry in raw["benchmarks"]:
        if entry.get("run_type") == "aggregate":
            continue  # keep only the raw/mean-free per-run entries
        name = entry.get("name")
        unit = entry.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if name is None or scale is None:
            fail(f"{source}: malformed benchmark entry: {entry!r}")
        candidate = {
            "real_time_ns": float(entry["real_time"]) * scale,
            "cpu_time_ns": float(entry["cpu_time"]) * scale,
            "items_per_second": entry.get("items_per_second"),
        }
        # --benchmark_repetitions emits one entry per repetition under the
        # same name; keep the fastest (min is the load-noise-robust
        # estimator for a deterministic workload).
        if name not in out or candidate["cpu_time_ns"] < out[name]["cpu_time_ns"]:
            out[name] = candidate
    if not out:
        fail(f"{source}: no benchmark entries")
    return out


def validate_emitted(doc: dict, source: str) -> None:
    if doc.get("schema") != SCHEMA:
        fail(f"{source}: schema tag is not {SCHEMA!r}")
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        fail(f"{source}: `benchmarks` must be a non-empty object")
    for section in ("benchmarks", "before"):
        for name, entry in doc.get(section, {}).items():
            if not isinstance(entry, dict):
                fail(f"{source}: {section}[{name!r}] is not an object")
            for key in ("real_time_ns", "cpu_time_ns"):
                value = entry.get(key)
                if not isinstance(value, (int, float)) or value <= 0:
                    fail(f"{source}: {section}[{name!r}].{key} must be a positive number")


def tree_commit() -> str:
    """The commit this script's checkout is at, `-dirty` when the working
    tree differs from it; "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cmd_emit(args: argparse.Namespace) -> int:
    raw = load_json(args.raw)
    doc = {
        "schema": SCHEMA,
        "generated_by": "tools/run_hotpath_bench.sh",
        "context": {**raw.get("context", {}), "posg_commit": tree_commit()},
        "benchmarks": normalize(raw, args.raw),
    }
    if args.before:
        doc["before"] = normalize(load_json(args.before), args.before)
    validate_emitted(doc, "<emitted>")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench_compare: wrote {args.output} ({len(doc['benchmarks'])} benchmarks)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    validate_emitted(load_json(args.file), args.file)
    print(f"bench_compare: {args.file} conforms to {SCHEMA}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = normalize(load_json(args.baseline), args.baseline)
    candidate = normalize(load_json(args.candidate), args.candidate)

    names = sorted(set(baseline) | set(candidate))
    if args.only:
        pattern = re.compile(args.only)
        names = [name for name in names if pattern.search(name)]
        if not names:
            fail(f"--only {args.only!r} matched no benchmark on either side")

    regressions = []
    rows = []
    for name in names:
        if name not in baseline:
            rows.append((name, None, candidate[name]["cpu_time_ns"], "new"))
            continue
        if name not in candidate:
            rows.append((name, baseline[name]["cpu_time_ns"], None, "missing"))
            continue
        base = baseline[name]["cpu_time_ns"]
        cand = candidate[name]["cpu_time_ns"]
        ratio = cand / base
        status = "ok"
        if ratio > 1.0 + args.max_regression:
            status = "REGRESSION"
            regressions.append((name, base, cand, ratio))
        elif ratio < 1.0 - args.max_regression:
            status = "improved"
        rows.append((name, base, cand, status))

    width = max((len(name) for name, *_ in rows), default=4)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>12}  {'candidate':>12}  {'ratio':>7}  status")
    for name, base, cand, status in rows:
        base_s = f"{base:10.1f}ns" if base is not None else "-".rjust(12)
        cand_s = f"{cand:10.1f}ns" if cand is not None else "-".rjust(12)
        ratio_s = f"{cand / base:6.2f}x" if base and cand else "-".rjust(7)
        print(f"{name.ljust(width)}  {base_s}  {cand_s}  {ratio_s}  {status}")

    if regressions:
        print(
            f"\nbench_compare: FAIL — {len(regressions)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%}:",
            file=sys.stderr,
        )
        for name, base, cand, ratio in regressions:
            print(f"  {name}: {base:.1f}ns -> {cand:.1f}ns ({ratio:.2f}x)", file=sys.stderr)
        return 1
    print(f"\nbench_compare: OK — no regression beyond {args.max_regression:.0%}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="normalize raw google-benchmark JSON")
    emit.add_argument("raw", help="raw --benchmark_out JSON file")
    emit.add_argument("-o", "--output", default="BENCH_hotpath.json")
    emit.add_argument("--before", help="pre-optimization raw JSON to record alongside")
    emit.set_defaults(func=cmd_emit)

    validate = sub.add_parser("validate", help="schema-check an emitted file")
    validate.add_argument("file")
    validate.set_defaults(func=cmd_validate)

    compare = sub.add_parser("compare", help="gate candidate against baseline")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="maximum tolerated per-benchmark slowdown (default 0.10 = 10%%)",
    )
    compare.add_argument(
        "--only",
        metavar="REGEX",
        help="restrict the comparison to benchmarks whose name matches REGEX "
        "(the obs overhead gate uses this to pin down the per-tuple paths)",
    )
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
