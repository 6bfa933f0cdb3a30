#!/usr/bin/env python3
"""Render a posg-metrics/1 snapshot (and optionally a trace JSONL dump) as
human-readable tables.

Usage:
    tools/obs_report.py metrics.json [--trace trace.jsonl]

The snapshot comes from `--metrics-out` on examples/distributed_posg or
examples/quickstart, or from a soak artifact (SOAK_METRICS_OUT on
tools/run_soak.sh); obs::Snapshot::to_json() writes all of them, and this
tool is the format's one reader. Histogram quantiles are bucket upper
bounds (obs::Histogram's log2 buckets).

Multi-source runs (--sources S on examples/distributed_posg, DESIGN.md
§15) write one snapshot per line — one per scheduler view, JSONL. This
tool accepts both shapes: a single-document file renders exactly as
before (S = 1 stays backward-compatible), a multi-line file is merged
into one table set plus a per-source lens and a reconciliation-lag table
keyed on the `posg.s<id>.*` metric namespaces.
"""

import argparse
import json
import sys
from collections import Counter


def quantile(buckets, count, q):
    """Upper bound of the bucket where the cumulative count crosses q*count."""
    if count == 0:
        return 0
    target = q * count
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if n and seen >= target:
            return (1 << i) if i < 64 else (1 << 64) - 1
    return (1 << 64) - 1


def fmt_value(v):
    """Engineering-style suffixes keep nanosecond histograms readable."""
    for limit, div, suffix in ((1e9, 1e9, "G"), (1e6, 1e6, "M"), (1e3, 1e3, "k")):
        if abs(v) >= limit:
            return f"{v / div:.2f}{suffix}"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.3f}"
    return str(int(v))


def dense_buckets(hist):
    """Snapshot JSON stores sparse {index: count}; expand to 65 slots."""
    buckets = [0] * 65
    for index, n in hist.get("buckets", {}).items():
        buckets[int(index)] = n
    return buckets


def print_table(title, rows, headers):
    if not rows:
        return
    widths = [max(len(str(r[i])) for r in rows + [headers]) for i in range(len(headers))]
    print(f"\n{title}")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"  {line}")
    print(f"  {'-' * len(line)}")
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def source_of(name):
    """Maps a metric name to (source id, unprefixed name).

    Source 0 keeps the bare `posg.` namespace (single-source deployments
    never see a source id in their metric names); source s > 0 publishes
    under `posg.s<id>.` (runtime/scheduler_runtime.cpp).
    """
    if name.startswith("posg.s"):
        head, _, rest = name[6:].partition(".")
        if head.isdigit() and rest:
            return int(head), "posg." + rest
    return 0, name


def report_multisource(counters, gauges):
    """Per-source lens over the shared instance pool (DESIGN.md §15).

    One row per scheduler view: its routed/decision counts, and the
    reconciliation columns — pool_events_applied (membership events this
    view adopted from the shared pool's log) and reconcile_lag (events
    published that this view has not yet adopted; nonzero only in the
    instant between a sibling's transition and this view's next
    decision). Printed only when more than one source is present, so
    single-source reports are unchanged.
    """
    sources = set()
    for name in list(counters) + list(gauges):
        sources.add(source_of(name)[0])
    if len(sources) < 2:
        return

    by_source = {s: {} for s in sources}
    for table in (counters, gauges):
        for name, value in table.items():
            s, bare = source_of(name)
            by_source[s][bare] = value

    def cell(s, bare):
        value = by_source[s].get(bare)
        return fmt_value(value) if value is not None else "-"

    rows = [
        (
            s,
            cell(s, "posg.runtime.routed"),
            cell(s, "posg.scheduler.decisions"),
            cell(s, "posg.scheduler.epochs_completed"),
            cell(s, "posg.scheduler.rejoins"),
            cell(s, "posg.runtime.quarantined"),
        )
        for s in sorted(sources)
    ]
    print_table(
        "per-source views (shared instance pool)",
        rows,
        ("source", "routed", "decisions", "epochs", "rejoins", "quarantined"),
    )

    lag_rows = [
        (
            s,
            cell(s, "posg.scheduler.source_id"),
            cell(s, "posg.scheduler.pool_events_applied"),
            cell(s, "posg.scheduler.reconcile_lag"),
        )
        for s in sorted(sources)
    ]
    print_table(
        "pool reconciliation (membership event log)",
        lag_rows,
        ("source", "source_id", "pool_events_applied", "reconcile_lag"),
    )


def report_resilience(counters, gauges):
    """One-truth view of the degradation/elasticity counters.

    These rows are picked straight out of the registry snapshot — the same
    names the counters/gauges tables show — so this section is a lens, not
    a second bookkeeping path.
    """
    rows = []
    for name, value in sorted(counters.items()):
        if name.startswith("posg.health.") or name in (
            "posg.scheduler.rejoins",
            "posg.scheduler.drains_begun",
            "posg.scheduler.retires",
            "posg.scheduler.drain_cancels",
        ):
            rows.append((name, fmt_value(value)))
    for name, value in sorted(gauges.items()):
        if name.startswith("posg.health.derate."):
            rows.append((name, fmt_value(value)))
    print_table("resilience / elasticity", rows, ("name", "value"))


def report_recovery(counters):
    """Crash-recovery lens (DESIGN.md §14).

    Scheduler side: posg.runtime.checkpoint_* (epoch-boundary images
    written / failed), posg.runtime.recovery_* (whether this process
    restored or cold-started, and from which epoch), and reattach_count
    (SchedulerHello handshakes served). Like the sections above, a lens
    over the generic counters table, not a second bookkeeping path.
    """
    rows = []
    for name, value in sorted(counters.items()):
        if (
            name.startswith(("posg.runtime.checkpoint_", "posg.runtime.recovery_"))
            or name == "posg.runtime.reattach_count"
        ):
            rows.append((name, fmt_value(value)))
    print_table("crash recovery (checkpoints / re-attach)", rows, ("name", "value"))


def report_data_plane(counters, histograms):
    """Shard-per-core data-plane lens (DESIGN.md §13).

    posg.engine.batch_fill is tuples per route_batch call — how many
    tuples share one grouping-lock acquisition. Both channel kinds park a waiting side:
    SPSC rings spin briefly and then wait on a futex word, MPMC edges wait
    on a condvar. posg.engine.ring_full_spins counts failed producer room
    checks against full SPSC rings — the back-pressure signal of the
    lock-free edges. posg.engine.ring_parks counts consumer parks on empty
    SPSC rings — bolts that went idle and gave their CPU back. MPMC edges
    report 0 for both. <prefix>.runtime.frames_sent / send_calls (prefix
    posg or posg.s<id>) is the cross-process send path's batching: frames
    the link writer handed to the kernel per send_frames call. Like
    report_resilience, this is a lens over the generic tables below, not a
    second bookkeeping path.
    """
    rows = []
    for name in ("posg.engine.ring_full_spins", "posg.engine.ring_parks"):
        if name in counters:
            rows.append((name, fmt_value(counters[name])))
    for name in sorted(n for n in counters if n.endswith(".runtime.frames_sent")):
        prefix = name[: -len(".runtime.frames_sent")]
        calls = counters.get(prefix + ".runtime.send_calls", 0)
        per_send = counters[name] / calls if calls else 0.0
        rows.append((prefix + ".runtime.frames_per_send",
                     f"{fmt_value(per_send)} ({fmt_value(counters[name])} frames / "
                     f"{fmt_value(calls)} sends)"))
    hist = histograms.get("posg.engine.batch_fill")
    if hist:
        count = hist.get("count", 0)
        mean = hist.get("sum", 0) / count if count else 0.0
        p99 = quantile(dense_buckets(hist), count, 0.99)
        rows.append(("posg.engine.batch_fill",
                     f"n={fmt_value(count)} mean={fmt_value(mean)} p99={fmt_value(p99)}"))
    print_table("data plane (batching / SPSC back-pressure and parks)", rows, ("name", "value"))


def report_metrics(snapshot):
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    report_multisource(counters, gauges)
    report_resilience(counters, gauges)
    report_recovery(counters)
    report_data_plane(counters, histograms)

    print_table(
        "counters",
        [(name, fmt_value(v)) for name, v in sorted(counters.items())],
        ("name", "value"),
    )
    print_table(
        "gauges",
        [(name, fmt_value(v)) for name, v in sorted(gauges.items())],
        ("name", "value"),
    )
    rows = []
    for name, hist in sorted(histograms.items()):
        count = hist.get("count", 0)
        buckets = dense_buckets(hist)
        mean = hist.get("sum", 0) / count if count else 0.0
        rows.append(
            (
                name,
                fmt_value(count),
                fmt_value(mean),
                fmt_value(quantile(buckets, count, 0.50)),
                fmt_value(quantile(buckets, count, 0.90)),
                fmt_value(quantile(buckets, count, 0.99)),
            )
        )
    print_table(
        "histograms (quantiles are log2-bucket upper bounds)",
        rows,
        ("name", "count", "mean", "p50", "p90", "p99"),
    )


# TraceEventType payload conventions for the elasticity events
# (src/obs/trace_ring.hpp): `a` is the epoch (drains, rejoin) or the
# controller sample ordinal (scale_decision); `value` is the Ĉ cut /
# final bill / predicted backlog; scale_decision's `detail` is the
# core::ScaleAction::Kind enumerator.
SCALE_TIMELINE_TYPES = ("rejoin", "drain_begin", "drain_complete", "scale_decision")
SCALE_ACTION_NAMES = {0: "none", 1: "scale_up", 2: "drain"}

# Recovery events (src/obs/trace_ring.hpp, DESIGN.md §14): checkpoint_write
# carries the completed epoch in `a` and the image size in `value`;
# recovery_begin's `detail` is 1 for a restored start, 0 for a cold start,
# with the restored epoch in `a`; reattach carries the instance, the epoch,
# and the seeded Ĉ cut in `value`.
RECOVERY_TIMELINE_TYPES = ("checkpoint_write", "recovery_begin", "reattach")


def recovery_timeline_row(event):
    kind = event.get("type")
    instance = event.get("instance", 0)
    if instance == 0xFFFFFFFF:
        instance = "-"
    a = event.get("a", 0)
    value = event.get("value", 0.0)
    if kind == "checkpoint_write":
        return (event.get("tick", 0), kind, instance, f"epoch={a}",
                f"{fmt_value(value)}B image")
    if kind == "recovery_begin":
        mode = "restored" if event.get("detail", 0) == 1 else "cold_start"
        return (event.get("tick", 0), f"recovery_begin:{mode}", instance, f"epoch={a}", "")
    return (event.get("tick", 0), kind, instance, f"epoch={a}",
            f"cut={fmt_value(value)}ms")


def scale_timeline_row(event):
    kind = event.get("type")
    instance = event.get("instance", 0)
    if instance == 0xFFFFFFFF:
        instance = "-"  # kNoInstance: the executor picks the slot, not the controller
    a = event.get("a", 0)
    value = event.get("value", 0.0)
    if kind == "scale_decision":
        action = SCALE_ACTION_NAMES.get(event.get("detail", 0), "?")
        return (event.get("tick", 0), f"scale_decision:{action}", instance,
                f"sample={a}", f"predicted={fmt_value(value)}ms")
    detail = {
        "drain_begin": f"cut={fmt_value(value)}ms",
        "drain_complete": f"billed={fmt_value(value)}ms",
        "rejoin": "",
    }[kind]
    return (event.get("tick", 0), kind, instance, f"epoch={a}", detail)


def report_trace(path):
    by_type = Counter()
    by_instance = Counter()
    scale_rows = []
    recovery_rows = []
    first_tick = last_tick = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            by_type[event.get("type", "?")] += 1
            if event.get("type") == "schedule_decision":
                by_instance[event.get("instance", 0)] += 1
            if event.get("type") in SCALE_TIMELINE_TYPES:
                scale_rows.append(scale_timeline_row(event))
            if event.get("type") in RECOVERY_TIMELINE_TYPES:
                recovery_rows.append(recovery_timeline_row(event))
            tick = event.get("tick", 0)
            first_tick = tick if first_tick is None else min(first_tick, tick)
            last_tick = tick if last_tick is None else max(last_tick, tick)

    total = sum(by_type.values())
    print(f"\ntrace: {total} events, ticks [{first_tick}, {last_tick}]")
    print_table(
        "events by type",
        [(name, n) for name, n in by_type.most_common()],
        ("type", "count"),
    )
    if by_instance:
        print_table(
            "schedule decisions by instance",
            [(op, n) for op, n in sorted(by_instance.items())],
            ("instance", "count"),
        )
    if scale_rows:
        scale_rows.sort(key=lambda r: r[0])
        print_table(
            "scale-event timeline (rejoins, drains, controller decisions)",
            scale_rows,
            ("tick", "event", "instance", "at", "detail"),
        )
    if recovery_rows:
        recovery_rows.sort(key=lambda r: r[0])
        print_table(
            "recovery timeline (checkpoints, restarts, re-attaches)",
            recovery_rows,
            ("tick", "event", "instance", "at", "detail"),
        )


def load_snapshots(path):
    """Reads one snapshot (classic) or a JSONL file of them (multi-source).

    The multi-source example writes one Snapshot::to_json() document per
    scheduler view, one per line. A plain single-document file (possibly
    pretty-printed across lines) is still accepted first, so existing
    artifacts parse exactly as before.
    """
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        docs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"error: {path}:{lineno}: neither a JSON document "
                         f"nor JSONL ({e})")
        if not docs:
            sys.exit(f"error: {path}: empty file")
        return docs


def merge_snapshots(docs):
    """Folds per-view snapshots into one registry-shaped document.

    Views publish under disjoint namespaces (`posg.*` for source 0,
    `posg.s<id>.*` otherwise), so collisions only occur for genuinely
    shared names — summed for counters and histogram mass, last-wins for
    gauges, mirroring how a single registry would have accumulated them.
    """
    merged = {"schema": docs[0].get("schema"),
              "counters": {}, "gauges": {}, "histograms": {}}
    for doc in docs:
        for name, value in doc.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(doc.get("gauges", {}))
        for name, hist in doc.get("histograms", {}).items():
            into = merged["histograms"].setdefault(
                name, {"count": 0, "sum": 0, "buckets": {}})
            into["count"] += hist.get("count", 0)
            into["sum"] += hist.get("sum", 0)
            for index, n in hist.get("buckets", {}).items():
                into["buckets"][index] = into["buckets"].get(index, 0) + n
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot",
                        help="posg-metrics/1 JSON file (or JSONL, one "
                             "snapshot per scheduler view)")
    parser.add_argument("--trace", help="TraceRing JSONL dump to summarize")
    args = parser.parse_args()

    docs = load_snapshots(args.snapshot)
    for doc in docs:
        schema = doc.get("schema")
        if schema != "posg-metrics/1":
            sys.exit(f"error: {args.snapshot}: unexpected schema {schema!r}")

    snapshot = docs[0] if len(docs) == 1 else merge_snapshots(docs)
    if len(docs) == 1:
        print(f"{args.snapshot}: schema {snapshot.get('schema')}")
    else:
        print(f"{args.snapshot}: schema {snapshot.get('schema')} "
              f"({len(docs)} snapshots merged)")
    report_metrics(snapshot)
    if args.trace:
        report_trace(args.trace)


if __name__ == "__main__":
    main()
