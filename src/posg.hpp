#pragma once

/// Umbrella header: the stable public surface of the POSG reproduction.
///
/// Examples and downstream users include only this header; the grouping
/// below is the supported API. Internal building blocks (greedy index,
/// backlog oracle, sketch snapshots, wire protocol internals) are
/// deliberately not re-exported — include their headers directly at your
/// own risk of churn.
///
/// Layers, bottom up:
///   common/   types, CLI parsing, error hierarchy (posg::Error)
///   obs/      metrics registry, trace ring
///   core/     per-component configs, POSG scheduler + baselines
///   engine/   multi-threaded topology runtime with shuffle groupings
///   net/      framed Unix-domain sockets + deterministic fault injection
///   runtime/  distributed scheduler/instance event loops
///   sim/      discrete-event simulator + paper experiment harness
///   workload/ stream generators and skew distributions

// --- common: vocabulary types, errors, CLI, deterministic PRNG ---
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"

// --- observability: metrics, tracing ---
#include "obs/metrics_registry.hpp"
#include "obs/trace_ring.hpp"

// --- core: configurations, messages, schedulers ---
#include "core/config.hpp"
#include "core/elastic.hpp"
#include "core/full_knowledge.hpp"
#include "core/messages.hpp"
#include "core/multi_source.hpp"
#include "core/posg_scheduler.hpp"
#include "core/reactive_jsq.hpp"
#include "core/round_robin.hpp"
#include "core/scheduler.hpp"
#include "core/two_choices.hpp"

// --- engine: in-process topology runtime ---
#include "engine/builtin.hpp"
#include "engine/engine.hpp"
#include "engine/posg_grouping.hpp"
#include "engine/topology.hpp"

// --- net + runtime: the distributed deployment ---
#include "net/fault_injection.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "runtime/instance_runtime.hpp"
#include "runtime/scheduler_runtime.hpp"

// --- sketch: the Count-Min/Space-Saving substrate (Sec. III) ---
#include "sketch/analysis.hpp"
#include "sketch/dual_sketch.hpp"
#include "sketch/serialize.hpp"
#include "sketch/snapshot.hpp"

// --- metrics: completion series and resilience stats ---
#include "metrics/completion.hpp"
#include "metrics/stats.hpp"

// --- sim + workload: the paper's experiments ---
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/distributions.hpp"
#include "workload/exec_time.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"
#include "workload/tweets.hpp"
