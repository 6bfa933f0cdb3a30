#pragma once

#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "core/instance_tracker.hpp"
#include "core/multi_source.hpp"
#include "core/scheduler.hpp"
#include "metrics/completion.hpp"
#include "obs/metrics_registry.hpp"

/// Discrete-event simulator of the paper's system model (Sec. II): a
/// source injecting tuples at a fixed rate into a scheduler S that routes
/// them to k parallel operator instances, each a FIFO, work-conserving
/// server.
namespace posg::sim {

/// Per-run message accounting (the measurable side of Theorem 3.3).
struct MessageCounts {
  std::uint64_t sketch_shipments = 0;
  std::uint64_t sync_markers = 0;  // piggy-backed, but counted
  std::uint64_t sync_replies = 0;

  std::uint64_t control_total() const noexcept {
    return sketch_shipments + sync_markers + sync_replies;
  }
};

/// One simulation run.
class Simulator {
 public:
  /// True execution time of `item` when instance `instance` processes the
  /// tuple with sequence number `seq`.
  using CostFunction =
      std::function<common::TimeMs(common::Item, common::InstanceId, common::SeqNo)>;

  struct Config {
    std::size_t instances = 5;
    /// Fixed inter-tuple arrival delay at the source.
    common::TimeMs inter_arrival = 1.0;
    /// One-way latency on the data path (scheduler -> instance).
    common::TimeMs data_latency = 0.0;
    /// Optional per-instance data-path latencies (heterogeneous
    /// placement, e.g. some instances on remote racks). When non-empty it
    /// overrides `data_latency` and must have one entry per instance.
    std::vector<common::TimeMs> per_instance_data_latency;
    /// One-way latency on the control path (instance -> scheduler:
    /// sketch shipments, sync replies, load reports).
    common::TimeMs control_latency = 1.0;
    /// Period of the instances' queue-state reports (reactive policies;
    /// Sec. I's "periodically collect the load" strategy). 0 disables
    /// reporting.
    common::TimeMs load_report_period = 0.0;
    /// POSG parameters used by the instance-side trackers. Trackers run
    /// for every scheduling policy (they are part of the operator
    /// instances); non-POSG schedulers simply ignore their shipments.
    core::PosgConfig posg;
    /// Optional metrics sink (not owned; must outlive run()). The run
    /// publishes its counters (`posg.sim.*`), a completion-latency
    /// histogram in microseconds, and a PosgScheduler's family
    /// (`posg.scheduler.*`, `posg.health.*`) by value, so the sink keeps
    /// nothing that borrows the scheduler. Repeated runs accumulate:
    /// counters add, gauges keep the last run's value.
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Result {
    metrics::CompletionSeries completions;
    MessageCounts messages;
    /// Makespan: time the last instance goes idle.
    common::TimeMs makespan = 0.0;
    /// Total executed work per instance (for balance diagnostics).
    std::vector<common::TimeMs> instance_work;
    /// Tuples routed per instance.
    std::vector<std::uint64_t> instance_tuples;
    /// Tuples routed by each source's view (one entry when S = 1).
    /// Conservation over the shared pool:
    /// Σ_s source_routed[s] == Σ_op instance_tuples[op] == |stream|.
    std::vector<std::uint64_t> source_routed;
    /// per_source_instance_tuples[s][op]: source s's tuples executed at
    /// op — the per-cell side of the conservation check (each view bills
    /// exactly what it routed; row sums match source_routed).
    std::vector<std::vector<std::uint64_t>> per_source_instance_tuples;
  };

  Simulator(Config config, CostFunction cost);

  /// Replays `stream` through `scheduler` and returns the metrics.
  /// The scheduler is driven exactly as a deployment would: tuples in
  /// timestamp order, control messages delivered after control_latency.
  Result run(const std::vector<common::Item>& stream, core::Scheduler& scheduler);

  /// Multi-source replay over the same event loop: arrivals are assigned
  /// to the S sources round-robin (tuple `seq` belongs to source
  /// `seq % S`), each source's view routes its own tuples over the SHARED
  /// instance pool, and every instance keeps one tracker PER SOURCE —
  /// exactly the per-session billing InstanceRuntime performs — so
  /// sketches and sync replies flow back to the view that routed the
  /// work. With S = 1 this is run()'s decision stream. Load reports are a
  /// single-source feature and must be disabled; executed notices and the
  /// scheduler's metric family are run()-only.
  Result run_multi(const std::vector<common::Item>& stream,
                   core::MultiSourceScheduler& scheduler);

 private:
  /// The one event loop behind run() and run_multi(), instantiated once
  /// per scheduler shape (compile-time dispatch, no per-event
  /// indirection).
  template <typename SchedulerT>
  Result replay(const std::vector<common::Item>& stream, SchedulerT& scheduler);

  Config config_;
  CostFunction cost_;
};

}  // namespace posg::sim
