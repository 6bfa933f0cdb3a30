#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/instance_tracker.hpp"
#include "engine/channel.hpp"
#include "engine/completion_recorder.hpp"
#include "engine/queue.hpp"
#include "engine/topology.hpp"
#include "obs/metrics_registry.hpp"

namespace posg::engine {

/// EngineConfig is declared in core/config.hpp beside the other
/// components' configs; Engine's constructor checks it.
using EngineConfig = ::posg::EngineConfig;

class Engine;

/// Emission interface handed to spouts and bolts. Stages each emitted
/// tuple per target stream; routing happens at flush time over the whole
/// staged batch.
///
/// Staging, not pushing: emissions accumulate in per-stream pending
/// batches and the executor loop flushes them right after each
/// next()/execute() callback returns. The flush routes the batch with one
/// Grouping::route_batch call (POSG pays its lock and argmin once per
/// batch, not once per tuple — DESIGN.md §13), scatters the routed tuples
/// into per-instance runs, and hands each run to its channel with one
/// push_all. A component that emits a burst in one callback pays one
/// synchronization per touched channel instead of one per tuple, while
/// the flush-per-callback boundary keeps the pacing and latency semantics
/// of unbatched emission: nothing an invocation emitted is still buffered
/// by the time the next invocation (or the component's own inter-arrival
/// sleep) begins.
class OutputCollector {
 public:
  /// Emits `tuple` downstream. For spout emissions the engine assigns the
  /// sequence number and injection timestamp; bolt emissions keep both
  /// (the tuple lineage shares one completion measurement).
  void emit(Tuple tuple);

  /// Number of tuples emitted through this collector.
  std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  friend class Engine;
  OutputCollector(Engine& engine, std::size_t component_index, bool is_spout)
      : engine_(engine), component_index_(component_index), is_spout_(is_spout) {}

  /// Staged emissions for one target stream, index-parallel with the
  /// component's outputs vector. Tuples are staged *pre-route* — the
  /// instance choice is deferred to the flush so the grouping sees the
  /// whole batch. All vectors are reused across flushes.
  struct PendingStream {
    std::vector<Tuple> tuples;
  };

  /// Routes and delivers every staged batch (Engine::flush_stream).
  /// Called by the executor loop after every component callback; a closed
  /// channel drops the remainder of its run, exactly as per-tuple push()
  /// drops on a closed queue.
  void flush();

  Engine& engine_;
  std::size_t component_index_;  // index into the engine's component table
  bool is_spout_;
  std::uint64_t emitted_ = 0;
  std::vector<PendingStream> pending_;
  /// flush_stream scratch: routed decisions and the per-instance scatter
  /// runs, kept across flushes so the steady state does not allocate.
  std::vector<Route> routes_;
  std::vector<std::vector<Tuple>> scatter_;
};

/// Multi-threaded runtime for a Topology: one executor thread per
/// component instance, bounded queues in between, POSG feedback wiring
/// when a stream uses a feedback-wanting grouping.
///
/// Lifecycle: construct, run() (blocking; spouts run to exhaustion, then
/// bolts drain in topological order), then read completions() and stats.
class Engine {
 public:
  struct ComponentStats {
    std::uint64_t executed = 0;
    std::uint64_t emitted = 0;
    std::uint64_t errors = 0;
    /// Per-instance executed-tuple counts.
    std::vector<std::uint64_t> per_instance;
    /// Per-instance total execution (busy) time, ms.
    std::vector<common::TimeMs> busy_ms;
    /// Per-instance input-queue high-watermark (max occupancy observed at
    /// dequeue time).
    std::vector<std::size_t> queue_peak;
    /// Always 0: producers block on a full queue, so no tuple is dropped.
    /// Kept only because perfbench's engine workload reads it in its
    /// output check; delete it with that check.
    std::uint64_t shed = 0;
  };

  Engine(Topology topology, EngineConfig config = {});

  /// Runs the topology to completion. May be called once.
  void run();

  /// Completion times recorded at terminal bolts (valid after run()).
  const CompletionRecorder& completions() const noexcept { return recorder_; }

  /// Post-run statistics for one component.
  ComponentStats stats(const std::string& component) const;

  /// The engine's metrics registry. Every component's executed / emitted /
  /// errors counters are registered here as pull callbacks
  /// (`posg.engine.<component>.*`) over the same atomics stats() reads, so
  /// snapshots are safe at any time — including mid-run from another
  /// thread. Callers may add their own instruments; handles stay valid for
  /// the engine's lifetime.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  friend class OutputCollector;

  struct StreamTarget {
    Grouping* grouping;        // owned by the topology's shared_ptr
    std::size_t bolt_index;    // index into bolts_
  };

  // Locking discipline: channels are internally synchronized (BoundedQueue
  // owns its mutex; SpscRing is lock-free with runtime-claimed roles);
  // executed/emitted/errors are atomics shared by all of
  // the bolt's executor threads; the per_instance_* vectors are each
  // written only by the executor thread that owns that instance slot and
  // read by stats() after run() joined every thread (the join provides the
  // happens-before edge). Groupings are shared by all emitting threads and
  // must be internally thread-safe (see Grouping's contract).
  struct BoltRuntime {
    Topology::BoltSpec spec;
    /// Input channels, one per instance: SPSC rings when exactly one
    /// upstream executor thread feeds this bolt, MPMC BoundedQueues
    /// otherwise (the constructor counts upstream instances).
    std::vector<std::unique_ptr<TupleChannel>> queues;
    bool single_producer = false;
    std::vector<std::thread> threads;
    std::vector<StreamTarget> outputs;
    /// The single feedback-wanting grouping among this bolt's inputs
    /// (nullptr when none). Executors then run instance trackers.
    Grouping* feedback = nullptr;
    bool terminal = false;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> emitted{0};
    std::atomic<std::uint64_t> errors{0};
    std::vector<std::uint64_t> per_instance_executed;  // written by owner thread
    std::vector<common::TimeMs> per_instance_busy_ms;  // written by owner thread
    std::vector<std::size_t> per_instance_queue_peak;  // written by owner thread
  };

  struct SpoutRuntime {
    Topology::SpoutSpec spec;
    std::vector<std::thread> threads;
    std::vector<StreamTarget> outputs;
    std::atomic<std::uint64_t> emitted{0};
  };

  /// Stages one emission on every target stream's pending batch (copies
  /// for all targets but the last, arena-backed; move into the last).
  void route_emit(const std::vector<StreamTarget>& targets, Tuple tuple,
                  OutputCollector& collector);
  /// Routes one staged stream batch (one Grouping::route_batch call),
  /// scatters by instance, and hands each per-instance run to its channel
  /// with one blocking push_all.
  void flush_stream(const StreamTarget& target, std::vector<Tuple>& tuples,
                    OutputCollector& collector);
  void spout_main(std::size_t index, common::InstanceId instance);
  void bolt_main(std::size_t index, common::InstanceId instance);

  EngineConfig config_;
  Topology topology_;
  std::vector<std::unique_ptr<SpoutRuntime>> spouts_;
  std::vector<std::unique_ptr<BoltRuntime>> bolts_;
  CompletionRecorder recorder_;
  std::atomic<common::SeqNo> next_seq_{0};
  bool ran_ = false;
  obs::MetricsRegistry metrics_;
  /// Tuples per route_batch call (posg.engine.batch_fill): how full the
  /// micro-batches actually run — the knob's effectiveness signal.
  obs::Histogram* batch_fill_ = nullptr;
};

}  // namespace posg::engine
