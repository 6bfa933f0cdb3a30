#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/sync.hpp"

/// Always-on-capable event tracing: a fixed-capacity, drop-oldest ring of
/// small typed binary events. Components record milestones (a schedule
/// decision, an epoch advance, a health transition); the ring keeps the
/// most recent `capacity` of them and can dump to JSONL for offline
/// correlation with a chaos-soak seed.
///
/// Overhead contract: when tracing is disabled (the default), `record`
/// and `Writer::record` cost exactly one relaxed atomic load and one
/// predictable branch — cheap enough to leave compiled into the per-tuple
/// path (the bench gate in tools/run_obs_overhead_gate.sh enforces it).
/// When enabled, `Writer` stages events in a plain thread-local buffer
/// (one store per event) and amortizes the ring mutex over a batch.
namespace posg::obs {

/// Event taxonomy (see DESIGN.md §10 for field meanings per type).
enum class TraceEventType : std::uint8_t {
  /// One routing decision: instance = pick, a = tuple seq, value = Ĉ[pick].
  kScheduleDecision = 0,
  /// Scheduler state change around an epoch: a = epoch, detail = new state.
  kEpochAdvance = 1,
  /// A sketch shipment was accepted: instance = sender, a = epoch.
  kSketchShip = 2,
  /// A sync Δ was applied: instance = replier, a = epoch, value = Δ.
  kSyncDelta = 3,
  /// HealthMonitor FSM edge: instance, detail = (from << 4) | to,
  /// value = drift EWMA at the transition.
  kHealthTransition = 4,
  // 5 is unused: it named the engine's load-shedding window, which is
  // gone; the later values keep their numbers.
  /// Instance re-admitted after quarantine: instance, a = epoch.
  kRejoin = 6,
  /// Lossless drain opened: instance leaves rotation, a = epoch,
  /// value = Ĉ cut carried by the DrainRequest.
  kDrainBegin = 7,
  /// Drain finished and the instance retired: instance, a = epoch,
  /// value = final billed Ĉ (cut + final Δ).
  kDrainComplete = 8,
  /// ElasticController action: detail = ScaleAction::Kind (1 = scale-up,
  /// 2 = drain; 3 is unused), a = controller sample ordinal,
  /// value = predicted backlog (ms) at the decision.
  kScaleDecision = 9,
  /// A control-state checkpoint hit disk (core/checkpoint.hpp):
  /// a = checkpointed epoch, value = encoded payload bytes.
  kCheckpointWrite = 10,
  /// Scheduler runtime construction consulted a checkpoint:
  /// detail = 1 restored / 0 cold start (missing, torn, or rejected),
  /// a = restored epoch (0 on cold start).
  kRecoveryBegin = 11,
  /// An instance re-attached after a scheduler restart: instance,
  /// a = epoch at re-attach, value = seeded Ĉ cut in the ReattachAck.
  kReattach = 12,
};

const char* trace_event_name(TraceEventType type) noexcept;

/// One fixed-size binary trace record. `tick` is a ring-assigned
/// monotone sequence number (drop-oldest order), filled at publish time.
struct TraceEvent {
  TraceEventType type{TraceEventType::kScheduleDecision};
  std::uint8_t detail = 0;
  std::uint16_t component = 0;
  std::uint32_t instance = 0;
  std::uint64_t a = 0;
  double value = 0.0;
  std::uint64_t tick = 0;
};

class TraceRing {
 public:
  /// Throws std::invalid_argument if capacity == 0.
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Arms/disarms recording. Disarming does not clear retained events.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Publishes one event (takes the ring mutex when enabled; a single
  /// relaxed load + branch when disabled). Never throws.
  void record(TraceEvent event) noexcept;

  /// Per-thread staging buffer: `record` appends to a plain vector and
  /// only takes the ring mutex every `stage_capacity` events (and on
  /// destruction / explicit flush). One Writer per thread; the Writer
  /// itself is not thread-safe, the ring behind it is.
  class Writer {
   public:
    explicit Writer(TraceRing& ring, std::size_t stage_capacity = 64);
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;
    ~Writer();

    void record(TraceEvent event) {
      if (!ring_.enabled()) {
        return;  // the one-branch disabled fast path
      }
      staged_.push_back(event);
      if (staged_.size() >= stage_capacity_) {
        flush();
      }
    }

    void flush();

   private:
    TraceRing& ring_;
    std::size_t stage_capacity_;
    std::vector<TraceEvent> staged_;
  };

  /// Retained events, oldest first, with `tick` stamped.
  std::vector<TraceEvent> snapshot() const;

  /// Total events ever published (including since-dropped ones).
  std::uint64_t recorded() const;
  /// Events lost to drop-oldest overwrite.
  std::uint64_t dropped() const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// One JSON object per line, oldest first:
  ///   {"tick":5,"type":"schedule_decision","instance":2,"a":17,...}
  /// Zero-valued optional fields (detail/component/value) are omitted.
  void dump_jsonl(std::ostream& out) const;

 private:
  void publish_batch(const TraceEvent* events, std::size_t n);

  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  // kTraceRing is the global leaf rank: components publish events while
  // holding their own locks, and the ring acquires nothing further.
  mutable Mutex mutex_{"obs::TraceRing::mutex_", lock_rank::kTraceRing};
  std::vector<TraceEvent> ring_ GUARDED_BY(mutex_);  // index = tick % capacity_
  std::uint64_t next_tick_ GUARDED_BY(mutex_) = 0;
};

}  // namespace posg::obs
