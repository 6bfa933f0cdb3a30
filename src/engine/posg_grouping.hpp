#pragma once

#include "common/sync.hpp"
#include "core/posg_scheduler.hpp"
#include "engine/grouping.hpp"

namespace posg::engine {

/// POSG as an engine grouping — the equivalent of the paper's custom
/// Apache Storm grouping (Sec. V-C).
///
/// Wraps a core::PosgScheduler behind a mutex: route() runs in the
/// emitting executor's thread, feedback (sketch shipments, sync replies)
/// arrives from the receiving bolts' executor threads, and is applied at
/// once; the only control latency is the genuine thread/queue asynchrony.
class PosgGrouping final : public Grouping {
 public:
  explicit PosgGrouping(std::size_t k, const core::PosgConfig& config);

  PosgGrouping(const PosgGrouping&) = delete;
  PosgGrouping& operator=(const PosgGrouping&) = delete;

  Route route(const Tuple& tuple, std::size_t k) override;
  /// Takes the scheduler mutex ONCE for the whole batch and schedules each
  /// tuple with the per-tuple schedule() — only the lock is amortized — so
  /// scheduling streams are byte-identical to repeated route() calls.
  void route_batch(const Tuple* tuples, std::size_t n, std::size_t k, Route* out) override;
  bool wants_feedback() const override { return true; }
  void on_sketches(const core::SketchShipment& shipment) override;
  void on_sketches(core::SketchShipment&& shipment) override;
  void on_sync_reply(const core::SyncReply& reply) override;
  const core::PosgConfig* feedback_config() const override { return &config_; }
  /// Queue-occupancy sample feeding the straggler detector's skew signal.
  void on_queue_sample(common::InstanceId instance, double occupancy) override;
  std::string name() const override { return "posg"; }

  /// The POSG configuration the receiving executors must use for their
  /// instance trackers (sketch layout and seed must match).
  const core::PosgConfig& config() const noexcept { return config_; }

  core::PosgScheduler::State scheduler_state() const;

 private:
  // Locking discipline (threads involved: the emitting executors calling
  // route(), the receiving bolts' executors delivering feedback);
  // machine-checked per DESIGN.md §12: mutex_ guards scheduler_ alone, and
  // every scheduler call takes it. config_ is immutable after
  // construction.
  core::PosgConfig config_;

  mutable Mutex mutex_{"engine::PosgGrouping::mutex_", lock_rank::kSchedulerState};
  core::PosgScheduler scheduler_ GUARDED_BY(mutex_);
};

}  // namespace posg::engine
