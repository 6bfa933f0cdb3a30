#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "common/sync.hpp"
#include "core/instance_pool.hpp"
#include "core/posg_scheduler.hpp"
#include "engine/grouping.hpp"

namespace posg::engine {

/// POSG as an engine grouping — the equivalent of the paper's custom
/// Apache Storm grouping (Sec. V-C).
///
/// Wraps a core::PosgScheduler behind a mutex: route() runs in the
/// emitting executor's thread, feedback (sketch shipments, sync replies)
/// arrives from the receiving bolts' executor threads. An optional
/// artificial control-path delay emulates scheduler/instance placement on
/// different machines; with the default of zero the only control latency
/// is the genuine thread/queue asynchrony.
class PosgGrouping final : public Grouping {
 public:
  explicit PosgGrouping(std::size_t k, const core::PosgConfig& config,
                        std::chrono::microseconds control_delay = std::chrono::microseconds{0});

  /// Multi-source construction (DESIGN.md §15): this grouping is source
  /// `source`'s scheduler view over a SHARED instance pool — S groupings
  /// built over the same pool see one membership (a quarantine by any
  /// source's view reaches every sibling through the pool's event log)
  /// while each bills only the tuples it routed. The pool stays the
  /// authority: k is pool->size(), and restore-style adoption never
  /// happens (private_pool = false underneath).
  PosgGrouping(std::shared_ptr<core::InstancePool> pool, const core::PosgConfig& config,
               common::SourceId source,
               std::chrono::microseconds control_delay = std::chrono::microseconds{0});
  ~PosgGrouping() override;

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
  /// Sketch-backed cost estimate for the engine's load shedder (nullopt
  /// while the scheduler is still in ROUND_ROBIN).
  std::optional<double> cost_estimate(const Tuple& tuple) const override;
  /// Queue-occupancy sample feeding the straggler detector's skew signal.
  void on_queue_sample(common::InstanceId instance, double occupancy) override;
  /// "posg" for the classic single-source grouping; "posg.s<id>" for a
  /// shared-pool view so S groupings stay distinguishable in reports.
  std::string name() const override;

  /// The source id this view bills under (0 for the classic constructor).
  common::SourceId source() const noexcept { return source_; }

  /// The POSG configuration the receiving executors must use for their
  /// instance trackers (sketch layout and seed must match).
  const core::PosgConfig& config() const noexcept { return config_; }

  core::PosgScheduler::State scheduler_state() const;

 private:
  struct Delivery {
    Clock::time_point due;
    std::optional<core::SketchShipment> shipment;
    std::optional<core::SyncReply> reply;
  };

  void deliver_now(Delivery&& delivery);
  void delay_worker();

  // Locking discipline (threads involved: the emitting executor calling
  // route(), the receiving bolts' executors delivering feedback, and —
  // when control_delay_ > 0 — the delay thread); machine-checked per
  // DESIGN.md §12:
  //   - mutex_ guards scheduler_ alone; every scheduler call (route,
  //     deliver_now, scheduler_state) takes it.
  //   - delay_mutex_ guards delayed_ and stopping_; delay_cv_ is its
  //     condition. deliver_now is always called with delay_mutex_
  //     *released* (delay_worker unlocks around it), so the two mutexes
  //     are never held together — which is why both carry the same
  //     kSchedulerState rank (equal ranks may never nest).
  //   - config_ and control_delay_ are immutable after construction.
  core::PosgConfig config_;
  std::chrono::microseconds control_delay_;
  common::SourceId source_ = 0;
  bool shared_pool_ = false;

  mutable Mutex mutex_{"engine::PosgGrouping::mutex_", lock_rank::kSchedulerState};
  core::PosgScheduler scheduler_ GUARDED_BY(mutex_);

  // Delayed-delivery machinery (only active when control_delay_ > 0).
  Mutex delay_mutex_{"engine::PosgGrouping::delay_mutex_", lock_rank::kSchedulerState};
  CondVar delay_cv_;
  std::deque<Delivery> delayed_ GUARDED_BY(delay_mutex_);
  bool stopping_ GUARDED_BY(delay_mutex_) = false;
  std::thread delay_thread_;
};

}  // namespace posg::engine
