#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/feedback.hpp"
#include "core/instance_pool.hpp"
#include "core/posg_scheduler.hpp"

namespace posg::core {

/// The one S > 1 policy (DESIGN.md §15). Right before source `self`
/// routes, its view installs Σ_{s ≠ self} Ĉ_s as its external load, so its
/// greedy argmin sees what the siblings have put on each instance. Sums
/// run in source order from 0.0, one instance slot per entry of `sum`.
/// `read_loads(s, add)` calls `add(loads)` once with source s's current Ĉ
/// while it holds whatever guards that view, or not at all for a source
/// that is down; it is never called for `self`, whose own Ĉ is already
/// the base term of its greedy score.
template <typename ReadLoads>
void sibling_loads(std::size_t sources, common::SourceId self, ReadLoads&& read_loads,
                   std::vector<common::TimeMs>& sum) {
  std::fill(sum.begin(), sum.end(), 0.0);
  const auto add = [&sum](const std::vector<common::TimeMs>& loads) {
    for (std::size_t op = 0; op < sum.size(); ++op) {
      sum[op] += loads[op];
    }
  };
  for (common::SourceId s = 0; s < sources; ++s) {
    if (s != self) {
      read_loads(s, add);
    }
  }
}

/// In-process coordinator for S sources sharing one instance pool: owns
/// the pool plus S PosgScheduler views and routes each source's tuples
/// through its own view (DESIGN.md §15).
///
/// With S > 1, schedule() first reads every sibling view's Ĉ and installs
/// the sum (sibling_loads) as the routing view's external load, then
/// decides. Concurrency contract: each view is guarded by its own mutex,
/// so S executor threads may route concurrently (one per source). Locks
/// are only ever held one at a time: the sibling reads take each
/// sibling's lock in turn, then the routing view's own lock is taken to
/// install and decide. View rank kSchedulerState < pool rank
/// kInstancePool, so the lock ladder of DESIGN.md §12 is respected.
///
/// With S == 1 this is a pass-through wrapper around a stock
/// PosgScheduler: no external loads are ever installed and the golden
/// scheduling streams stay byte-identical.
class MultiSourceScheduler {
 public:
  /// `sources` is the number S of independent sources routing over the
  /// shared pool (>= 1). There is one S > 1 policy and it has no knob:
  /// before each decision a view reads its siblings' Ĉ (sibling_loads).
  MultiSourceScheduler(std::size_t instances, const PosgConfig& config, std::size_t sources);

  std::size_t sources() const noexcept { return views_.size(); }
  std::size_t instances() const noexcept { return pool_->size(); }
  const std::shared_ptr<InstancePool>& pool() const noexcept { return pool_; }

  /// Routes one tuple of `source` through that source's view. Thread-safe
  /// across *different* sources; calls for the same source must be
  /// externally serialized (they are — a source is a single logical
  /// emitter).
  Decision schedule(common::SourceId source, common::Item item, common::SeqNo seq);

  /// Feedback addressed to `source`'s view (the instance replies to the
  /// view whose marker/sketch-request it received — source-stamped frames
  /// on the wire, direct addressing in-process).
  void on_feedback(common::SourceId source, FeedbackEvent&& event);

  /// Membership transitions, initiated through `source`'s view and
  /// published to the pool; peers adopt them on their next decision.
  void mark_failed(common::SourceId source, common::InstanceId op);
  void rejoin(common::SourceId source, common::InstanceId op);

  /// Per-view read access for tests/metrics. The reference is only safe
  /// to use while no other thread routes for that source — same contract
  /// as schedule().
  PosgScheduler& view(common::SourceId source);
  const PosgScheduler& view(common::SourceId source) const;

  /// Decisions routed by `source`'s view (Σ over sources == tuples the
  /// pool executed — the conservation gate).
  std::uint64_t decisions(common::SourceId source) const;
  std::uint64_t total_decisions() const;

 private:
  struct SourceView {
    explicit SourceView(const char* name) : mutex(name, lock_rank::kSchedulerState) {}
    mutable Mutex mutex;
    std::unique_ptr<PosgScheduler> scheduler GUARDED_BY(mutex);
    /// Σ of the siblings' Ĉ, rebuilt before each decision. Only this
    /// source's schedule() touches it, and callers serialize those.
    std::vector<common::TimeMs> sibling_load;
  };

  std::shared_ptr<InstancePool> pool_;
  std::vector<std::unique_ptr<SourceView>> views_;
};

}  // namespace posg::core
