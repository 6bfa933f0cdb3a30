#pragma once

#include <vector>

#include "core/scheduler.hpp"

namespace posg::core {

/// Reactive join-shortest-queue — the strategy the paper's introduction
/// argues against (Sec. I: "periodically collect at the scheduler the
/// load of the operator instances ... this solution only allows for
/// reactive scheduling, where input tuples are scheduled on the basis of
/// a previous, possibly stale, load state").
///
/// The scheduler holds the latest *reported* backlog per instance and
/// routes every tuple to the minimum, counting what it has sent since
/// the report (it cannot know per-tuple costs, so each in-flight tuple
/// counts as one average unit). Reports arrive as LoadReport feedback
/// events; their period and latency — i.e. their staleness —
/// are the substrate's business (the simulator exposes both), and the
/// `ablation_reactive` bench sweeps them against POSG.
class ReactiveJsqScheduler final : public Scheduler {
 public:
  explicit ReactiveJsqScheduler(std::size_t instances);

  Decision schedule(common::Item item, common::SeqNo seq) override;
  std::size_t instances() const override { return reported_backlog_.size(); }
  std::string name() const override { return "reactive-jsq"; }

  /// Consumes LoadReport events (other kinds are ignored): `backlog` is
  /// the work (in time units) queued at the instance when the report was
  /// taken. Resets the sent-since-report counter for that instance.
  void on_feedback(FeedbackEvent&& event) override;

 private:
  /// Reported backlog plus an optimistic estimate of what we sent since.
  common::TimeMs effective_load(common::InstanceId instance) const noexcept;

  std::vector<common::TimeMs> reported_backlog_;
  std::vector<std::uint64_t> sent_since_report_;
  common::TimeMs mean_execution_time_ = 0.0;
};

}  // namespace posg::core
