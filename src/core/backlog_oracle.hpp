#pragma once

#include <functional>
#include <vector>

#include "core/scheduler.hpp"

namespace posg::core {

/// Extension baseline (not in the paper): join-least-backlog with an
/// exact-cost oracle.
///
/// Where the paper's greedy scheduler minimizes *cumulated* assigned work
/// (makespan semantics), this policy tracks the work currently *pending*
/// on each instance — assigned minus executed — which is the reactive
/// "ask the queues" strategy the introduction argues against, given the
/// best possible information. Comparing it to POSG quantifies how much of
/// POSG's gain comes from proactivity vs. from cost knowledge.
class BacklogOracleScheduler final : public Scheduler {
 public:
  using Oracle =
      std::function<common::TimeMs(common::Item, common::InstanceId, common::SeqNo)>;

  BacklogOracleScheduler(std::size_t instances, Oracle oracle);

  Decision schedule(common::Item item, common::SeqNo seq) override;
  /// Subtracts each TupleExecuted's work from its instance's backlog.
  void on_feedback(FeedbackEvent&& event) override;
  std::size_t instances() const override { return backlog_.size(); }
  std::string name() const override { return "backlog-oracle"; }

  const std::vector<common::TimeMs>& backlogs() const noexcept { return backlog_; }

 private:
  Oracle oracle_;
  std::vector<common::TimeMs> backlog_;
};

}  // namespace posg::core
