#include "core/backlog_oracle.hpp"

#include <algorithm>

namespace posg::core {

BacklogOracleScheduler::BacklogOracleScheduler(std::size_t instances, Oracle oracle)
    : oracle_(std::move(oracle)), backlog_(instances, 0.0) {
  common::require(instances >= 1, "BacklogOracleScheduler: need at least one instance");
  common::require(static_cast<bool>(oracle_), "BacklogOracleScheduler: oracle must be callable");
}

Decision BacklogOracleScheduler::schedule(common::Item item, common::SeqNo seq) {
  common::InstanceId best = 0;
  common::TimeMs best_backlog = backlog_[0] + oracle_(item, 0, seq);
  for (common::InstanceId op = 1; op < backlog_.size(); ++op) {
    const common::TimeMs candidate = backlog_[op] + oracle_(item, op, seq);
    if (candidate < best_backlog) {
      best_backlog = candidate;
      best = op;
    }
  }
  backlog_[best] = best_backlog;
  return Decision{best, std::nullopt};
}

void BacklogOracleScheduler::on_feedback(FeedbackEvent&& event) {
  const auto* executed = std::get_if<TupleExecuted>(&event);
  if (executed == nullptr) {
    return;
  }
  common::require(executed->instance < backlog_.size(), "BacklogOracleScheduler: unknown instance");
  backlog_[executed->instance] =
      std::max(0.0, backlog_[executed->instance] - executed->execution_time);
}

}  // namespace posg::core
