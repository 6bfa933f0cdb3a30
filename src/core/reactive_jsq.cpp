#include "core/reactive_jsq.hpp"

namespace posg::core {

ReactiveJsqScheduler::ReactiveJsqScheduler(std::size_t instances)
    : reported_backlog_(instances, 0.0), sent_since_report_(instances, 0) {
  common::require(instances >= 1, "ReactiveJsqScheduler: need at least one instance");
}

common::TimeMs ReactiveJsqScheduler::effective_load(common::InstanceId instance) const noexcept {
  // The scheduler does not know per-tuple costs; everything routed since
  // the last report is valued at the reported mean execution time.
  return reported_backlog_[instance] +
         static_cast<double>(sent_since_report_[instance]) * mean_execution_time_;
}

Decision ReactiveJsqScheduler::schedule(common::Item item, common::SeqNo seq) {
  (void)item;
  (void)seq;
  common::InstanceId best = 0;
  common::TimeMs best_load = effective_load(0);
  for (common::InstanceId op = 1; op < reported_backlog_.size(); ++op) {
    const common::TimeMs load = effective_load(op);
    if (load < best_load) {
      best_load = load;
      best = op;
    }
  }
  ++sent_since_report_[best];
  return Decision{best, std::nullopt};
}

void ReactiveJsqScheduler::on_feedback(FeedbackEvent&& event) {
  const auto* report = std::get_if<LoadReport>(&event);
  if (report == nullptr) {
    return;
  }
  common::require(report->instance < reported_backlog_.size(),
                  "ReactiveJsqScheduler: report from unknown instance");
  common::require(report->backlog >= 0.0 && report->mean_execution_time >= 0.0,
                  "ReactiveJsqScheduler: negative report");
  reported_backlog_[report->instance] = report->backlog;
  sent_since_report_[report->instance] = 0;
  mean_execution_time_ = report->mean_execution_time;
}

}  // namespace posg::core
