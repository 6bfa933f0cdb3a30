#include "core/multi_source.hpp"

#include <utility>

#include "common/check.hpp"

namespace posg::core {

MultiSourceScheduler::MultiSourceScheduler(std::size_t instances, const PosgConfig& config,
                                           std::size_t sources)
    : pool_(std::make_shared<InstancePool>(instances)) {
  common::require(sources >= 1, "MultiSourceScheduler: sources must be >= 1");
  views_.reserve(sources);
  for (common::SourceId s = 0; s < sources; ++s) {
    auto view = std::make_unique<SourceView>("core::MultiSourceScheduler::view");
    MutexLock lock(view->mutex);
    view->scheduler = std::make_unique<PosgScheduler>(pool_, config, s);
    lock.unlock();
    view->sibling_load.resize(instances);
    views_.push_back(std::move(view));
  }
}

Decision MultiSourceScheduler::schedule(common::SourceId source, common::Item item,
                                        common::SeqNo seq) {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  SourceView& view = *views_[source];
  const bool siblings = views_.size() > 1;
  if (siblings) {
    // Read the siblings before taking this view's lock: one view lock at
    // a time, never nested.
    sibling_loads(
        views_.size(), source,
        [this](common::SourceId s, const auto& add) {
          MutexLock lock(views_[s]->mutex);
          add(views_[s]->scheduler->estimated_loads());
        },
        view.sibling_load);
  }
  MutexLock lock(view.mutex);
  if (siblings) {
    view.scheduler->set_external_loads(view.sibling_load);
  }
  return view.scheduler->schedule(item, seq);
}

void MultiSourceScheduler::on_feedback(common::SourceId source, FeedbackEvent&& event) {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  SourceView& view = *views_[source];
  MutexLock lock(view.mutex);
  view.scheduler->on_feedback(std::move(event));
}

void MultiSourceScheduler::mark_failed(common::SourceId source, common::InstanceId op) {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  SourceView& view = *views_[source];
  MutexLock lock(view.mutex);
  view.scheduler->mark_failed(op);
}

void MultiSourceScheduler::rejoin(common::SourceId source, common::InstanceId op) {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  SourceView& view = *views_[source];
  MutexLock lock(view.mutex);
  view.scheduler->rejoin(op);
}

PosgScheduler& MultiSourceScheduler::view(common::SourceId source) {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  MutexLock lock(views_[source]->mutex);
  return *views_[source]->scheduler;
}

const PosgScheduler& MultiSourceScheduler::view(common::SourceId source) const {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  MutexLock lock(views_[source]->mutex);
  return *views_[source]->scheduler;
}

std::uint64_t MultiSourceScheduler::decisions(common::SourceId source) const {
  common::require(source < views_.size(), "MultiSourceScheduler: unknown source");
  MutexLock lock(views_[source]->mutex);
  return views_[source]->scheduler->decisions();
}

std::uint64_t MultiSourceScheduler::total_decisions() const {
  std::uint64_t total = 0;
  for (common::SourceId s = 0; s < views_.size(); ++s) {
    total += decisions(s);
  }
  return total;
}

}  // namespace posg::core
