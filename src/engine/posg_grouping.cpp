#include "engine/posg_grouping.hpp"

namespace posg::engine {

PosgGrouping::PosgGrouping(std::size_t k, const core::PosgConfig& config)
    : config_(config), scheduler_(k, config) {}

Route PosgGrouping::route(const Tuple& tuple, std::size_t k) {
  MutexLock lock(mutex_);
  common::require(k == scheduler_.instances(), "PosgGrouping: instance count mismatch");
  const core::Decision decision = scheduler_.schedule(tuple.item, tuple.seq);
  return Route{decision.instance, decision.sync_request};
}

void PosgGrouping::route_batch(const Tuple* tuples, std::size_t n, std::size_t k, Route* out) {
  if (n == 0) {
    return;
  }
  MutexLock lock(mutex_);
  common::require(k == scheduler_.instances(), "PosgGrouping: instance count mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const core::Decision decision = scheduler_.schedule(tuples[i].item, tuples[i].seq);
    out[i] = Route{decision.instance, decision.sync_request};
  }
}

void PosgGrouping::on_sketches(const core::SketchShipment& shipment) {
  on_sketches(core::SketchShipment{shipment});
}

void PosgGrouping::on_sketches(core::SketchShipment&& shipment) {
  MutexLock lock(mutex_);
  // Hand the sketch to the scheduler by move so the r·c cell array is
  // stolen, not copied.
  scheduler_.on_feedback(std::move(shipment));
}

void PosgGrouping::on_sync_reply(const core::SyncReply& reply) {
  MutexLock lock(mutex_);
  scheduler_.on_feedback(reply);
}

void PosgGrouping::on_queue_sample(common::InstanceId instance, double occupancy) {
  MutexLock lock(mutex_);
  scheduler_.health().note_queue_depth(instance, occupancy);
}

core::PosgScheduler::State PosgGrouping::scheduler_state() const {
  MutexLock lock(mutex_);
  return scheduler_.state();
}

}  // namespace posg::engine
