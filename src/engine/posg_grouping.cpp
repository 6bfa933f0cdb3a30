#include "engine/posg_grouping.hpp"

namespace posg::engine {

PosgGrouping::PosgGrouping(std::size_t k, const core::PosgConfig& config,
                           std::chrono::microseconds control_delay)
    : config_(config), control_delay_(control_delay), scheduler_(k, config) {
  if (control_delay_.count() > 0) {
    delay_thread_ = std::thread([this] { delay_worker(); });
  }
}

PosgGrouping::PosgGrouping(std::shared_ptr<core::InstancePool> pool,
                           const core::PosgConfig& config, common::SourceId source,
                           std::chrono::microseconds control_delay)
    : config_(config),
      control_delay_(control_delay),
      source_(source),
      shared_pool_(true),
      scheduler_(std::move(pool), config, source, /*private_pool=*/false) {
  if (control_delay_.count() > 0) {
    delay_thread_ = std::thread([this] { delay_worker(); });
  }
}

std::string PosgGrouping::name() const {
  return shared_pool_ ? "posg.s" + std::to_string(source_) : "posg";
}

PosgGrouping::~PosgGrouping() {
  if (delay_thread_.joinable()) {
    {
      MutexLock lock(delay_mutex_);
      stopping_ = true;
    }
    delay_cv_.notify_all();
    delay_thread_.join();
  }
}

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

void PosgGrouping::deliver_now(Delivery&& delivery) {
  MutexLock lock(mutex_);
  if (delivery.shipment) {
    // The delivery is consumed here — hand the sketch to the scheduler by
    // move so the r·c cell array is stolen, not copied.
    scheduler_.on_feedback(std::move(*delivery.shipment));
  }
  if (delivery.reply) {
    scheduler_.on_feedback(*delivery.reply);
  }
}

void PosgGrouping::on_sketches(const core::SketchShipment& shipment) {
  on_sketches(core::SketchShipment{shipment});
}

void PosgGrouping::on_sketches(core::SketchShipment&& shipment) {
  Delivery delivery{Clock::now() + control_delay_, std::move(shipment), std::nullopt};
  if (control_delay_.count() == 0) {
    deliver_now(std::move(delivery));
    return;
  }
  {
    MutexLock lock(delay_mutex_);
    delayed_.push_back(std::move(delivery));
  }
  delay_cv_.notify_one();
}

void PosgGrouping::on_sync_reply(const core::SyncReply& reply) {
  Delivery delivery{Clock::now() + control_delay_, std::nullopt, reply};
  if (control_delay_.count() == 0) {
    deliver_now(std::move(delivery));
    return;
  }
  {
    MutexLock lock(delay_mutex_);
    delayed_.push_back(std::move(delivery));
  }
  delay_cv_.notify_one();
}

void PosgGrouping::delay_worker() {
  MutexLock lock(delay_mutex_);
  while (true) {
    // Explicit wait loops (no predicate lambdas) so the guarded reads stay
    // inside the capability scope the thread-safety analysis can see.
    while (!stopping_ && delayed_.empty()) {
      delay_cv_.wait(lock);
    }
    if (!delayed_.empty() && !stopping_) {
      // Deliveries are pushed in due order (one writer clock, constant
      // delay), so the front's deadline is the earliest; caching it across
      // the wait is safe because push_back never reorders the front.
      const Clock::time_point due = delayed_.front().due;
      while (!stopping_ && Clock::now() < due) {
        if (delay_cv_.wait_until(lock, due) == std::cv_status::timeout) {
          break;
        }
      }
    }
    if (stopping_) {
      // Flush whatever is queued so no control message is lost on shutdown.
      while (!delayed_.empty()) {
        Delivery delivery = std::move(delayed_.front());
        delayed_.pop_front();
        lock.unlock();
        deliver_now(std::move(delivery));
        lock.lock();
      }
      return;
    }
    while (!delayed_.empty() && Clock::now() >= delayed_.front().due) {
      Delivery delivery = std::move(delayed_.front());
      delayed_.pop_front();
      lock.unlock();
      deliver_now(std::move(delivery));
      lock.lock();
    }
  }
}

std::optional<double> PosgGrouping::cost_estimate(const Tuple& tuple) const {
  MutexLock lock(mutex_);
  return scheduler_.estimate(tuple.item);
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
