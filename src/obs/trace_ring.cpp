#include "obs/trace_ring.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace posg::obs {

const char* trace_event_name(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kScheduleDecision:
      return "schedule_decision";
    case TraceEventType::kEpochAdvance:
      return "epoch_advance";
    case TraceEventType::kSketchShip:
      return "sketch_ship";
    case TraceEventType::kSyncDelta:
      return "sync_delta";
    case TraceEventType::kHealthTransition:
      return "health_transition";
    case TraceEventType::kShedWindow:
      return "shed_window";
    case TraceEventType::kRejoin:
      return "rejoin";
    case TraceEventType::kDrainBegin:
      return "drain_begin";
    case TraceEventType::kDrainComplete:
      return "drain_complete";
    case TraceEventType::kScaleDecision:
      return "scale_decision";
    case TraceEventType::kCheckpointWrite:
      return "checkpoint_write";
    case TraceEventType::kRecoveryBegin:
      return "recovery_begin";
    case TraceEventType::kReattach:
      return "reattach";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceRing: capacity must be >= 1");
  }
  ring_.resize(capacity);
}

void TraceRing::record(TraceEvent event) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  publish_batch(&event, 1);
}

void TraceRing::publish_batch(const TraceEvent* events, std::size_t n) {
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < n; ++i) {
    TraceEvent e = events[i];
    e.tick = next_tick_;
    ring_[next_tick_ % capacity_] = e;
    ++next_tick_;
  }
}

TraceRing::Writer::Writer(TraceRing& ring, std::size_t stage_capacity)
    : ring_(ring), stage_capacity_(stage_capacity == 0 ? 1 : stage_capacity) {
  staged_.reserve(stage_capacity_);
}

TraceRing::Writer::~Writer() { flush(); }

void TraceRing::Writer::flush() {
  if (staged_.empty()) {
    return;
  }
  ring_.publish_batch(staged_.data(), staged_.size());
  staged_.clear();
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const MutexLock lock(mutex_);
  std::vector<TraceEvent> out;
  const std::uint64_t retained = next_tick_ < capacity_ ? next_tick_ : capacity_;
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t tick = next_tick_ - retained; tick < next_tick_; ++tick) {
    out.push_back(ring_[tick % capacity_]);
  }
  return out;
}

std::uint64_t TraceRing::recorded() const {
  const MutexLock lock(mutex_);
  return next_tick_;
}

std::uint64_t TraceRing::dropped() const {
  const MutexLock lock(mutex_);
  return next_tick_ > capacity_ ? next_tick_ - capacity_ : 0;
}

void TraceRing::dump_jsonl(std::ostream& out) const {
  const std::vector<TraceEvent> events = snapshot();
  char buf[64];
  for (const TraceEvent& e : events) {
    out << "{\"tick\":" << e.tick << ",\"type\":\"" << trace_event_name(e.type) << '"';
    out << ",\"instance\":" << e.instance;
    if (e.component != 0) {
      out << ",\"component\":" << e.component;
    }
    if (e.detail != 0) {
      out << ",\"detail\":" << static_cast<unsigned>(e.detail);
    }
    out << ",\"a\":" << e.a;
    if (e.value != 0.0) {
      std::snprintf(buf, sizeof(buf), "%.17g", e.value);
      out << ",\"value\":" << buf;
    }
    out << "}\n";
  }
}

}  // namespace posg::obs
