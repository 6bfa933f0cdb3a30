#include "core/overload.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/types.hpp"

namespace posg::core {

OverloadController::OverloadController(const OverloadConfig& config) : config_(config) {
  common::require(config.high_watermark > 0.0 && config.high_watermark <= 1.0,
                  "OverloadController: high_watermark must be in (0, 1]");
  common::require(config.low_watermark >= 0.0 && config.low_watermark < config.high_watermark,
                  "OverloadController: low_watermark must be in [0, high_watermark)");
  common::require(config.deadline_samples >= 1,
                  "OverloadController: deadline_samples must be >= 1");
}

bool OverloadController::sample(double saturation) {
  common::require(std::isfinite(saturation) && saturation >= 0.0,
                  "OverloadController: saturation must be finite and non-negative");
  if (!config_.enabled) {
    return false;
  }
  MutexLock lock(mutex_);
  if (shedding_) {
    if (saturation <= config_.low_watermark) {
      shedding_ = false;
      saturated_streak_ = 0;
      ++exits_;
      trace_edge(false, saturation);
    }
    return shedding_;
  }
  if (saturation >= config_.high_watermark) {
    if (++saturated_streak_ >= config_.deadline_samples) {
      shedding_ = true;
      ++entries_;
      trace_edge(true, saturation);
    }
  } else {
    saturated_streak_ = 0;
  }
  return shedding_;
}

void OverloadController::trace_edge(bool entered, double saturation) const {
  // REQUIRES(mutex_) — the ring itself is internally synchronized (and
  // lower-ranked: kOverload -> kTraceRing).
  if (trace_ == nullptr) {
    return;
  }
  trace_->record(obs::TraceEvent{.type = obs::TraceEventType::kShedWindow,
                                 .detail = entered ? std::uint8_t{1} : std::uint8_t{0},
                                 .component = trace_component_,
                                 .instance = 0,
                                 .a = shed_,
                                 .value = saturation,
                                 .tick = 0});
}

bool OverloadController::shedding() const {
  MutexLock lock(mutex_);
  return shedding_;
}

void OverloadController::note_shed(std::uint64_t count) {
  MutexLock lock(mutex_);
  shed_ += count;
}

std::uint64_t OverloadController::shed() const {
  MutexLock lock(mutex_);
  return shed_;
}

std::uint64_t OverloadController::entries() const {
  MutexLock lock(mutex_);
  return entries_;
}

std::uint64_t OverloadController::exits() const {
  MutexLock lock(mutex_);
  return exits_;
}

void OverloadController::debug_validate() const {
  MutexLock lock(mutex_);
  POSG_CHECK(entries_ == exits_ + (shedding_ ? 1 : 0),
             "OverloadController: entry/exit alternation broken");
  POSG_CHECK(shed_ == 0 || entries_ >= 1, "OverloadController: tuples shed outside shed mode");
  POSG_CHECK(shedding_ || saturated_streak_ < config_.deadline_samples,
             "OverloadController: deadline passed without entering shed mode");
}

}  // namespace posg::core
