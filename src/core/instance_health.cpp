#include "core/instance_health.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"

namespace posg::core {

namespace {
constexpr double kEwmaAlpha = 0.5;
}  // namespace

static_assert(HealthMonitor::kSuspectDrift >= 1.0 &&
              HealthMonitor::kDegradeDrift >= HealthMonitor::kSuspectDrift &&
              HealthMonitor::kPromoteDrift >= 1.0 &&
              HealthMonitor::kPromoteDrift <= HealthMonitor::kSuspectDrift &&
              HealthMonitor::kDerateCap >= 1.0 && HealthMonitor::kDegradeEpochs >= 1 &&
              HealthMonitor::kPromoteEpochs >= 1 && HealthMonitor::kQueueSkew >= 1.0 &&
              HealthMonitor::kQueueFloor >= 0.0);

HealthMonitor::HealthMonitor(std::size_t instances)
    : k_(instances),
      states_(instances, InstanceHealth::kLive),
      drift_ewma_(instances, 1.0),
      hot_streak_(instances, 0),
      calm_streak_(instances, 0),
      queue_ewma_(instances, -1.0) {
  common::require(instances >= 1, "HealthMonitor: need at least one instance");
}

void HealthMonitor::trace_transition(common::InstanceId op, InstanceHealth prev,
                                     InstanceHealth next) const {
  if (trace_ == nullptr) {
    return;
  }
  const auto detail = static_cast<std::uint8_t>(
      (static_cast<unsigned>(prev) << 4U) | static_cast<unsigned>(next));
  trace_->record(obs::TraceEvent{.type = obs::TraceEventType::kHealthTransition,
                                 .detail = detail,
                                 .component = 0,
                                 .instance = static_cast<std::uint32_t>(op),
                                 .a = 0,
                                 .value = drift_ewma_[op],
                                 .tick = 0});
}

void HealthMonitor::become(common::InstanceId op, InstanceHealth next) {
  const InstanceHealth prev = states_[op];
  if (prev == next) {
    return;
  }
  states_[op] = next;
  trace_transition(op, prev, next);
  if (next == InstanceHealth::kSuspect) {
    ++suspect_transitions_;
  } else if (next == InstanceHealth::kDegraded) {
    ++degraded_transitions_;
  } else if (next == InstanceHealth::kLive &&
             (prev == InstanceHealth::kDegraded || prev == InstanceHealth::kSuspect)) {
    ++promotions_;
  }
}

void HealthMonitor::on_epoch_drift(common::InstanceId op, double ratio) {
  common::require(op < k_, "HealthMonitor: unknown instance");
  if (states_[op] == InstanceHealth::kQuarantined) {
    return;
  }
  common::require(std::isfinite(ratio) && ratio >= 0.0,
                  "HealthMonitor: drift ratio must be finite and non-negative");
  drift_ewma_[op] = kEwmaAlpha * ratio + (1.0 - kEwmaAlpha) * drift_ewma_[op];

  if (ratio >= kDegradeDrift) {
    ++hot_streak_[op];
    calm_streak_[op] = 0;
    if (states_[op] != InstanceHealth::kDegraded) {
      if (hot_streak_[op] >= kDegradeEpochs) {
        become(op, InstanceHealth::kDegraded);
      } else {
        become(op, InstanceHealth::kSuspect);
      }
    }
    return;
  }
  hot_streak_[op] = 0;
  if (ratio >= kSuspectDrift) {
    calm_streak_[op] = 0;
    if (states_[op] == InstanceHealth::kLive) {
      become(op, InstanceHealth::kSuspect);
    }
    return;
  }
  if (ratio <= kPromoteDrift) {
    ++calm_streak_[op];
    if (states_[op] == InstanceHealth::kSuspect) {
      become(op, InstanceHealth::kLive);
      return;
    }
    // Hysteresis: a Degraded instance must stay calm for kPromoteEpochs
    // consecutive epochs — one lucky epoch does not restore full billing.
    if (states_[op] == InstanceHealth::kDegraded && calm_streak_[op] >= kPromoteEpochs) {
      become(op, InstanceHealth::kLive);
      drift_ewma_[op] = 1.0;
    }
    return;
  }
  // Between promote and suspect: ambiguous, reset the calm streak so the
  // hysteresis window only counts genuinely calm epochs.
  calm_streak_[op] = 0;
}

void HealthMonitor::note_stale_feedback(common::InstanceId op) {
  common::require(op < k_, "HealthMonitor: unknown instance");
  if (states_[op] == InstanceHealth::kLive) {
    become(op, InstanceHealth::kSuspect);
  }
}

void HealthMonitor::note_queue_depth(common::InstanceId op, double occupancy_fraction) {
  common::require(op < k_, "HealthMonitor: unknown instance");
  common::require(std::isfinite(occupancy_fraction) && occupancy_fraction >= 0.0,
                  "HealthMonitor: occupancy must be finite and non-negative");
  if (states_[op] == InstanceHealth::kQuarantined) {
    return;
  }
  queue_ewma_[op] = queue_ewma_[op] < 0.0
                        ? occupancy_fraction
                        : kEwmaAlpha * occupancy_fraction + (1.0 - kEwmaAlpha) * queue_ewma_[op];
  double sum = 0.0;
  std::size_t sampled = 0;
  for (std::size_t other = 0; other < k_; ++other) {
    if (queue_ewma_[other] >= 0.0 && states_[other] != InstanceHealth::kQuarantined) {
      sum += queue_ewma_[other];
      ++sampled;
    }
  }
  const double mean = sampled > 0 ? sum / static_cast<double>(sampled) : 0.0;
  if (states_[op] == InstanceHealth::kLive && queue_ewma_[op] >= kQueueFloor &&
      queue_ewma_[op] >= kQueueSkew * mean) {
    become(op, InstanceHealth::kSuspect);
  }
}

void HealthMonitor::on_quarantined(common::InstanceId op) {
  common::require(op < k_, "HealthMonitor: unknown instance");
  if (states_[op] != InstanceHealth::kQuarantined) {
    trace_transition(op, states_[op], InstanceHealth::kQuarantined);
  }
  states_[op] = InstanceHealth::kQuarantined;  // terminal until rejoin; not a counted transition
  hot_streak_[op] = 0;
  calm_streak_[op] = 0;
}

void HealthMonitor::on_rejoined(common::InstanceId op) {
  common::require(op < k_, "HealthMonitor: unknown instance");
  states_[op] = InstanceHealth::kLive;
  drift_ewma_[op] = 1.0;
  hot_streak_[op] = 0;
  calm_streak_[op] = 0;
  queue_ewma_[op] = -1.0;
}

InstanceHealth HealthMonitor::state(common::InstanceId op) const {
  common::require(op < k_, "HealthMonitor: unknown instance");
  return states_[op];
}

double HealthMonitor::derate(common::InstanceId op) const {
  common::require(op < k_, "HealthMonitor: unknown instance");
  if (states_[op] != InstanceHealth::kDegraded) {
    return 1.0;
  }
  return std::clamp(drift_ewma_[op], 1.0, kDerateCap);
}

HealthMonitor::Snapshot HealthMonitor::snapshot() const {
  Snapshot out;
  out.states = states_;
  out.drift_ewma = drift_ewma_;
  out.hot_streak.assign(hot_streak_.begin(), hot_streak_.end());
  out.calm_streak.assign(calm_streak_.begin(), calm_streak_.end());
  out.queue_ewma = queue_ewma_;
  out.suspect_transitions = suspect_transitions_;
  out.degraded_transitions = degraded_transitions_;
  out.promotions = promotions_;
  return out;
}

const char* HealthMonitor::invariant_violation(const Snapshot& snapshot) const noexcept {
  if (snapshot.states.size() != k_ || snapshot.drift_ewma.size() != k_ ||
      snapshot.hot_streak.size() != k_ || snapshot.calm_streak.size() != k_ ||
      snapshot.queue_ewma.size() != k_) {
    return "HealthMonitor: per-instance tables out of sync";
  }
  for (std::size_t op = 0; op < k_; ++op) {
    if (static_cast<std::uint8_t>(snapshot.states[op]) >
        static_cast<std::uint8_t>(InstanceHealth::kQuarantined)) {
      return "HealthMonitor: state out of range";
    }
    // A finite drift EWMA also keeps derate() = clamp(drift, 1, cap)
    // inside [1, kDerateCap].
    if (!(std::isfinite(snapshot.drift_ewma[op]) && snapshot.drift_ewma[op] >= 0.0)) {
      return "HealthMonitor: drift EWMA must be finite and non-negative";
    }
    // queue_ewma is an occupancy EWMA or the -1 no-sample sentinel.
    if (!(std::isfinite(snapshot.queue_ewma[op]) &&
          (snapshot.queue_ewma[op] >= 0.0 || snapshot.queue_ewma[op] == -1.0))) {
      return "HealthMonitor: queue EWMA must be non-negative or the -1 sentinel";
    }
    // The streaks are driven by a single drift path that zeroes one
    // whenever it advances the other.
    if (snapshot.hot_streak[op] != 0 && snapshot.calm_streak[op] != 0) {
      return "HealthMonitor: hot and calm streaks active at once";
    }
  }
  return nullptr;
}

void HealthMonitor::restore(const Snapshot& snapshot) {
  // Check before touching any member: a rejected checkpoint must leave the
  // monitor in its pre-restore state.
  if (const char* why = invariant_violation(snapshot)) {
    throw std::invalid_argument(why);
  }
  states_ = snapshot.states;
  drift_ewma_ = snapshot.drift_ewma;
  hot_streak_.assign(snapshot.hot_streak.begin(), snapshot.hot_streak.end());
  calm_streak_.assign(snapshot.calm_streak.begin(), snapshot.calm_streak.end());
  queue_ewma_ = snapshot.queue_ewma;
  suspect_transitions_ = snapshot.suspect_transitions;
  degraded_transitions_ = snapshot.degraded_transitions;
  promotions_ = snapshot.promotions;
}

void HealthMonitor::debug_validate() const {
  const char* why = invariant_violation(snapshot());
  POSG_CHECK(why == nullptr, why);
}

}  // namespace posg::core
