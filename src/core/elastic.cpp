#include "core/elastic.hpp"

#include <algorithm>
#include <cmath>

#include "common/types.hpp"

namespace posg::core {

const char* scale_action_name(ScaleAction::Kind kind) noexcept {
  switch (kind) {
    case ScaleAction::Kind::kNone:
      return "none";
    case ScaleAction::Kind::kScaleUp:
      return "scale_up";
    case ScaleAction::Kind::kDrain:
      return "drain";
    case ScaleAction::Kind::kRetire:
      return "retire";
  }
  return "?";
}

ElasticController::ElasticController(const ElasticConfig& config) : config_(config) {
  common::require(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
                  "ElasticController: ewma_alpha must be in (0, 1]");
  common::require(config.derivative_alpha > 0.0 && config.derivative_alpha <= 1.0,
                  "ElasticController: derivative_alpha must be in (0, 1]");
  common::require(std::isfinite(config.horizon_samples) && config.horizon_samples >= 0.0,
                  "ElasticController: horizon_samples must be finite and >= 0");
  common::require(config.min_instances >= 1, "ElasticController: min_instances must be >= 1");
  common::require(config.max_instances == 0 || config.max_instances >= config.min_instances,
                  "ElasticController: max_instances must be 0 or >= min_instances");
  common::require(std::isfinite(config.up_backlog_per_instance) &&
                      config.up_backlog_per_instance > 0.0,
                  "ElasticController: up_backlog_per_instance must be finite and > 0");
  common::require(config.down_backlog_per_instance >= 0.0 &&
                      config.down_backlog_per_instance < config.up_backlog_per_instance,
                  "ElasticController: down_backlog_per_instance must be in "
                  "[0, up_backlog_per_instance)");
  common::require(config.up_hold >= 1, "ElasticController: up_hold must be >= 1");
  common::require(config.down_hold >= 1, "ElasticController: down_hold must be >= 1");
  common::require(std::isfinite(config.skew_veto) && config.skew_veto > 1.0,
                  "ElasticController: skew_veto must be finite and > 1");
}

void ElasticController::bind_trace(obs::TraceRing* trace) {
  if (trace_writer_) {
    trace_writer_->flush();
  }
  if (trace == nullptr) {
    trace_writer_.reset();
  } else {
    trace_writer_ = std::make_unique<obs::TraceRing::Writer>(*trace);
  }
}

ScaleAction ElasticController::act(ScaleAction::Kind kind, common::InstanceId instance) {
  switch (kind) {
    case ScaleAction::Kind::kScaleUp:
      ++scale_ups_;
      break;
    case ScaleAction::Kind::kDrain:
      ++drains_;
      break;
    case ScaleAction::Kind::kRetire:
      ++retires_;
      break;
    case ScaleAction::Kind::kNone:
      break;
  }
  if (kind == ScaleAction::Kind::kScaleUp || kind == ScaleAction::Kind::kDrain) {
    cooldown_ = config_.cooldown_samples;
    up_streak_ = 0;
    down_streak_ = 0;
  }
  if (trace_writer_ && kind != ScaleAction::Kind::kNone) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kScaleDecision,
                                          .detail = static_cast<std::uint8_t>(kind),
                                          .component = 0,
                                          .instance = static_cast<std::uint32_t>(instance),
                                          .a = samples_,
                                          .value = predicted_,
                                          .tick = 0});
    trace_writer_->flush();  // scale events are rare; keep the ring fresh
  }
  return ScaleAction{kind, instance, predicted_};
}

ScaleAction ElasticController::on_sample(const ElasticSample& sample) {
  if (!config_.enabled) {
    return ScaleAction{};
  }
  ++samples_;

  // POTUS-style predictor: smooth the level and the discrete derivative,
  // then extrapolate one horizon ahead. Distribution-free — no model of
  // the arrival process, just its observed trend.
  if (!primed_) {
    primed_ = true;
    backlog_ewma_ = sample.backlog_ms;
    derivative_ewma_ = 0.0;
  } else {
    const double raw_derivative = sample.backlog_ms - last_backlog_;
    backlog_ewma_ =
        config_.ewma_alpha * sample.backlog_ms + (1.0 - config_.ewma_alpha) * backlog_ewma_;
    derivative_ewma_ = config_.derivative_alpha * raw_derivative +
                       (1.0 - config_.derivative_alpha) * derivative_ewma_;
  }
  last_backlog_ = sample.backlog_ms;
  predicted_ =
      std::max(0.0, backlog_ewma_ + derivative_ewma_ * config_.horizon_samples);

  // Retirement first: a drained instance is dead weight — billing its
  // final Δ and removing it is the tail of an already-made decision, so it
  // bypasses cooldown and holds.
  if (!sample.drained.empty()) {
    const common::InstanceId op =
        *std::min_element(sample.drained.begin(), sample.drained.end());
    return act(ScaleAction::Kind::kRetire, op);
  }

  if (cooldown_ > 0) {
    --cooldown_;
    up_streak_ = 0;
    down_streak_ = 0;
    return ScaleAction{};
  }

  const double per_instance =
      predicted_ / static_cast<double>(std::max<std::size_t>(1, sample.serving));

  // Gray-fault veto: a deep max/mean skew means one instance is sick while
  // the cluster-wide trend is fine. Scaling up would mask the straggler
  // (and flap back down once it is de-rated); hold instead. The veto only
  // binds while there is material work outstanding — among near-empty
  // queues a single in-service tuple already makes max/mean ≈ k, and
  // holding on that noise would deadlock scale-down on an idle cluster.
  if (sample.serving >= 2 && sample.queue_skew >= config_.skew_veto &&
      per_instance > config_.down_backlog_per_instance) {
    ++skew_vetoes_;
    up_streak_ = 0;
    down_streak_ = 0;
    return ScaleAction{};
  }

  const bool over = per_instance >= config_.up_backlog_per_instance;
  const bool under =
      derivative_ewma_ <= 0.0 && per_instance <= config_.down_backlog_per_instance;

  up_streak_ = over ? up_streak_ + 1 : 0;
  down_streak_ = under ? down_streak_ + 1 : 0;

  const bool room_up =
      config_.max_instances == 0 || sample.serving < config_.max_instances;
  if (up_streak_ >= config_.up_hold && room_up && sample.ramping == 0) {
    // One step at a time: while the previous newcomer is still ramping its
    // capacity has not landed yet, so acting again would overshoot.
    return act(ScaleAction::Kind::kScaleUp, common::kNoInstance);
  }
  if (down_streak_ >= config_.down_hold && sample.draining == 0 &&
      sample.serving > config_.min_instances) {
    return act(ScaleAction::Kind::kDrain, common::kNoInstance);
  }
  return ScaleAction{};
}

}  // namespace posg::core
