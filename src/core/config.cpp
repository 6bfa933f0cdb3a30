#include "core/config.hpp"

#include <cmath>

namespace posg {

namespace {

void push(std::vector<ConfigError>& out, std::string field, ConfigErrorCode code,
          std::string message) {
  out.push_back(ConfigError{std::move(field), code, std::move(message)});
}

std::string dot(const std::string& prefix, const char* field) {
  return prefix.empty() ? std::string(field) : prefix + "." + field;
}

}  // namespace

std::string ConfigValidationError::render(const std::vector<ConfigError>& errors) {
  std::string out = "invalid posg::Config (" + std::to_string(errors.size()) + " error(s))";
  for (const ConfigError& e : errors) {
    out += "\n  " + e.field + ": " + e.message;
  }
  return out;
}

void validate_health(const core::HealthConfig& config, const std::string& prefix,
                     std::vector<ConfigError>& out) {
  if (!(std::isfinite(config.suspect_drift) && config.suspect_drift >= 1.0)) {
    push(out, dot(prefix, "suspect_drift"), ConfigErrorCode::kOutOfRange,
         "must be finite and >= 1");
  }
  if (!(std::isfinite(config.degrade_drift) && config.degrade_drift >= config.suspect_drift)) {
    push(out, dot(prefix, "degrade_drift"), ConfigErrorCode::kOrdering,
         "must be finite and >= suspect_drift");
  }
  if (!(std::isfinite(config.promote_drift) && config.promote_drift >= 1.0 &&
        config.promote_drift <= config.suspect_drift)) {
    push(out, dot(prefix, "promote_drift"), ConfigErrorCode::kOrdering,
         "must be in [1, suspect_drift]");
  }
  if (!(std::isfinite(config.derate_cap) && config.derate_cap >= 1.0)) {
    push(out, dot(prefix, "derate_cap"), ConfigErrorCode::kOutOfRange, "must be finite and >= 1");
  }
  if (config.degrade_epochs < 1) {
    push(out, dot(prefix, "degrade_epochs"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (config.promote_epochs < 1) {
    push(out, dot(prefix, "promote_epochs"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (!(std::isfinite(config.queue_skew) && config.queue_skew >= 1.0)) {
    push(out, dot(prefix, "queue_skew"), ConfigErrorCode::kOutOfRange, "must be finite and >= 1");
  }
  if (!(std::isfinite(config.queue_floor) && config.queue_floor >= 0.0)) {
    push(out, dot(prefix, "queue_floor"), ConfigErrorCode::kOutOfRange,
         "must be finite and >= 0");
  }
}

void validate_rejoin_ramp(const core::RejoinRampConfig& config, const std::string& prefix,
                          std::vector<ConfigError>& out) {
  if (config.ramp_tuples == 0) {
    return;  // ramping disabled; the rate fields are never read
  }
  if (!(std::isfinite(config.tokens_per_tuple) && config.tokens_per_tuple > 0.0)) {
    push(out, dot(prefix, "tokens_per_tuple"), ConfigErrorCode::kMustBePositive,
         "must be finite and > 0 when ramp_tuples > 0");
  }
  if (!(std::isfinite(config.burst) && config.burst >= 1.0)) {
    push(out, dot(prefix, "burst"), ConfigErrorCode::kOutOfRange,
         "must be finite and >= 1 when ramp_tuples > 0 (a ramping instance must be able to "
         "hold one whole token)");
  }
}

void validate_posg(const core::PosgConfig& config, const std::string& prefix,
                   std::vector<ConfigError>& out) {
  if (!(std::isfinite(config.epsilon) && config.epsilon > 0.0 && config.epsilon <= 1.0)) {
    push(out, dot(prefix, "epsilon"), ConfigErrorCode::kOutOfRange, "must be in (0, 1]");
  }
  if (!(std::isfinite(config.delta) && config.delta > 0.0 && config.delta < 1.0)) {
    push(out, dot(prefix, "delta"), ConfigErrorCode::kOutOfRange, "must be in (0, 1)");
  }
  if (config.window < 1) {
    push(out, dot(prefix, "window"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (!(std::isfinite(config.mu) && config.mu > 0.0)) {
    push(out, dot(prefix, "mu"), ConfigErrorCode::kMustBePositive, "must be finite and > 0");
  }
  validate_health(config.health, dot(prefix, "health"), out);
  validate_rejoin_ramp(config.rejoin_ramp, dot(prefix, "rejoin_ramp"), out);
}

void validate_overload(const core::OverloadConfig& config, const std::string& prefix,
                       std::vector<ConfigError>& out) {
  if (!(std::isfinite(config.high_watermark) && config.high_watermark > 0.0 &&
        config.high_watermark <= 1.0)) {
    push(out, dot(prefix, "high_watermark"), ConfigErrorCode::kOutOfRange, "must be in (0, 1]");
  }
  if (!(std::isfinite(config.low_watermark) && config.low_watermark >= 0.0 &&
        config.low_watermark < config.high_watermark)) {
    push(out, dot(prefix, "low_watermark"), ConfigErrorCode::kOrdering,
         "must be in [0, high_watermark)");
  }
  if (config.deadline_samples < 1) {
    push(out, dot(prefix, "deadline_samples"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
}

void validate_elastic(const core::ElasticConfig& config, const std::string& prefix,
                      std::vector<ConfigError>& out) {
  if (!config.enabled) {
    return;  // disabled controllers never read the tunables
  }
  if (!(std::isfinite(config.ewma_alpha) && config.ewma_alpha > 0.0 &&
        config.ewma_alpha <= 1.0)) {
    push(out, dot(prefix, "ewma_alpha"), ConfigErrorCode::kOutOfRange, "must be in (0, 1]");
  }
  if (!(std::isfinite(config.derivative_alpha) && config.derivative_alpha > 0.0 &&
        config.derivative_alpha <= 1.0)) {
    push(out, dot(prefix, "derivative_alpha"), ConfigErrorCode::kOutOfRange,
         "must be in (0, 1]");
  }
  if (!(std::isfinite(config.horizon_samples) && config.horizon_samples >= 0.0)) {
    push(out, dot(prefix, "horizon_samples"), ConfigErrorCode::kOutOfRange,
         "must be finite and >= 0");
  }
  if (config.min_instances < 1) {
    push(out, dot(prefix, "min_instances"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (config.max_instances != 0 && config.max_instances < config.min_instances) {
    push(out, dot(prefix, "max_instances"), ConfigErrorCode::kOrdering,
         "must be 0 (unbounded) or >= min_instances");
  }
  if (!(std::isfinite(config.up_backlog_per_instance) && config.up_backlog_per_instance > 0.0)) {
    push(out, dot(prefix, "up_backlog_per_instance"), ConfigErrorCode::kMustBePositive,
         "must be finite and > 0");
  }
  if (!(std::isfinite(config.down_backlog_per_instance) &&
        config.down_backlog_per_instance >= 0.0 &&
        config.down_backlog_per_instance < config.up_backlog_per_instance)) {
    push(out, dot(prefix, "down_backlog_per_instance"), ConfigErrorCode::kOrdering,
         "must be in [0, up_backlog_per_instance)");
  }
  if (config.up_hold < 1) {
    push(out, dot(prefix, "up_hold"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (config.down_hold < 1) {
    push(out, dot(prefix, "down_hold"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (!(std::isfinite(config.skew_veto) && config.skew_veto > 1.0)) {
    push(out, dot(prefix, "skew_veto"), ConfigErrorCode::kOutOfRange, "must be > 1");
  }
}

void validate_engine(const EngineConfig& config, const std::string& prefix,
                     std::vector<ConfigError>& out) {
  if (config.queue_capacity < 1) {
    push(out, dot(prefix, "queue_capacity"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  validate_overload(config.overload, dot(prefix, "overload"), out);
  validate_elastic(config.elastic, dot(prefix, "elastic"), out);
  if (config.elastic.enabled && !(std::isfinite(config.elastic_sample_period_ms) &&
                                  config.elastic_sample_period_ms > 0.0)) {
    push(out, dot(prefix, "elastic_sample_period_ms"), ConfigErrorCode::kMustBePositive,
         "must be finite and > 0 when elastic.enabled");
  }
}

void validate_obs(const ObsConfig& config, const std::string& prefix,
                  std::vector<ConfigError>& out) {
  if (config.trace_capacity < 1) {
    push(out, dot(prefix, "trace_capacity"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
}

void validate_multi_source(const core::MultiSourceConfig& config, const std::string& prefix,
                           std::vector<ConfigError>& out) {
  if (config.sources < 1) {
    push(out, dot(prefix, "sources"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
}

void validate_scheduler_runtime(const SchedulerRuntimeConfig& config, const std::string& prefix,
                                std::vector<ConfigError>& out) {
  if (config.instances < 1) {
    push(out, dot(prefix, "instances"), ConfigErrorCode::kMustBePositive, "must be >= 1");
  }
  if (config.recv_deadline <= std::chrono::milliseconds::zero()) {
    push(out, dot(prefix, "recv_deadline"), ConfigErrorCode::kMustBePositive,
         "must be > 0 (readers poll at this tick)");
  }
  if (config.epoch_deadline < std::chrono::milliseconds::zero()) {
    push(out, dot(prefix, "epoch_deadline"), ConfigErrorCode::kOutOfRange,
         "must be >= 0 (0 disables the deadline)");
  }
  if (config.hello_deadline <= std::chrono::milliseconds::zero()) {
    push(out, dot(prefix, "hello_deadline"), ConfigErrorCode::kMustBePositive, "must be > 0");
  }
  if (config.recover && config.checkpoint_path.empty()) {
    push(out, dot(prefix, "recover"), ConfigErrorCode::kOrdering,
         "recovery needs a checkpoint_path to restore from");
  }
  validate_obs(config.obs, dot(prefix, "obs"), out);
}

void validate_instance_runtime(const InstanceRuntimeConfig& config, const std::string& prefix,
                               std::vector<ConfigError>& out) {
  if (config.recv_deadline <= std::chrono::milliseconds::zero()) {
    push(out, dot(prefix, "recv_deadline"), ConfigErrorCode::kMustBePositive, "must be > 0");
  }
  if (!(std::isfinite(config.cost_scale) && config.cost_scale > 0.0)) {
    push(out, dot(prefix, "cost_scale"), ConfigErrorCode::kMustBePositive,
         "must be finite and > 0");
  }
  if (!(std::isfinite(config.real_sleep_scale) && config.real_sleep_scale >= 0.0)) {
    push(out, dot(prefix, "real_sleep_scale"), ConfigErrorCode::kOutOfRange,
         "must be finite and >= 0 (0 disables real sleeping)");
  }
  if (!config.reconnect_path.empty() && config.reconnect_attempts < 1) {
    push(out, dot(prefix, "reconnect_attempts"), ConfigErrorCode::kMustBePositive,
         "must be >= 1 when reconnect_path is set");
  }
}

std::vector<ConfigError> Config::validate() const {
  std::vector<ConfigError> out;
  validate_posg(scheduler, "scheduler", out);
  validate_engine(engine, "engine", out);
  validate_scheduler_runtime(runtime, "runtime", out);
  validate_instance_runtime(instance, "instance", out);
  validate_multi_source(multi_source, "multi_source", out);
  if (multi_source.sources >= 1 &&
      static_cast<std::size_t>(runtime.source_id) >= multi_source.sources) {
    out.push_back(ConfigError{
        "runtime.source_id", ConfigErrorCode::kOrdering,
        "must be < multi_source.sources (source ids are dense in [0, S))"});
  }
  // The nested posg copies are stamped from `scheduler` by the
  // materializers, so they are deliberately not re-validated here.
  return out;
}

void Config::require_valid() const {
  std::vector<ConfigError> errors = validate();
  if (!errors.empty()) {
    throw ConfigValidationError(std::move(errors));
  }
}

}  // namespace posg
