#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "obs/trace_ring.hpp"

/// Predictive autoscaling (extension; DESIGN.md §11 "Elasticity").
///
/// The paper fixes k up front; production load curves do not cooperate. The
/// ElasticController closes the loop: it consumes periodic load samples
/// (total backlog, per-instance queue skew) and issues typed
/// ScaleUp / Drain actions that the surrounding runtime executes through
/// the machinery built for *unplanned* churn — a scale-up is a rejoin (Ĉ
/// seeded from the live minimum, token-bucket admission ramp), a
/// scale-down is a lossless drain (PosgScheduler::begin_drain / retire).
/// The runtime retires a drained instance itself, when its DrainComplete
/// arrives; that is not a decision, so the controller never issues it.
///
/// The decision rule is POTUS-style (PAPERS.md): distribution-free and
/// backlog-derivative-based. Instead of reacting to the instantaneous
/// backlog — which under a flash crowd is always too late — the controller
/// smooths the backlog level and its discrete derivative and acts on the
/// *predicted* backlog a configurable horizon ahead. Hysteresis (hold
/// counters + a post-action cooldown) and a queue-skew veto keep gray
/// faults from flapping the cluster: one straggling instance deepens the
/// skew, not the aggregate trend, and that is the health monitor's problem,
/// not a capacity problem.
namespace posg::core {

/// Tunables of the scale decision loop. All windows are counted in
/// controller samples (not wall clock), so decisions are deterministic for
/// a given sample sequence — the property every elasticity test leans on.
struct ElasticConfig {
  /// Master switch: disabled controllers never act (on_sample returns
  /// kNone without updating counters), so a compiled-in controller costs
  /// nothing on the routing path.
  bool enabled = false;
  /// Scale-down floor: never drain below this many serving instances.
  std::size_t min_instances = 1;
  /// Scale-up ceiling: never grow the serving set past this. 0 means "the
  /// executor's capacity" (the controller trusts `serving` + spare slots).
  std::size_t max_instances = 0;
  /// EWMA weight of the newest backlog sample (level smoothing).
  double ewma_alpha = 0.4;
  /// EWMA weight of the newest backlog derivative sample.
  double derivative_alpha = 0.3;
  /// Prediction horizon, in sample periods: act on
  /// backlog + derivative × horizon rather than the current level.
  double horizon_samples = 3.0;
  /// Scale up when predicted backlog per serving instance reaches this
  /// (milliseconds of queued work per instance).
  double up_backlog_per_instance = 4.0;
  /// Scale down when predicted backlog per serving instance falls to this
  /// *and* the trend is flat-or-falling.
  double down_backlog_per_instance = 0.5;
  /// Consecutive breaching samples required before acting (hysteresis).
  std::size_t up_hold = 2;
  std::size_t down_hold = 6;
  /// Quiet samples after any ScaleUp/Drain before the next decision — the
  /// cluster needs time to absorb the change before it is measured again.
  std::size_t cooldown_samples = 4;
  /// Gray-fault veto: when max/mean per-instance backlog reaches this, the
  /// imbalance is one sick instance, not missing capacity — hold instead
  /// of scaling (the straggler detector de-rates it meanwhile).
  double skew_veto = 2.5;
};

/// One controller input. `backlog_ms` is the total outstanding work across
/// serving instances (milliseconds of queued execution time, or any
/// consistent proxy); `queue_skew` is
/// max/mean per-instance backlog (1.0 = perfectly balanced; pass 1.0 when
/// fewer than two instances serve).
struct ElasticSample {
  double backlog_ms = 0.0;
  double queue_skew = 1.0;
  std::size_t serving = 0;
  std::size_t ramping = 0;
  std::size_t draining = 0;
};

/// One controller output. Both actions leave the target choice to the
/// executor (it knows which spare slot to revive / which serving instance
/// empties fastest). Value 3 is unused: it was a retirement issued by the
/// controller, and trace `detail` values keep their meaning.
struct ScaleAction {
  enum class Kind : std::uint8_t { kNone = 0, kScaleUp = 1, kDrain = 2 };
  Kind kind = Kind::kNone;
  common::InstanceId instance = common::kNoInstance;
  /// Predicted backlog (ms, cluster total) that drove the decision.
  double predicted_backlog = 0.0;
};

const char* scale_action_name(ScaleAction::Kind kind) noexcept;

/// The scale decision loop. Pure with respect to its sample sequence: no
/// clocks, no randomness — feed the same samples, get the same actions.
/// Externally synchronized like the scheduler it steers.
class ElasticController {
 public:
  explicit ElasticController(const ElasticConfig& config);

  /// Feeds one sample and returns at most one action.
  ScaleAction on_sample(const ElasticSample& sample);

  const ElasticConfig& config() const noexcept { return config_; }
  /// Smoothed backlog level / discrete derivative / last prediction.
  double backlog_ewma() const noexcept { return backlog_ewma_; }
  double backlog_derivative() const noexcept { return derivative_ewma_; }
  double predicted_backlog() const noexcept { return predicted_; }

  std::uint64_t samples() const noexcept { return samples_; }
  std::uint64_t scale_ups() const noexcept { return scale_ups_; }
  std::uint64_t drains() const noexcept { return drains_; }
  /// Samples where the queue-skew veto suppressed a pending decision.
  std::uint64_t skew_vetoes() const noexcept { return skew_vetoes_; }

  /// Records a kScaleDecision trace event per action (detail = Kind,
  /// value = predicted backlog, a = sample ordinal). Not owned; pass
  /// nullptr to unbind. Externally synchronized, like the scheduler.
  void bind_trace(obs::TraceRing* trace);

 private:
  /// Counts, traces and returns a kScaleUp or kDrain decision.
  ScaleAction act(ScaleAction::Kind kind);

  ElasticConfig config_;
  bool primed_ = false;       // first sample seeds the EWMAs
  double last_backlog_ = 0.0;
  double backlog_ewma_ = 0.0;
  double derivative_ewma_ = 0.0;
  double predicted_ = 0.0;
  std::size_t up_streak_ = 0;
  std::size_t down_streak_ = 0;
  std::size_t cooldown_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t skew_vetoes_ = 0;
  std::unique_ptr<obs::TraceRing::Writer> trace_writer_;
};

}  // namespace posg::core
