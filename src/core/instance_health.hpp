#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/trace_ring.hpp"

/// Straggler detection for POSG's graceful-degradation layer (DESIGN.md
/// "Fault model and degradation ladder").
///
/// PR 1's fault model was binary — an instance was either live or
/// permanently quarantined. Real clusters mostly produce the gray states
/// in between: a worker that is slow but not dead, or silent but about to
/// come back. The HealthMonitor tracks a four-state lifecycle per
/// instance:
///
///   Live ──(drift / staleness / queue skew)──► Suspect
///   Suspect ──(drift sustained over kDegradeEpochs)──► Degraded
///   Degraded ──(calm for kPromoteEpochs, hysteresis)──► Live
///   any ──(mark_failed)──► Quarantined ──(rejoin)──► Live
///
/// A Degraded instance stays in rotation but the scheduler bills its
/// tuples with a multiplicative de-rate factor (derate()), so the greedy
/// argmin naturally steers work away from it in proportion to how slow it
/// measured — the "keep it, but expect less" middle ground between full
/// speed and quarantine.
///
/// Every input is a pure signal (no clocks, no randomness), so the state
/// machine is deterministic: the same signal sequence reproduces the same
/// transitions and de-rate factors bit-for-bit.
namespace posg::core {

enum class InstanceHealth : std::uint8_t { kLive, kSuspect, kDegraded, kQuarantined };

/// The ladder's thresholds are constants. They are conservative enough
/// that a homogeneous, healthy cluster never leaves Live, which keeps the
/// golden scheduling streams byte-identical: a de-rate factor of exactly
/// 1.0 multiplies estimates bit-for-bit.
class HealthMonitor {
 public:
  /// Epoch drift ratio (measured C / billed Ĉ at the marker cut) above
  /// which one epoch makes a Live instance Suspect.
  static constexpr double kSuspectDrift = 1.5;
  /// Drift ratio that counts toward degradation.
  static constexpr double kDegradeDrift = 2.0;
  /// Consecutive epochs at or above kDegradeDrift before Suspect becomes
  /// Degraded (the suspect → degraded transition the metrics count).
  static constexpr std::size_t kDegradeEpochs = 2;
  /// Hysteresis: drift must fall to or below this ratio...
  static constexpr double kPromoteDrift = 1.2;
  /// ...for this many consecutive epochs before a Degraded instance
  /// re-promotes to Live.
  static constexpr std::size_t kPromoteEpochs = 2;
  /// Upper bound on the de-rate factor (billing multiplier); keeps one
  /// absurd measurement from effectively quarantining an instance.
  static constexpr double kDerateCap = 8.0;
  /// Queue-depth signal: an instance whose smoothed input-queue occupancy
  /// exceeds kQueueSkew × the cluster mean (and is at least kQueueFloor
  /// absolute) becomes Suspect.
  static constexpr double kQueueSkew = 2.0;
  static constexpr double kQueueFloor = 0.5;

  explicit HealthMonitor(std::size_t instances);

  /// Feeds one epoch's measured drift for instance `op`: the ratio of the
  /// true cumulated time at the marker cut to the scheduler's billed Ĉ
  /// (1.0 = estimates were exact; 2.0 = the instance ran twice as slow as
  /// billed). Drives Live/Suspect/Degraded transitions and the de-rate
  /// EWMA.
  void on_epoch_drift(common::InstanceId op, double ratio);

  /// Feedback-recency signal from the runtime: `op` owes the in-flight
  /// epoch a reply and has been silent for a while (but not yet past the
  /// quarantine deadline). Live → Suspect.
  void note_stale_feedback(common::InstanceId op);

  /// Queue-depth signal: smoothed occupancy fraction of `op`'s input
  /// queue. Suspect when persistently skewed against the cluster mean.
  void note_queue_depth(common::InstanceId op, double occupancy_fraction);

  /// Lifecycle hooks from the scheduler's quarantine/rejoin paths.
  void on_quarantined(common::InstanceId op);
  void on_rejoined(common::InstanceId op);

  InstanceHealth state(common::InstanceId op) const;
  /// Billing multiplier: 1.0 for Live/Suspect/Quarantined, the smoothed
  /// drift ratio (clamped to [1, kDerateCap]) while Degraded.
  double derate(common::InstanceId op) const;

  // Transition counters (metrics::ResilienceStats surfaces these).
  std::uint64_t suspect_transitions() const noexcept { return suspect_transitions_; }
  std::uint64_t degraded_transitions() const noexcept { return degraded_transitions_; }
  std::uint64_t promotions() const noexcept { return promotions_; }

  /// Binds a trace sink for HealthTransition events (detail encodes
  /// (from << 4) | to of the FSM edge, value the drift EWMA at that
  /// moment). Transitions are rare, so events are published directly (no
  /// staging). The ring is not owned; nullptr unbinds.
  void bind_trace(obs::TraceRing* trace) noexcept { trace_ = trace; }

  /// Aborts via POSG_CHECK when the monitor's own snapshot() breaks an
  /// invariant (see invariant_violation).
  void debug_validate() const;

  /// Checkpointable image of the monitor (core/checkpoint.hpp): the whole
  /// deterministic FSM — per-instance states, drift/queue EWMAs, streak
  /// counters — plus the transition tallies, so a restored scheduler
  /// resumes straggler detection exactly where the crashed one left off.
  struct Snapshot {
    std::vector<InstanceHealth> states;
    std::vector<double> drift_ewma;
    std::vector<std::uint64_t> hot_streak;
    std::vector<std::uint64_t> calm_streak;
    std::vector<double> queue_ewma;
    std::uint64_t suspect_transitions = 0;
    std::uint64_t degraded_transitions = 0;
    std::uint64_t promotions = 0;
  };
  Snapshot snapshot() const;

  /// The monitor's invariants, stated once over an image (sizes, state
  /// range, EWMA domains, streak exclusivity). Returns the first broken
  /// one, or nullptr; it allocates nothing.
  const char* invariant_violation(const Snapshot& snapshot) const noexcept;

  /// Restores a snapshot(). Checkpoints are untrusted input, so unlike
  /// debug_validate this *throws* std::invalid_argument with
  /// invariant_violation()'s message and leaves the monitor untouched.
  void restore(const Snapshot& snapshot);

 private:
  void become(common::InstanceId op, InstanceHealth next);
  void trace_transition(common::InstanceId op, InstanceHealth prev, InstanceHealth next) const;

  std::size_t k_;
  std::vector<InstanceHealth> states_;
  /// Smoothed drift ratio (EWMA, alpha 0.5) — becomes the de-rate factor
  /// while Degraded.
  std::vector<double> drift_ewma_;
  /// Consecutive epochs at/above kDegradeDrift.
  std::vector<std::size_t> hot_streak_;
  /// Consecutive epochs at/below kPromoteDrift.
  std::vector<std::size_t> calm_streak_;
  /// Smoothed queue occupancy per instance (EWMA, alpha 0.5; negative =
  /// no sample yet).
  std::vector<double> queue_ewma_;
  std::uint64_t suspect_transitions_ = 0;
  std::uint64_t degraded_transitions_ = 0;
  std::uint64_t promotions_ = 0;
  /// Optional HealthTransition sink (not owned; see bind_trace).
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace posg::core
