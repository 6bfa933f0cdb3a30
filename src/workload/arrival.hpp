#pragma once

#include <cstdint>

#include "common/types.hpp"

/// Time-varying arrival-rate profiles for elasticity experiments.
namespace posg::workload {

/// Multiplies a base arrival rate as a function of time. The source's
/// inter-arrival spacing at time t is
///
///     inter_arrival / profile.rate_multiplier(t)
///
/// so a multiplier of 20 packs tuples twenty times closer together. Two
/// shapes:
///
///   kConstant   — the fixed-rate source every steady-state experiment
///                 uses (multiplier ≡ 1).
///   kFlashCrowd — a rectangular ×spike_factor burst over
///                 [spike_start, spike_start + spike_duration): the
///                 pathological step change that separates predictive
///                 scale-up from reactive too-late scale-up.
///
/// `distributed_posg --spike-*` builds one over wall-clock milliseconds
/// and refuses each flag outside its domain, so the fields here are not
/// checked again.
struct ArrivalProfile {
  enum class Kind : std::uint8_t { kConstant, kFlashCrowd };

  Kind kind = Kind::kConstant;

  /// kFlashCrowd: rate multiplier inside the spike window (×20 is the
  /// canonical flash crowd).
  double spike_factor = 20.0;
  /// kFlashCrowd: spike window [spike_start, spike_start + spike_duration).
  common::TimeMs spike_start = 0.0;
  common::TimeMs spike_duration = 0.0;

  /// The instantaneous rate multiplier at time `now`; positive whenever
  /// spike_factor is.
  double rate_multiplier(common::TimeMs now) const;
};

}  // namespace posg::workload
