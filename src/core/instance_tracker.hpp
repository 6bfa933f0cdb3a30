#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "sketch/dual_sketch.hpp"
#include "sketch/snapshot.hpp"

namespace posg::core {

/// The operator-instance side of POSG (Fig. 2, Listing III.1).
///
/// Every instance runs this two-state machine:
///
///   START ──(executed N tuples)──────────────► STABILIZING
///     ▲        create snapshot S                    │
///     │                                             │ every further N tuples:
///     │                                             │   η ≤ µ ?
///     └──(yes: ship F,W to scheduler, reset)────────┤
///                                                   └─(no: refresh S, stay)
///
/// The tracker also owns the instance's true cumulated execution time
/// C_op, which is what the synchronization markers compare against.
///
/// Threading contract: all methods are called from the instance's
/// execution thread (simulator event loop / engine executor); no internal
/// locking.
class InstanceTracker {
 public:
  enum class State { kStart, kStabilizing };

  InstanceTracker(common::InstanceId id, const PosgConfig& config);

  /// Records that this instance just finished executing `item` and it took
  /// `execution_time`. Returns a shipment when this execution completed a
  /// window whose matrices are stable (the caller must forward it to the
  /// scheduler); the matrices are reset in that case and the FSM returns
  /// to START.
  std::optional<SketchShipment> on_executed(common::Item item, common::TimeMs execution_time);

  /// Handles a synchronization marker piggy-backed on a tuple.
  ///
  /// Must be called right after `on_executed` for the carrying tuple, so
  /// that C_op covers the marker tuple itself — the scheduler's
  /// piggy-backed Ĉ[op] does (see messages.hpp).
  SyncReply on_sync_request(const SyncRequest& request) const noexcept;

  /// True cumulated execution time C_op since instance start (monotone
  /// across sketch epochs).
  common::TimeMs cumulated_execution_time() const noexcept { return cumulated_; }

  /// Tuples executed since instance start.
  std::uint64_t executed_count() const noexcept { return executed_; }

  State state() const noexcept { return state_; }
  common::InstanceId id() const noexcept { return id_; }

  /// Relative error of the last stability check (NaN before the first
  /// check); exposed for tests and adaptive diagnostics.
  double last_relative_error() const noexcept { return last_eta_; }

  /// Number of shipments produced so far.
  std::uint64_t shipments() const noexcept { return shipments_; }

  /// Re-admission handshake (ReattachAck, after a rejoin or a re-attach):
  /// restart the sketch FSM with fresh matrices and rebase C_op to the
  /// scheduler's seeded Ĉ. Without the rebase, the first post-rejoin
  /// marker would measure Δ ≈ −seed — the instance's true clock restarted
  /// at 0 while the scheduler billed from the seed — and the correction
  /// would zero the rejoiner's Ĉ, handing it the whole stream (thundering
  /// herd).
  void rearm(common::TimeMs seeded_cumulated);

 private:
  common::InstanceId id_;
  PosgConfig config_;
  sketch::DualSketch sketch_;
  /// Reference snapshot of the stability FSM. Only meaningful in
  /// STABILIZING; the storage is captured in place at every window
  /// boundary so a long-lived tracker allocates the ratio matrix once.
  sketch::Snapshot snapshot_;
  /// Cell offsets touched since the last window boundary: on_executed
  /// appends each update's r digest offsets, and the kStart capture
  /// consumes them (Snapshot::capture_touched) so the first snapshot of an
  /// epoch divides window·r cells instead of all r·c. Cleared at every
  /// window boundary — a refresh_and_error pass leaves the whole ratio
  /// matrix current, which re-establishes capture_touched's precondition.
  std::vector<std::uint32_t> touched_;
  State state_ = State::kStart;
  std::uint64_t window_fill_ = 0;
  std::uint64_t windows_this_epoch_ = 0;
  std::uint64_t executed_ = 0;
  common::TimeMs cumulated_ = 0.0;
  double last_eta_ = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t shipments_ = 0;
};

}  // namespace posg::core
