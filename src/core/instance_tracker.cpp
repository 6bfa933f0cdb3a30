#include "core/instance_tracker.hpp"

#include <cmath>

namespace posg::core {

InstanceTracker::InstanceTracker(common::InstanceId id, const PosgConfig& config)
    : id_(id),
      config_(config),
      sketch_(config.dims(), config.sketch_seed, config.heavy_hitter_capacity,
              config.conservative_update) {
  common::require(config.window >= 1, "InstanceTracker: window must be >= 1");
  common::require(std::isfinite(config.mu) && config.mu > 0.0,
                  "InstanceTracker: mu must be finite and > 0");
  touched_.reserve(config.window * sketch_.dims().rows);
  snapshot_.reset_zero(sketch_.dims());
}

std::optional<SketchShipment> InstanceTracker::on_executed(common::Item item,
                                                           common::TimeMs execution_time) {
  common::require(execution_time >= 0.0, "InstanceTracker: negative execution time");
  // One digest serves the update AND the touched-cell log for the capture
  // fast path (the digest overload is bit-identical to update(item, time)).
  const hash::BucketDigest digest = sketch_.digest(item);
  sketch_.update(item, digest, execution_time);
  for (std::size_t row = 0; row < sketch_.dims().rows; ++row) {
    touched_.push_back(static_cast<std::uint32_t>(digest.offset(row)));
  }
  cumulated_ += execution_time;
  ++executed_;
  ++window_fill_;

  if (window_fill_ < config_.window) {
    return std::nullopt;
  }
  window_fill_ = 0;

  if (state_ == State::kStart) {
    // Fig. 2.A: first full window — take the reference snapshot and start
    // watching for stability. The ratio matrix was zeroed when this epoch's
    // fresh sketch was armed, so only the cells this window touched need
    // their ratios computed.
    snapshot_.capture_touched(sketch_, touched_.data(), touched_.size());
    touched_.clear();
    state_ = State::kStabilizing;
    windows_this_epoch_ = 1;
    return std::nullopt;
  }

  ++windows_this_epoch_;
  // Fused window-boundary pass: eta against the previous snapshot AND the
  // Fig. 2.B refresh in one walk. On the ship path below the refreshed
  // ratios are simply abandoned (the FSM returns to START), so the fold
  // is behaviour-preserving either way.
  // The full fused pass, not a touched-cell variant: eta's three sums must
  // accumulate every cell in index order (FP addition does not reassociate),
  // and that in-order add chain is the pass's true floor — the divides
  // pipeline underneath it for free. The refreshed matrix is fully current
  // afterwards, so the touched log restarts empty.
  last_eta_ = snapshot_.refresh_and_error(sketch_);
  touched_.clear();
  const bool force_ship = config_.max_windows_per_epoch != 0 &&
                          windows_this_epoch_ >= config_.max_windows_per_epoch;
  if (last_eta_ > config_.mu && !force_ship) {
    // Fig. 2.B: still drifting — snapshot already refreshed, keep observing.
    return std::nullopt;
  }

  // Fig. 2.C: stable — ship the matrices, reset, back to START. The
  // sketch is moved into the shipment (no 2·r·c cell copy); the tracker
  // re-arms with a fresh zeroed sketch of the same layout, which is what
  // reset() produced before.
  SketchShipment shipment{id_, std::move(sketch_)};
  sketch_ = sketch::DualSketch(config_.dims(), config_.sketch_seed,
                               config_.heavy_hitter_capacity, config_.conservative_update);
  // Re-arm the incremental capture against the fresh all-zero sketch (the
  // refresh above already cleared the touched log for this epoch).
  snapshot_.reset_zero(sketch_.dims());
  state_ = State::kStart;
  ++shipments_;
  return shipment;
}

SyncReply InstanceTracker::on_sync_request(const SyncRequest& request) const noexcept {
  return SyncReply{id_, request.epoch, cumulated_ - request.estimated_cumulated};
}

void InstanceTracker::rearm(common::TimeMs seeded_cumulated) {
  common::require(seeded_cumulated >= 0.0, "InstanceTracker: negative rejoin seed");
  sketch_.reset();
  // rearm can land mid-window, with touched offsets logged for updates the
  // reset just erased — drop them along with the stale ratios.
  snapshot_.reset_zero(sketch_.dims());
  touched_.clear();
  state_ = State::kStart;
  window_fill_ = 0;
  windows_this_epoch_ = 0;
  cumulated_ = seeded_cumulated;
  last_eta_ = std::numeric_limits<double>::quiet_NaN();
}

}  // namespace posg::core
