#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "engine/value.hpp"

namespace posg::engine {

/// Where a grouping sends one tuple: target instance index plus POSG's
/// optional piggy-backed marker.
struct Route {
  common::InstanceId instance;
  std::optional<core::SyncRequest> marker;
};

/// A grouping function: the sender-side policy that partitions a stream
/// over the k instances of the receiving bolt (Sec. II). Implementations
/// must be thread-safe — a grouping object is shared by all instances of
/// the emitting component.
class Grouping {
 public:
  virtual ~Grouping() = default;

  /// Chooses the destination instance among [0, k) for `tuple`.
  virtual Route route(const Tuple& tuple, std::size_t k) = 0;

  /// Routes `n` consecutive tuples in one call, writing one Route per
  /// tuple into `out`. The default is a per-tuple route() loop, so every
  /// grouping is batch-callable; groupings with amortizable scheduling
  /// state (POSG) override it to pay their synchronization and argmin
  /// cost once per batch instead of once per tuple (DESIGN.md §13).
  virtual void route_batch(const Tuple* tuples, std::size_t n, std::size_t k, Route* out) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = route(tuples[i], k);
    }
  }

  /// True when the receiving executors should run POSG instance trackers
  /// and feed shipments/replies back to this grouping.
  virtual bool wants_feedback() const { return false; }

  /// Feedback delivery (only called when wants_feedback()).
  virtual void on_sketches(const core::SketchShipment& shipment) { (void)shipment; }
  /// Move form: feedback-consuming groupings may steal the sketch's cell
  /// array. Defaults to the copying overload.
  virtual void on_sketches(core::SketchShipment&& shipment) {
    on_sketches(static_cast<const core::SketchShipment&>(shipment));
  }
  virtual void on_sync_reply(const core::SyncReply& reply) { (void)reply; }

  /// Configuration the receiving executors' instance trackers must use
  /// (sketch layout and hash seed must match the scheduler's). Non-null
  /// exactly when wants_feedback().
  virtual const core::PosgConfig* feedback_config() const { return nullptr; }

  /// Estimated execution cost of `tuple`. Nothing in the engine calls it,
  /// and no grouping in src/ overrides it. It stays only because
  /// perfbench's tracing grouping overrides it; delete it with that
  /// override.
  virtual std::optional<double> cost_estimate(const Tuple& tuple) const {
    (void)tuple;
    return std::nullopt;
  }

  /// Receiver-side queue-occupancy sample (fraction of capacity observed
  /// at dequeue time). Groupings with a health model (POSG's straggler
  /// detector) fold it in; the default ignores it.
  virtual void on_queue_sample(common::InstanceId instance, double occupancy) {
    (void)instance;
    (void)occupancy;
  }

  virtual std::string name() const = 0;
};

/// Stock shuffle grouping — round-robin, what Apache Storm ships (the
/// paper's "ASSG" baseline in Figs. 11/12).
class ShuffleGrouping final : public Grouping {
 public:
  Route route(const Tuple& tuple, std::size_t k) override;
  std::string name() const override { return "shuffle"; }

 private:
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace posg::engine
