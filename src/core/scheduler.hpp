#pragma once

#include <string>

#include "common/types.hpp"
#include "core/feedback.hpp"
#include "core/messages.hpp"

namespace posg::core {

/// A shuffle-grouping scheduling policy: maps each incoming tuple to one
/// of the k parallel instances of the downstream operator.
///
/// The interface is transport-agnostic and single-threaded by contract —
/// the simulator calls it from its event loop, the engine wraps it behind
/// a mutex (one grouping object lives in the upstream executor, exactly as
/// the paper's custom Storm grouping does).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Routes tuple `item` (the attribute value driving its cost); `seq` is
  /// its stream sequence number. Returns the target instance and an
  /// optional piggy-backed synchronization marker that the substrate must
  /// deliver to that instance along with the tuple.
  virtual Decision schedule(common::Item item, common::SeqNo seq) = 0;

  /// The feedback entry point: every delivery from the substrate — sketch
  /// shipment, synchronization reply, execution feedback, load report —
  /// arrives as one typed event (core/feedback.hpp), passed by rvalue so a
  /// policy may keep its payload without a copy. A policy reads the kinds
  /// it consumes from the variant and ignores the rest; the default
  /// ignores everything (feedback-free policies such as round-robin).
  virtual void on_feedback(FeedbackEvent&& event) { (void)event; }

  /// Number of downstream instances k.
  virtual std::size_t instances() const = 0;

  /// Human-readable policy tag used in benchmark tables.
  virtual std::string name() const = 0;
};

}  // namespace posg::core
