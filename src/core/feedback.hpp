#pragma once

#include <variant>

#include "common/types.hpp"
#include "core/messages.hpp"

/// The typed feedback-event vocabulary behind `Scheduler::on_feedback`.
///
/// Every substrate (sim, engine, runtime) delivers feedback through that
/// single entry point, and a demultiplexer (core/multi_source.hpp) can
/// route events to per-source views without knowing their kinds. A policy
/// picks the kinds it consumes out of the variant.
namespace posg::core {

/// Execution feedback: `instance` finished one tuple that took
/// `execution_time`. Only backlog-style policies consume it; POSG's
/// feedback channel is the sketch shipment.
struct TupleExecuted {
  common::InstanceId instance;
  common::TimeMs execution_time;
};

/// Periodic queue-state report (reactive policies; core/reactive_jsq.hpp).
struct LoadReport {
  common::InstanceId instance;
  common::TimeMs backlog;
  common::TimeMs mean_execution_time;
};

/// One feedback delivery from the substrate to a scheduling policy. The
/// variant is closed by design: adding a kind here is the whole cost of a
/// new feedback channel — policies that do not read it are untouched.
using FeedbackEvent = std::variant<SketchShipment, SyncReply, TupleExecuted, LoadReport>;

}  // namespace posg::core
