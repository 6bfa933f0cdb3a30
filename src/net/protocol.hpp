#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "core/messages.hpp"

/// Wire protocol between a POSG scheduler process and operator-instance
/// processes — the distributed deployment the in-process substrates
/// emulate. Nine message kinds:
///
///   instance -> scheduler:  Hello (registration and rejoin),
///                           SchedulerHello (re-attach after a scheduler
///                           crash-restart), SketchShipment (Fig. 1.B, via
///                           sketch/serialize.hpp), SyncReply (Fig. 1.E),
///                           DrainComplete (lossless-drain final Δ)
///   scheduler -> instance:  TupleMessage (data + optional piggy-backed
///                           SyncRequest, Fig. 1.D), EndOfStream,
///                           ReattachAck (the rejoin and re-attach
///                           handshakes' accept), DrainRequest
///                           (lossless-drain open)
///
/// Every message is one length-prefixed socket frame (net/socket.hpp)
/// starting with a one-byte tag.
namespace posg::net {

/// Instance registration: "instance `id` is ready on this connection".
/// `source` names the scheduler view this link belongs to (DESIGN.md §15)
/// — an instance in an S-source deployment opens one link per source, and
/// each scheduler runtime rejects a Hello addressed to a different
/// source's view (a crossed wire would attach the wrong tracker to the
/// wrong Ĉ). Single-source deployments leave it 0.
struct Hello {
  common::InstanceId instance;
  common::SourceId source = 0;
};

/// Instance -> scheduler: re-attach after a scheduler crash-restart (the
/// recovery counterpart of Hello; see DESIGN.md §14). The instance kept
/// its process and tracker alive; only the link died.
struct SchedulerHello {
  common::InstanceId instance;
  /// Source view this re-attach addresses (same contract as Hello::source).
  common::SourceId source = 0;
};

/// One data tuple routed to an instance, with POSG's optional marker.
struct TupleMessage {
  common::SeqNo seq = 0;
  common::Item item = 0;
  std::optional<core::SyncRequest> marker;
};

/// Orderly shutdown of the data stream.
struct EndOfStream {};

/// Scheduler -> draining instance: elastic scale-down opened a lossless
/// drain (DESIGN.md §11). Because the link is FIFO, every tuple routed
/// before this frame has already been executed when the instance reads it
/// — the queue is dry by construction. `estimated_cumulated` is the
/// scheduler's Ĉ cut at begin_drain; the instance answers with
/// DrainComplete carrying Δ = C_real − cut, then exits cleanly.
struct DrainRequest {
  common::InstanceId instance;
  common::Epoch epoch;
  common::TimeMs estimated_cumulated;
};

/// Draining instance -> scheduler: the queue ran dry; `delta` is the final
/// Δop against the DrainRequest's cut and `executed` the instance's total
/// executed-tuple count (the conservation side of the handshake: the
/// scheduler checks executed == tuples it routed there). The instance
/// closes its link right after sending this — the EOF that follows is the
/// end of a completed drain, not a failure.
struct DrainComplete {
  common::InstanceId instance;
  common::Epoch epoch;
  common::TimeMs delta;
  std::uint64_t executed;
};

/// Scheduler -> re-admitted instance: the accept of both re-admission
/// handshakes — the rejoin (a quarantined instance's Hello) and the
/// re-attach (a SchedulerHello after a scheduler restart). `seed` is the
/// scheduler's Ĉ[op] once it re-admitted the instance: the live minimum
/// for a rejoin, the checkpointed cut for a re-attach. The instance rebases
/// its tracker to it (core::InstanceTracker::rearm), so its next Δ
/// measures only drift since the handshake: work billed before it, or
/// across the crash window, is never billed again (DESIGN.md §14).
struct ReattachAck {
  common::InstanceId instance;
  common::TimeMs seed;
};

using Message = std::variant<Hello, TupleMessage, core::SketchShipment, core::SyncReply,
                             EndOfStream, DrainRequest, DrainComplete, SchedulerHello,
                             ReattachAck>;

/// Encodes a message into one frame payload.
std::vector<std::byte> encode(const Message& message);

/// Largest TupleMessage payload: tag + seq + item + marker flag, plus the
/// marker's epoch + Ĉ.
inline constexpr std::size_t kMaxTupleFrameBytes = 1 + 8 + 8 + 1 + 8 + 8;
using TupleFrameBuffer = std::array<std::byte, kMaxTupleFrameBytes>;

/// Encodes a TupleMessage into `buffer` and returns the bytes written —
/// the per-tuple frame of SchedulerRuntime::route(), built without a heap
/// allocation. encode() builds its TupleMessage payloads with it, so the
/// two are byte-identical.
std::span<const std::byte> encode_tuple(const TupleMessage& tuple,
                                        TupleFrameBuffer& buffer) noexcept;

/// Decodes a frame payload. Throws std::invalid_argument on unknown tags
/// or malformed payloads.
Message decode(std::span<const std::byte> payload);

/// Aborts via POSG_CHECK, with decode()'s message, unless `payload`
/// decodes: decode() is the one statement of a frame's layout, and a frame
/// *we produced* that breaks it is a programming error, not peer input.
/// encode() runs this on its own output under POSG_DCHECK_IS_ON (a
/// shipment is then decoded in full, sketch invariants included); tests
/// call it directly.
void debug_validate_frame(std::span<const std::byte> payload);

}  // namespace posg::net
