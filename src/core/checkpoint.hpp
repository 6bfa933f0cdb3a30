#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/instance_health.hpp"
#include "sketch/dual_sketch.hpp"

/// Crash-recovery checkpoint of the POSG scheduler's control state
/// (DESIGN.md §14).
///
/// The scheduler is the single stateful brain in front of k instances:
/// losing Ĉ, the epoch machinery, the health FSM, and the shipped-sketch
/// set to a crash forces a full cold start — every instance's estimation
/// history gone, the greedy bound re-earned from ROUND_ROBIN. This module
/// makes that state durable as one small binary file:
///
///   header:  u32 magic 'PKCP' | u32 version | u64 payload size |
///            u32 CRC-32 (IEEE reflected, over the payload bytes)
///   payload: scalar control state, the per-instance vectors, the
///            HealthMonitor snapshot, and each shipped sketch as a
///            length-prefixed sketch::serialize() blob
///
/// What is durable vs. reconstructed: the checkpoint carries only the
/// *primary* state the Δ-synchronization protocol cannot re-derive from
/// instance feedback. Derived caches (the merged billing view, the global
/// mean, the incremental greedy argmin, live/serving/marker counters) are
/// deliberately absent — PosgScheduler::restore recomputes them, so a
/// checkpoint can never smuggle in an internally inconsistent cache.
///
/// Torn-write safety: write_checkpoint_file writes `<path>.tmp`, fsyncs,
/// and atomically renames — a crash mid-write leaves the previous
/// checkpoint intact. Any bit flip in the payload fails the CRC; a
/// version bump fails the header check; both surface as
/// std::invalid_argument from decode(), which the runtime turns into a
/// counted cold start rather than a crash.
namespace posg::core {

/// Header constants, exposed for tests and tools/ckpt_inspect.py.
/// Version 2 (multi-source tier): the payload carries the owning source id
/// right after k, so a restarted SchedulerRuntime refuses a checkpoint
/// that belongs to a different source's view. Version 1 images still
/// decode (their source id is 0 — the single-source deployment they were
/// written by).
inline constexpr std::uint32_t kCheckpointMagic = 0x50434B50;  // 'PKCP' on the wire
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kCheckpointMinVersion = 1;
inline constexpr std::size_t kCheckpointHeaderBytes = 4 + 4 + 8 + 4;

/// Image of PosgScheduler's primary control state. Produced by
/// PosgScheduler::checkpoint_state(), consumed by restore(). Boolean
/// per-instance sets travel as u8 vectors (0/1) so the encoding is
/// layout-stable across standard libraries.
struct CheckpointState {
  std::uint64_t k = 0;
  /// Source whose view this image captures (0 for single-source
  /// deployments and every version-1 image). restore() rejects a
  /// mismatch: source 2's Ĉ billed source 2's routed tuples — restoring
  /// it into source 3 would double-bill one source's work and orphan the
  /// other's.
  common::SourceId source_id = 0;
  std::uint8_t scheduler_state = 0;  ///< PosgScheduler::State as u8
  std::uint64_t rr_next = 0;
  common::Epoch epoch = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t rejoin_count = 0;
  std::uint64_t stale_replies = 0;
  std::uint64_t drains_begun = 0;
  std::uint64_t retires = 0;
  std::uint64_t drain_cancels = 0;

  std::vector<common::TimeMs> c_est;          ///< Ĉ — the tracker cuts ReattachAck re-seeds
  std::vector<common::TimeMs> latency_hints;  ///< empty (disabled) or k entries
  std::vector<std::uint8_t> failed;
  std::vector<std::uint8_t> draining;
  std::vector<std::uint8_t> marker_pending;
  std::vector<std::uint8_t> reply_received;
  std::vector<common::TimeMs> reply_delta;
  std::vector<common::TimeMs> marker_estimate;  ///< -1 = no marker out this epoch
  std::vector<double> derate;
  std::vector<double> ramp_tokens;
  std::vector<std::uint64_t> ramp_left;

  HealthMonitor::Snapshot health;

  /// Latest shipped sketch per instance (absent slots = never shipped /
  /// dropped at quarantine), re-encoded via sketch/serialize on encode().
  std::vector<std::optional<sketch::DualSketch>> sketches;
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — bit-identical
/// to Python's zlib.crc32 so tools/ckpt_inspect.py can verify checkpoints
/// without any native helper.
std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// Encodes `state` into a self-describing checkpoint image (header +
/// CRC-guarded payload). Encoding the state captured right after a
/// restore() reproduces the original image byte for byte (the round-trip
/// equality tests pin this).
std::vector<std::byte> encode(const CheckpointState& state);

/// Decodes a checkpoint image. Throws std::invalid_argument on a bad
/// magic, an unknown version, a size/CRC mismatch, or a structurally
/// malformed payload (including any embedded sketch that breaks
/// DualSketch::invariant_violation). Structural only — the scheduler's
/// invariants (quarantine exclusivity, state-machine consistency) are
/// PosgScheduler::invariant_violation, which restore() throws from and
/// debug_validate() aborts on.
CheckpointState decode(std::span<const std::byte> bytes);

/// Durably replaces the checkpoint at `path`: writes `<path>.tmp`,
/// flushes and fsyncs it, then renames over `path` so readers only ever
/// observe a complete image. Throws std::system_error on I/O failure.
void write_checkpoint_file(const std::string& path, std::span<const std::byte> bytes);

/// Reads the checkpoint at `path` whole. Returns std::nullopt when the
/// file is missing or unreadable — the caller's cold-start signal; no
/// validation is attempted here (decode() does that).
std::optional<std::vector<std::byte>> read_checkpoint_file(const std::string& path);

}  // namespace posg::core
