#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "net/transport.hpp"

/// Deterministic fault injection for the distributed runtime.
///
/// A FaultInjector wraps a Socket behind the FrameTransport interface and
/// applies a scripted FaultPlan keyed on per-direction frame indices:
/// drop frame N, delay frame N by D, corrupt byte B of frame N, disconnect
/// after frame N, and the gray faults over frame ranges. Plans are either
/// hand-built (regression tests pinning one failure mode) or derived from a
/// PRNG seed (FaultPlan::random_gray), so every failure scenario in ctest
/// is exactly reproducible: the same plan produces the same fault sequence
/// on every run, asserted via the injector's event log.
namespace posg::net {

/// Direction of a frame relative to the wrapped endpoint.
enum class FaultDir : std::uint8_t {
  kSend,  ///< frames this endpoint writes
  kRecv,  ///< frames this endpoint reads
};

struct FaultAction {
  /// The first four kinds are crash-style faults targeting one frame; the
  /// last three are *gray* faults degrading a frame range (see `span`):
  ///   kSlow       every frame in range is delayed by `delay`
  ///   kPartition  one-way partition — every frame in range is dropped
  ///   kStutter    burst-then-stall — each run of `burst` frames passes
  ///               untouched, then one frame stalls for `delay`
  enum class Kind : std::uint8_t { kDrop, kDelay, kCorrupt, kDisconnect, kSlow, kPartition, kStutter };

  Kind kind = Kind::kDrop;
  FaultDir dir = FaultDir::kSend;
  /// 0-based index of the targeted frame within its direction (range start
  /// for the gray kinds).
  std::uint64_t frame = 0;
  std::chrono::milliseconds delay{0};  ///< kDelay, kSlow, kStutter
  std::size_t byte_offset = 0;         ///< kCorrupt: offset into the payload (mod size)
  std::uint8_t xor_mask = 0xFF;        ///< kCorrupt: flipped bits
  /// Gray kinds: number of frames in [frame, frame + span) the fault
  /// covers. 0 (the default) keeps the original exact-frame semantics for
  /// the crash-style kinds — existing brace-initialized plans are
  /// untouched.
  std::uint64_t span = 0;
  /// kStutter: frames passed between stalls; 0 stalls every frame.
  std::uint32_t burst = 0;

  /// Stable human-readable form, e.g. "drop send#3"; the injector's event
  /// log is a sequence of these, which is what the determinism tests
  /// compare across runs.
  std::string describe() const;

  /// Whether the action targets frame index `f` (exact match for the
  /// crash-style kinds, range membership for the gray kinds).
  bool applies_to(std::uint64_t f) const noexcept;
};

/// An ordered fault script. Actions targeting the same frame apply in
/// registration order (so "corrupt then disconnect" is expressible).
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& drop(FaultDir dir, std::uint64_t frame);
  FaultPlan& delay(FaultDir dir, std::uint64_t frame, std::chrono::milliseconds by);
  FaultPlan& corrupt(FaultDir dir, std::uint64_t frame, std::size_t byte_offset,
                     std::uint8_t xor_mask = 0xFF);
  FaultPlan& disconnect_after(FaultDir dir, std::uint64_t frame);
  /// Gray faults (see FaultAction::Kind): degrade `span` frames starting
  /// at `frame` instead of hitting exactly one.
  FaultPlan& slow(FaultDir dir, std::uint64_t frame, std::uint64_t span,
                  std::chrono::milliseconds by);
  FaultPlan& partition(FaultDir dir, std::uint64_t frame, std::uint64_t span);
  FaultPlan& stutter(FaultDir dir, std::uint64_t frame, std::uint64_t span, std::uint32_t burst,
                     std::chrono::milliseconds stall);

  /// Derives a plan of `faults` scripted actions over the first `horizon`
  /// frames of each direction from `seed`, drawn from all seven kinds
  /// (gray spans up to horizon/4). Equal seeds yield equal plans
  /// (bit-for-bit), which makes randomized fault campaigns replayable from
  /// a single integer.
  static FaultPlan random_gray(std::uint64_t seed, std::uint64_t horizon, std::size_t faults);

  const std::vector<FaultAction>& actions() const noexcept { return actions_; }
  bool empty() const noexcept { return actions_.empty(); }

  /// Actions targeting frame `frame` in direction `dir`, in plan order.
  std::vector<const FaultAction*> for_frame(FaultDir dir, std::uint64_t frame) const;

 private:
  std::vector<FaultAction> actions_;
};

/// FrameTransport decorator that executes a FaultPlan against an owned
/// socket. Thread contract matches Socket: one sender thread and one
/// receiver thread may operate concurrently; the event log is internally
/// synchronized.
class FaultInjector final : public FrameTransport {
 public:
  FaultInjector(Socket socket, FaultPlan plan);

  /// Applies any send-direction faults scheduled for this frame. A
  /// scripted disconnect severs the link after the write (shutdown, not
  /// close — safe against a concurrent receiver on the same socket);
  /// later sends then throw std::system_error(EPIPE) exactly like a dead
  /// peer.
  void send_frame(std::span<const std::byte> payload) override;

  /// Applies recv-direction faults. Dropped frames are consumed off the
  /// wire and silently skipped; a scripted disconnect delivers the frame,
  /// then severs the link so the next receive reports EOF.
  RecvResult recv_frame(std::chrono::milliseconds deadline) override;

  void close() noexcept override;
  bool valid() const noexcept override;

  /// Faults applied so far, in application order (FaultAction::describe
  /// strings). Deterministic for a given plan and frame sequence.
  std::vector<std::string> event_log() const;

  std::uint64_t frames_sent() const noexcept;
  std::uint64_t frames_received() const noexcept;

 private:
  void record(const FaultAction& action);

  Socket socket_;
  FaultPlan plan_;
  // kEventLog: a leaf below the data-plane tiers; send/recv threads both
  // append while holding nothing else.
  mutable Mutex mutex_{"net::FaultInjector::mutex_", lock_rank::kEventLog};
  std::vector<std::string> log_ GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  // A scripted disconnect fired. The socket is shutdown() rather than
  // close()d (no fd_ mutation under a concurrent peer thread), so this
  // flag — not socket_.valid() — is what makes post-disconnect behavior
  // deterministic: the kernel may still surface frames buffered before
  // the sever, but the injector's contract is "severed means EOF/EPIPE".
  std::atomic<bool> severed_{false};
};

}  // namespace posg::net
