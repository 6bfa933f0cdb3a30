#include "net/fault_injection.hpp"

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <thread>

#include "common/prng.hpp"
#include "common/types.hpp"

namespace posg::net {

namespace {

const char* dir_name(FaultDir dir) { return dir == FaultDir::kSend ? "send" : "recv"; }

}  // namespace

std::string FaultAction::describe() const {
  const std::string target = std::string(dir_name(dir)) + "#" + std::to_string(frame);
  const std::string range = target + ".." + std::to_string(frame + (span > 0 ? span - 1 : 0));
  switch (kind) {
    case Kind::kDrop:
      return "drop " + target;
    case Kind::kDelay:
      return "delay " + target + " by " + std::to_string(delay.count()) + "ms";
    case Kind::kCorrupt:
      return "corrupt " + target + " byte " + std::to_string(byte_offset) + " xor " +
             std::to_string(static_cast<unsigned>(xor_mask));
    case Kind::kDisconnect:
      return "disconnect after " + target;
    case Kind::kSlow:
      return "slow " + range + " by " + std::to_string(delay.count()) + "ms";
    case Kind::kPartition:
      return "partition " + range;
    case Kind::kStutter:
      return "stutter " + range + " burst " + std::to_string(burst) + " stall " +
             std::to_string(delay.count()) + "ms";
  }
  return "unknown " + target;
}

bool FaultAction::applies_to(std::uint64_t f) const noexcept {
  switch (kind) {
    case Kind::kDrop:
    case Kind::kDelay:
    case Kind::kCorrupt:
    case Kind::kDisconnect:
      return f == frame;
    case Kind::kSlow:
    case Kind::kPartition:
    case Kind::kStutter:
      return f >= frame && f - frame < span;
  }
  return false;
}

FaultPlan& FaultPlan::drop(FaultDir dir, std::uint64_t frame) {
  actions_.push_back(FaultAction{FaultAction::Kind::kDrop, dir, frame, {}, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::delay(FaultDir dir, std::uint64_t frame, std::chrono::milliseconds by) {
  common::require(by.count() >= 0, "FaultPlan: negative delay");
  actions_.push_back(FaultAction{FaultAction::Kind::kDelay, dir, frame, by, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::corrupt(FaultDir dir, std::uint64_t frame, std::size_t byte_offset,
                              std::uint8_t xor_mask) {
  common::require(xor_mask != 0, "FaultPlan: corrupt with a zero mask is a no-op");
  actions_.push_back(
      FaultAction{FaultAction::Kind::kCorrupt, dir, frame, {}, byte_offset, xor_mask});
  return *this;
}

FaultPlan& FaultPlan::disconnect_after(FaultDir dir, std::uint64_t frame) {
  actions_.push_back(FaultAction{FaultAction::Kind::kDisconnect, dir, frame, {}, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::slow(FaultDir dir, std::uint64_t frame, std::uint64_t span,
                           std::chrono::milliseconds by) {
  common::require(span >= 1, "FaultPlan: slow over an empty range");
  common::require(by.count() >= 0, "FaultPlan: negative slowdown");
  actions_.push_back(FaultAction{FaultAction::Kind::kSlow, dir, frame, by, 0, 0, span, 0});
  return *this;
}

FaultPlan& FaultPlan::partition(FaultDir dir, std::uint64_t frame, std::uint64_t span) {
  common::require(span >= 1, "FaultPlan: partition over an empty range");
  actions_.push_back(FaultAction{FaultAction::Kind::kPartition, dir, frame, {}, 0, 0, span, 0});
  return *this;
}

FaultPlan& FaultPlan::stutter(FaultDir dir, std::uint64_t frame, std::uint64_t span,
                              std::uint32_t burst, std::chrono::milliseconds stall) {
  common::require(span >= 1, "FaultPlan: stutter over an empty range");
  common::require(stall.count() >= 0, "FaultPlan: negative stall");
  actions_.push_back(
      FaultAction{FaultAction::Kind::kStutter, dir, frame, stall, 0, 0, span, burst});
  return *this;
}

FaultPlan FaultPlan::random_gray(std::uint64_t seed, std::uint64_t horizon, std::size_t faults) {
  common::require(horizon >= 1, "FaultPlan::random_gray: empty horizon");
  common::Xoshiro256StarStar rng(seed);
  FaultPlan plan;
  const std::uint64_t max_span = std::max<std::uint64_t>(1, horizon / 4);
  for (std::size_t i = 0; i < faults; ++i) {
    const auto dir = rng.next_below(2) == 0 ? FaultDir::kSend : FaultDir::kRecv;
    const std::uint64_t frame = rng.next_below(horizon);
    switch (rng.next_below(7)) {
      case 0:
        plan.drop(dir, frame);
        break;
      case 1:
        plan.delay(dir, frame, std::chrono::milliseconds(1 + rng.next_below(20)));
        break;
      case 2:
        plan.corrupt(dir, frame, rng.next_below(64),
                     static_cast<std::uint8_t>(1 + rng.next_below(255)));
        break;
      case 3:
        plan.disconnect_after(dir, frame);
        break;
      case 4:
        plan.slow(dir, frame, 1 + rng.next_below(max_span),
                  std::chrono::milliseconds(1 + rng.next_below(10)));
        break;
      case 5:
        plan.partition(dir, frame, 1 + rng.next_below(max_span));
        break;
      default:
        plan.stutter(dir, frame, 1 + rng.next_below(max_span),
                     static_cast<std::uint32_t>(rng.next_below(4)),
                     std::chrono::milliseconds(1 + rng.next_below(10)));
        break;
    }
  }
  return plan;
}

std::vector<const FaultAction*> FaultPlan::for_frame(FaultDir dir, std::uint64_t frame) const {
  std::vector<const FaultAction*> matches;
  for (const auto& action : actions_) {
    if (action.dir == dir && action.applies_to(frame)) {
      matches.push_back(&action);
    }
  }
  return matches;
}

FaultInjector::FaultInjector(Socket socket, FaultPlan plan)
    : socket_(std::move(socket)), plan_(std::move(plan)) {}

void FaultInjector::record(const FaultAction& action) {
  MutexLock lock(mutex_);
  log_.push_back(action.describe());
}

void FaultInjector::send_frame(std::span<const std::byte> payload) {
  if (severed_.load(std::memory_order_acquire) || !socket_.valid()) {
    // A scripted disconnect already severed the link; behave like a dead
    // peer rather than like a programming error.
    throw std::system_error(EPIPE, std::generic_category(), "fault injector: link severed");
  }
  const std::uint64_t frame = sent_.fetch_add(1);
  bool drop = false;
  bool disconnect = false;
  std::vector<std::byte> mutated;
  std::span<const std::byte> outgoing = payload;
  for (const FaultAction* action : plan_.for_frame(FaultDir::kSend, frame)) {
    // Stutter only *faults* the frames it stalls; the bursts that pass
    // untouched are not events (the log is what determinism tests diff).
    if (action->kind != FaultAction::Kind::kStutter) {
      record(*action);
    }
    switch (action->kind) {
      case FaultAction::Kind::kDrop:
        drop = true;
        break;
      case FaultAction::Kind::kDelay:
        std::this_thread::sleep_for(action->delay);
        break;
      case FaultAction::Kind::kCorrupt:
        if (!payload.empty()) {
          if (mutated.empty()) {
            mutated.assign(payload.begin(), payload.end());
          }
          mutated[action->byte_offset % mutated.size()] ^= std::byte{action->xor_mask};
          outgoing = mutated;
        }
        break;
      case FaultAction::Kind::kDisconnect:
        disconnect = true;
        break;
      case FaultAction::Kind::kSlow:
        std::this_thread::sleep_for(action->delay);
        break;
      case FaultAction::Kind::kPartition:
        drop = true;  // one-way partition: frames vanish, link stays up
        break;
      case FaultAction::Kind::kStutter: {
        const std::uint64_t phase = frame - action->frame;
        if (action->burst == 0 || phase % (action->burst + 1) == action->burst) {
          record(*action);
          std::this_thread::sleep_for(action->delay);
        }
        break;
      }
    }
  }
  if (!drop) {
    socket_.send_frame(outgoing);
  }
  if (disconnect) {
    // shutdown(), not close(): a reader thread may be blocked in
    // recv_frame on this same socket, and close() would race its fd_
    // reads. The kernel-level sever gives every concurrent user
    // EOF/EPIPE instead; severed_ makes it deterministic for this
    // injector's own callers.
    severed_.store(true, std::memory_order_release);
    socket_.shutdown();
  }
}

RecvResult FaultInjector::recv_frame(std::chrono::milliseconds deadline) {
  while (true) {
    if (severed_.load(std::memory_order_acquire) || !socket_.valid()) {
      return RecvResult{RecvStatus::kEof, {}};
    }
    RecvResult result = socket_.recv_frame(deadline);
    if (result.status != RecvStatus::kFrame) {
      return result;
    }
    const std::uint64_t frame = received_.fetch_add(1);
    bool drop = false;
    bool disconnect = false;
    for (const FaultAction* action : plan_.for_frame(FaultDir::kRecv, frame)) {
      if (action->kind != FaultAction::Kind::kStutter) {
        record(*action);
      }
      switch (action->kind) {
        case FaultAction::Kind::kDrop:
          drop = true;
          break;
        case FaultAction::Kind::kDelay:
          std::this_thread::sleep_for(action->delay);
          break;
        case FaultAction::Kind::kCorrupt:
          if (!result.payload.empty()) {
            result.payload[action->byte_offset % result.payload.size()] ^=
                std::byte{action->xor_mask};
          }
          break;
        case FaultAction::Kind::kDisconnect:
          disconnect = true;
          break;
        case FaultAction::Kind::kSlow:
          std::this_thread::sleep_for(action->delay);
          break;
        case FaultAction::Kind::kPartition:
          drop = true;
          break;
        case FaultAction::Kind::kStutter: {
          const std::uint64_t phase = frame - action->frame;
          if (action->burst == 0 || phase % (action->burst + 1) == action->burst) {
            record(*action);
            std::this_thread::sleep_for(action->delay);
          }
          break;
        }
      }
    }
    if (disconnect) {
      // Deliver this frame, then sever: the next receive sees EOF — the
      // exact shape of a peer crashing right after a write. shutdown(),
      // not close(), so a concurrent sender on the same socket races the
      // kernel, not our fd_ field.
      severed_.store(true, std::memory_order_release);
      socket_.shutdown();
    }
    if (!drop) {
      return result;
    }
    // Dropped: consume the next frame within the same call. The deadline
    // restarts, which is fine — drops model frame loss, not silence.
  }
}

void FaultInjector::close() noexcept { socket_.close(); }

bool FaultInjector::valid() const noexcept { return socket_.valid(); }

std::vector<std::string> FaultInjector::event_log() const {
  MutexLock lock(mutex_);
  return log_;
}

std::uint64_t FaultInjector::frames_sent() const noexcept { return sent_.load(); }

std::uint64_t FaultInjector::frames_received() const noexcept { return received_.load(); }

}  // namespace posg::net
