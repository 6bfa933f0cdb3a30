#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace posg::engine {

/// Destructive-interference stride for the ring's index padding. A fixed
/// 64 (not std::hardware_destructive_interference_size, which is
/// ABI-fragile and warns under GCC) — correct for every mainstream x86 /
/// ARM server core; a too-small guess costs a false-sharing stall, never
/// correctness.
inline constexpr std::size_t kSpscCacheLine = 64;

/// Role capability of an SpscRing (DESIGN.md §12/§13 conventions): the
/// single-producer/single-consumer contract is exactly "the producer role
/// is one capability, the consumer role another", so it is expressed with
/// the same Clang thread-safety vocabulary as the mutexes — push()
/// REQUIRES the producer role, pop_all() the consumer role, and a Clang
/// `-Werror=thread-safety` build refuses code that touches a ring end
/// without holding its role (tests/thread_safety/).
///
/// Two ways to hold a role:
///   * `SpscBind` (scoped, below) for code whose hold fits one scope —
///     executor main loops, tests.
///   * claim()/unclaim() + assert_held() for owners that keep the role in
///     a member across calls (the engine's collector path): the claim is
///     runtime-checked (single claimant, aborts on a second), and
///     assert_held() re-introduces the capability statically at the use
///     site — the same sanctioned bridge as Mutex::assert_held().
class CAPABILITY("spsc_role") SpscRole {
 public:
  SpscRole() = default;
  SpscRole(const SpscRole&) = delete;
  SpscRole& operator=(const SpscRole&) = delete;

  /// Static + runtime acquire (use via SpscBind).
  void acquire() ACQUIRE() { claim(); }
  void release() RELEASE() { unclaim(); }

  /// Runtime-only claim: aborts when the role is already held. The second
  /// claimant is a programming error — an SPSC ring with two producers is
  /// corrupt, not slow — so this is a hard POSG_CHECK, not a DCHECK.
  void claim() {
    const bool was_claimed = claimed_.exchange(true, std::memory_order_acquire);
    POSG_CHECK(!was_claimed, "SpscRole: second claimant — SPSC contract violated");
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }
  void unclaim() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    claimed_.store(false, std::memory_order_release);
  }

  /// Statically introduces the capability at a call site that holds the
  /// role via claim(); runtime-verified under POSG_DCHECKS.
  void assert_held() const ASSERT_CAPABILITY(this) {
    POSG_DCHECK(claimed_.load(std::memory_order_acquire) &&
                    owner_.load(std::memory_order_acquire) == std::this_thread::get_id(),
                "SpscRole: caller does not hold this role");
  }

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<std::thread::id> owner_{};
};

/// Scoped role holder — the MutexLock of SpscRole.
class SCOPED_CAPABILITY SpscBind {
 public:
  explicit SpscBind(SpscRole& role) ACQUIRE(role) : role_(role) { role_.acquire(); }
  ~SpscBind() RELEASE() { role_.release(); }

  SpscBind(const SpscBind&) = delete;
  SpscBind& operator=(const SpscBind&) = delete;

 private:
  SpscRole& role_;
};

/// Bounded lock-free single-producer/single-consumer ring queue — the
/// data-plane hand-off for engine edges with exactly one producing
/// executor thread (DESIGN.md §13; the mutex BoundedQueue stays on MPMC
/// edges).
///
/// Layout: a power-of-two slot array indexed by monotonically increasing
/// head/tail counters. The producer owns `tail_` (published after the
/// slot write), the consumer owns `head_`; each side keeps a cached copy
/// of the other's index so the steady state touches the shared counters
/// only when its cached view runs out. Both counters, and each side's park
/// state, live on their own cache line (alignas(kSpscCacheLine)) so the
/// producer and consumer never false-share.
///
/// Blocking semantics mirror BoundedQueue: push waits for room (failed
/// room checks are counted in full_spins — the posg.engine.ring_full_spins
/// metric), pop_all waits for elements, close() makes producers fail fast
/// while the consumer drains the remainder and then sees 0. A waiting side
/// spins kSpinsBeforePark times (the common hand-off latency) and then
/// parks on its own wake word (std::atomic::wait, a futex on Linux), so an
/// idle end burns no CPU. Every index publish and close() wakes a parked
/// peer; park() and publish() form a Dekker handshake that cannot lose a
/// wake-up (DESIGN.md §13). Parks are counted per side; the engine exports
/// the consumer count as posg.engine.ring_parks.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : capacity_(capacity) {
    common::require(capacity >= 1, "SpscRing: capacity must be >= 1");
    std::size_t storage = 1;
    while (storage < capacity) {
      storage <<= 1U;
    }
    slots_.resize(storage);
    mask_ = storage - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  SpscRole& producer_role() RETURN_CAPABILITY(producer_role_) { return producer_role_; }
  SpscRole& consumer_role() RETURN_CAPABILITY(consumer_role_) { return consumer_role_; }

  /// Blocks until there is room (or the ring is closed). Returns false
  /// when the ring was closed and the element was not enqueued.
  bool push(T value) REQUIRES(producer_role_) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (!wait_for_room(tail)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[tail & mask_] = std::move(value);
    publish(tail_, tail + 1, consumer_park_);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Batched push: moves every element of `values` into the ring,
  /// blocking for room chunk by chunk, and clears `values`. A close()
  /// mid-batch rejects exactly the not-yet-admitted suffix; the return is
  /// the number actually enqueued (< values.size() means end-of-stream).
  std::size_t push_all(std::vector<T>& values) REQUIRES(producer_role_) {
    std::size_t accepted = 0;
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    while (accepted < values.size()) {
      if (!wait_for_room(tail)) {
        rejected_.fetch_add(values.size() - accepted, std::memory_order_relaxed);
        break;
      }
      const std::size_t room = capacity_ - static_cast<std::size_t>(tail - cached_head_);
      const std::size_t chunk = std::min(room, values.size() - accepted);
      for (std::size_t i = 0; i < chunk; ++i) {
        slots_[(tail + i) & mask_] = std::move(values[accepted + i]);
      }
      tail += chunk;
      publish(tail_, tail, consumer_park_);
      pushed_.fetch_add(chunk, std::memory_order_relaxed);
      accepted += chunk;
    }
    values.clear();
    return accepted;
  }

  /// Non-blocking batched push for load shedding: admits the longest
  /// prefix that fits right now, erases it from `values` (the suffix is
  /// the caller's to shed), returns the admitted count. Never waits; a
  /// closed ring admits nothing and leaves `values` untouched.
  std::size_t try_push_all(std::vector<T>& values) REQUIRES(producer_role_) {
    if (closed_.load(std::memory_order_acquire)) {
      return 0;
    }
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    cached_head_ = head_.load(std::memory_order_acquire);
    const std::size_t room = capacity_ - static_cast<std::size_t>(tail - cached_head_);
    const std::size_t accepted = std::min(room, values.size());
    if (accepted == 0) {
      return 0;
    }
    for (std::size_t i = 0; i < accepted; ++i) {
      slots_[(tail + i) & mask_] = std::move(values[i]);
    }
    publish(tail_, tail + accepted, consumer_park_);
    pushed_.fetch_add(accepted, std::memory_order_relaxed);
    values.erase(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(accepted));
    return accepted;
  }

  /// Batched pop: blocks until at least one element is available (or the
  /// ring is closed and drained), then hands over everything currently
  /// visible, appending to `out` in FIFO order. Returns the number
  /// delivered; 0 signals end-of-stream.
  std::size_t pop_all(std::vector<T>& out) REQUIRES(consumer_role_) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (!wait_for_items(head)) {
      return 0;
    }
    const std::size_t n = static_cast<std::size_t>(cached_tail_ - head);
    out.reserve(out.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    publish(head_, head + n, producer_park_);
    popped_.fetch_add(n, std::memory_order_relaxed);
    return n;
  }

  /// Stops accepting new elements; pending ones remain poppable. Wakes
  /// both ends. Idempotent; callable from any thread (it is the engine's
  /// shutdown coordinator, not the producer, that closes edges).
  void close() noexcept {
    closed_.store(true, std::memory_order_seq_cst);
    wake(consumer_park_);
    wake(producer_park_);
  }

  bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Approximate occupancy (exact when both sides are quiescent).
  std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  /// Conservation counters (lifetime totals; see debug_validate).
  std::uint64_t pushed() const noexcept { return pushed_.load(std::memory_order_acquire); }
  std::uint64_t popped() const noexcept { return popped_.load(std::memory_order_acquire); }
  std::uint64_t rejected() const noexcept { return rejected_.load(std::memory_order_acquire); }
  /// Failed producer room checks against a full ring — the back-pressure
  /// signal exported as posg.engine.ring_full_spins.
  std::uint64_t full_spins() const noexcept { return full_spins_.load(std::memory_order_acquire); }
  /// Waits entered by each side. A side counts a park (release) only after
  /// its re-check failed, so an advanced count means that side is blocked
  /// until the peer publishes or the ring closes, and everything it did
  /// before is visible to the reader.
  std::uint64_t producer_parks() const noexcept {
    return producer_park_.parks.load(std::memory_order_acquire);
  }
  std::uint64_t consumer_parks() const noexcept {
    return consumer_park_.parks.load(std::memory_order_acquire);
  }

  /// Conservation invariants (aborts via POSG_CHECK). Counter reads are
  /// acquire-ordered but not mutually atomic, so call it when the ring is
  /// quiescent (tests, post-join teardown).
  void debug_validate() const {
    const std::uint64_t in_flight = size();
    POSG_CHECK(in_flight <= capacity_, "SpscRing: occupancy exceeds capacity");
    POSG_CHECK(popped() <= pushed(), "SpscRing: popped more elements than were pushed");
    POSG_CHECK(pushed() - popped() == in_flight,
               "SpscRing: element conservation violated (pushed != popped + in flight)");
    POSG_CHECK(closed() || rejected() == 0, "SpscRing: push rejected while the ring was open");
  }

 private:
  /// Busy re-checks before a waiting side parks: enough to catch a
  /// back-to-back hand-off without a futex round trip.
  static constexpr std::uint32_t kSpinsBeforePark = 64;

  /// One side's park state. `wake` is the word the side waits on; a waker
  /// bumps it. `parked` is raised only around the wait, so a publish costs
  /// one load of it when the peer is running.
  struct alignas(kSpscCacheLine) Parking {
    std::atomic<std::uint32_t> wake{0};
    std::atomic<bool> parked{false};
    std::atomic<std::uint64_t> parks{0};
  };

  /// Waiter half of the handshake. Read the wake ticket, announce
  /// `parked` (seq_cst), re-check `ready` with seq_cst loads, and only
  /// then wait on the ticket read before the announcement. publish() is
  /// the mirror image: seq_cst store of the index, then seq_cst load of
  /// `parked`. All four accesses are seq_cst, so in their single total
  /// order either the re-check follows the publish (and sees the new
  /// index) or the publish's load follows the announcement (and wakes).
  /// A wake that lands after the ticket read changes the word, so the
  /// wait returns at once; a stale `parked` costs a spurious wake only.
  /// The wake word itself is read and bumped seq_cst, which also orders
  /// the standard library's own waiter-count check inside wait/notify.
  template <typename Ready>
  static void park(Parking& self, Ready ready) noexcept {
    const std::uint32_t ticket = self.wake.load();
    self.parked.store(true, std::memory_order_seq_cst);
    if (!ready()) {
      self.parks.fetch_add(1, std::memory_order_release);
      self.wake.wait(ticket);
    }
    self.parked.store(false, std::memory_order_relaxed);
  }

  /// Waker half: publish `value` to `index` and wake `peer` if it parked.
  static void publish(std::atomic<std::uint64_t>& index, std::uint64_t value,
                      Parking& peer) noexcept {
    index.store(value, std::memory_order_seq_cst);
    wake(peer);
  }

  static void wake(Parking& peer) noexcept {
    if (peer.parked.load(std::memory_order_seq_cst)) {
      peer.wake.fetch_add(1);
      peer.wake.notify_one();
    }
  }

  /// Producer-side wait for one free slot. Returns false when the ring
  /// closed before room appeared.
  bool wait_for_room(std::uint64_t tail) REQUIRES(producer_role_) {
    for (std::uint32_t spins = 0;; ++spins) {
      if (closed_.load(std::memory_order_acquire)) {
        return false;
      }
      if (static_cast<std::size_t>(tail - cached_head_) < capacity_) {
        return true;
      }
      cached_head_ = head_.load(std::memory_order_acquire);
      if (static_cast<std::size_t>(tail - cached_head_) < capacity_) {
        return true;
      }
      full_spins_.fetch_add(1, std::memory_order_relaxed);
      if (spins >= kSpinsBeforePark) {
        park(producer_park_, [this, tail] {
          return closed_.load(std::memory_order_seq_cst) ||
                 static_cast<std::size_t>(tail - head_.load(std::memory_order_seq_cst)) < capacity_;
        });
      }
    }
  }

  /// Consumer-side wait for at least one element; leaves the visible tail
  /// in cached_tail_. Returns false when the ring is closed and drained.
  bool wait_for_items(std::uint64_t head) REQUIRES(consumer_role_) {
    for (std::uint32_t spins = 0;; ++spins) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ != head) {
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check after observing closed: a final push may have landed
        // between the tail load and the closed load.
        cached_tail_ = tail_.load(std::memory_order_acquire);
        return cached_tail_ != head;
      }
      if (spins >= kSpinsBeforePark) {
        park(consumer_park_, [this, head] {
          return tail_.load(std::memory_order_seq_cst) != head ||
                 closed_.load(std::memory_order_seq_cst);
        });
      }
    }
  }

  std::size_t capacity_;
  std::size_t mask_ = 0;
  std::vector<T> slots_;

  SpscRole producer_role_;
  SpscRole consumer_role_;

  /// Producer cache line: write index + the producer's cached view of the
  /// consumer's head + producer-written counters.
  alignas(kSpscCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ GUARDED_BY(producer_role_) = 0;
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> full_spins_{0};

  /// Consumer cache line.
  alignas(kSpscCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ GUARDED_BY(consumer_role_) = 0;
  std::atomic<std::uint64_t> popped_{0};

  Parking producer_park_;
  Parking consumer_park_;

  alignas(kSpscCacheLine) std::atomic<bool> closed_{false};
};

}  // namespace posg::engine
