#pragma once

#include <memory>
#include <vector>

#include "engine/queue.hpp"
#include "engine/spsc_ring.hpp"
#include "engine/value.hpp"

namespace posg::engine {

/// One executor-to-executor edge of the data plane: either a mutex MPMC
/// BoundedQueue or a lock-free SPSC ring, chosen by the engine per edge
/// (DESIGN.md §13 — SPSC exactly when one upstream executor thread feeds
/// the edge; the Engine constructor counts producers per bolt).
///
/// The forwarding methods mirror the shared queue contract (push_all
/// moves and clears, pop_all appends and returns 0 at end-of-stream,
/// close is idempotent and callable from any thread). For the SPSC
/// flavour, producer/consumer role claims are runtime-checked: the
/// executor threads call claim_producer()/claim_consumer() once at
/// startup, and each forwarding call re-introduces the role capability
/// with assert_held() — the sanctioned bridge for roles held across call
/// boundaries (spsc_ring.hpp).
class TupleChannel {
 public:
  static TupleChannel make_mpmc(std::size_t capacity) {
    TupleChannel channel;
    channel.mpmc_ = std::make_unique<BoundedQueue<Tuple>>(capacity);
    return channel;
  }
  static TupleChannel make_spsc(std::size_t capacity) {
    TupleChannel channel;
    channel.spsc_ = std::make_unique<SpscRing<Tuple>>(capacity);
    return channel;
  }

  bool spsc() const noexcept { return spsc_ != nullptr; }

  /// Role claims (SPSC only; no-ops on MPMC edges). The claim aborts on a
  /// second claimant — the engine's wiring guarantees a single producer
  /// thread, and this is the runtime proof.
  void claim_producer() {
    if (spsc_) {
      spsc_->producer_role().claim();
    }
  }
  void unclaim_producer() {
    if (spsc_) {
      spsc_->producer_role().unclaim();
    }
  }
  void claim_consumer() {
    if (spsc_) {
      spsc_->consumer_role().claim();
    }
  }
  void unclaim_consumer() {
    if (spsc_) {
      spsc_->consumer_role().unclaim();
    }
  }

  std::size_t push_all(std::vector<Tuple>& tuples) {
    if (spsc_) {
      spsc_->producer_role().assert_held();
      return spsc_->push_all(tuples);
    }
    return mpmc_->push_all(tuples);
  }

  std::size_t pop_all(std::vector<Tuple>& out) {
    if (spsc_) {
      spsc_->consumer_role().assert_held();
      return spsc_->pop_all(out);
    }
    return mpmc_->pop_all(out);
  }

  void close() {
    if (spsc_) {
      spsc_->close();
    } else {
      mpmc_->close();
    }
  }

  std::size_t capacity() const { return spsc_ ? spsc_->capacity() : mpmc_->capacity(); }
  std::uint64_t pushed() const { return spsc_ ? spsc_->pushed() : mpmc_->pushed(); }
  std::uint64_t popped() const { return spsc_ ? spsc_->popped() : mpmc_->popped(); }
  std::uint64_t rejected() const { return spsc_ ? spsc_->rejected() : mpmc_->rejected(); }
  /// Failed producer room checks (0 on MPMC edges, which block on a
  /// condvar instead) — aggregated into posg.engine.ring_full_spins.
  std::uint64_t full_spins() const { return spsc_ ? spsc_->full_spins() : 0; }
  /// Consumer parks on an empty ring (0 on MPMC edges) — aggregated into
  /// posg.engine.ring_parks.
  std::uint64_t consumer_parks() const { return spsc_ ? spsc_->consumer_parks() : 0; }

  void debug_validate() const {
    if (spsc_) {
      spsc_->debug_validate();
    } else {
      mpmc_->debug_validate();
    }
  }

 private:
  TupleChannel() = default;

  std::unique_ptr<BoundedQueue<Tuple>> mpmc_;
  std::unique_ptr<SpscRing<Tuple>> spsc_;
};

}  // namespace posg::engine
