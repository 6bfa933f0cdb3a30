#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"

namespace posg::engine {

/// Bounded blocking MPSC/MPMC queue connecting executors.
///
/// Producers block when the queue is full (backpressure, as Storm's
/// max.spout.pending does); the consumer blocks when it is empty. close()
/// wakes everyone: producers fail fast, the consumer drains what is left
/// and then sees std::nullopt.
///
/// Locking discipline (machine-checked, DESIGN.md §12): every member —
/// items_, closed_ and the accounting counters — is GUARDED_BY(mutex_);
/// the condition variables are signalled after the lock is dropped. No
/// member is ever read outside the lock, so the queue is safe for any
/// number of producer and consumer threads. mutex_ ranks as a data-plane
/// leaf (lock_rank::kQueue): nothing posg-owned is acquired under it, and
/// two queues are never held together.
///
/// The wait loops are spelled `while (!cond) cv.wait(lock)` rather than
/// the predicate overload: a predicate lambda is analyzed as a separate
/// lock-free function, which would put the guarded reads outside the
/// capability the analysis can see (common/sync.hpp header comment).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    common::require(capacity >= 1, "BoundedQueue: capacity must be >= 1");
  }

  /// Blocks until there is room (or the queue is closed). Returns false
  /// when the queue was closed and the element was not enqueued.
  bool push(T value) {
    MutexLock lock(mutex_);
    while (items_.size() >= capacity_ && !closed_) {
      not_full_.wait(lock);
    }
    if (closed_) {
      ++rejected_;
      return false;
    }
    items_.push_back(std::move(value));
    ++pushed_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and
  /// drained; std::nullopt signals end-of-stream.
  std::optional<T> pop() {
    MutexLock lock(mutex_);
    while (items_.empty() && !closed_) {
      not_empty_.wait(lock);
    }
    if (items_.empty()) {
      return std::nullopt;
    }
    T value = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Batched push: moves every element of `values` into the queue,
  /// blocking for room chunk by chunk (one lock acquisition and one wakeup
  /// may admit many elements), and clears `values`. Elements are enqueued
  /// in order; a close() mid-batch rejects exactly the not-yet-admitted
  /// suffix. Returns the number of elements actually enqueued — callers
  /// treat < values.size() as end-of-stream, like push()'s false.
  ///
  /// Batches larger than the capacity are legal: the call streams them
  /// through in capacity-sized chunks (so a batch can never deadlock
  /// against a draining consumer), at the cost of blocking mid-batch.
  std::size_t push_all(std::vector<T>& values) {
    std::size_t accepted = 0;
    MutexLock lock(mutex_);
    while (accepted < values.size()) {
      while (items_.size() >= capacity_ && !closed_) {
        not_full_.wait(lock);
      }
      if (closed_) {
        rejected_ += values.size() - accepted;
        break;
      }
      // Admit as much of the remainder as the free space allows under this
      // one lock hold.
      const std::size_t room = capacity_ - items_.size();
      const std::size_t chunk = std::min(room, values.size() - accepted);
      for (std::size_t i = 0; i < chunk; ++i) {
        items_.push_back(std::move(values[accepted + i]));
      }
      accepted += chunk;
      pushed_ += chunk;
      // Per-chunk wakeup is required, not an optimization: when the batch
      // exceeds the remaining room, this thread parks in not_full_.wait
      // next iteration, and only an already-notified consumer can make the
      // room it is waiting for. notify_all because one chunk may satisfy
      // several blocked consumers.
      not_empty_.notify_all();
    }
    lock.unlock();
    values.clear();
    return accepted;
  }

  /// Capacity the queue was constructed with.
  std::size_t capacity() const noexcept { return capacity_; }

  /// Batched pop: blocks until at least one element is available (or the
  /// queue is closed and drained), then hands over *everything* queued in
  /// a single lock acquisition, appending to `out`. Returns the number of
  /// elements delivered; 0 signals end-of-stream (closed and drained) —
  /// the batch analogue of pop()'s std::nullopt. Delivery preserves FIFO
  /// order. One call replaces up to capacity pop() lock/wake cycles, which
  /// is what keeps the consumer side off the mutex under load.
  std::size_t pop_all(std::vector<T>& out) {
    std::size_t delivered = 0;
    {
      MutexLock lock(mutex_);
      while (items_.empty() && !closed_) {
        not_empty_.wait(lock);
      }
      delivered = items_.size();
      if (delivered == 0) {
        return 0;
      }
      out.reserve(out.size() + delivered);
      for (auto& item : items_) {
        out.push_back(std::move(item));
      }
      items_.clear();
      popped_ += delivered;
    }
    // Everything was drained: every producer blocked on room can proceed.
    not_full_.notify_all();
    return delivered;
  }

  /// Stops accepting new elements; pending ones remain poppable.
  /// Idempotent: the open -> closed transition happens at most once.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  /// Elements accepted / delivered / refused over the queue's lifetime.
  std::uint64_t pushed() const {
    MutexLock lock(mutex_);
    return pushed_;
  }
  std::uint64_t popped() const {
    MutexLock lock(mutex_);
    return popped_;
  }
  std::uint64_t rejected() const {
    MutexLock lock(mutex_);
    return rejected_;
  }

  /// Machine-checked open/close state-machine invariants (aborts via
  /// POSG_CHECK): occupancy never exceeds capacity, conservation of
  /// elements (pushed == popped + in flight), and rejections only ever
  /// happen in the closed state. Takes the lock, so it may be called
  /// concurrently with producers and consumers.
  void debug_validate() const {
    MutexLock lock(mutex_);
    POSG_CHECK(capacity_ >= 1, "BoundedQueue: capacity must be >= 1");
    POSG_CHECK(items_.size() <= capacity_, "BoundedQueue: occupancy exceeds capacity");
    POSG_CHECK(popped_ <= pushed_, "BoundedQueue: popped more elements than were pushed");
    POSG_CHECK(pushed_ - popped_ == items_.size(),
               "BoundedQueue: element conservation violated (pushed != popped + in flight)");
    POSG_CHECK(closed_ || rejected_ == 0, "BoundedQueue: push rejected while the queue was open");
  }

  /// Test-only backdoor (tests/check_test.cpp) that corrupts the private
  /// counters to drive debug_validate's abort paths; production code must
  /// never define or use it.
  struct TestCorruptor;

 private:
  friend struct TestCorruptor;

  std::size_t capacity_;
  mutable Mutex mutex_{"engine::BoundedQueue::mutex_", lock_rank::kQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  std::uint64_t pushed_ GUARDED_BY(mutex_) = 0;
  std::uint64_t popped_ GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ GUARDED_BY(mutex_) = 0;
};

}  // namespace posg::engine
