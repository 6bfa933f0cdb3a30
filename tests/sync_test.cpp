// Tests for the capability-annotated synchronization primitives
// (src/common/sync.hpp): MutexLock / TryMutexLock semantics, CondVar
// wait/timeout behavior, the POSG_DCHECKS runtime layers (assert_held
// owner tracking, relock detection, lock-rank ordering — each driven into
// its abort path). The *static* half of the discipline is locked by the
// negative-compilation harness (tests/thread_safety/, ctest entry
// thread_safety_negative_compile).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.hpp"

namespace {

using posg::CondVar;
using posg::Mutex;
using posg::MutexLock;
using posg::TryMutexLock;
namespace lock_rank = posg::lock_rank;

// Probes whether `mutex` is acquirable right now, from a helper thread:
// a same-thread try_lock on a mutex the thread already holds is UB for
// std::mutex, and the probe releases what it grabbed so the caller's view
// is unchanged.
bool acquirable_elsewhere(Mutex& mutex) {
  bool acquired = false;
  std::thread probe([&] {
    if (mutex.try_lock()) {
      acquired = true;
      mutex.unlock();
    }
  });
  probe.join();
  return acquired;
}

// ------------------------------------------------------------- MutexLock

TEST(MutexLock, AcquiresOnConstructionReleasesOnDestruction) {
  Mutex mutex;
  {
    MutexLock lock(mutex);
    EXPECT_TRUE(lock.owns_lock());
    EXPECT_FALSE(acquirable_elsewhere(mutex));  // held by the scoped lock
  }
  EXPECT_TRUE(acquirable_elsewhere(mutex));  // released by the destructor
}

TEST(MutexLock, MidScopeUnlockReleasesAndRelockReacquires) {
  Mutex mutex;
  MutexLock lock(mutex);
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  {
    // Provably free while the outer scope still exists.
    MutexLock other(mutex);
    EXPECT_TRUE(other.owns_lock());
  }
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_FALSE(acquirable_elsewhere(mutex));
}

TEST(MutexLock, AdoptsAnAlreadyHeldMutex) {
  Mutex mutex;
  mutex.lock();
  {
    MutexLock lock(mutex, std::adopt_lock);
    EXPECT_TRUE(lock.owns_lock());
  }  // the adopting lock's destructor releases
  EXPECT_TRUE(acquirable_elsewhere(mutex));
}

TEST(MutexLock, DestructorAfterUnlockDoesNotDoubleRelease) {
  Mutex mutex;
  {
    MutexLock lock(mutex);
    lock.unlock();
  }  // destructor must be a no-op here (owned_ == false)
  EXPECT_TRUE(acquirable_elsewhere(mutex));
}

// ---------------------------------------------------------- TryMutexLock

TEST(TryMutexLock, SucceedsOnAFreeMutex) {
  Mutex mutex;
  TryMutexLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_TRUE(static_cast<bool>(lock));
  EXPECT_FALSE(acquirable_elsewhere(mutex));
}

TEST(TryMutexLock, FailsOnAHeldMutexWithoutBlocking) {
  Mutex mutex;
  MutexLock holder(mutex);
  std::atomic<bool> tried{false};
  // Contend from another thread: a same-thread try_lock on a held
  // std::mutex is UB, the cross-thread one must fail fast.
  std::thread other([&] {
    TryMutexLock lock(mutex);
    EXPECT_FALSE(lock.owns_lock());
    EXPECT_FALSE(static_cast<bool>(lock));
    tried.store(true);
  });
  other.join();
  EXPECT_TRUE(tried.load());
  EXPECT_TRUE(holder.owns_lock());  // the failed try did not steal or release
}

// ---------------------------------------------------------------- CondVar

TEST(CondVar, WaitWakesOnNotifyWithPredicateLoop) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    {
      MutexLock lock(mutex);
      ready = true;
    }
    cv.notify_one();
  });
  {
    MutexLock lock(mutex);
    while (!ready) {
      cv.wait(lock);
    }
    EXPECT_TRUE(ready);
    EXPECT_TRUE(lock.owns_lock());  // wait re-acquired before returning
  }
  producer.join();
}

TEST(CondVar, WaitUntilReportsTimeout) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(mutex);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  EXPECT_TRUE(lock.owns_lock());
}

TEST(CondVar, WaitForReturnsNoTimeoutWhenNotified) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    {
      MutexLock lock(mutex);
      ready = true;
    }
    cv.notify_all();
  });
  {
    MutexLock lock(mutex);
    while (!ready) {
      // Generous timeout: the loop re-checks `ready`, so a spurious or
      // slow wake costs another iteration, never correctness.
      cv.wait_for(lock, std::chrono::seconds(10));
    }
    EXPECT_TRUE(ready);
  }
  producer.join();
}

// ---------------------------------------- concurrency (TSan exercises it)

TEST(SyncStress, ConcurrentGuardedIncrementsConserve) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  Mutex mutex;
  std::int64_t counter = 0;  // guarded by `mutex` (local, so by discipline)
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  MutexLock lock(mutex);
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIncrements);
}

// ------------------------------------------- POSG_DCHECKS runtime layers

#if POSG_DCHECK_IS_ON

TEST(SyncDeathTest, AssertHeldAbortsWhenNotHeld) {
  Mutex mutex("sync_test::unheld");
  EXPECT_DEATH(mutex.assert_held(), "sync_test::unheld");
}

TEST(SyncDeathTest, AssertHeldAbortsForANonOwningThread) {
  Mutex mutex("sync_test::other_owner");
  MutexLock lock(mutex);
  std::thread other([&] { EXPECT_DEATH(mutex.assert_held(), "sync_test::other_owner"); });
  other.join();
}

TEST(Sync, AssertHeldPassesForTheOwner) {
  Mutex mutex;
  MutexLock lock(mutex);
  mutex.assert_held();  // must not abort
  SUCCEED();
}

// NO_THREAD_SAFETY_ANALYSIS: this helper intentionally commits the
// double-acquire the static analysis rejects (the negative-compilation
// harness asserts that rejection); hiding it from the analysis is the only
// way to reach the *runtime* relock detector it exercises.
void relock_same_thread(Mutex& mutex) NO_THREAD_SAFETY_ANALYSIS {
  mutex.lock();
  mutex.lock();  // POSG_DCHECK layer must abort before std::mutex deadlocks
}

TEST(SyncDeathTest, RelockByOwnerAbortsInsteadOfDeadlocking) {
  Mutex mutex;
  EXPECT_DEATH(relock_same_thread(mutex), "relock");
}

TEST(SyncDeathTest, RankOrderViolationAborts) {
  // Acquiring a lower-ranked mutex while holding a higher-ranked one
  // inverts the DESIGN.md §12 order.
  Mutex high("sync_test::high", lock_rank::kTraceRing);
  Mutex low("sync_test::low", lock_rank::kMetricsRegistry);
  MutexLock hold_high(high);
  EXPECT_DEATH((MutexLock(low)), "sync_test::low");
}

TEST(SyncDeathTest, EqualRankNestingAborts) {
  // Equal ranks encode "never held together" (e.g. two BoundedQueues).
  Mutex first("sync_test::queue_a", lock_rank::kQueue);
  Mutex second("sync_test::queue_b", lock_rank::kQueue);
  MutexLock hold_first(first);
  EXPECT_DEATH((MutexLock(second)), "sync_test::queue_b");
}

TEST(Sync, RankIncreasingNestingIsAllowed) {
  Mutex registry("sync_test::registry", lock_rank::kMetricsRegistry);
  Mutex state("sync_test::state", lock_rank::kSchedulerState);
  Mutex ring("sync_test::ring", lock_rank::kTraceRing);
  MutexLock l1(registry);
  MutexLock l2(state);
  MutexLock l3(ring);
  SUCCEED();
}

TEST(Sync, OutOfStackOrderReleaseKeepsRankTrackingConsistent) {
  // route()'s idiom: drop the middle lock first, then acquire again —
  // pop_rank must erase the right entry, not assert LIFO.
  Mutex a("sync_test::a", lock_rank::kMetricsRegistry);
  Mutex b("sync_test::b", lock_rank::kSchedulerState);
  MutexLock lock_a(a);
  {
    MutexLock lock_b(b);
    lock_a.unlock();
  }
  lock_a.lock();
  {
    MutexLock lock_b_again(b);  // must still be rank-legal
  }
  SUCCEED();
}

TEST(Sync, UnrankedMutexesSkipOrderChecks) {
  Mutex leaf("sync_test::leaf", lock_rank::kTraceRing);
  Mutex unranked;  // kUnranked opts out of ordering entirely
  MutexLock l1(leaf);
  MutexLock l2(unranked);  // lower "rank" but exempt: must not abort
  SUCCEED();
}

#endif  // POSG_DCHECK_IS_ON

}  // namespace
