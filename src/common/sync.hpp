#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

/// Capability-annotated synchronization primitives (DESIGN.md §12).
///
/// Every shared structure in src/ documents a locking discipline; this
/// header is what makes that discipline *machine-checked* instead of
/// comment-checked. `posg::Mutex` carries Clang's `capability` attribute,
/// guarded fields carry `GUARDED_BY(mutex_)`, and the `_locked()` helper
/// methods carry `REQUIRES(mutex_)` — so a Clang build with
/// `-Wthread-safety -Werror=thread-safety` (CMake option
/// `POSG_THREAD_SAFETY`, default ON under Clang; tools/run_thread_safety.sh)
/// refuses to compile an unguarded access, a missing-lock call, or a
/// double acquire, on *every* interleaving, not just the schedules a TSan
/// run happens to exercise. On non-Clang compilers all annotations expand
/// to nothing and the wrappers are exactly std::mutex /
/// std::condition_variable — zero cost, proven by the obs-overhead bench
/// gate.
///
/// Two runtime layers ride along, both compiled out unless POSG_DCHECKS:
///
///   * `Mutex::assert_held()` (the runtime half of `ASSERT_CAPABILITY`):
///     aborts when the calling thread does not hold the mutex. Used where
///     a capability cannot be threaded through an interface statically.
///   * lock-rank ordering: a `Mutex` constructed with a `lock_rank::*`
///     value participates in a per-thread ordering check — acquiring a
///     mutex whose rank is not strictly greater than every ranked mutex
///     already held aborts with both names. Equal ranks therefore encode
///     "never held together", and the rank table below *is* the lock-order
///     table of DESIGN.md §12.
///
/// Condition-variable caveat: predicates passed as lambdas defeat the
/// static analysis (a lambda body is analyzed as a separate function that
/// does not inherit the enclosing lockset), so `CondVar` deliberately has
/// no predicate overloads — write the standard `while (!cond) cv.wait(l);`
/// loop in the locked scope, where the analysis can see both the loop
/// condition and the guarded reads.

// --- Clang thread-safety attribute spellings -------------------------------
// Mirrors clang.llvm.org/docs/ThreadSafetyAnalysis.html (and Abseil's
// thread_annotations.h). Expand to nothing on compilers without the
// analysis so annotated headers stay portable.
#if defined(__clang__)
#define POSG_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define POSG_TS_ATTRIBUTE(x)  // not a Clang build: annotations compile away
#endif

#define CAPABILITY(x) POSG_TS_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY POSG_TS_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) POSG_TS_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) POSG_TS_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) POSG_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) POSG_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) POSG_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) POSG_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) POSG_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) POSG_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) POSG_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) POSG_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) POSG_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) POSG_TS_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) POSG_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) POSG_TS_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) POSG_TS_ATTRIBUTE(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) POSG_TS_ATTRIBUTE(lock_returned(x))
// The one sanctioned escape hatch. Every use must carry an inline comment
// justifying why the discipline cannot be expressed statically (e.g. a
// phase-based ownership handoff) — see CONTRIBUTING.md; blanket use is
// rejected in review and grepped for in tools/run_tidy.sh.
#define NO_THREAD_SAFETY_ANALYSIS POSG_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace posg {

/// The repo-wide lock-order table (DESIGN.md §12). A thread may only
/// acquire a ranked Mutex whose rank is *strictly greater* than every
/// ranked Mutex it already holds; equal ranks mean "never nested". Checked
/// at runtime under POSG_DCHECKS, documented here for everyone else.
namespace lock_rank {
/// Opts out of ordering checks (short-lived leaf locks in tests/tools).
inline constexpr int kUnranked = 0;
/// obs::MetricsRegistry::mutex_ — held across pull callbacks that take
/// scheduler-state locks, so it must come first.
inline constexpr int kMetricsRegistry = 10;
/// runtime::SchedulerRuntime per-link send mutexes. request_drain holds
/// one across the scheduler transition (send → scheduler-state), and no
/// path ever takes a second link's send mutex while holding one.
inline constexpr int kNetSend = 20;
/// runtime::SchedulerRuntime::pause_mutex_ — the link writer's pause. A
/// route() or flush() takes it under a link's send mutex to end the pause;
/// nothing is acquired under it.
inline constexpr int kWriterPause = 25;
/// Scheduler-state locks: SchedulerRuntime::mutex_ and
/// engine::PosgGrouping::mutex_. Equal rank = the two never nest.
inline constexpr int kSchedulerState = 30;
/// core::InstancePool::mutex_ — the shared membership log of the
/// multi-source tier (DESIGN.md §15). Acquired by scheduler views while
/// they hold their kSchedulerState lock (transition reports, staleness
/// sync); a leaf otherwise — nothing posg-owned is acquired under it.
inline constexpr int kInstancePool = 35;
/// runtime::SchedulerRuntime::ckpt_mutex_ — the checkpoint hand-off slot.
/// reader_loop publishes a captured CheckpointState into it while holding
/// kSchedulerState (rank-increasing); the writer thread holds only this
/// while waiting and never re-enters scheduler state.
inline constexpr int kCheckpointWriter = 45;
/// engine::BoundedQueue::mutex_ and engine::CompletionRecorder::mutex_ —
/// data-plane leaves; nothing posg-owned is ever acquired under them, and
/// no two queues are ever held together (equal rank enforces it).
inline constexpr int kQueue = 50;
/// net::FaultInjector's event log — leaf inside send/recv paths.
inline constexpr int kEventLog = 55;
/// obs::TraceRing::mutex_ — the global leaf: schedulers flush staged
/// events under kSchedulerState, so the ring must rank above it.
inline constexpr int kTraceRing = 60;
}  // namespace lock_rank

namespace sync_detail {

#if POSG_DCHECK_IS_ON
/// Ranks of the ranked mutexes this thread currently holds, in
/// acquisition order. Debug-only: one thread_local vector per thread,
/// touched only by ranked Mutex acquire/release.
inline thread_local std::vector<int> held_ranks;  // NOLINT(cert-err58-cpp): trivial init

inline void push_rank(int rank, const char* name) {
  if (rank == lock_rank::kUnranked) {
    return;
  }
  for (const int held : held_ranks) {
    POSG_CHECK(held < rank,
               name != nullptr ? name
                               : "Mutex: lock-order violation (acquired rank <= a held rank)");
  }
  held_ranks.push_back(rank);
}

inline void pop_rank(int rank) {
  if (rank == lock_rank::kUnranked) {
    return;
  }
  // Locks may release out of stack order (route() drops the scheduler
  // mutex before taking a send mutex), so erase the newest matching rank
  // rather than asserting LIFO.
  for (std::size_t i = held_ranks.size(); i > 0; --i) {
    if (held_ranks[i - 1] == rank) {
      held_ranks.erase(held_ranks.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
}
#endif

}  // namespace sync_detail

class CondVar;

/// std::mutex carrying Clang's `capability` attribute, a debug owner (for
/// `assert_held`) and a debug lock rank (see lock_rank). In non-DCHECK
/// builds the extra members compile away and lock()/unlock() are exactly
/// std::mutex::lock()/unlock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// `name` is for diagnostics only (lock-order abort messages); `rank`
  /// places the mutex in the DESIGN.md §12 order. Both are no-ops unless
  /// POSG_DCHECKS compiled the debug layer in.
  explicit Mutex(const char* name, int rank = lock_rank::kUnranked) {
#if POSG_DCHECK_IS_ON
    name_ = name;
    rank_ = rank;
#else
    (void)name;
    (void)rank;
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if POSG_DCHECK_IS_ON
    POSG_CHECK(owner_.load(std::memory_order_relaxed) != std::this_thread::get_id(),
               "Mutex: relock by the owning thread (std::mutex would deadlock)");
#endif
    mutex_.lock();
    debug_mark_acquired();
  }

  void unlock() RELEASE() {
    debug_mark_released();
    mutex_.unlock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) {
      return false;
    }
    debug_mark_acquired();
    return true;
  }

  /// Runtime half of ASSERT_CAPABILITY: aborts (POSG_CHECK) under
  /// POSG_DCHECKS when the calling thread does not hold this mutex; the
  /// static half tells the analysis the capability is held from here on.
  /// Use at entry to helpers whose callers hold the lock through an
  /// interface the annotations cannot see through.
  void assert_held() const ASSERT_CAPABILITY(this) {
#if POSG_DCHECK_IS_ON
    POSG_CHECK(owner_.load(std::memory_order_relaxed) == std::this_thread::get_id(),
               name_ != nullptr ? name_ : "Mutex: assert_held by a thread that does not hold it");
#endif
  }

 private:
  friend class CondVar;

  // Owner/rank bookkeeping. Called with the native mutex held (or, for
  // debug_mark_released, still held), so the stores are race-free; the
  // owner field is atomic only because assert_held reads it from the
  // asserting thread without any ordering guarantee needed beyond "the
  // owner's own store is visible to itself".
  void debug_mark_acquired() noexcept {
#if POSG_DCHECK_IS_ON
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    sync_detail::push_rank(rank_, name_);
#endif
  }
  void debug_mark_released() noexcept {
#if POSG_DCHECK_IS_ON
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    sync_detail::pop_rank(rank_);
#endif
  }

  std::mutex mutex_;
#if POSG_DCHECK_IS_ON
  std::atomic<std::thread::id> owner_{};
  const char* name_ = nullptr;
  int rank_ = lock_rank::kUnranked;
#endif
};

/// RAII scoped acquisition of a Mutex (the annotated std::unique_lock /
/// std::lock_guard replacement). Supports mid-scope unlock()/lock() —
/// the queue's "drop the lock before notifying" idiom — and adoption of
/// an already-held mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(&mutex), owned_(true) {
    mutex.lock();
  }

  /// Adopts a mutex the caller already holds (pairs with a bare
  /// Mutex::lock() across a non-RAII boundary).
  MutexLock(Mutex& mutex, std::adopt_lock_t) REQUIRES(mutex) : mutex_(&mutex), owned_(true) {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (owned_) {
      mutex_->unlock();
    }
  }

  /// Mid-scope release; the destructor then does nothing unless lock()
  /// re-acquires first.
  void unlock() RELEASE() {
    mutex_->unlock();
    owned_ = false;
  }

  /// Re-acquire after a mid-scope unlock().
  void lock() ACQUIRE() {
    mutex_->lock();
    owned_ = true;
  }

  bool owns_lock() const noexcept { return owned_; }

 private:
  friend class CondVar;
  Mutex* mutex_;
  bool owned_;
};

/// RAII try-acquisition: owns_lock() reports whether the constructor got
/// the mutex. Guarded state behind a TryMutexLock must only be touched on
/// the owns_lock() branch; the analysis tracks the constructor's
/// try_acquire result through the branch condition.
class SCOPED_CAPABILITY TryMutexLock {
 public:
  explicit TryMutexLock(Mutex& mutex) TRY_ACQUIRE(true, mutex)
      : mutex_(&mutex), owned_(mutex.try_lock()) {}

  TryMutexLock(const TryMutexLock&) = delete;
  TryMutexLock& operator=(const TryMutexLock&) = delete;

  ~TryMutexLock() RELEASE() {
    if (owned_) {
      mutex_->unlock();
    }
  }

  bool owns_lock() const noexcept { return owned_; }
  explicit operator bool() const noexcept { return owned_; }

 private:
  Mutex* mutex_;
  bool owned_;
};

/// Condition variable bound to posg::Mutex through MutexLock. No
/// predicate overloads on purpose: a predicate lambda is analyzed as a
/// lock-free separate function, so guarded reads inside it would defeat
/// -Wthread-safety — write the wait loop in the locked scope instead
/// (see the header comment). Waiting releases and re-acquires the mutex;
/// the debug owner/rank bookkeeping tracks both edges.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible, as ever). `lock`
  /// must own its mutex on entry; it owns it again on return.
  void wait(MutexLock& lock) {
    NativeGuard native(lock);
    cv_.wait(native.handle);
  }

  /// Blocks until notified or `deadline`; reports why it returned.
  template <typename Clock, typename Duration>
  std::cv_status wait_until(MutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& deadline) {
    NativeGuard native(lock);
    return cv_.wait_until(native.handle, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock, const std::chrono::duration<Rep, Period>& timeout) {
    NativeGuard native(lock);
    return cv_.wait_for(native.handle, timeout);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  /// Adopts the MutexLock's native mutex for the duration of one wait:
  /// marks the debug owner released around the block (std::condition_
  /// variable re-acquires the *native* mutex, bypassing the wrapper's
  /// bookkeeping) and re-marks it on the way out. The std::unique_lock is
  /// release()d in the destructor so ownership stays with the MutexLock.
  struct NativeGuard {
    explicit NativeGuard(MutexLock& lock)
        : mutex(lock.mutex_), handle(mutex->mutex_, std::adopt_lock) {
      mutex->debug_mark_released();
    }
    ~NativeGuard() {
      mutex->debug_mark_acquired();
      handle.release();
    }
    Mutex* mutex;
    std::unique_lock<std::mutex> handle;
  };

  std::condition_variable cv_;
};

}  // namespace posg
