#pragma once

#include <cstdio>
#include <cstdlib>

/// Invariant-checking macros for POSG's correctness layer.
///
/// Two tiers, mirroring the usual CHECK/DCHECK split (Abseil, LevelDB):
///
///   POSG_CHECK(cond, msg)   always compiled in; prints the failed
///                           condition, file:line and `msg` to stderr and
///                           aborts. For invariants cheap enough to keep in
///                           release binaries (constructor preconditions,
///                           state-machine transitions).
///
///   POSG_DCHECK(cond, msg)  compiled to nothing unless the build defines
///                           POSG_DCHECKS_ENABLED (CMake option
///                           POSG_DCHECKS, ON by default; the Release CI
///                           leg turns it OFF to prove hot paths carry no
///                           checking cost). For per-tuple / per-cell
///                           invariants too hot for production.
///
/// Both abort rather than throw: a violated invariant means the process
/// state is already wrong, and the paper-level guarantees (the (2 − 1/k)
/// greedy bound, Ĉ drift cancellation, Count-Min overestimation) no longer
/// hold — unwinding through live schedulers would only smear the evidence.
/// Tests drive these paths with GTest death tests (tests/check_test.cpp).
///
/// The heavyweight `debug_validate()` methods (DualSketch, PosgScheduler,
/// HealthMonitor, BoundedQueue, net frame validation) are built on
/// POSG_CHECK and gated at their call sites: tests call them
/// unconditionally, hot paths only under `#if POSG_DCHECK_IS_ON`. A type
/// whose invariants also guard untrusted input states them once; its input
/// path throws with the message debug_validate() aborts with (DESIGN.md §8).

namespace posg::common::detail {

[[noreturn]] inline void check_failed(const char* kind, const char* file, int line,
                                      const char* condition, const char* message) noexcept {
  std::fprintf(stderr, "%s failed at %s:%d\n  condition: %s\n  message:   %s\n", kind, file, line,
               condition, message);
  std::fflush(stderr);
  std::abort();
}

}  // namespace posg::common::detail

#define POSG_CHECK(condition, message)                                                     \
  do {                                                                                     \
    if (!(condition)) {                                                                    \
      ::posg::common::detail::check_failed("POSG_CHECK", __FILE__, __LINE__, #condition,   \
                                           (message));                                    \
    }                                                                                      \
  } while (false)

#if defined(POSG_DCHECKS_ENABLED) && POSG_DCHECKS_ENABLED
#define POSG_DCHECK_IS_ON 1
#define POSG_DCHECK(condition, message)                                                    \
  do {                                                                                     \
    if (!(condition)) {                                                                    \
      ::posg::common::detail::check_failed("POSG_DCHECK", __FILE__, __LINE__, #condition,  \
                                           (message));                                    \
    }                                                                                      \
  } while (false)
#else
#define POSG_DCHECK_IS_ON 0
// sizeof keeps the operands syntactically checked (and names "used") without
// evaluating them, so a disabled DCHECK can never hide a compile error.
#define POSG_DCHECK(condition, message)       \
  do {                                        \
    (void)sizeof(!(condition));               \
    (void)sizeof(message);                    \
  } while (false)
#endif
