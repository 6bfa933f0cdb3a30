#pragma once

#include <cstddef>
#include <limits>
#include <vector>

/// Incremental argmin structure for the Greedy Online Scheduler
/// (Listing III.2): maintains argmin_op score[op] across score updates so
/// the per-tuple pick costs O(1)/O(log k) instead of the O(k) rescan of
/// the reference implementation.
///
/// Scores are the greedy objective Ĉ[op] + latency_hint[op]; the order is
/// the strict lexicographic (score, op), so ties are broken toward the
/// lowest instance id — exactly what a left-to-right linear scan with a
/// strict `<` comparison produces. That makes the structure's answer
/// history-independent: it matches the reference scan no matter in which
/// order updates arrived, which is what keeps the scheduling stream
/// byte-identical to the pre-optimization scheduler
/// (tests/golden_schedule_test.cpp).
///
/// Two regimes:
///   - live <= kLinearThreshold: a plain scan over the live set. At small
///     k the scan is a handful of comparisons over one cache line and
///     beats any pointer-chasing structure.
///   - live >  kLinearThreshold: an indexed binary min-heap (position map
///     per instance), so a billing update sifts in O(log k) and the pick
///     reads the root.
///
/// The scheduler rebuilds on rare global events (epoch completion,
/// quarantine, latency-hint changes) and calls increase() on the hot
/// billing path, where scores only ever grow (estimates are
/// non-negative).
namespace posg::core {

class GreedyIndex {
 public:
  /// Cutover between the linear scan and the heap, in live instances.
  /// 16 doubles are two cache lines; the branchy heap walk only pays for
  /// itself above that.
  static constexpr std::size_t kLinearThreshold = 16;

  static constexpr std::size_t kNoPosition = std::numeric_limits<std::size_t>::max();

  /// Rebuilds from scratch: `scores[op]` is instance op's greedy score,
  /// `alive[op]` whether it is a candidate. At least one instance must be
  /// alive. O(k).
  void rebuild(const std::vector<double>& scores, const std::vector<bool>& alive);

  /// Replaces every instance's score and keeps the live set of the last
  /// rebuild(): a global score change that moves no membership, such as a
  /// new multi-source external load. O(k); a copy below the threshold.
  void rescore(const std::vector<double>& scores);

  /// Raises instance `op`'s score to `score` (billing: Ĉ[op] += ŵ_t).
  /// `op` must be alive and `score` must not be below its current score —
  /// any global or decreasing change goes through rebuild() or rescore().
  void increase(std::size_t op, double score) noexcept;

  /// The live instance with the lexicographically smallest (score, id).
  std::size_t best() const noexcept;

  /// Number of live instances indexed.
  std::size_t live() const noexcept { return heap_.size(); }

  /// Aborts (POSG_CHECK) unless the position map inverts the heap, the
  /// heap order invariant holds, and best() equals a reference linear
  /// scan over the live set.
  void debug_validate() const;

 private:
  /// Strict weak order of the argmin: (score, id) lexicographic.
  bool less(std::size_t a, std::size_t b) const noexcept {
    return score_[a] != score_[b] ? score_[a] < score_[b] : a < b;
  }

  void sift_down(std::size_t hole) noexcept;

  std::vector<double> score_;      // per instance id; meaningful when alive
  std::vector<std::size_t> heap_;  // live instance ids; heap-ordered above the threshold
  std::vector<std::size_t> pos_;   // instance id -> index in heap_, kNoPosition when dead
  bool linear_ = true;
};

}  // namespace posg::core
