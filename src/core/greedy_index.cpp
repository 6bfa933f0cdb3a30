#include "core/greedy_index.hpp"

#include "common/check.hpp"
#include "common/types.hpp"

namespace posg::core {

void GreedyIndex::rebuild(const std::vector<double>& scores, const std::vector<bool>& alive) {
  common::require(scores.size() == alive.size(),
                  "GreedyIndex: score and alive vectors must cover the same instances");
  heap_.clear();
  pos_.assign(scores.size(), kNoPosition);
  for (std::size_t op = 0; op < scores.size(); ++op) {
    if (alive[op]) {
      heap_.push_back(op);
    }
  }
  common::require(!heap_.empty(), "GreedyIndex: need at least one live instance");

  linear_ = heap_.size() <= kLinearThreshold;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    pos_[heap_[i]] = i;
  }
  rescore(scores);
}

void GreedyIndex::rescore(const std::vector<double>& scores) {
  POSG_DCHECK(scores.size() == pos_.size(), "GreedyIndex: rescore must cover every instance");
  score_ = scores;
  if (!linear_) {
    // Floyd heapify: O(k). The strict (score, id) order makes the
    // resulting root independent of the pre-heapify element order.
    for (std::size_t i = heap_.size() / 2; i-- > 0;) {
      sift_down(i);
    }
  }
}

void GreedyIndex::increase(std::size_t op, double score) noexcept {
  POSG_DCHECK(op < pos_.size() && pos_[op] != kNoPosition,
              "GreedyIndex: increase on a dead or unknown instance");
  POSG_DCHECK(score >= score_[op],
              "GreedyIndex: score decreased — decreasing changes require rebuild()");
  score_[op] = score;
  if (!linear_) {
    // A raised key can only move away from the root in a min-heap.
    sift_down(pos_[op]);
  }
}

std::size_t GreedyIndex::best() const noexcept {
  if (linear_) {
    std::size_t best = heap_[0];
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (less(heap_[i], best)) {
        best = heap_[i];
      }
    }
    return best;
  }
  return heap_[0];
}

void GreedyIndex::sift_down(std::size_t hole) noexcept {
  const std::size_t n = heap_.size();
  const std::size_t moving = heap_[hole];
  while (true) {
    const std::size_t left = 2 * hole + 1;
    if (left >= n) {
      break;
    }
    std::size_t child = left;
    const std::size_t right = left + 1;
    if (right < n && less(heap_[right], heap_[left])) {
      child = right;
    }
    if (!less(heap_[child], moving)) {
      break;
    }
    heap_[hole] = heap_[child];
    pos_[heap_[hole]] = hole;
    hole = child;
  }
  heap_[hole] = moving;
  pos_[moving] = hole;
}

void GreedyIndex::debug_validate() const {
  POSG_CHECK(!heap_.empty(), "GreedyIndex: validating an empty index");
  POSG_CHECK(linear_ == (heap_.size() <= kLinearThreshold),
             "GreedyIndex: regime flag out of sync with live count");

  std::size_t mapped = 0;
  for (std::size_t op = 0; op < pos_.size(); ++op) {
    if (pos_[op] == kNoPosition) {
      continue;
    }
    ++mapped;
    POSG_CHECK(pos_[op] < heap_.size() && heap_[pos_[op]] == op,
               "GreedyIndex: position map does not invert the heap");
  }
  POSG_CHECK(mapped == heap_.size(), "GreedyIndex: live count disagrees with position map");

  if (!linear_) {
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      POSG_CHECK(!less(heap_[i], heap_[(i - 1) / 2]),
                 "GreedyIndex: heap order invariant violated");
    }
  }

  // The structure's whole contract: best() == reference linear scan.
  std::size_t reference = heap_[0];
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (less(heap_[i], reference)) {
      reference = heap_[i];
    }
  }
  POSG_CHECK(best() == reference, "GreedyIndex: best() diverged from the reference scan");
}

}  // namespace posg::core
