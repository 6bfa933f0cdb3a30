#include "sketch/dual_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace posg::sketch {

DualSketch::DualSketch(SketchDims dims, std::uint64_t seed, std::size_t heavy_capacity,
                       bool conservative)
    : dims_(dims),
      hashes_(seed, dims.rows, dims.cols),
      cells_(dims.rows * dims.cols),
      conservative_(conservative) {
  common::require(!conservative || dims.rows <= 32,
                  "DualSketch: conservative mode supports at most 32 rows");
  if (heavy_capacity > 0) {
    heavy_.emplace(heavy_capacity);
  }
}

DualSketch::DualSketch(double epsilon, double delta, std::uint64_t seed,
                       std::size_t heavy_capacity, bool conservative)
    : DualSketch(SketchDims::from_accuracy(epsilon, delta), seed, heavy_capacity, conservative) {
}

void DualSketch::update(common::Item t, common::TimeMs execution_time) noexcept {
  if (conservative_) {
    update(t, hashes_.digest(t), execution_time);
    return;
  }
  // Instance-side fused fast path: each row's offset is computed once and
  // lands on one fused cell — the F counter and the W accumulator sit on
  // the same cache line, so the per-row touch is a single 16-byte stripe.
  // Rows map to disjoint cells (offsets carry the row base), so the
  // per-cell accumulation order is identical to the digest form below and
  // results stay bit-identical.
  FWCell* cells = cells_.data();
  hashes_.each_offset(t, [&](std::size_t, std::size_t offset) noexcept {
    cells[offset].f += 1;
    cells[offset].w += execution_time;
  });
  note_update(t, execution_time);
}

void DualSketch::update(common::Item t, const hash::BucketDigest& d,
                        common::TimeMs execution_time) noexcept {
  POSG_DCHECK(d.compatible_with(hashes_.seed(), dims_.rows, dims_.cols),
              "DualSketch: digest from a different hash set");
  const std::size_t rows = dims_.rows;
  FWCell* cells = cells_.data();
  if (conservative_) {
    // Estan & Varghese over the fused layout: min scan, then raise only
    // the cells below min + 1 and mirror the weight into exactly those
    // cells. Same two passes (and the same per-cell results) as the old
    // split update_conservative + update_masked pair.
    std::uint64_t current_min = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < rows; ++i) {
      current_min = std::min(current_min, cells[d.offset(i)].f);
    }
    const std::uint64_t target = current_min + 1;
    for (std::size_t i = 0; i < rows; ++i) {
      FWCell& cell = cells[d.offset(i)];
      if (cell.f < target) {
        cell.f = target;
        cell.w += execution_time;
      }
    }
  } else {
    for (std::size_t i = 0; i < rows; ++i) {
      FWCell& cell = cells[d.offset(i)];
      cell.f += 1;
      cell.w += execution_time;
    }
  }
  note_update(t, execution_time);
}

void DualSketch::note_update(common::Item t, common::TimeMs execution_time) noexcept {
  if (heavy_) {
    heavy_->update(t, execution_time);
  }
  ++updates_;
  total_time_ += execution_time;
}

std::optional<common::TimeMs> DualSketch::estimate(common::Item t,
                                                   EstimatorVariant variant) const noexcept {
  return estimate(t, hashes_.digest(t), variant);
}

std::optional<common::TimeMs> DualSketch::estimate(common::Item t, const hash::BucketDigest& d,
                                                   EstimatorVariant variant) const noexcept {
  POSG_DCHECK(d.compatible_with(hashes_.seed(), dims_.rows, dims_.cols),
              "DualSketch: digest from a different hash set");
  // Hybrid path: heavy items are answered from exact observed samples.
  if (heavy_) {
    if (auto exact = heavy_->mean_time(t)) {
      return exact;
    }
  }
  const FWCell* cells = cells_.data();
  return estimate_cells(std::span<const FWCell* const>(&cells, 1), d, variant);
}

std::optional<common::TimeMs> DualSketch::mean_execution_time() const noexcept {
  if (updates_ == 0) {
    return std::nullopt;
  }
  return total_time_ / static_cast<double>(updates_);
}

void DualSketch::reset() noexcept {
  std::fill(cells_.begin(), cells_.end(), FWCell{});
  if (heavy_) {
    heavy_->clear();
  }
  updates_ = 0;
  total_time_ = 0.0;
}

void DualSketch::merge_from(const DualSketch& other) {
  common::require(dims_ == other.dims_ && hashes_ == other.hashes_,
                  "DualSketch: merge requires identical dims and hash seed");
  common::require(heavy_capacity() == other.heavy_capacity(),
                  "DualSketch: merge requires matching heavy capacities");
  common::require(conservative_ == other.conservative_,
                  "DualSketch: merge requires matching update policies");
  // Linearity of Count-Min: per-cell sums. One pass over the fused array
  // adds both halves of every pair; the adds per cell are the same single
  // additions the split-matrix merge performed, in the same row-major
  // order, so merged weights stay bit-identical.
  FWCell* cells = cells_.data();
  const FWCell* from = other.cells_.data();
  const std::size_t n = cells_.size();
  for (std::size_t i = 0; i < n; ++i) {
    cells[i].f += from[i].f;
    cells[i].w += from[i].w;
  }
  if (heavy_ && other.heavy_) {
    heavy_->merge_from(*other.heavy_);
  }
  updates_ += other.updates_;
  total_time_ += other.total_time_;
}

const char* DualSketch::invariant_violation() const noexcept {
  if (!(std::isfinite(total_time_) && total_time_ >= 0.0)) {
    return "DualSketch: total execution time must be finite and non-negative";
  }
  if (updates_ == 0 && total_time_ != 0.0) {
    return "DualSketch: non-zero execution time with zero updates";
  }

  const std::size_t rows = dims_.rows;
  const std::size_t cols = dims_.cols;
  // Relative tolerance for the W row totals: each row is a sum of doubles
  // accumulated in arbitrary order, so exact equality is not expected.
  const double w_tolerance = 1e-6 * std::max(1.0, total_time_);
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t f_row_total = 0;
    double w_row_total = 0.0;
    const FWCell* row = cells_.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      if (!std::isfinite(row[j].w)) {
        return "DualSketch: W cell is not finite";
      }
      if (row[j].w < 0.0) {
        return "DualSketch: W cell went negative";
      }
      f_row_total += row[j].f;
      w_row_total += row[j].w;
    }
    if (conservative_) {
      // Conservative update raises at most `value` mass per row, so row
      // totals are bounded by (not equal to) the update totals.
      if (f_row_total > updates_) {
        return "DualSketch: conservative F row total exceeds update count";
      }
      if (!(w_row_total <= total_time_ + w_tolerance)) {
        return "DualSketch: conservative W row total exceeds recorded time";
      }
    } else {
      // Plain Count-Min mass conservation: every update touches every row
      // exactly once (Listing III.1), so each row total equals the global
      // total.
      if (f_row_total != updates_) {
        return "DualSketch: F row total != update count";
      }
      if (!(std::abs(w_row_total - total_time_) <= w_tolerance)) {
        return "DualSketch: W row total != recorded execution time";
      }
    }
  }

  if (heavy_) {
    if (heavy_->capacity() < 1) {
      return "DualSketch: heavy table with zero capacity";
    }
    if (heavy_->size() > heavy_->capacity()) {
      return "DualSketch: heavy table overflowed its capacity";
    }
    for (const auto& [item, entry] : heavy_->entries()) {
      (void)item;
      if (entry.count < 1) {
        return "DualSketch: monitored heavy item with zero count";
      }
      // Space-Saving bookkeeping identity: the count is exactly the
      // inherited floor plus the genuinely observed hits (takeover sets
      // count = victim + 1 with error = victim, observed = 1; every later
      // hit raises count and observed together; merge sums all three).
      if (entry.error + entry.observed != entry.count) {
        return "DualSketch: heavy-hitter count != error + observed";
      }
      if (!(std::isfinite(entry.time_sum) && entry.time_sum >= 0.0)) {
        return "DualSketch: heavy-hitter time sum must be finite and non-negative";
      }
    }
  }
  return nullptr;
}

void DualSketch::debug_validate() const {
  const char* why = invariant_violation();
  POSG_CHECK(why == nullptr, why);
}

}  // namespace posg::sketch
