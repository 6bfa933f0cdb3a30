#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "hash/two_universal.hpp"
#include "sketch/space_saving.hpp"

/// The Count-Min sketch [Cormode & Muthukrishnan, J. Algorithms 2005] as
/// POSG uses it: an r x c matrix, one 2-universal hash per row, whose
/// frequency point query (min over rows) is an (eps, delta)-additive
/// approximation of the true frequency:
///   Pr{ f̂_t - f_t >= eps * (m - f_t) } <= delta,    f̂_t >= f_t always.
namespace posg::sketch {

/// Matrix dimensions, optionally derived from the (eps, delta) accuracy
/// target exactly the way the paper sizes its examples:
///   rows r = ceil(log2(1/delta))   (delta = 0.25 -> 2, delta = 0.1 -> 4)
///   cols c = round(e / eps)        (eps = 0.7 -> 4,  eps = 0.05 -> 54)
struct SketchDims {
  std::size_t rows;
  std::size_t cols;

  static SketchDims from_accuracy(double epsilon, double delta) {
    common::require(epsilon > 0.0 && epsilon <= 1.0, "SketchDims: need 0 < epsilon <= 1");
    common::require(delta > 0.0 && delta < 1.0, "SketchDims: need 0 < delta < 1");
    const auto rows = static_cast<std::size_t>(std::ceil(std::log2(1.0 / delta)));
    const auto cols = static_cast<std::size_t>(std::llround(std::exp(1.0) / epsilon));
    return SketchDims{std::max<std::size_t>(rows, 1), std::max<std::size_t>(cols, 1)};
  }

  friend bool operator==(const SketchDims&, const SketchDims&) = default;
};

/// How the scheduler turns the (F, W) cell pair into a per-tuple execution
/// time estimate ŵ_t = W/F.
enum class EstimatorVariant {
  /// Listing III.2 of the paper: pick the row with the smallest frequency
  /// cell (least collision mass), return that row's W/F ratio.
  kArgMinFrequency,
  /// Analysis variant (Sec. IV-B): take the minimum of the per-row ratios
  /// W[i]/F[i]. Exposed for the estimator ablation bench.
  kMinRatio,
};

/// One fused Count-Min cell: the frequency counter and the cumulated
/// execution time that share a (row, bucket) coordinate. 16 bytes, so a
/// cache line holds four cells and every per-row F+W touch lands on one
/// line instead of two (the split-matrix layout paid a line per matrix).
struct FWCell {
  std::uint64_t f = 0;
  double w = 0.0;
};

/// The one estimator walk (Listing III.2 and its Sec. IV-B variant) over
/// the cell-wise sum of `arrays`, each a fused row-major cell array of the
/// digest's layout. Per row, the (f, w) pairs at the digest's offset are
/// summed across the arrays in order, then `variant` picks the estimate.
/// One array is one sketch's own estimate (0 + f and 0.0 + w are exact for
/// the non-negative cells the invariant allows); the shipped sketches'
/// arrays in ascending op order are the scheduler's merged view, with the
/// additions, in the order, that DualSketch::merge_from would perform.
/// std::nullopt when the digest maps only to empty cells.
inline std::optional<common::TimeMs> estimate_cells(std::span<const FWCell* const> arrays,
                                                    const hash::BucketDigest& d,
                                                    EstimatorVariant variant) noexcept {
  const std::size_t rows = d.rows();
  const auto row_sum = [&](std::size_t row) noexcept {
    const std::size_t offset = d.offset(row);
    FWCell sum;
    for (const FWCell* cells : arrays) {
      sum.f += cells[offset].f;
      sum.w += cells[offset].w;
    }
    return sum;
  };

  if (variant == EstimatorVariant::kArgMinFrequency) {
    // i* = argmin_i F[i, h_i(t)], return W[i*]/F[i*].
    std::uint64_t best_freq = std::numeric_limits<std::uint64_t>::max();
    double best_weight = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const FWCell cell = row_sum(i);
      if (cell.f < best_freq) {
        best_freq = cell.f;
        best_weight = cell.w;
      }
    }
    if (best_freq == 0) {
      return std::nullopt;
    }
    return best_weight / static_cast<double>(best_freq);
  }

  // kMinRatio: min over rows of W[i]/F[i], skipping empty cells.
  std::optional<common::TimeMs> best;
  for (std::size_t i = 0; i < rows; ++i) {
    const FWCell cell = row_sum(i);
    if (cell.f == 0) {
      continue;
    }
    const double ratio = cell.w / static_cast<double>(cell.f);
    if (!best || ratio < *best) {
      best = ratio;
    }
  }
  return best;
}

/// The pair of Count-Min matrices every operator instance maintains
/// (Fig. 1.A): F tracks tuple frequencies, W tracks cumulated execution
/// times W_t = w_t * f_t. Both share dimensions and hash functions, so a
/// single hash evaluation per row serves both updates.
///
/// Storage is a single row-major array of fused (F, W) cell pairs: the
/// r-row update/estimate walk touches r contiguous 16-byte stripes — one
/// cache line each — instead of r lines in F plus r lines in W. The wire
/// format (serialize.cpp) still writes the F block then the W block, so
/// shipped frames are unchanged.
class DualSketch {
 public:
  /// `heavy_capacity` > 0 enables the hybrid estimator (extension, see
  /// sketch/space_saving.hpp): the top items are tracked exactly in a
  /// Space-Saving table and answered from it, the tail from the
  /// Count-Min matrices. 0 = pure paper behaviour.
  DualSketch(SketchDims dims, std::uint64_t seed, std::size_t heavy_capacity = 0,
             bool conservative = false);
  DualSketch(double epsilon, double delta, std::uint64_t seed, std::size_t heavy_capacity = 0,
             bool conservative = false);

  /// One-pass digest of item `t` under the shared (seed, dims) hash set;
  /// valid for this sketch and every sketch with the same layout.
  hash::BucketDigest digest(common::Item t) const noexcept { return hashes_.digest(t); }

  /// Records one execution of item `t` that took `execution_time`
  /// (Listing III.1: F += 1, W += w in every row). The row hashes are
  /// evaluated once and shared by F and W (and both conservative passes).
  void update(common::Item t, common::TimeMs execution_time) noexcept;

  /// Digest form: the caller already paid the hash pass.
  void update(common::Item t, const hash::BucketDigest& d,
              common::TimeMs execution_time) noexcept;

  /// Estimated execution time of item `t`, or std::nullopt when `t` maps
  /// only to empty cells (never-seen item on a fresh sketch).
  std::optional<common::TimeMs> estimate(
      common::Item t, EstimatorVariant variant = EstimatorVariant::kArgMinFrequency) const noexcept;

  /// Digest form of estimate(): reads the fused F/W cell by precomputed
  /// offset; the item is still needed for the exact heavy-hitter side
  /// table. One digest computed by the scheduler serves all k per-instance
  /// sketches plus the merged sketch, because the protocol forces them to
  /// share (seed, dims) — see PosgConfig::sketch_seed.
  std::optional<common::TimeMs> estimate(
      common::Item t, const hash::BucketDigest& d,
      EstimatorVariant variant = EstimatorVariant::kArgMinFrequency) const noexcept;

  /// Mean execution time over everything recorded (row-0 totals W/F);
  /// the scheduler's fallback for unseen items. nullopt when empty.
  std::optional<common::TimeMs> mean_execution_time() const noexcept;

  /// Number of updates recorded (== any row's frequency total).
  std::uint64_t update_count() const noexcept { return updates_; }

  /// Cumulated execution time recorded (== any row's weight total).
  common::TimeMs total_execution_time() const noexcept { return total_time_; }

  void reset() noexcept;

  /// Fused row-major cell storage: cells()[row * cols + bucket].
  const std::vector<FWCell>& cells() const noexcept { return cells_; }

  /// Mutable cell access for the deserializer (and validation tests that
  /// corrupt cells on purpose) — regular clients must go through
  /// update()/reset() so the totals stay consistent.
  std::vector<FWCell>& cells_mutable() noexcept { return cells_; }

  /// Restores the totals bookkeeping after raw cells were rebuilt from a
  /// wire buffer (deserializer only).
  void restore_totals(std::uint64_t updates, common::TimeMs total_time) noexcept {
    updates_ = updates;
    total_time_ = total_time;
  }
  const SketchDims& dims() const noexcept { return dims_; }
  const hash::HashSet& hashes() const noexcept { return hashes_; }
  std::uint64_t seed() const noexcept { return hashes_.seed(); }

  /// Hybrid-estimator side table (nullptr when disabled).
  const SpaceSaving* heavy_hitters() const noexcept { return heavy_ ? &*heavy_ : nullptr; }
  SpaceSaving* heavy_hitters_mutable() noexcept { return heavy_ ? &*heavy_ : nullptr; }
  std::size_t heavy_capacity() const noexcept { return heavy_ ? heavy_->capacity() : 0; }

  /// Conservative-update mode (Estan & Varghese): F raises only the cells
  /// at the item's current minimum and W mirrors exactly those cells, so
  /// per-cell ratios keep averaging only the contributions that actually
  /// landed there. Reduces collision inflation on skewed streams.
  bool conservative() const noexcept { return conservative_; }

  /// Adds another sketch's contents (linearity of Count-Min; heavy-hitter
  /// tables are merged by summing entries and keeping the heaviest).
  /// Layouts (dims, seed, heavy capacity) must match.
  void merge_from(const DualSketch& other);

  /// The sketch's invariants, stated once: every W cell is finite and
  /// >= 0 (execution times are non-negative), per-row mass conservation
  /// against the update totals (== in plain mode, <= under conservative
  /// update), and heavy-hitter table consistency (size <= capacity, error
  /// + observed == count, time_sum >= 0). Returns the first broken one, or
  /// nullptr; it allocates nothing. The paper's "F and W share dims and
  /// hashes" invariant (Sec. III-A) is structural in the fused layout.
  /// A flipped byte in a structurally valid buffer breaks exactly these,
  /// so sketch::deserialize throws on a violation (the runtime quarantines
  /// the sender), while debug_validate() aborts on one.
  const char* invariant_violation() const noexcept;

  /// Aborts via POSG_CHECK with invariant_violation()'s message; tests
  /// call it directly, epoch boundaries under POSG_DCHECK_IS_ON.
  void debug_validate() const;

 private:
  /// Shared tail of both update forms: heavy-hitter side table + totals.
  void note_update(common::Item t, common::TimeMs execution_time) noexcept;

  SketchDims dims_;
  hash::HashSet hashes_;
  std::vector<FWCell> cells_;
  std::optional<SpaceSaving> heavy_;
  bool conservative_ = false;
  std::uint64_t updates_ = 0;
  common::TimeMs total_time_ = 0.0;
};

}  // namespace posg::sketch
