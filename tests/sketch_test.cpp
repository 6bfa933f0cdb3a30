// Unit + property tests for the dual (F, W) sketch — Count-Min properties
// checked on its fused cells — the stability snapshot, and the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/prng.hpp"
#include "sketch/dual_sketch.hpp"
#include "sketch/serialize.hpp"
#include "sketch/snapshot.hpp"

namespace {

using namespace posg;
using sketch::DualSketch;
using sketch::EstimatorVariant;
using sketch::SketchDims;
using sketch::Snapshot;

/// The Count-Min frequency point query on DualSketch's F cells: the
/// minimum over rows of the item's cell.
std::uint64_t frequency(const DualSketch& ds, common::Item x) {
  const auto d = ds.digest(x);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < d.rows(); ++i) {
    best = std::min(best, ds.cells()[d.offset(i)].f);
  }
  return best;
}

TEST(SketchDims, MatchesPaperExamples) {
  // Fig. 1: delta = 0.25 -> r = 2, eps = 0.70 -> c = 4.
  const auto fig1 = SketchDims::from_accuracy(0.70, 0.25);
  EXPECT_EQ(fig1.rows, 2u);
  EXPECT_EQ(fig1.cols, 4u);
  // Sec. V-A: delta = 0.1 -> r = 4, eps = 0.05 -> c = 54.
  const auto defaults = SketchDims::from_accuracy(0.05, 0.1);
  EXPECT_EQ(defaults.rows, 4u);
  EXPECT_EQ(defaults.cols, 54u);
}

TEST(SketchDims, RejectsOutOfRangeParameters) {
  EXPECT_THROW(SketchDims::from_accuracy(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(SketchDims::from_accuracy(1.5, 0.1), std::invalid_argument);
  EXPECT_THROW(SketchDims::from_accuracy(0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(SketchDims::from_accuracy(0.1, 1.0), std::invalid_argument);
}

// Count-Min properties, on the F cells (and, for merges, the W cells) of
// the one Count-Min the system runs.

TEST(CountMin, ExactWhenNoCollisions) {
  // Universe smaller than the column count: with 4 rows the min over rows
  // is exact with overwhelming probability for any fixed small universe.
  DualSketch ds(SketchDims{4, 1024}, 42);
  for (common::Item x = 0; x < 8; ++x) {
    for (common::Item reps = 0; reps <= x; ++reps) {
      ds.update(x, 1.0);
    }
  }
  for (common::Item x = 0; x < 8; ++x) {
    EXPECT_EQ(frequency(ds, x), x + 1);
  }
}

TEST(CountMin, NeverUnderestimates) {
  DualSketch ds(SketchDims{4, 8}, 7);  // tiny: heavy collisions
  std::map<common::Item, std::uint64_t> truth;
  common::Xoshiro256StarStar rng(3);
  for (int i = 0; i < 5000; ++i) {
    const common::Item x = rng.next_below(256);
    ds.update(x, 1.0);
    ++truth[x];
  }
  for (const auto& [item, freq] : truth) {
    EXPECT_GE(frequency(ds, item), freq);
  }
}

TEST(CountMin, RowTotalsEqualInsertedMass) {
  // Plain update adds 1 to F and the time to W in every row, so each
  // row's F cells sum to the update count and its W cells to the time.
  DualSketch ds(SketchDims{3, 16}, 1);
  for (int i = 0; i < 100; ++i) {
    ds.update(static_cast<common::Item>(i % 11), 2.0);
  }
  for (std::size_t row = 0; row < 3; ++row) {
    std::uint64_t f_total = 0;
    double w_total = 0.0;
    for (std::size_t col = 0; col < 16; ++col) {
      f_total += ds.cells()[row * 16 + col].f;
      w_total += ds.cells()[row * 16 + col].w;
    }
    EXPECT_EQ(f_total, 100u) << "row " << row;
    EXPECT_DOUBLE_EQ(w_total, 200.0) << "row " << row;
  }
}

TEST(CountMin, ResetZeroesEverything) {
  DualSketch ds(SketchDims{2, 4}, 9);
  ds.update(3, 1.5);
  ds.reset();
  for (const sketch::FWCell& cell : ds.cells()) {
    EXPECT_EQ(cell.f, 0u);
    EXPECT_EQ(cell.w, 0.0);
  }
}

TEST(CountMin, MergeIsLinear) {
  // Integer-valued times keep every W sum exact, so the merged cells must
  // equal the single-pass cells bit for bit, F and W alike.
  DualSketch a(SketchDims{4, 16}, 5);
  DualSketch b(SketchDims{4, 16}, 5);
  DualSketch both(SketchDims{4, 16}, 5);
  for (int i = 0; i < 500; ++i) {
    const common::Item x = i % 37;
    const double time = 1.0 + static_cast<double>(x % 5);
    if (i % 2 == 0) {
      a.update(x, time);
    } else {
      b.update(x, time);
    }
    both.update(x, time);
  }
  a.merge_from(b);
  ASSERT_EQ(a.cells().size(), both.cells().size());
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    EXPECT_EQ(a.cells()[i].f, both.cells()[i].f) << "cell " << i;
    EXPECT_EQ(a.cells()[i].w, both.cells()[i].w) << "cell " << i;
  }
}

TEST(CountMin, MergeRejectsMismatchedLayouts) {
  DualSketch a(SketchDims{4, 16}, 5);
  DualSketch different_seed(SketchDims{4, 16}, 6);
  DualSketch different_dims(SketchDims{4, 32}, 5);
  EXPECT_THROW(a.merge_from(different_seed), std::invalid_argument);
  EXPECT_THROW(a.merge_from(different_dims), std::invalid_argument);
}

/// Property (Cormode & Muthukrishnan): Pr{ f̂ - f >= eps (m - f) } <= delta.
/// Checked empirically over independent sketch seeds, parameterized on
/// (eps, delta).
class DualSketchAccuracy
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(DualSketchAccuracy, FrequencyBoundHolds) {
  const auto [eps, delta] = GetParam();
  const std::size_t n = 256;
  const std::size_t m = 4096;
  common::Xoshiro256StarStar stream_rng(11);
  std::vector<common::Item> stream(m);
  std::vector<std::uint64_t> truth(n, 0);
  for (auto& x : stream) {
    x = stream_rng.next_below(n);
    ++truth[x];
  }
  int violations = 0;
  int queries = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    DualSketch ds(eps, delta, 1000 + t);
    for (common::Item x : stream) {
      ds.update(x, 1.0);
    }
    for (common::Item v = 0; v < n; ++v) {
      ++queries;
      const double bound = eps * static_cast<double>(m - truth[v]);
      violations += static_cast<double>(frequency(ds, v) - truth[v]) > bound;
    }
  }
  const double rate = static_cast<double>(violations) / queries;
  // The bound is delta per query; allow sampling slack.
  EXPECT_LE(rate, delta + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Accuracy, DualSketchAccuracy,
                         ::testing::Values(std::pair{0.05, 0.1}, std::pair{0.1, 0.1},
                                           std::pair{0.05, 0.25}, std::pair{0.2, 0.05}));

TEST(CountMin, ConservativeUpdateNeverUnderestimates) {
  DualSketch ds(SketchDims{4, 8}, 7, 0, /*conservative=*/true);
  std::map<common::Item, std::uint64_t> truth;
  common::Xoshiro256StarStar rng(3);
  for (int i = 0; i < 5000; ++i) {
    const common::Item x = rng.next_below(256);
    ds.update(x, 1.0);
    ++truth[x];
  }
  for (const auto& [item, freq] : truth) {
    EXPECT_GE(frequency(ds, item), freq);
  }
}

TEST(CountMin, ConservativeUpdateTightensEstimates) {
  // Same skewed stream through both update rules: conservative estimates
  // are never larger, and strictly smaller in aggregate.
  DualSketch standard(SketchDims{4, 16}, 7);
  DualSketch conservative(SketchDims{4, 16}, 7, 0, /*conservative=*/true);
  common::Xoshiro256StarStar rng(5);
  for (int i = 0; i < 20'000; ++i) {
    // Zipf-ish skew via modulo trick.
    const common::Item x = rng.next_below(1 + rng.next_below(256));
    standard.update(x, 1.0);
    conservative.update(x, 1.0);
  }
  std::uint64_t standard_sum = 0;
  std::uint64_t conservative_sum = 0;
  for (common::Item x = 0; x < 256; ++x) {
    EXPECT_LE(frequency(conservative, x), frequency(standard, x));
    standard_sum += frequency(standard, x);
    conservative_sum += frequency(conservative, x);
  }
  EXPECT_LT(conservative_sum, standard_sum);
}

TEST(DualSketch, ConservativeModeKeepsRatiosMeaningful) {
  // One heavy item and colliding tail: the conservative dual sketch's
  // estimate for the heavy item is at least as accurate as the standard
  // one's on this construction, and exact when collisions are absent.
  DualSketch conservative(SketchDims{4, 1024}, 21, 0, true);
  for (int i = 0; i < 100; ++i) {
    conservative.update(5, 10.0);
  }
  EXPECT_DOUBLE_EQ(conservative.estimate(5).value(), 10.0);
  EXPECT_TRUE(conservative.conservative());
}

TEST(DualSketch, ConservativeSerializesAndMergesOnlyWithItself) {
  DualSketch a(SketchDims{2, 8}, 5, 0, true);
  a.update(1, 3.0);
  const auto bytes = serialize(a);
  const auto restored = sketch::deserialize(bytes);
  EXPECT_TRUE(restored.conservative());
  DualSketch standard(SketchDims{2, 8}, 5, 0, false);
  EXPECT_THROW(a.merge_from(standard), std::invalid_argument);
}

TEST(DualSketch, TracksFrequenciesAndWeightsTogether) {
  DualSketch ds(SketchDims{4, 512}, 21);
  ds.update(5, 10.0);
  ds.update(5, 20.0);
  ds.update(9, 7.0);
  EXPECT_EQ(ds.update_count(), 3u);
  EXPECT_DOUBLE_EQ(ds.total_execution_time(), 37.0);
  const auto w5 = ds.estimate(5);
  ASSERT_TRUE(w5.has_value());
  EXPECT_DOUBLE_EQ(*w5, 15.0);  // (10+20)/2
  const auto w9 = ds.estimate(9);
  ASSERT_TRUE(w9.has_value());
  EXPECT_DOUBLE_EQ(*w9, 7.0);
}

TEST(DualSketch, UnseenItemHasNoEstimate) {
  DualSketch ds(SketchDims{4, 512}, 21);
  ds.update(5, 10.0);
  // With 512 columns and 1 occupied cell per row, a random other item has
  // ~ (1/512)^4 probability of mapping to occupied cells in all rows; item
  // 123456 is deterministic for the fixed seed, verify it's unseen.
  EXPECT_FALSE(ds.estimate(123456).has_value());
}

TEST(DualSketch, MeanExecutionTime) {
  DualSketch ds(SketchDims{2, 8}, 3);
  EXPECT_FALSE(ds.mean_execution_time().has_value());
  ds.update(1, 4.0);
  ds.update(2, 8.0);
  EXPECT_DOUBLE_EQ(ds.mean_execution_time().value(), 6.0);
}

TEST(DualSketch, MinRatioVariantIsNotAboveArgMinFrequency) {
  // Build collisions deliberately with a tiny sketch: the min-ratio
  // estimate is by construction <= the ratio at the argmin-F cell of any
  // single sketch state? Not in general — but both must be within
  // [min ratio, max ratio] over the item's cells. Here we just verify
  // the variants agree on a collision-free sketch.
  DualSketch ds(SketchDims{4, 1024}, 77);
  ds.update(10, 3.0);
  ds.update(10, 5.0);
  EXPECT_DOUBLE_EQ(ds.estimate(10, EstimatorVariant::kArgMinFrequency).value(), 4.0);
  EXPECT_DOUBLE_EQ(ds.estimate(10, EstimatorVariant::kMinRatio).value(), 4.0);
}

TEST(DualSketch, ResetClearsTotals) {
  DualSketch ds(SketchDims{2, 8}, 3);
  ds.update(1, 4.0);
  ds.reset();
  EXPECT_EQ(ds.update_count(), 0u);
  EXPECT_DOUBLE_EQ(ds.total_execution_time(), 0.0);
  EXPECT_FALSE(ds.estimate(1).has_value());
}

TEST(Snapshot, RelativeErrorZeroWhenUnchanged) {
  DualSketch ds(SketchDims{2, 16}, 4);
  ds.update(1, 10.0);
  ds.update(2, 20.0);
  Snapshot snap(ds);
  EXPECT_DOUBLE_EQ(snap.relative_error(ds), 0.0);
}

TEST(Snapshot, RelativeErrorZeroWhenRatiosUnchanged) {
  // Doubling every item's occurrences keeps all W/F ratios identical.
  DualSketch ds(SketchDims{2, 16}, 4);
  ds.update(1, 10.0);
  ds.update(2, 20.0);
  Snapshot snap(ds);
  ds.update(1, 10.0);
  ds.update(2, 20.0);
  EXPECT_NEAR(snap.relative_error(ds), 0.0, 1e-12);
}

TEST(Snapshot, DetectsRatioShift) {
  DualSketch ds(SketchDims{1, 64}, 4);
  ds.update(1, 10.0);
  Snapshot snap(ds);
  ds.update(1, 30.0);  // ratio of item 1's cell moves from 10 to 20
  EXPECT_NEAR(snap.relative_error(ds), 1.0, 1e-12);  // |10-20| / 10
}

TEST(Snapshot, IgnoresCellsEmptyAtSnapshotTime) {
  // See DESIGN.md §5: cells that were empty in the snapshot are excluded,
  // otherwise the item tail would keep eta above any tolerance forever.
  DualSketch ds(SketchDims{1, 64}, 4);
  ds.update(1, 10.0);
  Snapshot snap(ds);
  ds.update(2, 50.0);  // new cell (with high probability) — excluded
  EXPECT_NEAR(snap.relative_error(ds), 0.0, 1e-12);
}

TEST(Snapshot, EmptySnapshotAgainstNonEmptySketchIsInfinite) {
  DualSketch ds(SketchDims{1, 8}, 4);
  Snapshot snap(ds);
  EXPECT_DOUBLE_EQ(snap.relative_error(ds), 0.0);
  ds.update(1, 5.0);
  EXPECT_TRUE(std::isinf(snap.relative_error(ds)));
}

TEST(Snapshot, CaptureTouchedBitIdenticalToFullCapture) {
  // The tracker's incremental capture must leave the exact ratio matrix a
  // full capture() produces — ASSERT_EQ, not NEAR: the goldens depend on
  // bit-identical ship timing. Exercised across several epochs, each with
  // a full refresh pass in between (the tracker's STABILIZING windows), so
  // the "ratios current for every unlisted cell" precondition is covered
  // both from reset_zero and from a prior full pass.
  const SketchDims dims{3, 29};
  DualSketch ds(dims, 77);
  Snapshot full;
  Snapshot fast;
  common::Xoshiro256StarStar rng(21);
  for (int epoch = 0; epoch < 6; ++epoch) {
    ds.reset();
    full.reset_zero(dims);
    fast.reset_zero(dims);
    std::vector<std::uint32_t> touched;
    // Skewed items so offsets repeat within the log (idempotent stores).
    for (int i = 0; i < 40; ++i) {
      const common::Item item = rng.next_below(epoch % 2 == 0 ? 8 : 256);
      const auto digest = ds.digest(item);
      ds.update(item, digest, 1.0 + static_cast<double>(rng.next_below(50)));
      for (std::size_t row = 0; row < dims.rows; ++row) {
        touched.push_back(static_cast<std::uint32_t>(digest.offset(row)));
      }
    }
    full.capture(ds);
    fast.capture_touched(ds, touched.data(), touched.size());
    touched.clear();
    for (std::size_t r = 0; r < dims.rows; ++r) {
      for (std::size_t c = 0; c < dims.cols; ++c) {
        ASSERT_EQ(fast.cell(r, c), full.cell(r, c)) << "epoch " << epoch;
      }
    }
    // A stabilizing window: both sides refresh in full, then a second
    // touched log layered on the refreshed matrix must still agree.
    for (int i = 0; i < 40; ++i) {
      ds.update(rng.next_below(256), 1.0 + static_cast<double>(rng.next_below(50)));
    }
    EXPECT_EQ(fast.refresh_and_error(ds), full.refresh_and_error(ds)) << "epoch " << epoch;
    for (int i = 0; i < 40; ++i) {
      const common::Item item = rng.next_below(256);
      const auto digest = ds.digest(item);
      ds.update(item, digest, 1.0 + static_cast<double>(rng.next_below(50)));
      for (std::size_t row = 0; row < dims.rows; ++row) {
        touched.push_back(static_cast<std::uint32_t>(digest.offset(row)));
      }
    }
    full.capture(ds);
    fast.capture_touched(ds, touched.data(), touched.size());
    for (std::size_t r = 0; r < dims.rows; ++r) {
      for (std::size_t c = 0; c < dims.cols; ++c) {
        ASSERT_EQ(fast.cell(r, c), full.cell(r, c)) << "epoch " << epoch << " post-refresh";
      }
    }
  }
}

TEST(Serialize, RoundTripsExactly) {
  DualSketch ds(SketchDims{4, 54}, 1234);
  common::Xoshiro256StarStar rng(8);
  for (int i = 0; i < 2000; ++i) {
    ds.update(rng.next_below(4096), 1.0 + static_cast<double>(rng.next_below(64)));
  }
  const auto bytes = serialize(ds);
  EXPECT_EQ(bytes.size(), sketch::serialized_size(ds.dims()));
  const DualSketch restored = sketch::deserialize(bytes);
  EXPECT_EQ(restored.update_count(), ds.update_count());
  EXPECT_DOUBLE_EQ(restored.total_execution_time(), ds.total_execution_time());
  for (common::Item x = 0; x < 4096; x += 17) {
    EXPECT_EQ(restored.estimate(x).has_value(), ds.estimate(x).has_value());
    if (ds.estimate(x)) {
      EXPECT_DOUBLE_EQ(*restored.estimate(x), *ds.estimate(x));
    }
  }
}

TEST(Serialize, RejectsTruncatedBuffer) {
  DualSketch ds(SketchDims{2, 8}, 5);
  ds.update(1, 2.0);
  auto bytes = serialize(ds);
  bytes.pop_back();
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

TEST(Serialize, RejectsBadMagic) {
  DualSketch ds(SketchDims{2, 8}, 5);
  auto bytes = serialize(ds);
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

TEST(Serialize, RejectsTrailingGarbage) {
  DualSketch ds(SketchDims{2, 8}, 5);
  auto bytes = serialize(ds);
  bytes.push_back(std::byte{0x42});
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

// Gray-fault corruption XORs one byte of an otherwise valid frame, which
// keeps the buffer structurally parseable while breaking the Count-Min
// mass identities. Deserialize must reject the *content* (so the runtime
// quarantines the peer) rather than hand a poisoned sketch to the
// scheduler, whose own debug_validate would abort the process.
TEST(Serialize, RejectsCorruptedUpdateCountByte) {
  DualSketch ds(SketchDims{2, 8}, 5);
  ds.update(1, 2.0);
  auto bytes = serialize(ds);
  // Layout: magic(4) + version(4) + seed(8) + rows(8) + cols(8) = 32, then
  // the u64 update count; flip a high byte so the total no longer matches
  // any F row sum.
  bytes[32 + 5] ^= std::byte{0x5E};
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

TEST(Serialize, RejectsCorruptedFrequencyCellByte) {
  DualSketch ds(SketchDims{2, 8}, 5);
  ds.update(1, 2.0);
  auto bytes = serialize(ds);
  // F cells start after the 56-byte fixed header; breaking any one cell
  // breaks that row's total-vs-update-count identity.
  bytes[56] ^= std::byte{0x01};
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

TEST(Serialize, RejectsNegativeWeightCell) {
  DualSketch ds(SketchDims{2, 8}, 5);
  ds.update(1, 2.0);
  auto bytes = serialize(ds);
  // Flip the sign bit of every W cell's top byte: at least one non-zero
  // cell goes negative (the zero cells stay -0.0 == 0.0, so the row-total
  // check alone would miss a sign flip on a zero).
  const std::size_t w_begin = 56 + 2 * 8 * sizeof(std::uint64_t);
  for (std::size_t cell = 0; cell < 2 * 8; ++cell) {
    bytes[w_begin + cell * sizeof(double) + 7] ^= std::byte{0x80};
  }
  EXPECT_THROW(sketch::deserialize(bytes), std::invalid_argument);
}

}  // namespace
