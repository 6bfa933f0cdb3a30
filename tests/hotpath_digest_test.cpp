// Bit-identity of the hot-path fast forms against straightforward
// references:
//
//   - BucketDigest offsets vs a naive __int128 ((a*x + b) mod p) mod c
//     evaluation (pins the Granlund–Montgomery reciprocal reduction),
//   - digest-based DualSketch update/estimate vs the item-based forms, in
//     plain and conservative mode (cells compared exactly),
//   - digest portability across sketches sharing (seed, dims),
//   - GreedyIndex (incremental argmin) vs a brute-force scan, in both the
//     linear and the indexed-heap regime, including the lowest-id
//     tie-break.
//
// "Fast" that is not bit-identical is a behaviour change; every
// comparison here is EQ on integers/raw doubles, never NEAR.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "core/greedy_index.hpp"
#include "hash/two_universal.hpp"
#include "sketch/dual_sketch.hpp"

namespace posg {
namespace {

constexpr std::uint64_t kSeed = 0xC0FFEEULL;

// ------------------------------------------------------------- digests

TEST(BucketDigest, OffsetsMatchNaiveWideModulo) {
  for (const std::uint64_t codomain : {1ULL, 2ULL, 3ULL, 54ULL, 544ULL, 100003ULL}) {
    const hash::HashSet hashes(kSeed, 4, codomain);
    common::Xoshiro256StarStar rng(7);
    for (int i = 0; i < 2000; ++i) {
      // Items must lie in the supported universe [0, p): the Mersenne
      // folds are exact mod-p only there (and 2-universality is only
      // claimed there — see TwoUniversalHash).
      const common::Item x = rng.next_below(hash::TwoUniversalHash::kPrime);
      const auto digest = hashes.digest(x);
      ASSERT_EQ(digest.rows(), 4u);
      for (std::size_t row = 0; row < 4; ++row) {
        const auto& h = hashes.function(row);
        // Naive reference: full-width modular arithmetic, hardware `%`.
        __extension__ using NaiveWide = unsigned __int128;
        const auto wide = static_cast<NaiveWide>(h.a()) * x + h.b();
        const auto bucket = static_cast<std::uint64_t>(
            (wide % hash::TwoUniversalHash::kPrime) % codomain);
        ASSERT_EQ(digest.offset(row), row * codomain + bucket)
            << "codomain=" << codomain << " row=" << row << " x=" << x;
        ASSERT_EQ(hashes.bucket(row, x), bucket);
      }
    }
  }
}

TEST(BucketDigest, CompatibilityIsTheLayoutTriple) {
  const hash::HashSet hashes(kSeed, 4, 54);
  const auto digest = hashes.digest(123);
  EXPECT_TRUE(digest.compatible_with(kSeed, 4, 54));
  EXPECT_FALSE(digest.compatible_with(kSeed + 1, 4, 54));
  EXPECT_FALSE(digest.compatible_with(kSeed, 3, 54));
  EXPECT_FALSE(digest.compatible_with(kSeed, 4, 55));
}

TEST(BucketDigest, HashSetRejectsUndigestableRowCounts) {
  EXPECT_NO_THROW(hash::HashSet(kSeed, hash::BucketDigest::kMaxRows, 8));
  EXPECT_THROW(hash::HashSet(kSeed, hash::BucketDigest::kMaxRows + 1, 8),
               std::invalid_argument);
}

// ----------------------------------------------- Count-Min equivalence

/// The Count-Min frequency point query on `ds`'s F cells, by per-row
/// hash buckets (the item form) or by digest offsets (the digest form).
std::uint64_t frequency_by_item(const sketch::DualSketch& ds, common::Item item) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < ds.dims().rows; ++row) {
    const auto offset = row * ds.dims().cols + ds.hashes().bucket(row, item);
    best = std::min(best, ds.cells()[offset].f);
  }
  return best;
}

std::uint64_t frequency_by_digest(const sketch::DualSketch& ds, const hash::BucketDigest& d) {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t row = 0; row < d.rows(); ++row) {
    best = std::min(best, ds.cells()[d.offset(row)].f);
  }
  return best;
}

TEST(CountMinDigest, UpdateAndEstimateMatchItemForms) {
  // Plain mode: the item form takes the fused each_offset fast path, the
  // digest form the precomputed offsets; the F cells must agree exactly.
  const sketch::SketchDims dims{4, 54};
  sketch::DualSketch by_item(dims, kSeed);
  sketch::DualSketch by_digest(dims, kSeed);

  common::Xoshiro256StarStar rng(11);
  for (int i = 0; i < 5000; ++i) {
    const common::Item item = rng.next_below(512);
    by_item.update(item, 1.0);
    by_digest.update(item, by_digest.digest(item), 1.0);
  }
  ASSERT_EQ(by_item.cells().size(), by_digest.cells().size());
  for (std::size_t c = 0; c < by_item.cells().size(); ++c) {
    ASSERT_EQ(by_item.cells()[c].f, by_digest.cells()[c].f) << "cell " << c;
  }

  common::Xoshiro256StarStar probe(13);
  for (int i = 0; i < 1000; ++i) {
    const common::Item item = probe.next_below(1024);
    ASSERT_EQ(frequency_by_item(by_item, item),
              frequency_by_digest(by_digest, by_digest.digest(item)));
  }
}

TEST(CountMinDigest, ConservativeUpdateMatchesItemFormIncludingMask) {
  // Conservative mode: W must be raised in exactly the rows whose F cell
  // the update raised (the row mask), and both forms must agree cell by
  // cell, F and W alike.
  const sketch::SketchDims dims{4, 54};
  sketch::DualSketch by_item(dims, kSeed, 0, /*conservative=*/true);
  sketch::DualSketch by_digest(dims, kSeed, 0, /*conservative=*/true);

  common::Xoshiro256StarStar rng(17);
  for (int i = 0; i < 5000; ++i) {
    const common::Item item = rng.next_below(128);  // dense: forces collisions
    const double weight = 0.25 * static_cast<double>(item % 9);
    const auto digest = by_digest.digest(item);
    std::vector<sketch::FWCell> before(digest.rows());
    for (std::size_t row = 0; row < digest.rows(); ++row) {
      before[row] = by_digest.cells()[digest.offset(row)];
    }
    by_item.update(item, weight);
    by_digest.update(item, digest, weight);
    for (std::size_t row = 0; row < digest.rows(); ++row) {
      const sketch::FWCell& after = by_digest.cells()[digest.offset(row)];
      const bool raised = after.f != before[row].f;
      ASSERT_EQ(after.w, raised ? before[row].w + weight : before[row].w)
          << "update " << i << " row " << row;
    }
  }
  ASSERT_EQ(by_item.cells().size(), by_digest.cells().size());
  for (std::size_t c = 0; c < by_item.cells().size(); ++c) {
    ASSERT_EQ(by_item.cells()[c].f, by_digest.cells()[c].f) << "cell " << c;
    ASSERT_EQ(by_item.cells()[c].w, by_digest.cells()[c].w) << "cell " << c;
  }
}

// ---------------------------------------------------- digest portability

TEST(CountMinDigest, DigestFromTwinSketchIsInterchangeable) {
  // The protocol guarantees scheduler and instances share (seed, dims);
  // a digest computed against any of them must index all of them.
  const sketch::SketchDims dims{4, 54};
  sketch::DualSketch a(dims, kSeed);
  sketch::DualSketch b(dims, kSeed);
  for (common::Item item = 0; item < 300; ++item) {
    const double weight = 0.5 + static_cast<double>(item % 7);
    a.update(item, a.digest(item), weight);
    b.update(item, a.digest(item), weight);  // digest minted by the *other* sketch
  }
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    ASSERT_EQ(a.cells()[i].f, b.cells()[i].f) << "cell " << i;
    ASSERT_EQ(a.cells()[i].w, b.cells()[i].w) << "cell " << i;
  }
}

// ----------------------------------------------- DualSketch equivalence

TEST(DualSketchDigest, UpdateAndEstimateMatchItemForms) {
  for (const bool conservative : {false, true}) {
    for (const std::size_t heavy : {std::size_t{0}, std::size_t{8}}) {
      const sketch::SketchDims dims{4, 54};
      sketch::DualSketch by_item(dims, kSeed, heavy, conservative);
      sketch::DualSketch by_digest(dims, kSeed, heavy, conservative);

      common::Xoshiro256StarStar rng(23);
      for (int i = 0; i < 4000; ++i) {
        const common::Item item = rng.next_below(256);
        const double weight = 0.5 + static_cast<double>(item % 11);
        by_item.update(item, weight);
        by_digest.update(item, by_digest.digest(item), weight);
      }
      ASSERT_EQ(by_item.cells().size(), by_digest.cells().size());
      for (std::size_t c = 0; c < by_item.cells().size(); ++c) {
        ASSERT_EQ(by_item.cells()[c].f, by_digest.cells()[c].f) << "cell " << c;
        ASSERT_EQ(by_item.cells()[c].w, by_digest.cells()[c].w) << "cell " << c;
      }

      common::Xoshiro256StarStar probe(29);
      for (int i = 0; i < 500; ++i) {
        const common::Item item = probe.next_below(512);
        for (const auto variant : {sketch::EstimatorVariant::kArgMinFrequency,
                                   sketch::EstimatorVariant::kMinRatio}) {
          const auto expected = by_item.estimate(item, variant);
          const auto actual = by_digest.estimate(item, by_digest.digest(item), variant);
          ASSERT_EQ(expected.has_value(), actual.has_value());
          if (expected) {
            ASSERT_EQ(*expected, *actual);  // exact: same reads, same order
          }
        }
      }
      by_item.debug_validate();
      by_digest.debug_validate();
    }
  }
}

// ----------------------------------------------------------- GreedyIndex

std::size_t brute_force_argmin(const std::vector<double>& scores,
                               const std::vector<bool>& alive) {
  std::size_t best = scores.size();
  for (std::size_t op = 0; op < scores.size(); ++op) {
    if (!alive[op]) {
      continue;
    }
    if (best == scores.size() || scores[op] < scores[best]) {
      best = op;
    }
  }
  return best;
}

void drive_greedy_index(std::size_t k, std::uint64_t seed) {
  std::vector<double> scores(k, 0.0);
  std::vector<bool> alive(k, true);
  core::GreedyIndex index;
  index.rebuild(scores, alive);
  index.debug_validate();

  common::Xoshiro256StarStar rng(seed);
  for (int step = 0; step < 20000; ++step) {
    ASSERT_EQ(index.best(), brute_force_argmin(scores, alive)) << "k=" << k;
    const auto action = rng.next_below(100);
    if (action < 90) {
      // Billing: raise an arbitrary live instance (SEND_ALL bills the
      // round-robin target, not the argmin).
      std::size_t op = rng.next_below(k);
      while (!alive[op]) {
        op = (op + 1) % k;
      }
      scores[op] += 0.25 * static_cast<double>(1 + rng.next_below(8));
      index.increase(op, scores[op]);
    } else if (action < 95) {
      // Epoch correction or a new multi-source external load: globally
      // perturb (including decreases). rescore keeps the live set that
      // rebuild re-derives, so both must land on the same argmin.
      for (std::size_t op = 0; op < k; ++op) {
        scores[op] = static_cast<double>(rng.next_below(64)) * 0.5;
      }
      if (step % 2 == 0) {
        index.rebuild(scores, alive);
      } else {
        index.rescore(scores);
      }
    } else {
      // Quarantine/revive churn, keeping at least one live instance.
      const std::size_t op = rng.next_below(k);
      std::size_t live = 0;
      for (std::size_t other = 0; other < k; ++other) {
        live += alive[other] ? 1u : 0u;
      }
      if (alive[op] && live <= 1) {
        continue;
      }
      alive[op] = !alive[op];
      index.rebuild(scores, alive);
    }
    if (step % 1000 == 0) {
      index.debug_validate();
    }
  }
  index.debug_validate();
}

TEST(GreedyIndex, MatchesBruteForceLinearRegime) {
  drive_greedy_index(4, 31);
  drive_greedy_index(core::GreedyIndex::kLinearThreshold, 37);
}

TEST(GreedyIndex, MatchesBruteForceHeapRegime) {
  drive_greedy_index(core::GreedyIndex::kLinearThreshold + 1, 41);
  drive_greedy_index(50, 43);
  drive_greedy_index(128, 47);
}

TEST(GreedyIndex, TiesBreakTowardLowestId) {
  for (const std::size_t k : {std::size_t{8}, std::size_t{64}}) {
    std::vector<double> scores(k, 1.5);  // all tied
    std::vector<bool> alive(k, true);
    core::GreedyIndex index;
    index.rebuild(scores, alive);
    EXPECT_EQ(index.best(), 0u);
    scores[0] = 2.0;
    index.increase(0, 2.0);
    EXPECT_EQ(index.best(), 1u);  // next-lowest id among the tied rest
    alive[1] = false;
    index.rebuild(scores, alive);
    EXPECT_EQ(index.best(), 2u);
    index.debug_validate();
  }
}

TEST(GreedyIndex, RebuildRejectsEmptyLiveSet) {
  core::GreedyIndex index;
  EXPECT_THROW(index.rebuild({1.0, 2.0}, {false, false}), std::invalid_argument);
  EXPECT_THROW(index.rebuild({1.0}, {false, false}), std::invalid_argument);
}

}  // namespace
}  // namespace posg
