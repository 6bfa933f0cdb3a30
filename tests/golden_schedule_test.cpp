/// Golden-sequence lock on the POSG scheduling stream.
///
/// The hot-path work (one-pass digests, fastmod bucket reduction, the
/// incremental greedy argmin) is only admissible because every transform
/// is bit-identical: the scheduler must emit byte-for-byte the same
/// instance sequence as the straightforward reference implementation.
/// These tests pin that stream against constants generated from the
/// pre-optimization scheduler (plain linear greedy scan, per-call row
/// hashing) on a workload that crosses every scheduler state:
/// ROUND_ROBIN warm-up, SEND_ALL marker piggy-backing, WAIT_ALL/RUN
/// greedy scheduling, delayed + flushed sync replies, a mid-run sketch
/// re-shipment (epoch restart), an instance failure, and latency hints.
///
/// Covered regimes: k = 4 exercises the small-k linear argmin, k = 50 the
/// indexed-heap argmin (see core/greedy_index.hpp). If an optimization
/// changes any of these sequences, it is not an optimization — it is a
/// behaviour change and must be rejected.
///
/// The GoldenBilling cases pin the estimation path itself: shared vs
/// per-instance billing, each with plain sketches and with a heavy-hitter
/// ledger, over a skewed stream (so the ledger monitors hot items) with a
/// failure and a later rejoin (so per-instance billing falls back to the
/// merged view for the sketch-less rejoiner). Their constants were
/// generated from the scheduler that still materialized the merged sketch
/// eagerly for heavy-hitter configs.
///
/// Regenerating (only legitimate after an *intentional* policy change):
/// build the libraries (`cmake -B build -S . && cmake --build build -j`),
/// then from the repository root, wrapped here for width:
///   g++ -std=c++20 -O2 -DGOLDEN_GENERATE -DPOSG_DCHECKS_ENABLED=1 -I src
///       tests/golden_schedule_test.cpp build/src/core/libposg_core.a
///       build/src/sketch/libposg_sketch.a build/src/hash/libposg_hash.a
///       build/src/obs/libposg_obs.a build/src/common/libposg_common.a
///       -pthread -o build/golden_gen && build/golden_gen

#include <cstdint>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/posg_scheduler.hpp"

#ifndef GOLDEN_GENERATE
#include <gtest/gtest.h>
#endif

namespace posg {
namespace {

/// FNV-1a over the instance sequence: one mismatch anywhere changes the
/// hash, so a single constant pins the entire stream.
std::uint64_t sequence_hash(const std::vector<common::InstanceId>& sequence) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const common::InstanceId instance : sequence) {
    h ^= static_cast<std::uint64_t>(instance);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Estimation-path variant of the golden workload (GoldenBilling): the
/// billing mode and the heavy-hitter ledger every shipped sketch carries.
/// A variant also skews the item draw (75% of tuples hit 8 hot items) and
/// rejoins the failed instance, without changing how many random numbers
/// the stream consumes.
struct Billing {
  bool shared;
  std::size_t heavy_capacity;
};

/// Deterministic end-to-end drive of one PosgScheduler. Every source of
/// input (items, sketch contents, reply deltas, failure timing) is fixed,
/// so the returned instance sequence is a pure function of the scheduler's
/// decision logic.
std::vector<common::InstanceId> run_schedule_stream(std::size_t k, bool with_failure,
                                                    bool with_hints,
                                                    std::optional<Billing> billing = {}) {
  core::PosgConfig config;
  config.epsilon = 0.05;  // 54 columns — the paper's coarse sketch
  config.delta = 0.1;     // 4 rows
  if (billing) {
    config.shared_billing = billing->shared;
    config.heavy_hitter_capacity = billing->heavy_capacity;
  }

  core::PosgScheduler scheduler(k, config);
  const auto dims = config.dims();
  common::Xoshiro256StarStar rng(42);
  const auto draw = [&] {
    const common::Item raw = rng.next_below(256);
    return billing && raw % 16 < 12 ? raw % 8 : raw;
  };

  if (with_hints) {
    std::vector<common::TimeMs> hints(k);
    for (std::size_t op = 0; op < k; ++op) {
      hints[op] = static_cast<double>(op % 3) * 0.25;
    }
    scheduler.set_latency_hints(std::move(hints));
  }

  std::vector<common::InstanceId> sequence;
  common::SeqNo seq = 0;

  // Phase 1: ROUND_ROBIN until every instance shipped a sketch. Interleave
  // scheduling with the shipments so the rotation is exercised too.
  for (common::InstanceId op = 0; op < k; ++op) {
    sequence.push_back(scheduler.schedule(draw(), seq++).instance);
    sketch::DualSketch sketch(dims, config.sketch_seed, config.heavy_hitter_capacity);
    for (int i = 0; i < 400; ++i) {
      const common::Item item = draw();
      sketch.update(item, 0.5 + static_cast<double>(item % 7));
    }
    scheduler.on_feedback(core::SketchShipment{op, sketch});
  }

  // Phase 2: 2000 tuples across SEND_ALL -> WAIT_ALL -> RUN, with sync
  // replies trickling in every 5th tuple, one mid-run re-shipment (epoch
  // restart) and optionally one failure.
  std::vector<std::pair<common::InstanceId, core::SyncRequest>> pending_markers;
  for (int step = 0; step < 2000; ++step) {
    const common::Item item = draw();
    const core::Decision decision = scheduler.schedule(item, seq++);
    sequence.push_back(decision.instance);
    if (decision.sync_request) {
      pending_markers.emplace_back(decision.instance, *decision.sync_request);
    }
    if (!pending_markers.empty() && step % 5 == 4) {
      const auto [op, marker] = pending_markers.front();
      pending_markers.erase(pending_markers.begin());
      const common::TimeMs delta = static_cast<double>(step % 3 - 1) * 0.125;
      scheduler.on_feedback(core::SyncReply{op, marker.epoch, delta});
    }
    if (with_failure && step == 700) {
      scheduler.mark_failed(k / 2);
    }
    if (billing && with_failure && step == 1200) {
      scheduler.rejoin(k / 2);
    }
    if (step == 1000) {
      sketch::DualSketch sketch(dims, config.sketch_seed, config.heavy_hitter_capacity);
      for (int i = 0; i < 300; ++i) {
        const common::Item item2 = draw();
        sketch.update(item2, 1.0 + static_cast<double>(item2 % 5));
      }
      scheduler.on_feedback(core::SketchShipment{0, sketch});
    }
  }

  // Phase 3: flush the leftover replies (stale ones are discarded by
  // design), then a tail of pure greedy scheduling.
  for (const auto& [op, marker] : pending_markers) {
    scheduler.on_feedback(core::SyncReply{op, marker.epoch, 0.0});
  }
  for (int step = 0; step < 200; ++step) {
    sequence.push_back(scheduler.schedule(draw(), seq++).instance);
  }

  scheduler.debug_validate();
  return sequence;
}

}  // namespace
}  // namespace posg

#ifdef GOLDEN_GENERATE

#include <cstdio>

int main() {
  const struct {
    const char* name;
    std::size_t k;
    bool with_failure;
    bool with_hints;
  } cases[] = {
      {"SmallKPlain", 4, false, false},
      {"SmallKFailureAndHints", 4, true, true},
      {"LargeKPlain", 50, false, false},
      {"LargeKFailureAndHints", 50, true, true},
  };
  for (const auto& c : cases) {
    const auto sequence = posg::run_schedule_stream(c.k, c.with_failure, c.with_hints);
    std::printf("%s: size=%zu hash=0x%016llXULL\n", c.name, sequence.size(),
                static_cast<unsigned long long>(posg::sequence_hash(sequence)));
  }
  for (const std::size_t k : {std::size_t{4}, std::size_t{50}}) {
    for (const bool shared : {true, false}) {
      for (const std::size_t heavy : {std::size_t{0}, std::size_t{16}}) {
        const auto sequence =
            posg::run_schedule_stream(k, true, false, posg::Billing{shared, heavy});
        std::printf("k=%zu shared=%d heavy=%zu: size=%zu hash=0x%016llXULL\n", k, shared ? 1 : 0,
                    heavy, sequence.size(),
                    static_cast<unsigned long long>(posg::sequence_hash(sequence)));
      }
    }
  }
  return 0;
}

#else  // !GOLDEN_GENERATE

namespace posg {
namespace {

struct GoldenCase {
  const char* name;
  std::size_t k;
  bool with_failure;
  bool with_hints;
  std::size_t expected_size;
  std::uint64_t expected_hash;
};

// Generated from the pre-optimization scheduler (see file header).
constexpr GoldenCase kGoldenCases[] = {
    {"SmallKPlain", 4, false, false, 2204, 0x26D06FEF7EF37F4AULL},
    {"SmallKFailureAndHints", 4, true, true, 2204, 0x8F1CCCFB9AA88D53ULL},
    {"LargeKPlain", 50, false, false, 2250, 0x460BFE6B24A20D73ULL},
    {"LargeKFailureAndHints", 50, true, true, 2250, 0x3E17E4435E47AE8EULL},
};

class GoldenSchedule : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSchedule, SequenceMatchesPreOptimizationScheduler) {
  const GoldenCase& c = GetParam();
  const auto sequence = run_schedule_stream(c.k, c.with_failure, c.with_hints);
  EXPECT_EQ(sequence.size(), c.expected_size);
  EXPECT_EQ(sequence_hash(sequence), c.expected_hash)
      << "scheduling stream diverged from the golden sequence for " << c.name
      << " — the optimization changed scheduling behaviour";
}

/// Same workload scheduled twice must agree decision-for-decision — the
/// run-to-run determinism half of the golden guarantee (the constants
/// above pin version-to-version determinism).
TEST(GoldenSchedule, RepeatedRunsAreIdentical) {
  const auto first = run_schedule_stream(50, true, true);
  const auto second = run_schedule_stream(50, true, true);
  ASSERT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenSchedule, ::testing::ValuesIn(kGoldenCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

struct BillingCase {
  const char* name;
  std::size_t k;
  Billing billing;
  std::size_t expected_size;
  std::uint64_t expected_hash;
};

void PrintTo(const BillingCase& c, std::ostream* os) { *os << c.name; }

// Generated from the eager-merge scheduler (see file header); every case
// runs with the failure at step 700 and the rejoin at step 1200.
constexpr BillingCase kBillingCases[] = {
    {"SmallKSharedPlain", 4, {true, 0}, 2204, 0xA8042921F5D88FE9ULL},
    {"SmallKSharedLedger", 4, {true, 16}, 2204, 0x57A056C6C5B2EE01ULL},
    {"SmallKPerInstancePlain", 4, {false, 0}, 2204, 0xAB3C16CF604643ADULL},
    {"SmallKPerInstanceLedger", 4, {false, 16}, 2204, 0xF67319B400E8B17EULL},
    {"LargeKSharedPlain", 50, {true, 0}, 2250, 0x34D1B4D0A9E88852ULL},
    {"LargeKSharedLedger", 50, {true, 16}, 2250, 0x985406D714269D6DULL},
    {"LargeKPerInstancePlain", 50, {false, 0}, 2250, 0x01F9B8807EB8A8F4ULL},
    {"LargeKPerInstanceLedger", 50, {false, 16}, 2250, 0x53A7B7F26466CF97ULL},
};

class GoldenBilling : public ::testing::TestWithParam<BillingCase> {};

TEST_P(GoldenBilling, SequenceMatchesEagerMergeScheduler) {
  const BillingCase& c = GetParam();
  const auto sequence = run_schedule_stream(c.k, /*with_failure=*/true, /*with_hints=*/false,
                                            c.billing);
  EXPECT_EQ(sequence.size(), c.expected_size);
  EXPECT_EQ(sequence_hash(sequence), c.expected_hash)
      << "estimation path diverged from the golden sequence for " << c.name;
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenBilling, ::testing::ValuesIn(kBillingCases),
                         [](const ::testing::TestParamInfo<BillingCase>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace posg

#endif  // GOLDEN_GENERATE
