// Unit + property tests for the scheduling policies: round-robin, the
// greedy oracle baselines (incl. the Theorem 4.2 bound), and the POSG
// scheduler's four-state protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <variant>

#include "common/prng.hpp"
#include "core/backlog_oracle.hpp"
#include "core/full_knowledge.hpp"
#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "core/reactive_jsq.hpp"
#include "core/round_robin.hpp"
#include "core/two_choices.hpp"
#include "net/protocol.hpp"

namespace {

using namespace posg;
using core::Decision;
using core::FullKnowledgeScheduler;
using core::InstanceTracker;
using core::PosgConfig;
using core::PosgScheduler;
using core::RoundRobinScheduler;

TEST(RoundRobin, CyclesThroughInstances) {
  RoundRobinScheduler rr(3);
  for (common::SeqNo i = 0; i < 12; ++i) {
    const Decision d = rr.schedule(42, i);
    EXPECT_EQ(d.instance, i % 3);
    EXPECT_FALSE(d.sync_request.has_value());
  }
}

TEST(RoundRobin, IgnoresTupleContent) {
  RoundRobinScheduler rr(2);
  EXPECT_EQ(rr.schedule(7, 0).instance, 0u);
  EXPECT_EQ(rr.schedule(7, 1).instance, 1u);
  EXPECT_EQ(rr.schedule(99, 2).instance, 0u);
}

TEST(FullKnowledge, PicksInstanceMinimizingResultingLoad) {
  // Non-uniform instances: cost depends on the instance.
  FullKnowledgeScheduler fk(2, [](common::Item, common::InstanceId op, common::SeqNo) {
    return op == 0 ? 10.0 : 4.0;
  });
  EXPECT_EQ(fk.schedule(1, 0).instance, 1u);  // 0+4 < 0+10
  EXPECT_EQ(fk.schedule(1, 1).instance, 1u);  // 4+4 < 0+10
  EXPECT_EQ(fk.schedule(1, 2).instance, 0u);  // 8+4 > 0+10
}

/// Theorem 4.2 property: the greedy online schedule's makespan is at most
/// (2 - 1/k) times the optimal, hence at most (2 - 1/k) times the lower
/// bound max(total/k, w_max). Parameterized over k.
class GreedyBound : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GreedyBound, MakespanWithinTwoMinusOneOverK) {
  const std::size_t k = GetParam();
  common::Xoshiro256StarStar rng(k * 101 + 3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 50 + rng.next_below(200);
    std::vector<double> costs(m);
    for (auto& c : costs) {
      c = 1.0 + static_cast<double>(rng.next_below(64));
    }
    FullKnowledgeScheduler greedy(
        k, [&costs](common::Item item, common::InstanceId, common::SeqNo) {
          return costs[item];
        });
    for (common::SeqNo i = 0; i < m; ++i) {
      greedy.schedule(i, i);
    }
    const auto& loads = greedy.cumulated_loads();
    const double makespan = *std::max_element(loads.begin(), loads.end());
    const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
    const double wmax = *std::max_element(costs.begin(), costs.end());
    const double opt_lower_bound = std::max(total / static_cast<double>(k), wmax);
    EXPECT_LE(makespan,
              (2.0 - 1.0 / static_cast<double>(k)) * opt_lower_bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, GreedyBound, ::testing::Values(1, 2, 3, 5, 10));

TEST(GreedyBound, PaperTightnessExampleReachesTheBound) {
  // Sec. IV-A: k(k-1) tuples of cost wmax/k followed by one of cost wmax
  // drive greedy to exactly (2 - 1/k) * OPT (OPT = wmax).
  const std::size_t k = 5;
  const double wmax = 10.0;
  std::vector<double> costs(k * (k - 1), wmax / static_cast<double>(k));
  costs.push_back(wmax);
  FullKnowledgeScheduler greedy(
      k, [&costs](common::Item item, common::InstanceId, common::SeqNo) { return costs[item]; });
  for (common::SeqNo i = 0; i < costs.size(); ++i) {
    greedy.schedule(i, i);
  }
  const auto& loads = greedy.cumulated_loads();
  const double makespan = *std::max_element(loads.begin(), loads.end());
  EXPECT_NEAR(makespan, (2.0 - 1.0 / static_cast<double>(k)) * wmax, 1e-9);
}

TEST(BacklogOracle, SubtractsExecutedWork) {
  core::BacklogOracleScheduler scheduler(2, [](common::Item, common::InstanceId,
                                               common::SeqNo) { return 5.0; });
  EXPECT_EQ(scheduler.schedule(1, 0).instance, 0u);
  EXPECT_EQ(scheduler.schedule(1, 1).instance, 1u);
  // Instance 0 finishes its tuple: its backlog returns to zero.
  scheduler.on_feedback(core::TupleExecuted{0, 5.0});
  EXPECT_EQ(scheduler.schedule(1, 2).instance, 0u);
  EXPECT_THROW(scheduler.on_feedback(core::TupleExecuted{9, 1.0}), std::invalid_argument);
}

TEST(ReactiveJsq, RoutesByReportedBacklogPlusSent) {
  core::ReactiveJsqScheduler scheduler(2);
  // No reports yet: ties resolve to instance 0, then stay there (no cost
  // knowledge, mean = 0) — degenerate but well-defined.
  EXPECT_EQ(scheduler.schedule(1, 0).instance, 0u);
  // Reports arrive: instance 0 is loaded, instance 1 idle.
  scheduler.on_feedback(core::LoadReport{0, 100.0, 5.0});
  scheduler.on_feedback(core::LoadReport{1, 0.0, 5.0});
  EXPECT_EQ(scheduler.schedule(1, 1).instance, 1u);
  // Everything sent since the report is valued at the mean (5.0); after
  // 20 sends instance 1 looks as loaded as instance 0.
  for (int i = 0; i < 19; ++i) {
    EXPECT_EQ(scheduler.schedule(1, 2 + i).instance, 1u);
  }
  EXPECT_EQ(scheduler.schedule(1, 50).instance, 0u);
}

TEST(ReactiveJsq, FreshReportResetsTheCounter) {
  core::ReactiveJsqScheduler scheduler(2);
  scheduler.on_feedback(core::LoadReport{0, 10.0, 1.0});
  scheduler.on_feedback(core::LoadReport{1, 0.0, 1.0});
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule(1, i);
  }
  scheduler.on_feedback(core::LoadReport{1, 0.0, 1.0});  // instance 1 drained everything
  EXPECT_EQ(scheduler.schedule(1, 10).instance, 1u);
  EXPECT_THROW(scheduler.on_feedback(core::LoadReport{7, 0.0, 1.0}), std::invalid_argument);
}

TEST(TwoChoices, SamplesOnlyValidInstancesAndBalances) {
  core::TwoChoicesScheduler scheduler(
      4, [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; }, 2, 99);
  std::vector<int> counts(4, 0);
  for (common::SeqNo i = 0; i < 4000; ++i) {
    const auto d = scheduler.schedule(1, i);
    ASSERT_LT(d.instance, 4u);
    ++counts[d.instance];
  }
  // Two-choices with equal costs balances closely (much better than the
  // sqrt spread of random assignment).
  for (int count : counts) {
    EXPECT_NEAR(count, 1000, 100);
  }
}

TEST(TwoChoices, SingleChoiceIsRandomAssignment) {
  core::TwoChoicesScheduler scheduler(
      3, [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; }, 1, 7);
  std::vector<int> counts(3, 0);
  for (common::SeqNo i = 0; i < 3000; ++i) {
    ++counts[scheduler.schedule(1, i).instance];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, 1000, 150);
  }
}

TEST(TwoChoices, ValidatesParameters) {
  auto oracle = [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; };
  EXPECT_THROW(core::TwoChoicesScheduler(2, oracle, 0), std::invalid_argument);
  EXPECT_THROW(core::TwoChoicesScheduler(2, oracle, 3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// POSG scheduler protocol
// ---------------------------------------------------------------------------

PosgConfig test_config() {
  PosgConfig config;
  config.window = 4;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  return config;
}

/// Builds one stable shipment for instance `op` by running a tracker on a
/// constant-cost item stream.
core::SketchShipment make_shipment(common::InstanceId op, const PosgConfig& config,
                                   common::Item item = 1, common::TimeMs cost = 2.0) {
  InstanceTracker tracker(op, config);
  for (int i = 0; i < 1000; ++i) {
    if (auto shipment = tracker.on_executed(item, cost)) {
      return *shipment;
    }
  }
  throw std::logic_error("make_shipment: tracker never stabilized");
}

TEST(PosgScheduler, StartsInRoundRobinAndCycles) {
  PosgScheduler scheduler(3, test_config());
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin);
  for (common::SeqNo i = 0; i < 9; ++i) {
    const Decision d = scheduler.schedule(5, i);
    EXPECT_EQ(d.instance, i % 3);
    EXPECT_FALSE(d.sync_request.has_value());
  }
  EXPECT_FALSE(scheduler.estimate(5).has_value());
}

TEST(PosgScheduler, StaysRoundRobinUntilAllInstancesShipped) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  scheduler.on_feedback(make_shipment(0, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin);
  scheduler.on_feedback(make_shipment(1, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin);
  scheduler.on_feedback(make_shipment(2, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  EXPECT_EQ(scheduler.epoch(), 1u);
}

TEST(PosgScheduler, SendAllPiggybacksExactlyOneMarkerPerInstance) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<int> markers(3, 0);
  for (common::SeqNo i = 0; i < 3; ++i) {
    const Decision d = scheduler.schedule(1, i);
    if (d.sync_request) {
      ++markers[d.instance];
      EXPECT_EQ(d.sync_request->epoch, 1u);
      // The piggy-backed estimate covers this tuple too (consistent cut).
      EXPECT_GT(d.sync_request->estimated_cumulated, 0.0);
    }
  }
  EXPECT_EQ(markers, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
}

TEST(PosgScheduler, SyncCompletesAndCorrectsDrift) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config, 1, 2.0));
  scheduler.on_feedback(make_shipment(1, config, 1, 2.0));

  // Drain SEND_ALL; capture markers.
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    ASSERT_TRUE(d.sync_request.has_value());
    requests[d.instance] = *d.sync_request;
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);

  // Instances reply with known drifts (Δ = C_real − Ĉ_marker; the negative
  // one stays above −Ĉ, as any honest instance's reply must).
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 10.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  const auto loads_before = scheduler.estimated_loads();
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, -1.5});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  const auto& loads_after = scheduler.estimated_loads();
  EXPECT_NEAR(loads_after[0], loads_before[0] + 10.0, 1e-12);
  EXPECT_NEAR(loads_after[1], loads_before[1] - 1.5, 1e-12);
}

TEST(PosgScheduler, DriftCorrectionClampsAtZero) {
  // Ĉ >= 0 is a checked invariant (debug_validate): a Δ more negative
  // than Ĉ — float rounding, or a buggy/byzantine reply — must clamp at
  // zero rather than produce a negative estimated load.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config, 1, 2.0));
  scheduler.on_feedback(make_shipment(1, config, 1, 2.0));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    ASSERT_TRUE(d.sync_request.has_value());
    requests[d.instance] = *d.sync_request;
  }
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, -1000.0});
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  EXPECT_EQ(scheduler.estimated_loads()[1], 0.0);
  scheduler.debug_validate();
}

TEST(PosgScheduler, IgnoresStaleAndDuplicateReplies) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  // Stale epoch: ignored.
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch + 7, 100.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  // Duplicate from the same instance: second one ignored.
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 1.0});
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 999.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, 1.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(PosgScheduler, ReplyBeforeAllMarkersSentIsAccepted) {
  // Low-latency paths can deliver the first marker's reply while later
  // markers are still unsent.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  const Decision first = scheduler.schedule(1, 0);
  ASSERT_TRUE(first.sync_request.has_value());
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  scheduler.on_feedback(core::SyncReply{first.instance, first.sync_request->epoch, 0.0});
  // Now send the second marker and its reply: sync must still complete.
  const Decision second = scheduler.schedule(1, 1);
  ASSERT_TRUE(second.sync_request.has_value());
  scheduler.on_feedback(core::SyncReply{second.instance, second.sync_request->epoch, 0.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(PosgScheduler, RunStateUsesGreedyOnEstimatedLoads) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config, 1, 4.0));
  scheduler.on_feedback(make_shipment(1, config, 1, 4.0));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, 0.0});
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);

  // Both instances were billed one 4.0 tuple during SEND_ALL; the greedy
  // alternates, keeping the estimated loads within one tuple cost.
  for (common::SeqNo i = 2; i < 42; ++i) {
    scheduler.schedule(1, i);
    const auto& loads = scheduler.estimated_loads();
    EXPECT_LE(std::abs(loads[0] - loads[1]), 4.0 + 1e-9);
  }
}

TEST(PosgScheduler, EstimateMatchesTrainedCost) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config, 7, 12.0));
  scheduler.on_feedback(make_shipment(1, config, 7, 12.0));
  const auto estimate = scheduler.estimate(7);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 12.0, 1e-9);
}

TEST(PosgScheduler, UnseenItemFallsBackToGlobalMean) {
  auto config = test_config();
  config.epsilon = 0.001;  // wide sketch: cross-item collisions unlikely
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config, 7, 10.0));
  scheduler.on_feedback(make_shipment(1, config, 7, 20.0));
  const auto estimate = scheduler.estimate(424242);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 15.0, 1e-9);  // global mean over both shipments
}

TEST(PosgScheduler, NewShipmentRestartsSynchronization) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, 0.0});
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);

  // Fig. 3.F: new matrices in RUN -> back to SEND_ALL with a fresh epoch.
  scheduler.on_feedback(make_shipment(0, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  EXPECT_EQ(scheduler.epoch(), 2u);
}

TEST(PosgScheduler, SyncDisabledSkipsProtocol) {
  auto config = test_config();
  config.sync_enabled = false;
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  const Decision d = scheduler.schedule(1, 0);
  EXPECT_FALSE(d.sync_request.has_value());
  // Further shipments keep it in RUN.
  scheduler.on_feedback(make_shipment(1, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(PosgScheduler, PerInstanceBillingUsesTargetSketch) {
  auto config = test_config();
  config.shared_billing = false;
  config.epsilon = 0.001;
  PosgScheduler scheduler(2, config);
  // Instance 0 saw item 7 at 10 ms, instance 1 at 30 ms (non-uniform
  // instances).
  scheduler.on_feedback(make_shipment(0, config, 7, 10.0));
  scheduler.on_feedback(make_shipment(1, config, 7, 30.0));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(7, i);
    requests[d.instance] = *d.sync_request;
  }
  // During SEND_ALL, instance 0 was billed 10 and instance 1 was billed 30.
  EXPECT_NEAR(scheduler.estimated_loads()[0], 10.0, 1e-9);
  EXPECT_NEAR(scheduler.estimated_loads()[1], 30.0, 1e-9);
}

TEST(PosgScheduler, LatencyHintsBiasTheGreedyPick) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(make_shipment(op, config, 1, 2.0));
  }
  std::vector<core::SyncRequest> requests(3);
  for (common::SeqNo i = 0; i < 3; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);

  // All Ĉ equal (each instance was billed one 2.0 tuple). With hints, the
  // zero-latency instance must win the tie; without, instance 0 wins.
  scheduler.set_latency_hints({50.0, 0.0, 50.0});
  EXPECT_EQ(scheduler.schedule(1, 10).instance, 1u);

  EXPECT_THROW(scheduler.set_latency_hints({1.0}), std::invalid_argument);
  scheduler.set_latency_hints({});  // back to latency-oblivious
  EXPECT_TRUE(scheduler.latency_hints().empty());
}

TEST(PosgScheduler, LostReplyDoesNotStallScheduling) {
  // Failure injection: one instance never answers its marker (crashed or
  // partitioned). The scheduler stays in WAIT_ALL for that epoch but keeps
  // scheduling greedily — no tuple is ever blocked on the protocol.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  std::vector<core::SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  // Instance 1's reply is lost. Scheduling continues.
  for (common::SeqNo i = 2; i < 100; ++i) {
    EXPECT_LT(scheduler.schedule(1, i).instance, 2u);
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  // A later shipment restarts the protocol and unblocks the sync.
  scheduler.on_feedback(make_shipment(1, config));
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
}

TEST(PosgScheduler, RejectsInvalidMessages) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  EXPECT_THROW(scheduler.on_feedback(make_shipment(5, config)), std::invalid_argument);
  EXPECT_THROW(scheduler.on_feedback(core::SyncReply{9, 0, 0.0}), std::invalid_argument);
  auto wrong_layout = config;
  wrong_layout.epsilon = 0.7;
  auto shipment = make_shipment(0, wrong_layout);
  EXPECT_THROW(scheduler.on_feedback(shipment), std::invalid_argument);
}

/// Ships every instance a sketch of `cost` per tuple (which opens a fresh
/// epoch outside ROUND_ROBIN) and routes until every marker went out.
/// Returns the markers by instance.
std::vector<core::SyncRequest> open_epoch(PosgScheduler& scheduler, const PosgConfig& config,
                                          common::TimeMs cost = 2.0) {
  std::vector<core::SyncRequest> requests(scheduler.instances());
  for (common::InstanceId op = 0; op < scheduler.instances(); ++op) {
    scheduler.on_feedback(make_shipment(op, config, 1, cost));
  }
  for (common::SeqNo i = 0; scheduler.state() == PosgScheduler::State::kSendAll; ++i) {
    const Decision d = scheduler.schedule(1, i);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  return requests;
}

/// A SyncReply as the runtime's reader hands it over: through the codec.
core::SyncReply off_the_wire(const core::SyncReply& reply) {
  return std::get<core::SyncReply>(net::decode(net::encode(reply)));
}

TEST(PosgScheduler, NonFiniteDeltaFromTheWireIsRefused) {
  // Δ is peer input. Folded unchecked, a non-finite one completing an
  // epoch throws out of the noexcept drift sample (+inf: terminate) or
  // resets Ĉ to 0 (NaN, −inf). It must be refused with
  // std::invalid_argument, which the runtime's reader turns into a
  // quarantine, and change nothing.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  auto requests = open_epoch(scheduler, config);
  for (common::InstanceId op = 0; op < 2; ++op) {
    scheduler.on_feedback(off_the_wire(core::SyncReply{op, requests[op].epoch, 0.0}));
  }
  ASSERT_EQ(scheduler.epochs_completed(), 1u);  // later epochs feed drift samples

  requests = open_epoch(scheduler, config);
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  scheduler.on_feedback(off_the_wire(core::SyncReply{0, requests[0].epoch, 0.5}));
  const auto loads = scheduler.estimated_loads();
  for (const double delta : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(
        scheduler.on_feedback(off_the_wire(core::SyncReply{1, requests[1].epoch, delta})),
        std::invalid_argument);
    EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
    EXPECT_EQ(scheduler.estimated_loads(), loads);
  }
  scheduler.on_feedback(off_the_wire(core::SyncReply{1, requests[1].epoch, 0.5}));
  EXPECT_EQ(scheduler.epochs_completed(), 2u);
  scheduler.debug_validate();

  // A drain's final Δ comes off the wire too (DrainComplete).
  scheduler.begin_drain(0);
  EXPECT_THROW(scheduler.retire(0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_TRUE(scheduler.is_draining(0));
  scheduler.retire(0, 0.0);
  scheduler.debug_validate();
}

TEST(PosgScheduler, HugeDeltaFoldStaysFiniteThroughAQuarantine) {
  // A finite Δ off the wire can still be absurd. Folded unbounded, a Δ of
  // DBL_MAX left Ĉ = DBL_MAX, and a later sum over Ĉ overflowed: here two
  // instances report it, one of them again, and its quarantine hands half
  // its Ĉ to the other (the epoch's debug_validate aborted with "C_hat is
  // not finite"; a Release build went on scheduling with +∞). The fold is
  // clamped to kMaxFoldedLoad, so every Ĉ, and every sum of them, stays
  // finite.
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  const double huge = std::numeric_limits<double>::max();
  auto requests = open_epoch(scheduler, config);
  scheduler.on_feedback(off_the_wire(core::SyncReply{0, requests[0].epoch, 0.0}));
  scheduler.on_feedback(off_the_wire(core::SyncReply{1, requests[1].epoch, huge}));
  scheduler.on_feedback(off_the_wire(core::SyncReply{2, requests[2].epoch, huge}));
  ASSERT_EQ(scheduler.epochs_completed(), 1u);
  EXPECT_EQ(scheduler.estimated_loads()[1], PosgScheduler::kMaxFoldedLoad);
  EXPECT_EQ(scheduler.estimated_loads()[2], PosgScheduler::kMaxFoldedLoad);

  requests = open_epoch(scheduler, config);
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(
        off_the_wire(core::SyncReply{op, requests[op].epoch, op == 1 ? huge : 0.0}));
  }
  ASSERT_EQ(scheduler.epochs_completed(), 2u);
  EXPECT_EQ(scheduler.estimated_loads()[1], PosgScheduler::kMaxFoldedLoad);
  scheduler.mark_failed(1);
  double sum = 0.0;
  for (const double load : scheduler.estimated_loads()) {
    EXPECT_TRUE(std::isfinite(load));
    sum += load;
  }
  EXPECT_TRUE(std::isfinite(sum * 1e6));  // a sibling sum over a million sources
  scheduler.debug_validate();
}

TEST(PosgScheduler, HugeShippedWeightBillsStayFinite) {
  // The bill is Ĉ's other writer. A shipment off the wire only needs
  // finite cells, and every estimate reads the merged sketches, so one
  // instance's W cells at DBL_MAX bill ~DBL_MAX/F per tuple to whichever
  // instance takes it: unbounded, every Ĉ reached +∞ within a few hundred
  // tuples and greedy routing stopped reading Ĉ. The bill is clamped to
  // kMaxFoldedLoad, as the fold is.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  const double huge = std::numeric_limits<double>::max();
  core::SketchShipment absurd = make_shipment(1, config);
  for (sketch::FWCell& cell : absurd.sketch.cells_mutable()) {
    if (cell.f != 0) {
      cell.w = huge;
    }
  }
  absurd.sketch.restore_totals(absurd.sketch.update_count(), huge);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(std::get<core::SketchShipment>(net::decode(net::encode(absurd))));
  for (common::SeqNo seq = 0; seq < 512; ++seq) {
    (void)scheduler.schedule(seq % 7, seq);
  }
  ASSERT_NE(scheduler.state(), PosgScheduler::State::kRoundRobin);
  for (const double load : scheduler.estimated_loads()) {
    EXPECT_TRUE(std::isfinite(load));
    EXPECT_LE(load, PosgScheduler::kMaxFoldedLoad);
  }
  scheduler.debug_validate();
}

TEST(PosgScheduler, OverflowingDriftRatioFeedsNoSample) {
  // A finite Δ can still overflow (Ĉ_marker + Δ)/Ĉ_marker when Ĉ_marker is
  // below 1: the epoch completes and the health monitor sees no sample.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  auto requests = open_epoch(scheduler, config, 1e-3);
  for (common::InstanceId op = 0; op < 2; ++op) {
    scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
  }
  requests = open_epoch(scheduler, config, 1e-3);
  ASSERT_LT(requests[1].estimated_cumulated, 1.0);
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  scheduler.on_feedback(
      core::SyncReply{1, requests[1].epoch, std::numeric_limits<double>::max()});
  EXPECT_EQ(scheduler.epochs_completed(), 2u);
  EXPECT_EQ(scheduler.health().state(1), core::InstanceHealth::kLive);
  EXPECT_TRUE(std::isfinite(scheduler.estimated_loads()[1]));
  scheduler.debug_validate();
}

TEST(PosgScheduler, RejectsNonFiniteOrNegativeLatencyHints) {
  PosgScheduler scheduler(3, test_config());
  EXPECT_THROW(scheduler.set_latency_hints({0.0, std::numeric_limits<double>::infinity(), 0.0}),
               std::invalid_argument);
  EXPECT_THROW(scheduler.set_latency_hints({0.0, 0.0, std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(scheduler.set_latency_hints({-1.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_TRUE(scheduler.latency_hints().empty());
  scheduler.set_latency_hints({1.0, 0.0, 2.0});
  scheduler.debug_validate();
}

}  // namespace
