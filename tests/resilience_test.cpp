// Tests of the graceful-degradation layer: the HealthMonitor straggler
// state machine, the OverloadController watermark hysteresis, de-rated
// billing shares, the rejoin admission ramp, stale-Δ isolation after a
// rejoin, and load-shedding conservation in the engine. The deterministic
// full-arc test (slowed → de-rated → quarantined → rejoined → ramped back
// to fair share) is the core-level counterpart of runtime_test.cpp's
// wire-level rejoin arc.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "core/instance_health.hpp"
#include "core/instance_tracker.hpp"
#include "core/overload.hpp"
#include "core/posg_scheduler.hpp"
#include "engine/builtin.hpp"
#include "engine/engine.hpp"
#include "metrics/stats.hpp"

namespace {

using namespace posg;
using core::Decision;
using core::HealthMonitor;
using core::InstanceHealth;
using core::InstanceTracker;
using core::OverloadConfig;
using core::OverloadController;
using core::PosgConfig;
using core::PosgScheduler;
using core::SyncRequest;

PosgConfig test_config() {
  PosgConfig config;
  config.window = 4;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  return config;
}

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

// ---------------------------------------------------------------------------
// HealthMonitor: the Live/Suspect/Degraded/Quarantined state machine.
// ---------------------------------------------------------------------------

TEST(HealthMonitor, DriftLadderDegradesAndRepromotesWithHysteresis) {
  HealthMonitor monitor(2);  // kDegradeEpochs = kPromoteEpochs = 2

  EXPECT_EQ(monitor.state(0), InstanceHealth::kLive);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);

  // One hot epoch: Suspect, but no de-rate yet (only Degraded bills extra).
  monitor.on_epoch_drift(0, 2.5);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kSuspect);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);

  // Second consecutive hot epoch: Degraded, de-rate = smoothed drift
  // (EWMA alpha 0.5 over 1.0, 2.5, 2.5).
  monitor.on_epoch_drift(0, 2.5);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kDegraded);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 2.125);

  // One calm epoch is not enough (hysteresis): still Degraded, de-rate
  // decays with the EWMA.
  monitor.on_epoch_drift(0, 1.0);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kDegraded);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.5625);

  // Second calm epoch: re-promoted, billing restored to exactly 1.0.
  monitor.on_epoch_drift(0, 1.0);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kLive);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);

  // The other instance never moved.
  EXPECT_EQ(monitor.state(1), InstanceHealth::kLive);
  EXPECT_EQ(monitor.suspect_transitions(), 1u);
  EXPECT_EQ(monitor.degraded_transitions(), 1u);
  EXPECT_EQ(monitor.promotions(), 1u);
  monitor.debug_validate();
}

TEST(HealthMonitor, SuspectRecoversWithoutDegrading) {
  HealthMonitor monitor(1);
  monitor.on_epoch_drift(0, 1.6);  // >= kSuspectDrift, < kDegradeDrift
  EXPECT_EQ(monitor.state(0), InstanceHealth::kSuspect);
  monitor.on_epoch_drift(0, 1.0);  // one calm epoch clears a mere suspicion
  EXPECT_EQ(monitor.state(0), InstanceHealth::kLive);
  EXPECT_EQ(monitor.suspect_transitions(), 1u);
  EXPECT_EQ(monitor.degraded_transitions(), 0u);
  EXPECT_EQ(monitor.promotions(), 1u);
}

TEST(HealthMonitor, AmbiguousDriftResetsTheCalmStreak) {
  HealthMonitor monitor(1);
  monitor.on_epoch_drift(0, 2.5);
  monitor.on_epoch_drift(0, 2.5);
  ASSERT_EQ(monitor.state(0), InstanceHealth::kDegraded);

  monitor.on_epoch_drift(0, 1.0);  // calm streak 1
  monitor.on_epoch_drift(0, 1.3);  // between promote (1.2) and suspect (1.5): resets the streak
  EXPECT_EQ(monitor.state(0), InstanceHealth::kDegraded);
  monitor.on_epoch_drift(0, 1.0);  // calm streak 1 again — still not enough
  EXPECT_EQ(monitor.state(0), InstanceHealth::kDegraded);
  monitor.on_epoch_drift(0, 1.0);  // calm streak 2: promoted
  EXPECT_EQ(monitor.state(0), InstanceHealth::kLive);
  EXPECT_EQ(monitor.promotions(), 1u);
}

TEST(HealthMonitor, StaleFeedbackAndQueueSkewRaiseSuspicion) {
  HealthMonitor stale(2);
  stale.note_stale_feedback(1);
  EXPECT_EQ(stale.state(1), InstanceHealth::kSuspect);
  EXPECT_EQ(stale.state(0), InstanceHealth::kLive);
  EXPECT_EQ(stale.suspect_transitions(), 1u);

  // Queue skew: one instance at 0.9 occupancy against a 0.1 cluster
  // background exceeds both the skew multiple and the absolute floor.
  HealthMonitor skew(3);
  skew.note_queue_depth(1, 0.1);
  skew.note_queue_depth(2, 0.1);
  skew.note_queue_depth(0, 0.9);
  EXPECT_EQ(skew.state(0), InstanceHealth::kSuspect);
  EXPECT_EQ(skew.state(1), InstanceHealth::kLive);

  // A skewed-but-shallow queue (below kQueueFloor) is not a signal.
  HealthMonitor shallow(3);
  shallow.note_queue_depth(1, 0.01);
  shallow.note_queue_depth(2, 0.01);
  shallow.note_queue_depth(0, 0.2);
  EXPECT_EQ(shallow.state(0), InstanceHealth::kLive);
}

TEST(HealthMonitor, QuarantineFreezesAndRejoinResets) {
  HealthMonitor monitor(2);
  monitor.on_epoch_drift(0, 2.5);
  monitor.on_epoch_drift(0, 2.5);
  ASSERT_EQ(monitor.state(0), InstanceHealth::kDegraded);
  ASSERT_GT(monitor.derate(0), 1.0);

  monitor.on_quarantined(0);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kQuarantined);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);  // quarantined instances are not billed at all
  monitor.on_epoch_drift(0, 5.0);            // late drift for a quarantined id is ignored
  EXPECT_EQ(monitor.state(0), InstanceHealth::kQuarantined);

  monitor.on_rejoined(0);
  EXPECT_EQ(monitor.state(0), InstanceHealth::kLive);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);
  monitor.debug_validate();
}

// ---------------------------------------------------------------------------
// OverloadController: watermark hysteresis over scripted samples.
// ---------------------------------------------------------------------------

std::vector<bool> run_overload_script(OverloadController& controller,
                                      const std::vector<double>& samples) {
  std::vector<bool> states;
  states.reserve(samples.size());
  for (double s : samples) {
    states.push_back(controller.sample(s));
  }
  return states;
}

TEST(OverloadController, WatermarkHysteresisOverScriptedSamples) {
  OverloadConfig config;
  config.enabled = true;
  config.high_watermark = 0.9;
  config.low_watermark = 0.5;
  config.deadline_samples = 3;
  OverloadController controller(config);

  // Two saturated samples then relief: the streak resets, no entry.
  EXPECT_FALSE(controller.sample(0.95));
  EXPECT_FALSE(controller.sample(0.95));
  EXPECT_FALSE(controller.sample(0.3));
  EXPECT_EQ(controller.entries(), 0u);

  // Three consecutive saturated samples: shed mode engages.
  EXPECT_FALSE(controller.sample(0.95));
  EXPECT_FALSE(controller.sample(1.0));
  EXPECT_TRUE(controller.sample(0.92));
  EXPECT_TRUE(controller.shedding());
  EXPECT_EQ(controller.entries(), 1u);

  // Hysteresis: dropping below high but above low keeps shedding.
  EXPECT_TRUE(controller.sample(0.7));
  // At or below low: exit.
  EXPECT_FALSE(controller.sample(0.5));
  EXPECT_EQ(controller.exits(), 1u);

  // Re-entry requires a fresh full streak.
  EXPECT_FALSE(controller.sample(0.95));
  EXPECT_FALSE(controller.sample(0.95));
  EXPECT_TRUE(controller.sample(0.95));
  EXPECT_EQ(controller.entries(), 2u);

  controller.note_shed(5);
  controller.note_shed(3);
  EXPECT_EQ(controller.shed(), 8u);
  controller.debug_validate();
}

TEST(OverloadController, ScriptedSequenceIsReproducible) {
  OverloadConfig config;
  config.enabled = true;
  config.high_watermark = 0.8;
  config.low_watermark = 0.4;
  config.deadline_samples = 2;
  const std::vector<double> script{0.9, 0.85, 0.6, 0.3, 0.9, 0.9, 0.95, 0.4, 0.81, 0.81};

  OverloadController a(config);
  OverloadController b(config);
  EXPECT_EQ(run_overload_script(a, script), run_overload_script(b, script));
  EXPECT_EQ(a.entries(), b.entries());
  EXPECT_EQ(a.exits(), b.exits());
  EXPECT_EQ(a.entries(), 3u);
  EXPECT_EQ(a.exits(), 2u);

  OverloadConfig off;  // disabled: always Normal, regardless of saturation
  OverloadController inert(off);
  EXPECT_FALSE(inert.sample(1.0));
  EXPECT_FALSE(inert.shedding());
}

// ---------------------------------------------------------------------------
// De-rated billing: a Degraded instance receives proportionally fewer
// tuples while staying in rotation.
// ---------------------------------------------------------------------------

TEST(Derate, SkewsGreedySharesAwayFromDegradedInstance) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  for (common::InstanceId op = 0; op < 2; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  for (common::InstanceId op = 0; op < 2; ++op) {
    scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);

  // Bill instance 1 at 4x: with uniform per-tuple cost the greedy argmin
  // settles on a 4:1 split (instance 1 gets ~1/5 of the stream).
  scheduler.set_derate(1, 4.0);
  std::array<std::uint64_t, 2> counts{0, 0};
  for (common::SeqNo i = 0; i < 500; ++i) {
    ++counts[scheduler.schedule(1, 2 + i).instance];
  }
  EXPECT_GT(counts[1], 0u);  // de-rated, not quarantined: it stays in rotation
  EXPECT_NEAR(static_cast<double>(counts[1]), 100.0, 10.0);
  EXPECT_GT(counts[0], 3 * counts[1]);
  scheduler.debug_validate();
}

// ---------------------------------------------------------------------------
// Full arc: slowed → Suspect → Degraded (de-rated) → quarantined →
// rejoined (seeded Ĉ, admission ramp) → back to fair share. Deterministic:
// two runs produce identical scheduling streams.
// ---------------------------------------------------------------------------

/// Runs one synchronization epoch: a fresh shipment opens SEND_ALL, the
/// markers go out round-robin, and each live instance replies with
/// Δ = (ratio − 1) × Ĉ_marker, i.e. a measured-over-billed drift of
/// exactly `ratio` (1.0 when absent from `ratios`).
void run_epoch(PosgScheduler& scheduler, const PosgConfig& config,
               const std::map<common::InstanceId, double>& ratios, common::SeqNo& seq,
               std::vector<common::InstanceId>* trace = nullptr) {
  const std::size_t k = scheduler.instances();
  // Every live instance re-ships; the last shipment's SEND_ALL epoch is the
  // one the markers below belong to (replies quote the marker's epoch).
  for (common::InstanceId op = 0; op < k; ++op) {
    if (!scheduler.is_failed(op)) {
      scheduler.on_feedback(make_shipment(op, config));
    }
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  std::vector<std::optional<SyncRequest>> requests(k);
  std::size_t guard = 0;
  while (scheduler.state() == PosgScheduler::State::kSendAll && guard++ < 4 * k) {
    const Decision d = scheduler.schedule(1, seq++);
    if (trace != nullptr) {
      trace->push_back(d.instance);
    }
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  for (common::InstanceId op = 0; op < k; ++op) {
    if (!requests[op].has_value()) {
      continue;
    }
    const auto it = ratios.find(op);
    const double ratio = it == ratios.end() ? 1.0 : it->second;
    const common::TimeMs delta = (ratio - 1.0) * requests[op]->estimated_cumulated;
    scheduler.on_feedback(core::SyncReply{op, requests[op]->epoch, delta});
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

struct ArcTrace {
  std::vector<common::InstanceId> assignments;
  std::vector<common::TimeMs> final_loads;
  double derate_at_degrade = 0.0;
};

ArcTrace run_full_arc() {
  auto config = test_config();
  config.rejoin_ramp.ramp_tuples = 40;
  config.rejoin_ramp.tokens_per_tuple = 0.25;
  config.rejoin_ramp.burst = 4.0;
  const std::size_t k = 3;
  PosgScheduler scheduler(k, config);
  ArcTrace trace;
  common::SeqNo seq = 0;

  const auto schedule_n = [&](std::size_t n, std::array<std::uint64_t, 3>& counts) {
    counts = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      const common::InstanceId target = scheduler.schedule(1, seq++).instance;
      ++counts[target];
      trace.assignments.push_back(target);
    }
  };

  // Bootstrap (epoch 1): all healthy.
  run_epoch(scheduler, config, {}, seq, &trace.assignments);
  for (common::InstanceId op = 0; op < k; ++op) {
    EXPECT_EQ(scheduler.health().state(op), InstanceHealth::kLive);
  }

  // Epochs 2 and 3: instance 1 measures 2.5x slower than billed. One hot
  // epoch raises suspicion; the second degrades and de-rates it.
  run_epoch(scheduler, config, {{1, 2.5}}, seq, &trace.assignments);
  EXPECT_EQ(scheduler.health().state(1), InstanceHealth::kSuspect);
  EXPECT_DOUBLE_EQ(scheduler.derate(1), 1.0);
  run_epoch(scheduler, config, {{1, 2.5}}, seq, &trace.assignments);
  EXPECT_EQ(scheduler.health().state(1), InstanceHealth::kDegraded);
  EXPECT_GT(scheduler.derate(1), 1.0);
  trace.derate_at_degrade = scheduler.derate(1);

  // While Degraded the straggler stays in rotation but on a reduced share.
  std::array<std::uint64_t, 3> counts{};
  schedule_n(300, counts);
  EXPECT_GT(counts[1], 0u);
  EXPECT_LT(counts[1], counts[0]);
  EXPECT_LT(counts[1], counts[2]);

  // The straggler dies outright: quarantined, out of rotation.
  scheduler.mark_failed(1);
  EXPECT_EQ(scheduler.health().state(1), InstanceHealth::kQuarantined);
  EXPECT_EQ(scheduler.live_instances(), 2u);
  schedule_n(50, counts);
  EXPECT_EQ(counts[1], 0u);

  // Rejoin: Ĉ seeded from the live minimum, health reset, ramp armed.
  const auto loads_before = scheduler.estimated_loads();
  const common::TimeMs seed_expected = std::min(loads_before[0], loads_before[2]);
  scheduler.rejoin(1);
  EXPECT_EQ(scheduler.rejoin_count(), 1u);
  EXPECT_EQ(scheduler.health().state(1), InstanceHealth::kLive);
  EXPECT_DOUBLE_EQ(scheduler.derate(1), 1.0);
  EXPECT_DOUBLE_EQ(scheduler.estimated_loads()[1], seed_expected);
  EXPECT_EQ(scheduler.ramp_remaining(1), 40u);

  // Admission ramp: the token bucket throttles the rejoiner until it has
  // been admitted ramp_tuples times, then reports completion exactly once.
  std::size_t ramp_guard = 0;
  while (scheduler.ramp_remaining(1) > 0 && ramp_guard++ < 2000) {
    trace.assignments.push_back(scheduler.schedule(1, seq++).instance);
  }
  EXPECT_EQ(scheduler.ramp_remaining(1), 0u);
  EXPECT_EQ(scheduler.take_ramp_completions(), (std::vector<common::InstanceId>{1}));
  EXPECT_TRUE(scheduler.take_ramp_completions().empty());

  // Tail: with uniform costs and no de-rate the rejoiner's share settles
  // within 10% of fair (the ISSUE's recovery acceptance bound).
  schedule_n(3000, counts);
  EXPECT_NEAR(static_cast<double>(counts[1]), 1000.0, 100.0);

  scheduler.debug_validate();
  trace.final_loads = scheduler.estimated_loads();
  return trace;
}

TEST(FullArc, StragglerIsDeratedQuarantinedRejoinedAndRecovers) {
  const ArcTrace first = run_full_arc();
  EXPECT_GT(first.derate_at_degrade, 1.0);
  EXPECT_LE(first.derate_at_degrade, 8.0);

  // Byte-for-byte determinism: the same signal sequence reproduces the
  // same scheduling stream and the same final accounting.
  const ArcTrace second = run_full_arc();
  EXPECT_EQ(first.assignments, second.assignments);
  EXPECT_EQ(first.final_loads, second.final_loads);
  EXPECT_DOUBLE_EQ(first.derate_at_degrade, second.derate_at_degrade);
}

// ---------------------------------------------------------------------------
// Drift after bootstrap: ROUND_ROBIN bills nothing, so the first marker's
// Ĉ covers only the SEND_ALL tuples while a true Δ covers every tuple
// since start. That ratio is no drift and must not raise suspicion.
// ---------------------------------------------------------------------------

TEST(FullArc, TrueDeltasAfterRoundRobinKeepHealthyInstancesLive) {
  const auto config = test_config();
  const std::size_t k = 3;
  constexpr common::TimeMs kCost = 2.0;  // make_shipment's per-tuple cost, so sketches are exact
  PosgScheduler scheduler(k, config);
  std::vector<common::TimeMs> true_cost(k, 0.0);
  common::SeqNo seq = 0;
  const auto route = [&] {
    const Decision d = scheduler.schedule(1, seq++);
    true_cost[d.instance] += kCost;
    return d;
  };

  for (int i = 0; i < 300; ++i) {
    route();  // ROUND_ROBIN: routed and executed, never billed
  }
  constexpr int kEpochs = 4;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (common::InstanceId op = 0; op < k; ++op) {
      scheduler.on_feedback(make_shipment(op, config));
    }
    ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
    // The runtime's tracker answers a marker with Δ = C − Ĉ, C being the
    // true cost executed up to and including the marker's tuple.
    std::vector<core::SyncReply> replies;
    for (std::size_t guard = 0; scheduler.state() == PosgScheduler::State::kSendAll; ++guard) {
      ASSERT_LT(guard, 4 * k);
      const Decision d = route();
      if (d.sync_request) {
        replies.push_back(core::SyncReply{d.instance, d.sync_request->epoch,
                                          true_cost[d.instance] -
                                              d.sync_request->estimated_cumulated});
      }
    }
    for (const core::SyncReply& reply : replies) {
      scheduler.on_feedback(reply);
    }
    ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);
    for (common::InstanceId op = 0; op < k; ++op) {
      EXPECT_EQ(scheduler.health().state(op), InstanceHealth::kLive)
          << "instance " << op << " after epoch " << epoch + 1;
    }
    for (int i = 0; i < 300; ++i) {
      route();
    }
  }
  EXPECT_EQ(scheduler.epochs_completed(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(scheduler.health().suspect_transitions(), 0u);
  scheduler.debug_validate();
}

// ---------------------------------------------------------------------------
// Rejoin racing an in-flight epoch: a Δ from before the quarantine must
// land on the stale path, not on the freshly seeded Ĉ.
// ---------------------------------------------------------------------------

TEST(Rejoin, StaleDeltaFromBeforeQuarantineCannotCorruptSeededLoad) {
  const auto config = test_config();
  const std::size_t k = 3;
  PosgScheduler scheduler(k, config);
  common::SeqNo seq = 0;
  run_epoch(scheduler, config, {}, seq);

  // Open epoch 2 and push all markers out.
  scheduler.on_feedback(make_shipment(0, config));
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  std::vector<std::optional<SyncRequest>> requests(k);
  while (scheduler.state() == PosgScheduler::State::kSendAll) {
    const Decision d = scheduler.schedule(1, seq++);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  ASSERT_TRUE(requests[1].has_value());
  const common::Epoch epoch = requests[1]->epoch;

  scheduler.on_feedback(core::SyncReply{0, epoch, 0.0});
  scheduler.mark_failed(1);  // its reply is now abandoned
  scheduler.rejoin(1);       // re-admitted mid-epoch, re-armed as replied
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);

  const auto loads_at_rejoin = scheduler.estimated_loads();
  const auto stale_before = scheduler.stale_reply_count();

  // The pre-quarantine Δ finally arrives — late, huge, and for the very
  // epoch that is still in flight. It must be counted and discarded.
  scheduler.on_feedback(core::SyncReply{1, epoch, 1e6});
  EXPECT_EQ(scheduler.stale_reply_count(), stale_before + 1);
  EXPECT_EQ(scheduler.estimated_loads(), loads_at_rejoin);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);

  // The remaining survivor's reply completes the epoch; the rejoiner's
  // seeded Ĉ enters the correction with Δ = 0.
  scheduler.on_feedback(core::SyncReply{2, epoch, 0.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  EXPECT_DOUBLE_EQ(scheduler.estimated_loads()[1], loads_at_rejoin[1]);
  scheduler.debug_validate();
}

// ---------------------------------------------------------------------------
// Engine load shedding: sustained overload drops (and counts) tuples
// instead of stalling the spout; every emitted tuple is either executed or
// counted as shed.
// ---------------------------------------------------------------------------

/// Spout emitting `count` tuples as fast as possible (sustained overload
/// against a slow bolt).
class FloodSpout final : public engine::Spout {
 public:
  explicit FloodSpout(std::size_t count) : count_(count) {}
  bool next(engine::OutputCollector& collector) override {
    if (emitted_ >= count_) {
      return false;
    }
    engine::Tuple tuple;
    tuple.item = emitted_ % 8;
    collector.emit(std::move(tuple));
    ++emitted_;
    return true;
  }

 private:
  std::size_t count_;
  std::size_t emitted_ = 0;
};

TEST(EngineOverload, SustainedOverloadShedsAndConservesEveryTuple) {
  const std::size_t m = 4000;
  engine::TopologyBuilder builder;
  builder.add_spout("src", [m](const engine::ComponentContext&) {
    return std::make_unique<FloodSpout>(m);
  });
  builder.add_bolt("slow",
                   [](const engine::ComponentContext&) {
                     return std::make_unique<engine::SleepBolt>(
                         [](common::Item, common::InstanceId, common::SeqNo) { return 0.1; });
                   },
                   2, {{"src", std::make_shared<engine::ShuffleGrouping>()}});

  engine::EngineConfig config;
  config.queue_capacity = 8;
  config.overload.enabled = true;
  config.overload.high_watermark = 0.75;
  config.overload.low_watermark = 0.25;
  config.overload.deadline_samples = 2;

  engine::Engine eng(builder.build(), config);
  eng.run();
  const auto stats = eng.stats("slow");

  // A flood against a 0.1 ms/tuple bolt behind depth-8 queues must shed.
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GE(stats.shed_entries, 1u);
  EXPECT_GE(stats.shed_entries, stats.shed_exits);
  // Conservation: every spout emission was either executed or counted shed.
  EXPECT_EQ(stats.executed + stats.shed, m);
  EXPECT_EQ(stats.errors, 0u);
  // Completions are recorded for executed tuples only.
  EXPECT_EQ(eng.completions().count(), stats.executed);

  // The counters surface through the shared resilience report.
  metrics::ResilienceStats report;
  report.tuples_shed = stats.shed;
  report.shed_entries = stats.shed_entries;
  report.shed_exits = stats.shed_exits;
  report.derate = {1.0, 1.0};
  const std::string line = report.summary();
  EXPECT_NE(line.find("shed=" + std::to_string(stats.shed)), std::string::npos);
  EXPECT_NE(line.find("derate=[1 1]"), std::string::npos);
}

TEST(ResilienceStats, SummaryMentionsEveryCounter) {
  metrics::ResilienceStats stats;
  stats.tuples_shed = 12;
  stats.shed_entries = 3;
  stats.shed_exits = 2;
  stats.rejoins = 1;
  stats.suspect_transitions = 4;
  stats.degraded_transitions = 2;
  stats.promotions = 2;
  stats.derate = {1.0, 2.5};
  const std::string line = stats.summary();
  EXPECT_NE(line.find("shed=12 (entries=3 exits=2)"), std::string::npos);
  EXPECT_NE(line.find("rejoins=1"), std::string::npos);
  EXPECT_NE(line.find("suspect=4"), std::string::npos);
  EXPECT_NE(line.find("degraded=2"), std::string::npos);
  EXPECT_NE(line.find("promoted=2"), std::string::npos);
  EXPECT_NE(line.find("derate=[1 2.5]"), std::string::npos);
}

}  // namespace
