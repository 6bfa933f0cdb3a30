// Tests of the elastic-k layer (DESIGN.md §11): the ElasticController's
// predictive decision rule (POTUS-style backlog derivative, hysteresis,
// skew veto), the PosgScheduler's lossless drain/retire protocol, the
// simulator's autoscale mode (flash crowd vs. static provisioning,
// conservation, no flapping under gray faults), and the exact-threshold
// boundary of the neighbor elasticity leans on (HealthMonitor
// re-promotion).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/elastic.hpp"
#include "core/instance_health.hpp"
#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "core/round_robin.hpp"
#include "metrics/stats.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"

namespace {

using namespace posg;
using core::ElasticConfig;
using core::ElasticController;
using core::ElasticSample;
using core::InstanceTracker;
using core::PosgConfig;
using core::PosgScheduler;
using core::ScaleAction;
using sim::Simulator;

// ---------------------------------------------------------------------------
// ElasticController decision rule
// ---------------------------------------------------------------------------

ElasticConfig controller_config() {
  ElasticConfig config;
  config.enabled = true;
  config.min_instances = 1;
  config.max_instances = 8;
  config.up_backlog_per_instance = 100.0;
  config.down_backlog_per_instance = 10.0;
  config.up_hold = 2;
  config.down_hold = 3;
  config.cooldown_samples = 2;
  config.skew_veto = 2.5;
  return config;
}

ElasticSample make_sample(double backlog, std::size_t serving, double skew = 1.0) {
  ElasticSample sample;
  sample.backlog_ms = backlog;
  sample.queue_skew = skew;
  sample.serving = serving;
  return sample;
}

TEST(ElasticController, DisabledControllerNeverActs) {
  ElasticConfig config = controller_config();
  config.enabled = false;
  ElasticController controller(config);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(controller.on_sample(make_sample(1e6, 2)).kind, ScaleAction::Kind::kNone);
  }
  EXPECT_EQ(controller.samples(), 0u);
  EXPECT_EQ(controller.scale_ups(), 0u);
}

TEST(ElasticController, FirstSamplePrimesTheEwmas) {
  ElasticController controller(controller_config());
  controller.on_sample(make_sample(300.0, 2));
  EXPECT_DOUBLE_EQ(controller.backlog_ewma(), 300.0);
  EXPECT_DOUBLE_EQ(controller.backlog_derivative(), 0.0);
  EXPECT_DOUBLE_EQ(controller.predicted_backlog(), 300.0);
}

TEST(ElasticController, PredictorExtrapolatesARisingTrend) {
  // Linear ramp: the smoothed derivative turns positive and the predictor
  // looks ahead of the smoothed level, which itself lags the raw samples.
  ElasticConfig config = controller_config();
  config.up_backlog_per_instance = 1e9;  // observe the predictor, never act
  ElasticController controller(config);
  double backlog = 0.0;
  for (int i = 0; i < 10; ++i) {
    controller.on_sample(make_sample(backlog, 2));
    backlog += 100.0;
  }
  EXPECT_GT(controller.backlog_derivative(), 0.0);
  EXPECT_GT(controller.predicted_backlog(), controller.backlog_ewma());
  EXPECT_NEAR(controller.predicted_backlog(),
              controller.backlog_ewma() +
                  controller.backlog_derivative() * config.horizon_samples,
              1e-9);
}

TEST(ElasticController, PredictionNeverGoesNegative) {
  ElasticController controller(controller_config());
  controller.on_sample(make_sample(500.0, 2));
  for (int i = 0; i < 20; ++i) {
    controller.on_sample(make_sample(0.0, 2));
  }
  EXPECT_GE(controller.predicted_backlog(), 0.0);
}

TEST(ElasticController, ScaleUpWaitsForTheHoldStreak) {
  ElasticController controller(controller_config());
  // Overloaded sample (per-instance 300 >= 100), but a single one: the
  // up_hold = 2 hysteresis must not fire yet.
  EXPECT_EQ(controller.on_sample(make_sample(600.0, 2)).kind, ScaleAction::Kind::kNone);
  // A calm sample resets the streak...
  EXPECT_EQ(controller.on_sample(make_sample(30.0, 2)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(600.0, 2)).kind, ScaleAction::Kind::kNone);
  // ...so only the second *consecutive* breach acts.
  const ScaleAction action = controller.on_sample(make_sample(900.0, 2));
  EXPECT_EQ(action.kind, ScaleAction::Kind::kScaleUp);
  EXPECT_GT(action.predicted_backlog, 0.0);
  EXPECT_EQ(controller.scale_ups(), 1u);
}

TEST(ElasticController, CooldownQuietsTheLoopAfterAnAction) {
  ElasticController controller(controller_config());
  controller.on_sample(make_sample(600.0, 2));
  ASSERT_EQ(controller.on_sample(make_sample(600.0, 2)).kind, ScaleAction::Kind::kScaleUp);
  // cooldown_samples = 2: the next two overloaded samples are absorbed.
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 2)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 2)).kind, ScaleAction::Kind::kNone);
  // Then the hold streak must rebuild from scratch.
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 2)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 2)).kind, ScaleAction::Kind::kScaleUp);
  EXPECT_EQ(controller.scale_ups(), 2u);
}

TEST(ElasticController, SkewVetoHoldsWhenOneInstanceIsSick) {
  ElasticController controller(controller_config());
  // Deep overload, but max/mean backlog 3.0 >= skew_veto 2.5: one
  // straggler is deepening the skew, not the capacity gap. Never scale.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(controller.on_sample(make_sample(900.0, 3, 3.0)).kind, ScaleAction::Kind::kNone);
  }
  EXPECT_EQ(controller.scale_ups(), 0u);
  EXPECT_EQ(controller.skew_vetoes(), 20u);
  // The veto also resets the streak: one balanced sample is not enough.
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 3)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(900.0, 3)).kind, ScaleAction::Kind::kScaleUp);
}

TEST(ElasticController, RetireBypassesCooldownAndHolds) {
  ElasticController controller(controller_config());
  controller.on_sample(make_sample(600.0, 2));
  ASSERT_EQ(controller.on_sample(make_sample(600.0, 2)).kind, ScaleAction::Kind::kScaleUp);
  // Cooldown is active, but a drained instance is the tail of a decision
  // already made: retire it now, lowest id first.
  ElasticSample sample = make_sample(900.0, 3);
  sample.drained = {5, 3};
  const ScaleAction action = controller.on_sample(sample);
  EXPECT_EQ(action.kind, ScaleAction::Kind::kRetire);
  EXPECT_EQ(action.instance, 3u);
  EXPECT_EQ(controller.retires(), 1u);
}

TEST(ElasticController, DrainRequiresCalmTrendFloorAndNoOpenDrain) {
  ElasticController controller(controller_config());
  // down_hold = 3 consecutive idle samples drain one instance.
  EXPECT_EQ(controller.on_sample(make_sample(0.0, 3)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(0.0, 3)).kind, ScaleAction::Kind::kNone);
  EXPECT_EQ(controller.on_sample(make_sample(0.0, 3)).kind, ScaleAction::Kind::kDrain);
  EXPECT_EQ(controller.drains(), 1u);

  // With a drain still open the controller never stacks another.
  ElasticController busy(controller_config());
  ElasticSample draining = make_sample(0.0, 3);
  draining.draining = 1;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(busy.on_sample(draining).kind, ScaleAction::Kind::kNone);
  }

  // And never below the floor.
  ElasticConfig floor_config = controller_config();
  floor_config.min_instances = 3;
  ElasticController floored(floor_config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(floored.on_sample(make_sample(0.0, 3)).kind, ScaleAction::Kind::kNone);
  }
}

TEST(ElasticController, ScaleUpBlockedWhileANewcomerRamps) {
  ElasticController controller(controller_config());
  ElasticSample ramping = make_sample(600.0, 2);
  ramping.ramping = 1;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.on_sample(ramping).kind, ScaleAction::Kind::kNone);
  }
  // The streak was satisfied all along: capacity landing unblocks it.
  EXPECT_EQ(controller.on_sample(make_sample(600.0, 2)).kind, ScaleAction::Kind::kScaleUp);
}

TEST(ElasticController, RespectsTheCeiling) {
  ElasticConfig config = controller_config();
  config.max_instances = 3;
  ElasticController controller(config);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.on_sample(make_sample(900.0, 3)).kind, ScaleAction::Kind::kNone);
  }
}

TEST(ElasticController, ValidatesItsTunables) {
  ElasticConfig config = controller_config();
  config.ewma_alpha = 0.0;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
  config = controller_config();
  config.skew_veto = 1.0;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
  config = controller_config();
  config.down_backlog_per_instance = config.up_backlog_per_instance;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
  config = controller_config();
  config.min_instances = 0;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
  config = controller_config();
  config.max_instances = 2;
  config.min_instances = 3;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
  config = controller_config();
  config.up_hold = 0;
  EXPECT_THROW(ElasticController{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PosgScheduler lossless drain / retire
// ---------------------------------------------------------------------------

PosgConfig posg_test_config() {
  PosgConfig config;
  config.window = 4;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  return config;
}

core::SketchShipment make_shipment(common::InstanceId op, const PosgConfig& config) {
  InstanceTracker tracker(op, config);
  for (int i = 0; i < 1000; ++i) {
    if (auto shipment = tracker.on_executed(1, 2.0)) {
      return *shipment;
    }
  }
  throw std::logic_error("make_shipment: tracker never stabilized");
}

/// Drives a k-instance scheduler through one complete epoch into RUN.
void drive_to_run(PosgScheduler& scheduler, const PosgConfig& config, std::size_t k) {
  for (common::InstanceId op = 0; op < k; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<core::SyncRequest> requests(k);
  for (common::SeqNo i = 0; i < k; ++i) {
    const core::Decision d = scheduler.schedule(1, i);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  for (common::InstanceId op = 0; op < k; ++op) {
    scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(LosslessDrain, BeginDrainExcludesFromRoutingAndFreezesTheCut) {
  const auto config = posg_test_config();
  PosgScheduler scheduler(3, config);
  drive_to_run(scheduler, config, 3);
  for (common::SeqNo i = 0; i < 30; ++i) {
    scheduler.schedule(1 + i % 3, i);
  }
  const common::TimeMs cut = scheduler.begin_drain(1);
  EXPECT_DOUBLE_EQ(cut, scheduler.estimated_loads()[1]);
  EXPECT_TRUE(scheduler.is_draining(1));
  EXPECT_EQ(scheduler.serving_instances(), 2u);
  EXPECT_EQ(scheduler.draining_instances(), (std::vector<common::InstanceId>{1}));
  EXPECT_EQ(scheduler.drain_begin_count(), 1u);
  for (common::SeqNo i = 100; i < 160; ++i) {
    EXPECT_NE(scheduler.schedule(1 + i % 3, i).instance, 1u);
  }
  // The drainee's Ĉ stayed frozen at the cut while the survivors kept
  // billing.
  EXPECT_DOUBLE_EQ(scheduler.estimated_loads()[1], cut);
}

TEST(LosslessDrain, RetireBillsTheFinalDeltaOnceAndNeverRedistributes) {
  const auto config = posg_test_config();
  PosgScheduler scheduler(3, config);
  drive_to_run(scheduler, config, 3);
  for (common::SeqNo i = 0; i < 30; ++i) {
    scheduler.schedule(1 + i % 3, i);
  }
  const common::TimeMs cut = scheduler.begin_drain(1);
  const auto before = scheduler.estimated_loads();
  const common::TimeMs billed = scheduler.retire(1, 7.5);
  // Final Ĉ = cut + Δ, billed exactly once: the survivors' loads are
  // untouched (a crash would have redistributed — a drain must not, the
  // work truly ran).
  EXPECT_DOUBLE_EQ(billed, cut + 7.5);
  const auto after = scheduler.estimated_loads();
  EXPECT_DOUBLE_EQ(after[0], before[0]);
  EXPECT_DOUBLE_EQ(after[2], before[2]);
  EXPECT_EQ(scheduler.retire_count(), 1u);
  EXPECT_FALSE(scheduler.is_draining(1));
  // The retired slot is quarantined — and exactly that is the scale-up
  // path: rejoin() revives it with a seeded Ĉ and an admission ramp.
  scheduler.rejoin(1);
  EXPECT_EQ(scheduler.serving_instances(), 3u);
}

TEST(LosslessDrain, ANegativeFinalDeltaClampsAtZero) {
  // The instance measured less work than the frozen cut estimated (the
  // estimate ran hot): the final bill floors at zero, never negative.
  const auto config = posg_test_config();
  PosgScheduler scheduler(2, config);
  const common::TimeMs cut = scheduler.begin_drain(0);
  EXPECT_DOUBLE_EQ(cut, 0.0);  // ROUND_ROBIN: nothing billed yet
  EXPECT_GE(scheduler.retire(0, -5.0), 0.0);
}

TEST(LosslessDrain, ValidatesItsPreconditions) {
  const auto config = posg_test_config();
  PosgScheduler scheduler(3, config);
  EXPECT_THROW(scheduler.begin_drain(9), std::invalid_argument);   // out of range
  EXPECT_THROW(scheduler.retire(0, 0.0), std::invalid_argument);   // not draining
  scheduler.mark_failed(0);
  EXPECT_THROW(scheduler.begin_drain(0), std::invalid_argument);   // quarantined
  scheduler.begin_drain(1);
  EXPECT_THROW(scheduler.begin_drain(1), std::invalid_argument);   // already draining
  EXPECT_THROW(scheduler.begin_drain(2), std::invalid_argument);   // last serving
}

TEST(LosslessDrain, RoundRobinRotationSkipsDraining) {
  const auto config = posg_test_config();
  PosgScheduler scheduler(3, config);
  scheduler.begin_drain(1);
  for (common::SeqNo i = 0; i < 12; ++i) {
    EXPECT_NE(scheduler.schedule(7, i).instance, 1u);
  }
}

TEST(LosslessDrain, FailuresCancelDrainsWhenLivenessIsAtStake) {
  // Liveness beats planned elasticity: when every serving instance dies,
  // the draining survivor is pressed back into service.
  const auto config = posg_test_config();
  PosgScheduler scheduler(2, config);
  scheduler.begin_drain(0);
  ASSERT_EQ(scheduler.serving_instances(), 1u);
  scheduler.mark_failed(1);
  EXPECT_EQ(scheduler.drain_cancel_count(), 1u);
  EXPECT_FALSE(scheduler.is_draining(0));
  EXPECT_EQ(scheduler.serving_instances(), 1u);
  EXPECT_EQ(scheduler.schedule(7, 0).instance, 0u);
}

// ---------------------------------------------------------------------------
// Simulator autoscale mode
// ---------------------------------------------------------------------------

std::vector<common::Item> test_stream(std::size_t m) {
  std::vector<common::Item> stream(m);
  for (std::size_t i = 0; i < m; ++i) {
    stream[i] = (i * 37) % 64;
  }
  return stream;
}

common::TimeMs item_cost(common::Item item, common::InstanceId, common::SeqNo) {
  return 1.0 + static_cast<common::TimeMs>(item % 64);
}

Simulator::Config autoscale_config(std::size_t k, common::TimeMs inter_arrival) {
  Simulator::Config config;
  config.instances = k;
  config.inter_arrival = inter_arrival;
  config.data_latency = 0.0;
  config.control_latency = 1.0;
  config.posg.window = 32;
  config.posg.mu = 0.5;
  config.posg.max_windows_per_epoch = 2;
  config.elastic.enabled = true;
  config.elastic.min_instances = 1;
  config.elastic.max_instances = k;
  config.elastic_sample_period = 20.0;
  return config;
}

TEST(SimulatorElastic, FlashCrowdAutoscaleMeetsLatencyAtLowerCost) {
  // The acceptance benchmark (fixed seed, fully deterministic): a ×20
  // flash crowd against (a) autoscale from 2 of 6 instances and (b) static
  // peak provisioning (all 6 up the whole run). Autoscale must land within
  // 2× of static-peak p99 completion latency while spending strictly fewer
  // instance-milliseconds.
  const std::size_t k = 6;
  const auto stream = test_stream(4000);

  auto elastic_config = autoscale_config(k, 40.0);
  elastic_config.initial_instances = 2;
  elastic_config.elastic.up_backlog_per_instance = 120.0;
  elastic_config.elastic.down_backlog_per_instance = 10.0;
  elastic_config.elastic.up_hold = 2;
  elastic_config.elastic.cooldown_samples = 2;
  elastic_config.arrival_profile.kind = workload::ArrivalProfile::Kind::kFlashCrowd;
  elastic_config.arrival_profile.spike_factor = 20.0;
  elastic_config.arrival_profile.spike_start = 20'000.0;
  elastic_config.arrival_profile.spike_duration = 2'000.0;

  PosgScheduler elastic_scheduler(k, elastic_config.posg);
  Simulator elastic_sim(elastic_config, item_cost);
  const auto elastic = elastic_sim.run(stream, elastic_scheduler);

  auto static_config = autoscale_config(k, 40.0);
  static_config.elastic.enabled = false;
  static_config.arrival_profile = elastic_config.arrival_profile;
  PosgScheduler static_scheduler(k, static_config.posg);
  Simulator static_sim(static_config, item_cost);
  const auto fixed = static_sim.run(stream, static_scheduler);

  ASSERT_EQ(elastic.completions.size(), stream.size());
  ASSERT_EQ(fixed.completions.size(), stream.size());

  const double elastic_p99 = metrics::percentile(elastic.completions.values(), 0.99);
  const double static_p99 = metrics::percentile(fixed.completions.values(), 0.99);
  EXPECT_LE(elastic_p99, 2.0 * static_p99)
      << "autoscale p99 " << elastic_p99 << " vs static-peak p99 " << static_p99;

  // The whole point of elasticity: fewer instance-seconds than static
  // peak provisioning (which pays k × makespan by definition).
  EXPECT_DOUBLE_EQ(fixed.instance_ms, static_cast<double>(k) * fixed.makespan);
  EXPECT_LT(elastic.instance_ms, fixed.instance_ms);

  // The crowd forced real growth.
  const auto scaled_up = std::count_if(
      elastic.scale_log.begin(), elastic.scale_log.end(),
      [](const auto& event) { return event.action.kind == ScaleAction::Kind::kScaleUp; });
  EXPECT_GE(scaled_up, 1);
}

TEST(SimulatorElastic, ScaleDownDrainsLosslesslyAndRetires) {
  // Light steady load on 4 serving instances: the controller drains down
  // toward the floor, every drain is followed by a retirement, and not a
  // single tuple is lost or double-executed on the way.
  const std::size_t k = 4;
  const auto stream = test_stream(2000);
  auto config = autoscale_config(k, 60.0);
  config.elastic.up_backlog_per_instance = 500.0;
  config.elastic.down_backlog_per_instance = 40.0;
  config.elastic.down_hold = 4;
  PosgScheduler scheduler(k, config.posg);
  Simulator sim(config, item_cost);
  const auto result = sim.run(stream, scheduler);

  // Lossless: every injected tuple completed exactly once, and the total
  // executed work is exactly the stream's total cost.
  ASSERT_EQ(result.completions.size(), stream.size());
  double expected_work = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    expected_work += item_cost(stream[i], 0, i);
  }
  const double executed_work =
      std::accumulate(result.instance_work.begin(), result.instance_work.end(), 0.0);
  EXPECT_NEAR(executed_work, expected_work, 1e-6);

  std::size_t drains = 0;
  std::size_t retires = 0;
  for (const auto& event : result.scale_log) {
    if (event.action.kind == ScaleAction::Kind::kDrain) {
      ++drains;
    }
    if (event.action.kind == ScaleAction::Kind::kRetire) {
      ++retires;
      EXPECT_NE(event.action.instance, common::kNoInstance);
    }
  }
  EXPECT_GE(drains, 1u);
  EXPECT_EQ(drains, retires);  // every drain completed with a retirement
  EXPECT_EQ(scheduler.retire_count(), retires);
  // Fewer instance-seconds than static provisioning of the same run.
  EXPECT_LT(result.instance_ms, static_cast<double>(k) * result.makespan);
}

TEST(SimulatorElastic, GrayFaultStutterWithSteadyLoadNeverScales) {
  // No flapping: a steady, well-provisioned load where one instance
  // stutters (×8 cost in alternating windows). The stutter deepens the
  // queue *skew*, not the aggregate trend; the skew veto plus the floor
  // must keep the scale-action log empty.
  const std::size_t k = 3;
  const auto stream = test_stream(3000);
  auto config = autoscale_config(k, 15.0);
  config.elastic.min_instances = k;  // floor = current: drains are out
  config.elastic.up_backlog_per_instance = 200.0;
  config.elastic.skew_veto = 2.5;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Simulator sim(config, [](common::Item item, common::InstanceId op, common::SeqNo seq) {
    const double base = 1.0 + static_cast<double>(item % 64);
    const bool stutter_window = (seq / 200) % 2 == 1;
    return (op == 2 && stutter_window) ? base * 8.0 : base;
  });
  PosgScheduler scheduler(k, config.posg);
  const auto result = sim.run(stream, scheduler);
  ASSERT_EQ(result.completions.size(), stream.size());
  EXPECT_TRUE(result.scale_log.empty());
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("posg.sim.scale_ups"), 0u);
  EXPECT_EQ(snapshot.counters.at("posg.sim.drains"), 0u);
}

TEST(SimulatorElastic, AutoscaleRequiresAPosgScheduler) {
  const auto stream = test_stream(10);
  auto config = autoscale_config(2, 10.0);
  Simulator sim(config, item_cost);
  core::RoundRobinScheduler rr(2);
  EXPECT_THROW(sim.run(stream, rr), std::invalid_argument);
}

TEST(SimulatorElastic, StaticRunChargesExactlyKTimesMakespan) {
  auto config = autoscale_config(2, 10.0);
  config.elastic.enabled = false;
  Simulator sim(config, item_cost);
  PosgScheduler scheduler(2, config.posg);
  const auto result = sim.run(test_stream(200), scheduler);
  EXPECT_DOUBLE_EQ(result.instance_ms, 2.0 * result.makespan);
}

// ---------------------------------------------------------------------------
// Arrival profiles (workload/arrival.hpp)
// ---------------------------------------------------------------------------

TEST(ArrivalProfile, ConstantIsTheIdentity) {
  workload::ArrivalProfile profile;
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(0.0), 1.0);
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(12'345.6), 1.0);
}

TEST(ArrivalProfile, DiurnalPeaksAtAQuarterPeriod) {
  workload::ArrivalProfile profile;
  profile.kind = workload::ArrivalProfile::Kind::kDiurnal;
  profile.amplitude = 0.5;
  profile.period = 1000.0;
  profile.validate();
  EXPECT_NEAR(profile.rate_multiplier(0.0), 1.0, 1e-9);
  EXPECT_NEAR(profile.rate_multiplier(250.0), 1.5, 1e-9);   // sin peak
  EXPECT_NEAR(profile.rate_multiplier(750.0), 0.5, 1e-9);   // sin trough
  EXPECT_NEAR(profile.rate_multiplier(1250.0), 1.5, 1e-9);  // periodic
}

TEST(ArrivalProfile, FlashCrowdMultipliesOnlyInsideTheWindow) {
  workload::ArrivalProfile profile;
  profile.kind = workload::ArrivalProfile::Kind::kFlashCrowd;
  profile.spike_factor = 20.0;
  profile.spike_start = 100.0;
  profile.spike_duration = 50.0;
  profile.validate();
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(99.9), 1.0);
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(100.0), 20.0);
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(149.9), 20.0);
  EXPECT_DOUBLE_EQ(profile.rate_multiplier(150.0), 1.0);
}

TEST(ArrivalProfile, ValidatesItsParameters) {
  workload::ArrivalProfile diurnal;
  diurnal.kind = workload::ArrivalProfile::Kind::kDiurnal;
  diurnal.amplitude = 1.0;  // would let the rate touch zero
  EXPECT_THROW(diurnal.validate(), std::invalid_argument);
  diurnal.amplitude = 0.5;
  diurnal.period = 0.0;
  EXPECT_THROW(diurnal.validate(), std::invalid_argument);
  workload::ArrivalProfile flash;
  flash.kind = workload::ArrivalProfile::Kind::kFlashCrowd;
  flash.spike_factor = 0.0;
  EXPECT_THROW(flash.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Boundary behavior of the degradation-layer neighbors
// ---------------------------------------------------------------------------

TEST(HealthBoundary, RePromotionFiresAtExactlyThePromoteThreshold) {
  using Monitor = core::HealthMonitor;  // kPromoteEpochs = 2
  Monitor monitor(2);
  // Exactly at kDegradeDrift counts toward degradation ("at or above").
  monitor.on_epoch_drift(0, Monitor::kDegradeDrift);
  monitor.on_epoch_drift(0, Monitor::kDegradeDrift);
  ASSERT_EQ(monitor.state(0), core::InstanceHealth::kDegraded);
  // Exactly at kPromoteDrift counts as calm ("at or below") — but one
  // calm epoch is not enough.
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift);
  EXPECT_EQ(monitor.state(0), core::InstanceHealth::kDegraded);
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift);
  EXPECT_EQ(monitor.state(0), core::InstanceHealth::kLive);
  EXPECT_EQ(monitor.promotions(), 1u);
  EXPECT_DOUBLE_EQ(monitor.derate(0), 1.0);  // full billing restored
}

TEST(HealthBoundary, AnEpochJustAboveThePromoteThresholdResetsTheCalmStreak) {
  using Monitor = core::HealthMonitor;
  Monitor monitor(1);
  monitor.on_epoch_drift(0, Monitor::kDegradeDrift);
  monitor.on_epoch_drift(0, Monitor::kDegradeDrift);
  ASSERT_EQ(monitor.state(0), core::InstanceHealth::kDegraded);
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift);
  // Nudge just above promote (still below suspect): ambiguous, streak
  // resets — the two calm epochs must be *consecutive*.
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift + 1e-9);
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift);
  EXPECT_EQ(monitor.state(0), core::InstanceHealth::kDegraded);
  monitor.on_epoch_drift(0, Monitor::kPromoteDrift);
  EXPECT_EQ(monitor.state(0), core::InstanceHealth::kLive);
}

}  // namespace
