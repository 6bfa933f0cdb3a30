// Unit + integration tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/full_knowledge.hpp"
#include "core/reactive_jsq.hpp"
#include "core/posg_scheduler.hpp"
#include "core/round_robin.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace posg;
using core::FullKnowledgeScheduler;
using core::PosgScheduler;
using core::RoundRobinScheduler;
using sim::Simulator;

Simulator::Config basic_config(std::size_t k, common::TimeMs inter_arrival) {
  Simulator::Config config;
  config.instances = k;
  config.inter_arrival = inter_arrival;
  config.data_latency = 0.0;
  config.control_latency = 1.0;
  return config;
}

TEST(Simulator, PaperWorkedExampleRoundRobin) {
  // Sec. II: stream a0, b1, a2 with inter-arrival 1 s, wa = 10 s, wb = 1 s,
  // k = 2. Round-robin: a0 -> 1, b1 -> 2, a2 -> 1; cumulated completion
  // 10 + 1 + (10 + 8) = 29 s (a2 waits 8 s in instance 1's queue).
  const std::vector<common::Item> stream{0, 1, 0};  // item 0 = a, item 1 = b
  Simulator sim(basic_config(2, 1000.0),
                [](common::Item item, common::InstanceId, common::SeqNo) {
                  return item == 0 ? 10'000.0 : 1'000.0;
                });
  RoundRobinScheduler rr(2);
  const auto result = sim.run(stream, rr);
  EXPECT_DOUBLE_EQ(result.completions.at(0), 10'000.0);
  EXPECT_DOUBLE_EQ(result.completions.at(1), 1'000.0);
  EXPECT_DOUBLE_EQ(result.completions.at(2), 18'000.0);  // 8 s queued + 10 s
  const double cumulated =
      result.completions.at(0) + result.completions.at(1) + result.completions.at(2);
  EXPECT_DOUBLE_EQ(cumulated, 29'000.0);
}

TEST(Simulator, PaperWorkedExampleBetterSchedule) {
  // The better schedule from Sec. II: a0 -> 1, b1 and a2 -> 2, cumulated
  // completion 10 + 1 + 10 = 21 s. Full knowledge greedy finds it.
  const std::vector<common::Item> stream{0, 1, 0};
  Simulator sim(basic_config(2, 1000.0),
                [](common::Item item, common::InstanceId, common::SeqNo) {
                  return item == 0 ? 10'000.0 : 1'000.0;
                });
  FullKnowledgeScheduler fk(2, [](common::Item item, common::InstanceId, common::SeqNo) {
    return item == 0 ? 10'000.0 : 1'000.0;
  });
  const auto result = sim.run(stream, fk);
  const double cumulated =
      result.completions.at(0) + result.completions.at(1) + result.completions.at(2);
  EXPECT_DOUBLE_EQ(cumulated, 21'000.0);
}

TEST(Simulator, SingleInstanceQueueingMath) {
  // One instance, tuples of 5 ms arriving every 2 ms: tuple i starts at
  // max(2i, 5i) and completes at 5(i+1); completion = 5(i+1) - 2i.
  const std::vector<common::Item> stream{0, 0, 0, 0};
  Simulator sim(basic_config(1, 2.0),
                [](common::Item, common::InstanceId, common::SeqNo) { return 5.0; });
  RoundRobinScheduler rr(1);
  const auto result = sim.run(stream, rr);
  for (common::SeqNo i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result.completions.at(i), 5.0 * static_cast<double>(i + 1) -
                                                   2.0 * static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
}

TEST(Simulator, DataLatencyAddsToCompletion) {
  auto config = basic_config(1, 100.0);
  config.data_latency = 3.0;
  const std::vector<common::Item> stream{0};
  Simulator sim(config, [](common::Item, common::InstanceId, common::SeqNo) { return 5.0; });
  RoundRobinScheduler rr(1);
  const auto result = sim.run(stream, rr);
  EXPECT_DOUBLE_EQ(result.completions.at(0), 8.0);
}

TEST(Simulator, RecordsEveryTuple) {
  const std::size_t m = 5000;
  std::vector<common::Item> stream(m);
  std::iota(stream.begin(), stream.end(), common::Item{0});
  Simulator sim(basic_config(4, 1.0),
                [](common::Item item, common::InstanceId, common::SeqNo) {
                  return 1.0 + static_cast<double>(item % 7);
                });
  RoundRobinScheduler rr(4);
  const auto result = sim.run(stream, rr);
  EXPECT_EQ(result.completions.size(), m);
}

TEST(Simulator, InstanceAccountingIsConsistent) {
  const std::vector<common::Item> stream{0, 1, 2, 3, 4, 5};
  Simulator sim(basic_config(3, 1.0),
                [](common::Item, common::InstanceId, common::SeqNo) { return 2.0; });
  RoundRobinScheduler rr(3);
  const auto result = sim.run(stream, rr);
  EXPECT_EQ(result.instance_tuples, (std::vector<std::uint64_t>{2, 2, 2}));
  for (double work : result.instance_work) {
    EXPECT_DOUBLE_EQ(work, 4.0);
  }
}

TEST(Simulator, CostsAreInstanceAndPhaseAware) {
  // Instance 1 is twice as slow; the full-knowledge scheduler sees it.
  const std::vector<common::Item> stream{0, 0, 0, 0};
  auto cost = [](common::Item, common::InstanceId op, common::SeqNo) {
    return op == 0 ? 2.0 : 4.0;
  };
  Simulator sim(basic_config(2, 100.0), cost);
  FullKnowledgeScheduler fk(2, cost);
  const auto result = sim.run(stream, fk);
  // Greedy: t0->0 (2), t1->1 (4... load 2 vs 4: argmin of resulting load:
  // 0 has 2+2=4, 1 has 0+4=4 -> first minimum wins deterministically).
  EXPECT_GT(result.instance_tuples[0], 0u);
}

TEST(Simulator, PosgShipsSketchesAndSynchronizes) {
  core::PosgConfig posg;
  posg.window = 64;
  posg.mu = 0.5;
  posg.max_windows_per_epoch = 2;
  auto config = basic_config(2, 1.0);
  config.posg = posg;

  std::vector<common::Item> stream(4000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = i % 16;
  }
  Simulator sim(config, [](common::Item item, common::InstanceId, common::SeqNo) {
    return 1.0 + static_cast<double>(item % 4);
  });
  PosgScheduler scheduler(2, posg);
  const auto result = sim.run(stream, scheduler);
  // A late shipment can leave the scheduler mid-epoch at stream end, but
  // it must have left ROUND_ROBIN and completed at least one epoch.
  EXPECT_NE(scheduler.state(), PosgScheduler::State::kRoundRobin);
  EXPECT_GE(scheduler.epoch(), 1u);
  EXPECT_GT(result.messages.sketch_shipments, 0u);
  EXPECT_GT(result.messages.sync_markers, 0u);
  EXPECT_LE(result.messages.sync_replies, result.messages.sync_markers);
  EXPECT_EQ(result.completions.size(), stream.size());
}

TEST(Simulator, SyncMakesEstimatedLoadsTrackTrueWork) {
  // With item-exact sketches (huge columns) and constant per-item costs,
  // after the final synchronization Ĉ should equal the true cumulated
  // work up to the estimates of post-marker tuples.
  core::PosgConfig posg;
  posg.window = 128;
  posg.mu = 0.5;
  posg.epsilon = 0.0005;
  posg.max_windows_per_epoch = 2;
  auto config = basic_config(2, 2.0);
  config.posg = posg;

  std::vector<common::Item> stream(6000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = i % 8;
  }
  auto cost = [](common::Item item, common::InstanceId, common::SeqNo) {
    return 1.0 + static_cast<double>(item);
  };
  Simulator sim(config, cost);
  PosgScheduler scheduler(2, posg);
  const auto result = sim.run(stream, scheduler);
  ASSERT_NE(scheduler.state(), PosgScheduler::State::kRoundRobin);
  const auto& estimated = scheduler.estimated_loads();
  for (std::size_t op = 0; op < 2; ++op) {
    // Everything was executed by the end, so the estimate should be within
    // a few estimation errors of the truth.
    EXPECT_NEAR(estimated[op], result.instance_work[op],
                0.05 * result.instance_work[op] + 50.0);
  }
}

TEST(Simulator, PerInstanceLatencyAffectsCompletion) {
  auto config = basic_config(2, 100.0);
  config.per_instance_data_latency = {1.0, 30.0};
  const std::vector<common::Item> stream{0, 0};
  Simulator sim(config, [](common::Item, common::InstanceId, common::SeqNo) { return 5.0; });
  RoundRobinScheduler rr(2);
  const auto result = sim.run(stream, rr);
  EXPECT_DOUBLE_EQ(result.completions.at(0), 6.0);   // instance 0: 1 + 5
  EXPECT_DOUBLE_EQ(result.completions.at(1), 35.0);  // instance 1: 30 + 5
}

TEST(Simulator, PerInstanceLatencyValidatesWidth) {
  auto config = basic_config(2, 1.0);
  config.per_instance_data_latency = {1.0};
  auto cost = [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; };
  EXPECT_THROW(Simulator(config, cost), std::invalid_argument);
}

TEST(Simulator, DeliversPeriodicLoadReports) {
  auto config = basic_config(2, 1.0);
  config.load_report_period = 5.0;
  config.control_latency = 0.5;

  struct Recorder final : core::Scheduler {
    std::size_t k;
    std::uint64_t reports = 0;
    common::TimeMs last_backlog = -1.0;
    explicit Recorder(std::size_t k_) : k(k_) {}
    core::Decision schedule(common::Item, common::SeqNo seq) override {
      return core::Decision{seq % k, std::nullopt};
    }
    void on_feedback(core::FeedbackEvent&& event) override {
      if (const auto* report = std::get_if<core::LoadReport>(&event)) {
        ++reports;
        last_backlog = report->backlog;
      }
    }
    std::size_t instances() const override { return k; }
    std::string name() const override { return "recorder"; }
  };

  std::vector<common::Item> stream(100, 1);
  Simulator sim(config, [](common::Item, common::InstanceId, common::SeqNo) { return 2.0; });
  Recorder recorder(2);
  const auto result = sim.run(stream, recorder);
  EXPECT_EQ(result.completions.size(), 100u);
  // 100 tuples at 1 ms spacing, service 2 ms on 2 instances: run lasts
  // ~100 ms; reports every 5 ms per instance -> roughly 40 in total.
  EXPECT_GT(recorder.reports, 20u);
  EXPECT_GE(recorder.last_backlog, 0.0);
}

TEST(Simulator, ReactiveJsqEndToEnd) {
  auto config = basic_config(3, 1.0);
  config.load_report_period = 4.0;
  std::vector<common::Item> stream(3000);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = i % 16;
  }
  Simulator sim(config, [](common::Item item, common::InstanceId, common::SeqNo) {
    return 1.0 + static_cast<double>(item % 4);
  });
  core::ReactiveJsqScheduler scheduler(3);
  const auto result = sim.run(stream, scheduler);
  EXPECT_EQ(result.completions.size(), stream.size());
  // With fresh reports JSQ must not collapse onto one instance.
  for (std::uint64_t count : result.instance_tuples) {
    EXPECT_GT(count, stream.size() / 10);
  }
}

TEST(Simulator, ValidatesConfiguration) {
  auto cost = [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; };
  EXPECT_THROW(Simulator(basic_config(0, 1.0), cost), std::invalid_argument);
  EXPECT_THROW(Simulator(basic_config(1, 0.0), cost), std::invalid_argument);
  Simulator ok(basic_config(2, 1.0), cost);
  RoundRobinScheduler wrong_k(3);
  EXPECT_THROW(ok.run({1, 2, 3}, wrong_k), std::invalid_argument);
}

TEST(Simulator, EmptyStreamYieldsEmptyResult) {
  Simulator sim(basic_config(2, 1.0),
                [](common::Item, common::InstanceId, common::SeqNo) { return 1.0; });
  RoundRobinScheduler rr(2);
  const auto result = sim.run({}, rr);
  EXPECT_EQ(result.completions.size(), 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(Simulator, SchedulerMetricsOutliveTheScheduler) {
  // Experiment::run frees its PosgScheduler on return, while the caller's
  // registry lives on: the run must leave values there, not callbacks
  // into the freed scheduler (ASan: heap-use-after-free in snapshot()).
  obs::MetricsRegistry registry;
  sim::ExperimentConfig config;
  config.n = 512;
  config.m = 4096;
  config.k = 4;
  config.metrics = &registry;
  const sim::Experiment experiment(config);
  (void)experiment.run(sim::Policy::kPosg);
  obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("posg.scheduler.decisions"), config.m);
  EXPECT_EQ(snap.counters.at("posg.sim.tuples"), config.m);
  for (common::InstanceId op = 0; op < config.k; ++op) {
    EXPECT_EQ(snap.gauges.at("posg.health.derate." + std::to_string(op)), 1.0) << op;
  }

  // A second run adds its counters to the first's, as posg.sim.* does.
  (void)experiment.run(sim::Policy::kPosg);
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("posg.scheduler.decisions"), 2 * config.m);
  EXPECT_EQ(snap.counters.at("posg.sim.tuples"), 2 * config.m);
}

}  // namespace
