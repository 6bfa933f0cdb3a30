// Tests for the mini stream-processing engine: topology validation,
// groupings, end-to-end tuple flow, backpressure, POSG feedback wiring,
// error containment, and the completion recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "engine/builtin.hpp"
#include "engine/engine.hpp"
#include "engine/posg_grouping.hpp"

namespace {

using namespace posg;
using namespace posg::engine;

/// Spout emitting the items 0..count-1 as fast as possible.
class CountingSpout final : public Spout {
 public:
  explicit CountingSpout(std::size_t count) : count_(count) {}
  bool next(OutputCollector& collector) override {
    if (emitted_ >= count_) {
      return false;
    }
    Tuple tuple;
    tuple.item = emitted_ % 16;
    collector.emit(std::move(tuple));
    ++emitted_;
    return true;
  }

 private:
  std::size_t count_;
  std::size_t emitted_ = 0;
};

SpoutFactory counting_spout(std::size_t count) {
  return [count](const ComponentContext&) { return std::make_unique<CountingSpout>(count); };
}

TEST(TopologyBuilder, ValidatesStructure) {
  TopologyBuilder ok;
  ok.add_spout("src", counting_spout(1));
  ok.add_bolt("sink", [](const ComponentContext&) {
    return std::make_unique<LambdaBolt>([](const Tuple&, OutputCollector&,
                                           const ComponentContext&) {});
  }, 1, {{"src", std::make_shared<ShuffleGrouping>()}});
  EXPECT_NO_THROW(ok.build());

  TopologyBuilder duplicate;
  duplicate.add_spout("x", counting_spout(1));
  EXPECT_THROW(duplicate.add_spout("x", counting_spout(1)), std::invalid_argument);

  TopologyBuilder unknown_input;
  unknown_input.add_spout("src", counting_spout(1));
  EXPECT_THROW(unknown_input.add_bolt("b",
                                      [](const ComponentContext&) {
                                        return std::make_unique<LambdaBolt>(
                                            [](const Tuple&, OutputCollector&,
                                               const ComponentContext&) {});
                                      },
                                      1, {{"nope", std::make_shared<ShuffleGrouping>()}}),
               std::invalid_argument);

  TopologyBuilder empty;
  EXPECT_THROW(empty.build(), std::invalid_argument);
}

TEST(Groupings, ShuffleIsRoundRobin) {
  ShuffleGrouping grouping;
  Tuple t;
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(grouping.route(t, 4).instance, i % 4);
  }
}

TEST(Engine, DeliversEveryTupleAndRecordsCompletions) {
  const std::size_t m = 2000;
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(m));
  std::atomic<std::uint64_t> processed{0};
  builder.add_bolt("sink",
                   [&processed](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [&processed](const Tuple&, OutputCollector&, const ComponentContext&) {
                           processed.fetch_add(1);
                         });
                   },
                   3, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(processed.load(), m);
  EXPECT_EQ(engine.completions().count(), m);
  const auto series = engine.completions().series();
  EXPECT_EQ(series.size(), m);
  EXPECT_GE(series.average(), 0.0);
  const auto stats = engine.stats("sink");
  EXPECT_EQ(stats.executed, m);
  EXPECT_EQ(stats.errors, 0u);
  // Round-robin split across 3 instances.
  for (std::uint64_t count : stats.per_instance) {
    EXPECT_NEAR(static_cast<double>(count), m / 3.0, 2.0);
  }
}

TEST(Engine, MultiStageTopologyForwardsTuples) {
  const std::size_t m = 500;
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(m));
  builder.add_bolt("middle",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple& t, OutputCollector& out, const ComponentContext&) {
                           Tuple forwarded = t;  // keep seq + emitted_at
                           out.emit(std::move(forwarded));
                         });
                   },
                   2, {{"src", std::make_shared<ShuffleGrouping>()}});
  builder.add_bolt("sink",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple&, OutputCollector&, const ComponentContext&) {});
                   },
                   2, {{"middle", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(engine.stats("middle").executed, m);
  EXPECT_EQ(engine.stats("middle").emitted, m);
  EXPECT_EQ(engine.stats("sink").executed, m);
  // Completion is recorded at the terminal bolt only.
  EXPECT_EQ(engine.completions().count(), m);
}

TEST(Engine, FanOutDeliversToAllConsumers) {
  // One spout feeding two independent bolts: every tuple reaches both,
  // and the recorder keeps one completion per tuple (the latest).
  const std::size_t m = 300;
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(m));
  std::atomic<std::uint64_t> left{0};
  std::atomic<std::uint64_t> right{0};
  builder.add_bolt("left",
                   [&left](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [&left](const Tuple&, OutputCollector&, const ComponentContext&) {
                           left.fetch_add(1);
                         });
                   },
                   1, {{"src", std::make_shared<ShuffleGrouping>()}});
  builder.add_bolt("right",
                   [&right](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [&right](const Tuple&, OutputCollector&, const ComponentContext&) {
                           right.fetch_add(1);
                         });
                   },
                   2, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(left.load(), m);
  EXPECT_EQ(right.load(), m);
  const auto series = engine.completions().series();
  EXPECT_EQ(series.size(), m);  // deduplicated per sequence number
}

TEST(Engine, ContainsBoltExceptions) {
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(100));
  builder.add_bolt("flaky",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple& t, OutputCollector&, const ComponentContext&) {
                           if (t.seq % 10 == 0) {
                             throw std::runtime_error("injected failure");
                           }
                         });
                   },
                   2, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  const auto stats = engine.stats("flaky");
  EXPECT_EQ(stats.executed, 100u);
  EXPECT_EQ(stats.errors, 10u);
  // Failed tuples still count as completed (the executor keeps going).
  EXPECT_EQ(engine.completions().count(), 100u);
}

TEST(Engine, PosgGroupingReachesRunState) {
  const std::size_t m = 6000;
  const std::size_t k = 3;
  core::PosgConfig config;
  config.window = 128;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  auto grouping = std::make_shared<PosgGrouping>(k, config);

  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(m));
  builder.add_bolt("work",
                   [](const ComponentContext&) {
                     return std::make_unique<SleepBolt>(
                         [](common::Item item, common::InstanceId, common::SeqNo) {
                           return 0.02 * static_cast<double>(item % 4);
                         });
                   },
                   k, {{"src", grouping}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(engine.completions().count(), m);
  EXPECT_EQ(engine.stats("work").executed, m);
  // The protocol must have engaged (a late shipment may leave it
  // mid-epoch at stream end, but never back in ROUND_ROBIN).
  EXPECT_NE(grouping->scheduler_state(), core::PosgScheduler::State::kRoundRobin);
}

TEST(Engine, TwoStagePipelineWithTwoPosgGroupings) {
  // source -> stage1 (2 instances) -> stage2 (3 instances), both hops
  // scheduled by independent POSG groupings. Exercises multiple feedback
  // loops in one topology.
  const std::size_t m = 4000;
  core::PosgConfig config;
  config.window = 64;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  auto hop1 = std::make_shared<PosgGrouping>(2, config);
  auto hop2 = std::make_shared<PosgGrouping>(3, config);

  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(m));
  builder.add_bolt("stage1",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple& t, OutputCollector& out, const ComponentContext&) {
                           engine::busy_wait_for(0.002 * static_cast<double>(t.item % 4));
                           Tuple forwarded = t;
                           out.emit(std::move(forwarded));
                         });
                   },
                   2, {{"src", hop1}});
  builder.add_bolt("stage2",
                   [](const ComponentContext&) {
                     return std::make_unique<SleepBolt>(
                         [](common::Item item, common::InstanceId, common::SeqNo) {
                           return 0.01 * static_cast<double>(item % 4);
                         });
                   },
                   3, {{"stage1", hop2}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(engine.stats("stage1").executed, m);
  EXPECT_EQ(engine.stats("stage2").executed, m);
  EXPECT_EQ(engine.completions().count(), m);
  EXPECT_NE(hop1->scheduler_state(), core::PosgScheduler::State::kRoundRobin);
  EXPECT_NE(hop2->scheduler_state(), core::PosgScheduler::State::kRoundRobin);
}

TEST(Engine, ReportsBusyTimeAndQueuePeaks) {
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(200));
  builder.add_bolt("work",
                   [](const ComponentContext&) {
                     return std::make_unique<SleepBolt>(
                         [](common::Item, common::InstanceId, common::SeqNo) { return 0.5; });
                   },
                   2, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  const auto stats = engine.stats("work");
  ASSERT_EQ(stats.busy_ms.size(), 2u);
  ASSERT_EQ(stats.queue_peak.size(), 2u);
  for (common::TimeMs busy : stats.busy_ms) {
    EXPECT_GE(busy, 100 * 0.5 * 0.8);  // ~100 tuples x 0.5 ms each, slack
  }
  // The spout emits as fast as possible while the bolt sleeps: queues must
  // have backed up beyond a single tuple.
  EXPECT_GT(stats.queue_peak[0] + stats.queue_peak[1], 2u);
}

TEST(Engine, FullQueuesBlockProducersAndLoseNothing) {
  // A flood against two 0.1 ms/tuple bolts behind depth-8 queues keeps the
  // queues full: producers must block, never drop, and POSG's sync markers
  // ride the full queues. One spout instance makes every edge an SPSC
  // ring; two make them MPMC queues.
  core::PosgConfig config;
  config.window = 64;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  const std::size_t per_spout = 2000;
  for (const std::size_t spouts : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("spout instances: " + std::to_string(spouts));
    const std::size_t m = spouts * per_spout;
    auto grouping = std::make_shared<PosgGrouping>(2, config);
    TopologyBuilder builder;
    builder.add_spout("src", counting_spout(per_spout), spouts);
    builder.add_bolt("slow",
                     [](const ComponentContext&) {
                       return std::make_unique<SleepBolt>(
                           [](common::Item, common::InstanceId, common::SeqNo) { return 0.1; });
                     },
                     2, {{"src", grouping}});
    EngineConfig engine_config;
    engine_config.queue_capacity = 8;
    Engine engine(builder.build(), engine_config);
    engine.run();

    const auto stats = engine.stats("slow");
    EXPECT_EQ(engine.stats("src").emitted, m);
    EXPECT_EQ(stats.executed, m);
    EXPECT_EQ(engine.completions().count(), m);
    EXPECT_EQ(stats.errors, 0u);
    ASSERT_EQ(stats.queue_peak.size(), 2u);
    EXPECT_EQ(std::max(stats.queue_peak[0], stats.queue_peak[1]), 8u);
    EXPECT_NE(grouping->scheduler_state(), core::PosgScheduler::State::kRoundRobin);
  }
}

TEST(Engine, ExportsSpscEdgeSignals) {
  // One spout instance feeds the sink, so its edge is an SpscRing and
  // both ring counters are exported after the run.
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(100));
  builder.add_bolt("sink",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple&, OutputCollector&, const ComponentContext&) {});
                   },
                   2, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  const auto counters = engine.metrics().snapshot().counters;
  EXPECT_EQ(counters.count("posg.engine.ring_full_spins"), 1u);
  EXPECT_EQ(counters.count("posg.engine.ring_parks"), 1u);
}

TEST(Engine, RejectsSecondRun) {
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(1));
  builder.add_bolt("sink",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple&, OutputCollector&, const ComponentContext&) {});
                   },
                   1, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  engine.run();
  EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(Engine, UnknownComponentStatsThrow) {
  TopologyBuilder builder;
  builder.add_spout("src", counting_spout(1));
  builder.add_bolt("sink",
                   [](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [](const Tuple&, OutputCollector&, const ComponentContext&) {});
                   },
                   1, {{"src", std::make_shared<ShuffleGrouping>()}});
  Engine engine(builder.build());
  EXPECT_THROW(engine.stats("ghost"), std::invalid_argument);
}

TEST(CompletionRecorder, KeepsMaxPerSequence) {
  CompletionRecorder recorder;
  recorder.record(0, 5.0);
  recorder.record(0, 9.0);  // fan-out: last operator concludes later
  recorder.record(0, 7.0);
  recorder.record(2, 1.0);
  const auto series = recorder.series();
  EXPECT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0), 9.0);
  EXPECT_DOUBLE_EQ(series.at(2), 1.0);
}

TEST(BusyWait, WaitsApproximatelyTheRequestedTime) {
  const auto start = Clock::now();
  busy_wait_for(2.0);
  const auto elapsed = elapsed_ms(start, Clock::now());
  EXPECT_GE(elapsed, 2.0);
  // The contract is a lower bound; the ceiling only guards against an
  // unbounded spin. Keep it loose: on a loaded CI machine (parallel ctest,
  // sanitizer builds) the waiting thread can lose the CPU for tens of ms.
  EXPECT_LT(elapsed, 200.0);
}

TEST(SyntheticSpout, EmitsAllItemsWithPacing) {
  const std::vector<common::Item> items{1, 2, 3, 4, 5};
  TopologyBuilder builder;
  builder.add_spout("src", [&items](const ComponentContext&) {
    return std::make_unique<SyntheticSpout>(items, std::chrono::microseconds(500));
  });
  std::atomic<std::uint64_t> seen{0};
  builder.add_bolt("sink",
                   [&seen](const ComponentContext&) {
                     return std::make_unique<LambdaBolt>(
                         [&seen](const Tuple&, OutputCollector&, const ComponentContext&) {
                           seen.fetch_add(1);
                         });
                   },
                   1, {{"src", std::make_shared<ShuffleGrouping>()}});
  const auto start = Clock::now();
  Engine engine(builder.build());
  engine.run();
  EXPECT_EQ(seen.load(), items.size());
  // 5 items at 500 us spacing: at least 2 ms of pacing.
  EXPECT_GE(elapsed_ms(start, Clock::now()), 2.0);
}

}  // namespace
