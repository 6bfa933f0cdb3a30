// Tests for the engine-side POSG grouping wrapper: routing, feedback
// delivery, and thread safety.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/instance_tracker.hpp"
#include "engine/posg_grouping.hpp"

namespace {

using namespace posg;
using engine::PosgGrouping;

core::PosgConfig small_config() {
  core::PosgConfig config;
  config.window = 8;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  return config;
}

core::SketchShipment make_shipment(common::InstanceId op, const core::PosgConfig& config) {
  core::InstanceTracker tracker(op, config);
  for (int i = 0; i < 1000; ++i) {
    if (auto shipment = tracker.on_executed(1, 2.0)) {
      return *shipment;
    }
  }
  throw std::logic_error("make_shipment: tracker never stabilized");
}

TEST(PosgGrouping, RoutesWithinRange) {
  const auto config = small_config();
  PosgGrouping grouping(3, config);
  engine::Tuple tuple;
  for (int i = 0; i < 30; ++i) {
    tuple.seq = i;
    tuple.item = i % 5;
    EXPECT_LT(grouping.route(tuple, 3).instance, 3u);
  }
  EXPECT_TRUE(grouping.wants_feedback());
  ASSERT_NE(grouping.feedback_config(), nullptr);
  EXPECT_EQ(grouping.feedback_config()->window, config.window);
  EXPECT_EQ(grouping.name(), "posg");
}

TEST(PosgGrouping, RejectsMismatchedInstanceCount) {
  PosgGrouping grouping(3, small_config());
  engine::Tuple tuple;
  EXPECT_THROW(grouping.route(tuple, 4), std::invalid_argument);
}

TEST(PosgGrouping, ImmediateDeliveryAdvancesProtocol) {
  const auto config = small_config();
  PosgGrouping grouping(2, config);
  grouping.on_sketches({0, make_shipment(0, config).sketch});
  grouping.on_sketches({1, make_shipment(1, config).sketch});
  EXPECT_EQ(grouping.scheduler_state(), core::PosgScheduler::State::kSendAll);
}

TEST(PosgGrouping, ConcurrentRouteAndFeedbackAreSafe) {
  const auto config = small_config();
  PosgGrouping grouping(3, config);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> routed{0};

  std::thread router([&] {
    engine::Tuple tuple;
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      tuple.seq = seq++;
      tuple.item = seq % 16;
      const auto route = grouping.route(tuple, 3);
      EXPECT_LT(route.instance, 3u);  // an ASSERT would end the loop and hang the wait below
      routed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread feeder([&] {
    for (int round = 0; round < 50; ++round) {
      for (common::InstanceId op = 0; op < 3; ++op) {
        grouping.on_sketches({op, make_shipment(op, config).sketch});
      }
      grouping.on_sync_reply({static_cast<common::InstanceId>(round % 3),
                              static_cast<common::Epoch>(round), 1.0});
    }
  });
  feeder.join();
  // Keep the router running past the last feedback: wait for 100 more
  // routes instead of a fixed time.
  const std::uint64_t at_join = routed.load();
  while (routed.load() < at_join + 100) {
    std::this_thread::yield();
  }
  stop = true;
  router.join();
  EXPECT_GT(routed.load(), 100u);
  EXPECT_NE(grouping.scheduler_state(), core::PosgScheduler::State::kRoundRobin);
}

}  // namespace
