// Each configuration is checked once, by the constructor that reads it.
// DefaultsAreValid constructs every such component from its defaults.
// Each other test is a table for one rule, run against every constructor
// that enforces it: a value the constructor gives a meaning (a disabled
// deadline, an unread rate) is accepted, and every row that puts one field
// outside its domain throws std::invalid_argument whose message names that
// field.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/elastic.hpp"
#include "core/instance_tracker.hpp"
#include "core/multi_source.hpp"
#include "core/posg_scheduler.hpp"
#include "engine/engine.hpp"
#include "runtime/instance_runtime.hpp"
#include "runtime/scheduler_runtime.hpp"

namespace posg {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
using std::chrono::milliseconds;

/// One edit of a default config. In a `rejected` table `field` is the
/// name the constructor's message must carry; in an `accepted` table it
/// says why the value is in the domain.
template <typename Config>
struct Row {
  const char* field;
  std::function<void(Config&)> edit;
};

void expect_rejected(const char* field, const std::function<void()>& construct) {
  try {
    construct();
    ADD_FAILURE() << "accepted an out-of-domain " << field;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << "expected a message naming " << field << ", got \"" << error.what() << "\"";
  }
}

template <typename Config>
void check_table(const std::function<void(const Config&)>& construct,
                 const std::vector<Row<Config>>& rejected,
                 const std::vector<Row<Config>>& accepted = {}) {
  for (const auto& row : accepted) {
    Config config;
    row.edit(config);
    EXPECT_NO_THROW(construct(config)) << row.field;
  }
  for (const auto& row : rejected) {
    Config config;
    row.edit(config);
    expect_rejected(row.field, [&] { construct(config); });
  }
}

// The constructors that read a config.

void construct_tracker(const core::PosgConfig& config) { core::InstanceTracker tracker(0, config); }

void construct_scheduler(const core::PosgConfig& config) {
  core::PosgScheduler scheduler(3, config);
}

void construct_scheduler_runtime(const runtime::SchedulerRuntimeConfig& config) {
  runtime::SchedulerRuntime scheduler(config);
}

void construct_instance_runtime(const runtime::InstanceRuntimeConfig& config) {
  runtime::InstanceRuntime instance(0, config);
}

void construct_elastic(const core::ElasticConfig& config) {
  core::ElasticController controller(config);
}

void construct_engine(const EngineConfig& config) {
  // The factories are never called: only run() instantiates components.
  engine::TopologyBuilder builder;
  builder.add_spout("src", [](const engine::ComponentContext&) {
    return std::unique_ptr<engine::Spout>();
  });
  builder.add_bolt(
      "sink", [](const engine::ComponentContext&) { return std::unique_ptr<engine::Bolt>(); }, 2,
      {{"src", std::make_shared<engine::ShuffleGrouping>()}});
  engine::Engine engine(builder.build(), config);
}

TEST(Config, DefaultsAreValid) {
  EXPECT_NO_THROW(construct_tracker({}));
  EXPECT_NO_THROW(construct_scheduler({}));
  EXPECT_NO_THROW(core::MultiSourceScheduler(2, core::PosgConfig{}, 1));
  EXPECT_NO_THROW(construct_scheduler_runtime({}));
  EXPECT_NO_THROW(construct_instance_runtime({}));
  EXPECT_NO_THROW(construct_elastic({}));
  EXPECT_NO_THROW(construct_engine({}));
}

// -- PosgConfig: InstanceTracker, PosgScheduler, SchedulerRuntime -----------

TEST(Config, RejectsEpsilonOutsideUnitInterval) {
  using core::PosgConfig;
  check_table<PosgConfig>(
      construct_tracker,
      {
          {"epsilon", [](auto& c) { c.epsilon = 0.0; }},
          {"epsilon", [](auto& c) { c.epsilon = 1.5; }},
          {"epsilon", [](auto& c) { c.epsilon = kNaN; }},
      },
      {{"epsilon = 1 is the coarsest sketch", [](auto& c) { c.epsilon = 1.0; }}});
  check_table<PosgConfig>(construct_scheduler, {{"epsilon", [](auto& c) { c.epsilon = 0.0; }}});
  check_table<runtime::SchedulerRuntimeConfig>(
      construct_scheduler_runtime, {{"epsilon", [](auto& c) { c.posg.epsilon = 0.0; }}});
}

TEST(Config, RejectsDeltaOutsideOpenUnitInterval) {
  using core::PosgConfig;
  check_table<PosgConfig>(construct_tracker, {
                                                 {"delta", [](auto& c) { c.delta = 0.0; }},
                                                 {"delta", [](auto& c) { c.delta = 1.0; }},
                                             });
  check_table<PosgConfig>(construct_scheduler, {{"delta", [](auto& c) { c.delta = 1.0; }}});
}

TEST(Config, RejectsZeroWindow) {
  check_table<core::PosgConfig>(construct_tracker, {{"window", [](auto& c) { c.window = 0; }}});
}

TEST(Config, RejectsNonPositiveMu) {
  check_table<core::PosgConfig>(construct_tracker, {
                                                       {"mu", [](auto& c) { c.mu = 0.0; }},
                                                       {"mu", [](auto& c) { c.mu = -1.0; }},
                                                       {"mu", [](auto& c) { c.mu = kInf; }},
                                                       {"mu", [](auto& c) { c.mu = kNaN; }},
                                                   });
}

TEST(Config, RejectsZeroSources) {
  expect_rejected("sources", [] { core::MultiSourceScheduler(2, core::PosgConfig{}, 0); });
}

// -- SchedulerRuntimeConfig -------------------------------------------------

TEST(Config, RejectsZeroInstances) {
  check_table<runtime::SchedulerRuntimeConfig>(construct_scheduler_runtime,
                                               {{"instances", [](auto& c) { c.instances = 0; }}});
}

TEST(Config, RejectsBadRuntimeDeadlines) {
  check_table<runtime::SchedulerRuntimeConfig>(
      construct_scheduler_runtime,
      {
          {"recv_deadline", [](auto& c) { c.recv_deadline = milliseconds{0}; }},
          {"recv_deadline", [](auto& c) { c.recv_deadline = milliseconds{-1}; }},
          {"hello_deadline", [](auto& c) { c.hello_deadline = milliseconds{0}; }},
          {"hello_deadline", [](auto& c) { c.hello_deadline = milliseconds{-1}; }},
      },
      {
          {"epoch_deadline = 0 disables the deadline",
           [](auto& c) { c.epoch_deadline = milliseconds{0}; }},
          {"epoch_deadline < 0 disables the deadline",
           [](auto& c) { c.epoch_deadline = milliseconds{-1}; }},
      });
}

TEST(Config, RecoverWithoutACheckpointPathIsAColdStart) {
  runtime::SchedulerRuntimeConfig cold;
  cold.recover = true;
  EXPECT_FALSE(runtime::SchedulerRuntime(cold).recovered());
}

// -- InstanceRuntimeConfig --------------------------------------------------

TEST(Config, RejectsBadInstanceFields) {
  check_table<runtime::InstanceRuntimeConfig>(
      construct_instance_runtime,
      {
          {"recv_deadline", [](auto& c) { c.recv_deadline = milliseconds{0}; }},
          {"cost_scale", [](auto& c) { c.cost_scale = 0.0; }},
          {"cost_scale", [](auto& c) { c.cost_scale = -2.0; }},
          {"cost_scale", [](auto& c) { c.cost_scale = kNaN; }},
          {"cost_scale", [](auto& c) { c.cost_scale = kInf; }},
          {"reconnect_attempts",
           [](auto& c) {
             c.reconnect_path = "scheduler.sock";
             c.reconnect_attempts = 0;
           }},
      },
      {{"reconnect_attempts is unread without a reconnect_path",
        [](auto& c) { c.reconnect_attempts = 0; }}});
}

TEST(Config, RejectsBadRealSleepScale) {
  // The default, 0, disables sleeping.
  check_table<runtime::InstanceRuntimeConfig>(
      construct_instance_runtime,
      {
          {"real_sleep_scale", [](auto& c) { c.real_sleep_scale = -0.5; }},
          {"real_sleep_scale", [](auto& c) { c.real_sleep_scale = kNaN; }},
          {"real_sleep_scale", [](auto& c) { c.real_sleep_scale = kInf; }},
      });
}

// -- ElasticConfig ----------------------------------------------------------

TEST(Config, RejectsBadElasticTunablesWhenEnabled) {
  using core::ElasticConfig;
  // The simulator constructs its controller whether or not autoscale is on,
  // so the controller checks a disabled config too.
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "enabled" : "disabled");
    check_table<ElasticConfig>(
        [enabled](const ElasticConfig& config) {
          ElasticConfig copy = config;
          copy.enabled = enabled;
          construct_elastic(copy);
        },
        {
            {"ewma_alpha", [](auto& c) { c.ewma_alpha = 0.0; }},
            {"ewma_alpha", [](auto& c) { c.ewma_alpha = 1.5; }},
            {"derivative_alpha", [](auto& c) { c.derivative_alpha = kNaN; }},
            {"horizon_samples", [](auto& c) { c.horizon_samples = -1.0; }},
            {"horizon_samples", [](auto& c) { c.horizon_samples = kInf; }},
            {"min_instances", [](auto& c) { c.min_instances = 0; }},
            {"up_backlog_per_instance", [](auto& c) { c.up_backlog_per_instance = 0.0; }},
            {"up_backlog_per_instance", [](auto& c) { c.up_backlog_per_instance = kInf; }},
            {"up_hold", [](auto& c) { c.up_hold = 0; }},
            {"down_hold", [](auto& c) { c.down_hold = 0; }},
            {"skew_veto", [](auto& c) { c.skew_veto = 1.0; }},
            {"skew_veto", [](auto& c) { c.skew_veto = kInf; }},
        },
        {{"the defaults", [](auto&) {}}});
  }
}

TEST(Config, RejectsElasticThresholdAndBoundOrderingViolations) {
  check_table<core::ElasticConfig>(
      construct_elastic,
      {
          {"max_instances", [](auto& c) { c.min_instances = 4, c.max_instances = 2; }},
          {"down_backlog_per_instance",
           [](auto& c) { c.down_backlog_per_instance = c.up_backlog_per_instance; }},
          {"down_backlog_per_instance", [](auto& c) { c.down_backlog_per_instance = -1.0; }},
      },
      {
          {"max_instances = 0 is unbounded", [](auto& c) { c.max_instances = 0; }},
          {"down_backlog_per_instance = 0", [](auto& c) { c.down_backlog_per_instance = 0.0; }},
      });
}

// -- EngineConfig -----------------------------------------------------------

TEST(Config, RejectsZeroQueueCapacity) {
  check_table<EngineConfig>(construct_engine,
                            {{"queue_capacity", [](auto& c) { c.queue_capacity = 0; }}});
}

}  // namespace
}  // namespace posg
