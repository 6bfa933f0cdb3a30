// In-process tests of the scheduler crash-recovery runtime (DESIGN.md §14):
// the instance side's single reconnect-or-die policy point under a scripted
// gray fault, the restored SchedulerRuntime's SchedulerHello/ReattachAck
// handshake seeding the tracker cut from the checkpoint, and the cold-start
// degradation for missing or corrupt checkpoint files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/fault_injection.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "runtime/instance_runtime.hpp"
#include "runtime/scheduler_runtime.hpp"

namespace {

using namespace posg;
using runtime::InstanceRuntime;
using runtime::InstanceRuntimeConfig;
using runtime::SchedulerRuntime;
using runtime::SchedulerRuntimeConfig;

SchedulerRuntimeConfig test_runtime_config(std::size_t k) {
  SchedulerRuntimeConfig config;
  config.instances = k;
  config.posg.window = 32;
  config.posg.mu = 0.5;
  config.posg.max_windows_per_epoch = 2;
  config.recv_deadline = std::chrono::milliseconds(20);
  config.epoch_deadline = std::chrono::milliseconds(2000);
  return config;
}

struct TestInstance {
  InstanceRuntime::Stats stats;
  std::thread thread;

  void join() {
    if (thread.joinable()) {
      thread.join();
    }
  }
};

std::unique_ptr<TestInstance> spawn_instance(common::InstanceId op,
                                             const InstanceRuntimeConfig& config,
                                             net::Socket socket) {
  auto instance = std::make_unique<TestInstance>();
  instance->thread = std::thread(
      [op, config, &stats = instance->stats, socket = std::move(socket)]() mutable {
        net::SocketTransport link(std::move(socket));
        InstanceRuntime loop(op, config);
        stats = loop.run(link);
      });
  return instance;
}

void route_stream(SchedulerRuntime& rt, common::SeqNo begin, common::SeqNo end) {
  for (common::SeqNo seq = begin; seq < end; ++seq) {
    rt.route((seq * 37) % 64, seq);
    if ((seq & 31) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    if (rt.state() == core::PosgScheduler::State::kWaitAll) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// The gray-fault regression for the reconnect-or-die policy point: a
/// scripted one-way disconnect severs instance 0's link mid-run (EOF at
/// the instance, EPIPE/EOF at the scheduler — the gray zone where each
/// side discovers the cut at a different time). With a reconnect_path
/// configured, the instance must funnel the error through its single
/// policy point, redial, re-attach via SchedulerHello, and finish the run
/// as a full member — no process restart, no double registration.
TEST(Recovery, GrayFaultDisconnectReconnectsAndReattaches) {
  const std::size_t k = 3;
  auto config = test_runtime_config(k);
  config.allow_rejoin = true;
  SchedulerRuntime rt(config);
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_recovery_reconnect_test.sock").string();

  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    instance_config.recv_deadline = std::chrono::milliseconds(20);
    instance_config.reconnect_path = path;
    instance_config.reconnect_attempts = 3;
    auto [sched_end, inst_end] = net::socket_pair();
    if (op == 0) {
      // Sever instance 0's link after ~60 scheduler-side sends: mid-run,
      // with sketches and (likely) an epoch already in flight.
      net::FaultPlan plan;
      plan.disconnect_after(net::FaultDir::kSend, 60);
      rt.attach(op, std::make_unique<net::FaultInjector>(std::move(sched_end), plan));
    } else {
      rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    }
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  net::Listener listener(path);
  rt.enable_rejoin(listener);

  // Route until the re-attach lands. Depending on who noticed the cut
  // first, the scheduler serves the SchedulerHello over the live-reattach
  // path (reattach_count) or the quarantined-rejoin path (rejoin_log) —
  // both end with the instance holding a ReattachAck.
  common::SeqNo seq = 0;
  for (int i = 0; i < 40000 && rt.reattach_count() == 0 && rt.rejoin_log().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(rt.reattach_count() > 0 || !rt.rejoin_log().empty())
      << "the severed instance never re-attached";
  route_stream(rt, seq, seq + 4000);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  EXPECT_GE(instances[0]->stats.reconnects, 1u);
  EXPECT_GE(instances[0]->stats.reattach_acks + instances[0]->stats.rejoin_acks, 1u);
  EXPECT_FALSE(instances[0]->stats.crashed);
  EXPECT_GT(instances[0]->stats.executed, 0u);
  EXPECT_EQ(rt.live_instances(), k);  // back to full strength
  for (common::InstanceId op = 1; op < k; ++op) {
    EXPECT_EQ(instances[op]->stats.reconnects, 0u);  // only the severed link redialed
  }
}

/// Control for the policy point: with an empty reconnect_path the exact
/// same fault keeps the pre-recovery semantics — the instance's run ends
/// on the first link error and the scheduler quarantines it.
TEST(Recovery, DisconnectWithoutReconnectPathDiesAsBefore) {
  const std::size_t k = 3;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    instance_config.recv_deadline = std::chrono::milliseconds(20);
    auto [sched_end, inst_end] = net::socket_pair();
    if (op == 0) {
      net::FaultPlan plan;
      plan.disconnect_after(net::FaultDir::kSend, 60);
      rt.attach(op, std::make_unique<net::FaultInjector>(std::move(sched_end), plan));
    } else {
      rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    }
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  common::SeqNo seq = 0;
  for (int i = 0; i < 40000 && rt.quarantined().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(rt.quarantined(), (std::vector<common::InstanceId>{0}));
  route_stream(rt, seq, seq + 2000);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  EXPECT_EQ(instances[0]->stats.reconnects, 0u);
  EXPECT_EQ(instances[0]->stats.reattach_acks, 0u);
  EXPECT_EQ(rt.live_instances(), k - 1);
}

/// The restart handshake end-to-end against a real checkpoint: runtime A
/// checkpoints mid-run and dies (goes out of scope); runtime B constructs
/// with recover=true, restores A's control state, accepts SchedulerHello
/// registrations, and the ReattachAck it sends each survivor carries
/// exactly the restored Ĉ[op] as the seeded cut.
TEST(Recovery, RestartedRuntimeSeedsReattachCutsFromCheckpoint) {
  const std::size_t k = 2;
  const auto ckpt =
      (std::filesystem::temp_directory_path() / "posg_recovery_runtime_test.ckpt").string();
  std::filesystem::remove(ckpt);

  {
    auto config = test_runtime_config(k);
    config.checkpoint_path = ckpt;
    SchedulerRuntime first(config);
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    instance_config.recv_deadline = std::chrono::milliseconds(20);
    std::vector<std::unique_ptr<TestInstance>> instances;
    for (common::InstanceId op = 0; op < k; ++op) {
      auto [sched_end, inst_end] = net::socket_pair();
      first.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
      instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
    }
    first.start();
    common::SeqNo seq = 0;
    for (int i = 0; i < 60000 && first.checkpoint_writes() == 0; ++i) {
      first.route((seq * 37) % 64, seq);
      ++seq;
      if ((seq & 31) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    ASSERT_GE(first.checkpoint_writes(), 1u) << "no epoch boundary ever checkpointed";
    first.finish();
    for (auto& instance : instances) {
      instance->join();
    }
  }

  auto config = test_runtime_config(k);
  config.checkpoint_path = ckpt;
  config.recover = true;
  SchedulerRuntime second(config);
  ASSERT_TRUE(second.recovered());
  EXPECT_GT(second.recovered_epoch(), 0u);
  const auto restored_loads = second.scheduler().estimated_loads();

  // Survivors of the "crash" re-attach with SchedulerHello (hand-rolled
  // here so the test can inspect the raw ReattachAck frames).
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_recovery_runtime_test.sock").string();
  net::Listener listener(path);
  std::thread registrar([&] { second.accept_registrations(listener); });
  std::vector<net::Socket> survivors;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto socket = net::connect(path);
    socket.send_frame(net::encode(net::SchedulerHello{op}));
    survivors.push_back(std::move(socket));
  }
  registrar.join();
  second.start();  // sends every pending ReattachAck before the readers spin up

  for (common::InstanceId op = 0; op < k; ++op) {
    const auto frame = survivors[op].recv_frame();
    ASSERT_TRUE(frame.has_value());
    const auto message = net::decode(*frame);
    const auto* ack = std::get_if<net::ReattachAck>(&message);
    ASSERT_NE(ack, nullptr) << "first frame after a SchedulerHello must be the ReattachAck";
    EXPECT_EQ(ack->instance, op);
    EXPECT_DOUBLE_EQ(ack->seed, restored_loads[op]);
  }

  // Orderly shutdown: wait for EndOfStream, then close.
  std::thread drainer([&] {
    for (auto& socket : survivors) {
      while (auto frame = socket.recv_frame()) {
        if (std::holds_alternative<net::EndOfStream>(net::decode(*frame))) {
          break;
        }
      }
      socket.close();
    }
  });
  second.finish();
  drainer.join();
  EXPECT_GE(second.reattach_count(), k);
  std::filesystem::remove(ckpt);
}

TEST(Recovery, MissingCheckpointDegradesToColdStart) {
  auto config = test_runtime_config(2);
  config.checkpoint_path =
      (std::filesystem::temp_directory_path() / "posg_recovery_missing_test.ckpt").string();
  std::filesystem::remove(config.checkpoint_path);
  config.recover = true;
  SchedulerRuntime rt(config);
  EXPECT_FALSE(rt.recovered());
  EXPECT_EQ(rt.recovered_epoch(), 0u);
}

TEST(Recovery, CorruptCheckpointDegradesToColdStart) {
  auto config = test_runtime_config(2);
  config.checkpoint_path =
      (std::filesystem::temp_directory_path() / "posg_recovery_corrupt_test.ckpt").string();
  {
    // Valid header magic, garbage after — decode must reject, the runtime
    // must degrade, never crash.
    std::FILE* file = std::fopen(config.checkpoint_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const char junk[] = "PKCPthis is not a checkpoint payload";
    std::fwrite(junk, 1, sizeof(junk), file);
    std::fclose(file);
  }
  config.recover = true;
  SchedulerRuntime rt(config);
  EXPECT_FALSE(rt.recovered());
  std::filesystem::remove(config.checkpoint_path);
}

}  // namespace
