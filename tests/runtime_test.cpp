// In-process tests of the distributed runtime (src/runtime/): the same
// SchedulerRuntime / InstanceRuntime event loops the forked example runs,
// driven here over socket pairs with instance threads — including the
// failure drills: crash mid-epoch, silent lost reply (epoch deadline),
// corrupt feedback (quarantine), and registration validation.
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "core/instance_pool.hpp"
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

/// One in-process instance: a thread running the InstanceRuntime loop
/// over its half of a socket pair (optionally behind a FaultInjector).
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

/// Routes the stream with light pacing so the instances keep up. An
/// unpaced loop can push the entire stream through ROUND_ROBIN before the
/// first sketch shipment even arrives, which would skip the epochs the
/// failure drills rely on; a brief yield every few tuples models the
/// backpressure any real source has.
void route_stream(SchedulerRuntime& rt, common::SeqNo begin, common::SeqNo end) {
  for (common::SeqNo seq = begin; seq < end; ++seq) {
    rt.route((seq * 37) % 64, seq);
    if ((seq & 31) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    if (rt.state() == core::PosgScheduler::State::kWaitAll) {
      // Replies arrive on the reader threads; give them wall-clock.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// Routes extra tuples until the scheduler settles in RUN *and stays
/// there once the instances' backlog has drained*: epochs only progress
/// through tuple traffic, and a shipment arriving from a still-draining
/// instance can reopen SEND_ALL right after RUN was observed — so reach
/// RUN, wait out the in-flight feedback, and re-flush if it reopened.
void flush_to_run(SchedulerRuntime& rt, common::SeqNo from) {
  common::SeqNo seq = from;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 2000 && rt.state() != core::PosgScheduler::State::kRun; ++i) {
      rt.route(seq % 64, seq);
      ++seq;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (rt.state() != core::PosgScheduler::State::kRun) {
      return;  // budget exhausted; the caller's state assertion reports it
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (rt.state() == core::PosgScheduler::State::kRun) {
      return;  // quiescent: no tuples in flight, no epoch reopened
    }
  }
}

TEST(SchedulerRuntime, FullProtocolCompletesInProcess) {
  const std::size_t k = 3;
  const common::SeqNo m = 6000;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  instance_config.cost_model = [](common::Item item) { return 1.0 + double(item % 8); };
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, m);
  flush_to_run(rt, m);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  std::uint64_t executed = 0;
  for (const auto& instance : instances) {
    executed += instance->stats.executed;
    EXPECT_FALSE(instance->stats.crashed);
  }
  EXPECT_GE(executed, m);  // m stream tuples + the flush tail
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  EXPECT_EQ(rt.live_instances(), k);
  EXPECT_TRUE(rt.quarantined().empty());
  const auto routed = rt.routed_counts();
  EXPECT_GE(std::accumulate(routed.begin(), routed.end(), std::uint64_t{0}), m);
}

/// Acceptance drill: with k = 3, one instance dies mid-epoch — after the
/// scheduler sent its marker, before the SyncReply. The run must drain
/// the full stream on the 2 survivors with no hang and no crash, report
/// the quarantined instance, and finish in RUN with k' = 2.
TEST(SchedulerRuntime, KilledInstanceMidEpochIsQuarantinedAndRunDrains) {
  const std::size_t k = 3;
  const common::SeqNo m = 9000;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    if (op == 2) {
      instance_config.crash_on_marker_epoch = 1;  // die between marker and reply
    }
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, m);  // must never throw: survivors absorb the work
  flush_to_run(rt, m);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  EXPECT_TRUE(instances[2]->stats.crashed);
  EXPECT_EQ(rt.quarantined(), (std::vector<common::InstanceId>{2}));
  EXPECT_EQ(rt.live_instances(), 2u);
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  ASSERT_FALSE(rt.quarantine_log().empty());
  EXPECT_EQ(rt.quarantine_log().front().instance, 2u);
  // Delivery accounting (at-most-once): every tuple routed to a survivor
  // was executed; the only losses are tuples already queued at the dead
  // instance when it crashed. route() accepted the full stream (it never
  // threw above), so the survivors drained everything re-routable.
  const auto routed = rt.routed_counts();
  const std::uint64_t survivors = instances[0]->stats.executed + instances[1]->stats.executed;
  EXPECT_EQ(survivors, routed[0] + routed[1]);
  EXPECT_GE(routed[0] + routed[1] + routed[2], m);
  // Nothing was routed to instance 2 after its quarantine: its tuple
  // count stops near the crash point, far below an even share.
  EXPECT_LT(routed[2], m / k);
}

/// The WAIT_ALL liveness hole, silent variant: the instance stays alive
/// and keeps executing but goes feedback-mute (no replies, no shipments).
/// EOF never comes and no fresh shipment set can supersede the stalled
/// epoch — only the epoch deadline can unblock the scheduler.
TEST(SchedulerRuntime, EpochDeadlineQuarantinesSilentlyLostReply) {
  const std::size_t k = 3;
  const common::SeqNo m = 6000;
  auto config = test_runtime_config(k);
  config.epoch_deadline = std::chrono::milliseconds(600);
  SchedulerRuntime rt(config);

  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    if (op == 1) {
      instance_config.mute_from_epoch = 1;  // alive, but feedback-silent
    }
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, m);  // the kWaitAll pacing gives the deadline wall-clock
  flush_to_run(rt, m);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  // The mute instance must be quarantined by the deadline. A timeout
  // detector may legitimately also catch a healthy instance that a loaded
  // CI machine starved past the deadline, so assert containment, not
  // exact equality.
  const auto quarantined = rt.quarantined();
  EXPECT_TRUE(std::find(quarantined.begin(), quarantined.end(), 1u) != quarantined.end())
      << "mute instance not quarantined";
  EXPECT_EQ(rt.live_instances(), k - quarantined.size());
  EXPECT_GE(rt.live_instances(), 1u);
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  bool deadline_reason = false;
  for (const auto& event : rt.quarantine_log()) {
    deadline_reason |= event.instance == 1 &&
                       event.reason.find("epoch deadline") != std::string::npos;
  }
  EXPECT_TRUE(deadline_reason);
  EXPECT_FALSE(instances[1]->stats.crashed);  // it was healthy, just mute
}

/// A peer that starts speaking garbage on the feedback path is as gone as
/// a dead one: quarantine, don't fold corrupt bytes into Ĉ.
TEST(SchedulerRuntime, CorruptFeedbackFrameQuarantinesSender) {
  const std::size_t k = 3;
  const common::SeqNo m = 6000;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto [sched_end, inst_end] = net::socket_pair();
    if (op == 0) {
      // Scheduler-side recv frame #0 is instance 0's Hello; frame #1 is
      // its first feedback message — corrupt that one.
      net::FaultPlan plan;
      plan.corrupt(net::FaultDir::kRecv, 1, 3, 0xFF);
      rt.attach(op, std::make_unique<net::FaultInjector>(std::move(sched_end), plan));
    } else {
      rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    }
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, m);
  flush_to_run(rt, m);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  EXPECT_EQ(rt.quarantined(), (std::vector<common::InstanceId>{0}));
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  EXPECT_EQ(rt.live_instances(), 2u);
}

TEST(SchedulerRuntime, RegistrationValidatesHelloIds) {
  const std::size_t k = 2;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_reg_test.sock").string();
  net::Listener listener(path);
  std::thread registrar([&] { rt.accept_registrations(listener); });

  // Out-of-range id, duplicate id, and a non-Hello first frame must all
  // be rejected (closed), never indexed into the link table.
  auto rogue = net::connect(path);
  rogue.send_frame(net::encode(net::Hello{99}));
  auto real0 = net::connect(path);
  real0.send_frame(net::encode(net::Hello{0}));
  auto duplicate = net::connect(path);
  duplicate.send_frame(net::encode(net::Hello{0}));
  auto garbled = net::connect(path);
  garbled.send_frame(std::vector<std::byte>{std::byte{0x7F}, std::byte{0x01}});
  auto real1 = net::connect(path);
  real1.send_frame(net::encode(net::Hello{1}));
  registrar.join();

  // Rejected peers see their connection closed.
  EXPECT_FALSE(rogue.recv_frame().has_value());
  EXPECT_FALSE(duplicate.recv_frame().has_value());
  EXPECT_FALSE(garbled.recv_frame().has_value());
  // The accepted peers' links are live: start() succeeds with all k
  // attached (it would throw on a hole in the table).
  rt.start();
  // Orderly client exit: wait for EndOfStream, then close, so finish()
  // observes a clean EOF instead of burning its drain grace period.
  std::thread drainer([&] {
    real0.recv_frame();
    real0.close();
    real1.recv_frame();
    real1.close();
  });
  rt.finish();
  drainer.join();
  EXPECT_TRUE(rt.quarantined().empty());
}

TEST(SchedulerRuntime, RegistrationGivesUpAfterAttemptBudget) {
  auto config = test_runtime_config(1);
  config.max_registration_attempts = 2;
  SchedulerRuntime rt(config);
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_budget_test.sock").string();
  net::Listener listener(path);

  std::thread rogues([&path] {
    for (int i = 0; i < 2; ++i) {
      auto socket = net::connect(path);
      socket.send_frame(net::encode(net::Hello{5}));  // k = 1: out of range
      socket.recv_frame();                            // wait for the rejection (EOF)
    }
  });
  EXPECT_THROW(rt.accept_registrations(listener), std::runtime_error);
  rogues.join();
}

TEST(SchedulerRuntime, RegistrationGivesUpWhenAnInstanceNeverDials) {
  // Instance 1 died before it dialled. Each hello_deadline that passes
  // with no connection spends one attempt, so registration ends in
  // RegistrationError instead of waiting for it forever.
  auto config = test_runtime_config(2);
  config.hello_deadline = std::chrono::milliseconds(100);
  config.max_registration_attempts = 3;
  SchedulerRuntime rt(config);
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_never_dials_test.sock").string();
  net::Listener listener(path);
  auto registered = std::async(std::launch::async, [&] { rt.accept_registrations(listener); });
  net::Socket peer = net::connect(path);
  peer.send_frame(net::encode(net::Hello{0}));
  const auto status = registered.wait_for(std::chrono::seconds(5));
  // A registration stuck in a blocking accept() would hang the suite:
  // dial silent peers until the attempt budget ends it, then fail.
  while (registered.wait_for(std::chrono::milliseconds(10)) != std::future_status::ready) {
    net::connect(path);
  }
  ASSERT_EQ(status, std::future_status::ready) << "registration waited on a peer that never dials";
  EXPECT_THROW(registered.get(), RegistrationError);
}

/// A client that connects to the rejoin listener, sends one byte of a
/// length prefix and then goes quiet must not pin the rejoin acceptor:
/// finish() joins the acceptor and still returns within hello_deadline
/// plus a margin.
TEST(SchedulerRuntime, StalledRejoinClientDoesNotHangFinish) {
  const std::size_t k = 2;
  auto config = test_runtime_config(k);
  config.allow_rejoin = true;
  config.hello_deadline = std::chrono::milliseconds(300);
  SchedulerRuntime rt(config);
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_stalled_rejoin_test.sock").string();
  net::Listener listener(path);
  rt.enable_rejoin(listener);
  route_stream(rt, 0, 256);

  net::Socket rogue = net::connect(path);
  const std::byte first_byte{0x01};
  ASSERT_EQ(::send(rogue.fd(), &first_byte, 1, MSG_NOSIGNAL), 1);
  // Let the acceptor take the connection and start reading the frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto finished = std::async(std::launch::async, [&rt] { rt.finish(); });
  const auto status = finished.wait_for(config.hello_deadline + std::chrono::milliseconds(2000));
  if (status != std::future_status::ready) {
    rogue.shutdown();  // free a stuck acceptor, so the test fails instead of hanging
  }
  finished.wait();
  for (auto& instance : instances) {
    instance->join();
  }
  ASSERT_EQ(status, std::future_status::ready) << "finish() blocked behind a stalled client";
  EXPECT_TRUE(rt.quarantined().empty());
  EXPECT_TRUE(rt.rejoin_log().empty());
}

/// The rejoin acceptor admits a plain Hello only from a quarantined id.
/// A Hello for a live id, an id >= k, a Hello for another source and a
/// garbled frame are each refused: the peer sees its connection closed,
/// nothing rejoins, and no instance is quarantined.
TEST(SchedulerRuntime, RejoinAcceptorRefusesBadHellos) {
  const std::size_t k = 2;
  auto config = test_runtime_config(k);
  config.allow_rejoin = true;
  SchedulerRuntime rt(config);
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_rejoin_refusal_test.sock").string();
  net::Listener listener(path);
  rt.enable_rejoin(listener);

  net::Socket live = net::connect(path);
  live.send_frame(net::encode(net::Hello{0}));
  net::Socket out_of_range = net::connect(path);
  out_of_range.send_frame(net::encode(net::Hello{static_cast<common::InstanceId>(k)}));
  net::Socket other_source = net::connect(path);
  other_source.send_frame(net::encode(net::Hello{1, 7}));
  net::Socket garbled = net::connect(path);
  garbled.send_frame(std::vector<std::byte>{std::byte{0x7F}, std::byte{0x01}});
  // A refused peer reads EOF; a deadline turns a peer left open into a
  // failure instead of a hang.
  for (net::Socket* peer : {&live, &out_of_range, &other_source, &garbled}) {
    EXPECT_EQ(peer->recv_frame(std::chrono::milliseconds(5000)).status, net::RecvStatus::kEof);
  }

  route_stream(rt, 0, 256);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }
  EXPECT_TRUE(rt.rejoin_log().empty());
  EXPECT_TRUE(rt.quarantined().empty());
}

/// Rejoin end-to-end, in process: instance 2 crashes mid-run and is
/// quarantined; a fresh incarnation then registers over the rejoin
/// listener, receives the ReattachAck (tracker re-armed to the seeded
/// C-hat), ramps back through the token bucket, and finishes the stream as
/// a full member — the overload-resilience arc of the distributed runtime.
TEST(SchedulerRuntime, CrashedInstanceRejoinsAndRampsBackIn) {
  const std::size_t k = 3;
  auto config = test_runtime_config(k);
  config.allow_rejoin = true;
  SchedulerRuntime rt(config);

  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    InstanceRuntimeConfig instance_config;
    instance_config.posg = config.posg;
    if (op == 2) {
      instance_config.crash_after_executed = 200;
    }
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_rejoin_test.sock").string();
  net::Listener listener(path);
  rt.enable_rejoin(listener);

  // Route until the crash is detected (the crash fires ~tuple 600; give
  // the EOF detector traffic and wall-clock).
  common::SeqNo seq = 0;
  for (int i = 0; i < 20000 && rt.quarantined().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(rt.quarantined(), (std::vector<common::InstanceId>{2}));
  ASSERT_EQ(rt.live_instances(), 2u);

  // A fresh incarnation of instance 2 dials the rejoin listener.
  InstanceRuntimeConfig rejoin_config;
  rejoin_config.posg = config.posg;
  auto replacement = std::make_unique<TestInstance>();
  replacement->thread = std::thread([&path, rejoin_config, &stats = replacement->stats] {
    net::SocketTransport link(net::connect(path));
    InstanceRuntime loop(2, rejoin_config);
    stats = loop.run(link);
  });

  // Keep traffic flowing until the rejoin lands, then a tail so the
  // admission ramp finishes and the rejoiner earns a real share.
  for (int i = 0; i < 20000 && rt.rejoin_log().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(rt.rejoin_log(), (std::vector<common::InstanceId>{2}));
  route_stream(rt, seq, seq + 4000);
  seq += 4000;
  flush_to_run(rt, seq);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }
  replacement->join();

  EXPECT_TRUE(instances[2]->stats.crashed);
  EXPECT_FALSE(replacement->stats.crashed);
  EXPECT_EQ(replacement->stats.rejoin_acks, 1u);
  EXPECT_EQ(replacement->stats.reattach_acks, 0u);
  EXPECT_GT(replacement->stats.executed, 0u);
  EXPECT_EQ(rt.live_instances(), k);
  EXPECT_TRUE(rt.quarantined().empty());
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  EXPECT_EQ(rt.scheduler().ramp_remaining(2), 0u);  // ramp completed
  EXPECT_EQ(rt.metrics_snapshot().counters.at("posg.scheduler.rejoins"), 1u);
}

/// With rejoin enabled, even the *last* live instance dying is survivable:
/// route() fails with the typed error while the cluster is empty, and a
/// rejoiner brings it back.
TEST(SchedulerRuntime, LastInstanceDeathIsNonFatalWhenRejoinAllowed) {
  const std::size_t k = 1;
  auto config = test_runtime_config(k);
  config.allow_rejoin = true;
  SchedulerRuntime rt(config);

  InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  instance_config.crash_after_executed = 50;
  auto [sched_end, inst_end] = net::socket_pair();
  rt.attach(0, std::make_unique<net::SocketTransport>(std::move(sched_end)));
  auto instance = spawn_instance(0, instance_config, std::move(inst_end));
  rt.start();
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_runtime_last_rejoin_test.sock").string();
  net::Listener listener(path);
  rt.enable_rejoin(listener);

  common::SeqNo seq = 0;
  bool saw_no_live = false;
  for (int i = 0; i < 20000 && !saw_no_live; ++i) {
    try {
      rt.route(seq % 64, seq);
      ++seq;
    } catch (const core::NoLiveInstanceError&) {
      saw_no_live = true;  // defined error path, not a crash or abort
    }
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(saw_no_live);
  EXPECT_EQ(rt.live_instances(), 0u);
  instance->join();

  // A rejoiner revives the empty cluster; routing works again.
  InstanceRuntimeConfig rejoin_config;
  rejoin_config.posg = config.posg;
  auto replacement = std::make_unique<TestInstance>();
  replacement->thread = std::thread([&path, rejoin_config, &stats = replacement->stats] {
    net::SocketTransport link(net::connect(path));
    InstanceRuntime loop(0, rejoin_config);
    stats = loop.run(link);
  });
  for (int i = 0; i < 2000 && rt.rejoin_log().empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(rt.rejoin_log(), (std::vector<common::InstanceId>{0}));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(rt.route(seq % 64, seq), 0u);
    ++seq;
  }
  rt.finish();
  replacement->join();
  EXPECT_EQ(replacement->stats.rejoin_acks, 1u);
  EXPECT_GE(replacement->stats.executed, 500u);
}

/// Lossless drain end-to-end, in process: mid-run, instance 1 receives a
/// DrainRequest, finishes every queued tuple (FIFO link — nothing follows
/// the request), reports its final Δ via DrainComplete, and is retired.
/// Conservation: every tuple routed to it was executed; its final bill is
/// cut + Δ, landed in Ĉ exactly once; the run finishes on the survivors
/// with no quarantine anywhere.
TEST(SchedulerRuntime, DrainRetiresInstanceLosslessly) {
  const std::size_t k = 3;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, 3000);
  ASSERT_TRUE(rt.request_drain(1));
  EXPECT_FALSE(rt.request_drain(1));  // already draining: refused, not doubled

  // The DrainComplete arrives on the feedback path; keep traffic flowing
  // to the survivors while it lands.
  common::SeqNo seq = 3000;
  for (int i = 0; i < 20000 && rt.drain_log().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto log = rt.drain_log();
  ASSERT_EQ(log.size(), 1u);
  route_stream(rt, seq, seq + 2000);
  seq += 2000;
  flush_to_run(rt, seq);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  const auto& event = log.front();
  EXPECT_EQ(event.instance, 1u);
  EXPECT_EQ(event.executed, event.routed);  // nothing lost in the drain
  EXPECT_EQ(instances[1]->stats.executed, event.routed);
  EXPECT_TRUE(instances[1]->stats.drained);
  EXPECT_FALSE(instances[1]->stats.crashed);
  EXPECT_NEAR(event.final_billed, std::max(0.0, event.cut + event.final_delta), 1e-9);
  EXPECT_EQ(rt.serving_instances(), 2u);
  // The retired slot leaves the candidate set through the same bookkeeping
  // as a fault (so it can rejoin on a later scale-up) — but a drain is a
  // clean exit: the quarantine *log*, the fault record, stays empty.
  EXPECT_EQ(rt.quarantined(), (std::vector<common::InstanceId>{1}));
  EXPECT_TRUE(rt.quarantine_log().empty());
  EXPECT_EQ(rt.state(), core::PosgScheduler::State::kRun);
  EXPECT_FALSE(instances[0]->stats.crashed);
  EXPECT_FALSE(instances[2]->stats.crashed);
}

/// Liveness beats elasticity: with the first instance draining, the last
/// serving one must refuse to drain — an empty cluster is never a valid
/// scale-down target.
TEST(SchedulerRuntime, DrainOfTheLastServingInstanceIsRefused) {
  const std::size_t k = 2;
  auto config = test_runtime_config(k);
  SchedulerRuntime rt(config);

  InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  std::vector<std::unique_ptr<TestInstance>> instances;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto [sched_end, inst_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
    instances.push_back(spawn_instance(op, instance_config, std::move(inst_end)));
  }
  rt.start();
  route_stream(rt, 0, 1000);
  ASSERT_TRUE(rt.request_drain(0));
  EXPECT_FALSE(rt.request_drain(1));  // sole survivor: refused

  // The whole remaining stream lands on instance 1.
  common::SeqNo seq = 1000;
  for (int i = 0; i < 20000 && rt.drain_log().empty(); ++i) {
    rt.route((seq * 37) % 64, seq);
    ++seq;
    if ((seq & 15) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(rt.drain_log().size(), 1u);
  EXPECT_FALSE(rt.request_drain(1));  // still the sole survivor after retirement
  route_stream(rt, seq, seq + 1000);
  seq += 1000;
  flush_to_run(rt, seq);
  rt.finish();
  for (auto& instance : instances) {
    instance->join();
  }

  EXPECT_TRUE(instances[0]->stats.drained);
  EXPECT_FALSE(instances[1]->stats.drained);
  EXPECT_FALSE(instances[1]->stats.crashed);
  EXPECT_EQ(rt.serving_instances(), 1u);
  EXPECT_TRUE(rt.quarantine_log().empty());  // no fault anywhere in the run
}

/// A scheduler-side link whose far end the test holds as a raw socket, so
/// it sees exactly the frames the link writer sends.
struct RawLinks {
  std::vector<net::Socket> ends;

  RawLinks(SchedulerRuntime& rt, std::size_t k) {
    for (common::InstanceId op = 0; op < k; ++op) {
      auto [sched_end, raw_end] = net::socket_pair();
      rt.attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
      ends.push_back(std::move(raw_end));
    }
  }

  /// Next frame on `op`'s end, decoded; fails the test when none arrives
  /// within the deadline.
  net::Message next(common::InstanceId op,
                    std::chrono::milliseconds deadline = std::chrono::milliseconds(5000)) {
    net::RecvResult received = ends[op].recv_frame(deadline);
    EXPECT_EQ(received.status, net::RecvStatus::kFrame);
    return received.status == net::RecvStatus::kFrame ? net::decode(received.payload)
                                                      : net::Message{net::EndOfStream{}};
  }

  /// Runs rt.finish() while each end reads up to its EndOfStream and then
  /// closes, so every reader sees its EOF inside the shutdown window. Ends
  /// listed in `closed` are already done.
  void finish(SchedulerRuntime& rt, const std::vector<common::InstanceId>& closed = {}) {
    std::thread finisher([&rt] { rt.finish(); });
    for (common::InstanceId op = 0; op < ends.size(); ++op) {
      if (std::find(closed.begin(), closed.end(), op) == closed.end()) {
        while (!std::holds_alternative<net::EndOfStream>(next(op))) {
        }
      }
      ends[op].close();
    }
    finisher.join();
  }
};

/// Bytes a bare tuple frame takes on the wire, length prefix included.
std::size_t tuple_wire_bytes(common::SeqNo seq) {
  std::vector<std::byte> wire;
  net::append_frame(wire, net::encode(net::TupleMessage{seq, (seq * 37) % 64, std::nullopt}));
  return wire.size();
}

/// Bytes the kernel holds for `socket` to read (FIONREAD).
std::size_t kernel_readable(const net::Socket& socket) {
  int bytes = 0;
  EXPECT_EQ(::ioctl(socket.fd(), FIONREAD, &bytes), 0);
  return static_cast<std::size_t>(bytes);
}

TEST(SchedulerRuntime, LoneRouteReachesTheLinkWithNoLaterCall) {
  // route() only queues; the link writer must wake for a lone frame by
  // itself — no linger, no later route() or flush() to push it out. The
  // same holds for a frame routed right after the writer sent the one
  // before, and for the tail of a burst that may make the writer pause
  // between passes (kWriterPause). Nothing here is timed against the
  // pause: a sanitizer build routes more slowly than the pause lasts.
  SchedulerRuntime rt(test_runtime_config(1));
  RawLinks links(rt, 1);
  rt.start();
  const auto expect_next = [&links](common::SeqNo seq, common::Item item) {
    const net::Message message = links.next(0);
    const auto* tuple = std::get_if<net::TupleMessage>(&message);
    ASSERT_NE(tuple, nullptr);
    EXPECT_EQ(tuple->seq, seq);
    EXPECT_EQ(tuple->item, item);
  };
  EXPECT_EQ(rt.route(7, 0), 0u);
  expect_next(0, 7);
  EXPECT_EQ(rt.route(9, 1), 0u);
  expect_next(1, 9);
  for (common::SeqNo seq = 2; seq < 202; ++seq) {
    EXPECT_EQ(rt.route(seq % 64, seq), 0u);
  }
  for (common::SeqNo seq = 2; seq < 202; ++seq) {
    expect_next(seq, seq % 64);
  }
  EXPECT_EQ(rt.route(5, 202), 0u);
  expect_next(202, 5);
  links.finish(rt);
}

TEST(SchedulerRuntime, FlushPutsEveryRoutedFrameInTheKernel) {
  // Nobody reads the far ends, so after flush() every routed frame must
  // already be sitting in its socket's receive queue: the byte count is
  // exact, and the frames come back in routing order without a wait.
  // 600 tuples over 3 links far exceed one outbox, so route() also waits
  // on the cap and the writer sends more than one batch per link.
  const std::size_t k = 3;
  const common::SeqNo m = 600;
  SchedulerRuntime rt(test_runtime_config(k));
  RawLinks links(rt, k);
  rt.start();
  std::vector<std::vector<common::SeqNo>> routed(k);
  std::vector<std::size_t> wire(k, 0);
  for (common::SeqNo seq = 0; seq < m; ++seq) {
    const common::InstanceId op = rt.route((seq * 37) % 64, seq);
    routed[op].push_back(seq);
    wire[op] += tuple_wire_bytes(seq);
  }
  rt.flush();
  for (common::InstanceId op = 0; op < k; ++op) {
    ASSERT_FALSE(routed[op].empty());
    EXPECT_EQ(kernel_readable(links.ends[op]), wire[op]) << "instance " << op;
    for (const common::SeqNo seq : routed[op]) {
      const net::Message message = links.next(op, std::chrono::milliseconds(1000));
      const auto* tuple = std::get_if<net::TupleMessage>(&message);
      ASSERT_NE(tuple, nullptr);
      EXPECT_EQ(tuple->seq, seq);
    }
  }
  // Batching is counted where it happens: every frame left in a send
  // call, and a send call carries at least one frame.
  const obs::Snapshot snapshot = rt.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("posg.runtime.frames_sent"), m);
  EXPECT_GE(snapshot.counters.at("posg.runtime.send_calls"), k);
  EXPECT_LE(snapshot.counters.at("posg.runtime.send_calls"), m);
  links.finish(rt);
}

TEST(SchedulerRuntime, PublishesOneSchedulerFamilyUnderItsPrefix) {
  // The runtime registers the scheduler's own metric family, each
  // callback under the runtime's lock: a thread snapshotting while the
  // router runs races nothing (the TSan job runs this), and every name
  // carries source 1's prefix.
  const std::size_t k = 3;
  const common::SeqNo m = 300;
  auto config = test_runtime_config(k);
  config.source_id = 1;
  SchedulerRuntime rt(config);
  RawLinks links(rt, k);
  rt.start();
  std::atomic<bool> routing{true};
  std::thread observer([&rt, &routing] {
    do {
      (void)rt.metrics().snapshot();
    } while (routing.load());
  });
  for (common::SeqNo seq = 0; seq < m; ++seq) {
    (void)rt.route((seq * 37) % 64, seq);
  }
  routing.store(false);
  observer.join();
  links.finish(rt);

  const obs::Snapshot snapshot = rt.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("posg.s1.scheduler.decisions"), m);
  EXPECT_EQ(snapshot.gauges.count("posg.s1.scheduler.state"), 1u);
  for (common::InstanceId op = 0; op < k; ++op) {
    EXPECT_EQ(snapshot.gauges.count("posg.s1.health.derate." + std::to_string(op)), 1u) << op;
  }
  const auto unprefixed = [](const std::string& name) {
    return name.rfind("posg.scheduler.", 0) == 0 || name.rfind("posg.health.", 0) == 0;
  };
  for (const auto& entry : snapshot.counters) {
    EXPECT_FALSE(unprefixed(entry.first)) << entry.first;
  }
  for (const auto& entry : snapshot.gauges) {
    EXPECT_FALSE(unprefixed(entry.first)) << entry.first;
  }
}

TEST(SchedulerRuntime, DrainRequestFollowsEveryEarlierTupleAndNothingElse) {
  // The outbox keeps one FIFO per link across frame kinds: tuples routed
  // to instance 0 right before request_drain(0) arrive, in order, ahead
  // of the DrainRequest, and although routing goes on, nothing follows it.
  const std::size_t k = 2;
  SchedulerRuntime rt(test_runtime_config(k));
  RawLinks links(rt, k);
  rt.start();
  std::vector<std::vector<common::SeqNo>> routed(k);
  common::SeqNo seq = 0;
  for (; seq < 64; ++seq) {
    routed[rt.route((seq * 37) % 64, seq)].push_back(seq);
  }
  ASSERT_FALSE(routed[0].empty());
  ASSERT_TRUE(rt.request_drain(0));
  for (; seq < 256; ++seq) {
    const common::InstanceId op = rt.route((seq * 37) % 64, seq);
    EXPECT_EQ(op, 1u) << "tuple " << seq << " followed the DrainRequest";
    routed[op].push_back(seq);
  }
  rt.flush();

  for (const common::SeqNo expected : routed[0]) {
    const net::Message message = links.next(0);
    const auto* tuple = std::get_if<net::TupleMessage>(&message);
    ASSERT_NE(tuple, nullptr);
    EXPECT_EQ(tuple->seq, expected);
  }
  const net::Message last = links.next(0);
  const auto* drain = std::get_if<net::DrainRequest>(&last);
  ASSERT_NE(drain, nullptr);
  EXPECT_EQ(drain->instance, 0u);
  // flush() returned, so anything queued behind the request would already
  // be readable.
  EXPECT_EQ(links.ends[0].recv_frame(std::chrono::milliseconds(50)).status,
            net::RecvStatus::kTimeout);
  // Answer like an instance whose queue ran dry; finish() joins the
  // reader, which retires the instance on this frame.
  links.ends[0].send_frame(net::encode(
      net::DrainComplete{0, drain->epoch, 0.0, static_cast<std::uint64_t>(routed[0].size())}));
  links.finish(rt, {0});
  ASSERT_EQ(rt.drain_log().size(), 1u);
  EXPECT_EQ(rt.drain_log().front().routed, routed[0].size());
  EXPECT_EQ(rt.drain_log().front().executed, routed[0].size());
  EXPECT_TRUE(rt.quarantine_log().empty());
}

TEST(SchedulerRuntime, LastInstanceDeathAfterTheLastRouteFailsFinish) {
  // route() returns once its tuple is queued, so the death of the only
  // instance (no rejoin) can be found after the last route() returned:
  // finish() must then report the lost run as route() would have.
  SchedulerRuntime rt(test_runtime_config(1));
  RawLinks links(rt, 1);
  rt.start();
  EXPECT_EQ(rt.route(7, 0), 0u);
  ASSERT_TRUE(std::holds_alternative<net::TupleMessage>(links.next(0)));
  links.ends[0].close();  // the instance dies with the stream already routed
  EXPECT_THROW(rt.finish(), core::NoLiveInstanceError);
  EXPECT_NO_THROW(rt.finish());  // idempotent: reported once
}

TEST(InstanceRuntime, SurvivesCorruptTupleFrames) {
  // Satellite of the fault model: a corrupt frame reaching an instance is
  // dropped and counted; the instance keeps executing.
  auto [sched_end, inst_end] = net::socket_pair();
  InstanceRuntimeConfig config;
  config.recv_deadline = std::chrono::milliseconds(20);
  InstanceRuntime instance(7, config);
  InstanceRuntime::Stats stats;
  std::thread thread([&] {
    net::SocketTransport link(std::move(inst_end));
    stats = instance.run(link);
  });

  const auto hello = sched_end.recv_frame();
  ASSERT_TRUE(hello.has_value());
  net::TupleMessage tuple;
  tuple.seq = 0;
  tuple.item = 3;
  sched_end.send_frame(net::encode(tuple));
  sched_end.send_frame(std::vector<std::byte>{std::byte{0xEE}, std::byte{0xAA}});
  tuple.seq = 1;
  sched_end.send_frame(net::encode(tuple));
  sched_end.send_frame(net::encode(net::EndOfStream{}));
  thread.join();

  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_FALSE(stats.crashed);
}

/// The multi-session instance loop in-process (DESIGN.md §15): S = 2
/// SchedulerRuntime views over one core::InstancePool, and k = 2 instance
/// threads that each serve one socket-pair session per view.
class MultiSourceRuntime : public ::testing::Test {
 protected:
  static constexpr std::size_t kSources = 2;
  static constexpr std::size_t kInstances = 2;

  void SetUp() override {
    pool_ = std::make_shared<core::InstancePool>(kInstances);
    std::vector<std::string> paths(kSources);
    if (redial_) {
      for (common::SourceId s = 0; s < kSources; ++s) {
        paths[s] = reconnect_path(s);
      }
    }
    for (common::SourceId s = 0; s < kSources; ++s) {
      auto config = test_runtime_config(kInstances);
      config.source_id = s;
      views_.push_back(std::make_unique<SchedulerRuntime>(config, pool_));
    }
    InstanceRuntimeConfig instance_config;
    instance_config.posg = test_runtime_config(kInstances).posg;
    instance_config.recv_deadline = std::chrono::milliseconds(20);
    for (common::InstanceId op = 0; op < kInstances; ++op) {
      std::vector<net::Socket> ends;
      for (auto& view : views_) {
        auto [sched_end, inst_end] = net::socket_pair();
        view->attach(op, std::make_unique<net::SocketTransport>(std::move(sched_end)));
        ends.push_back(std::move(inst_end));
      }
      auto instance = std::make_unique<TestInstance>();
      instance->thread = std::thread([op, instance_config, paths, &stats = instance->stats,
                                      ends = std::move(ends)]() mutable {
        std::vector<net::SocketTransport> links;
        links.reserve(ends.size());
        std::vector<InstanceRuntime::SourceLink> sessions;
        for (common::SourceId s = 0; s < ends.size(); ++s) {
          links.emplace_back(std::move(ends[s]));
          sessions.push_back({s, &links.back(), paths[s]});
        }
        stats = InstanceRuntime(op, instance_config).run_multi(sessions);
      });
      instances_.push_back(std::move(instance));
    }
    for (auto& view : views_) {
      view->start();
    }
  }

  void TearDown() override { finish(); }

  /// Routes tuple seq through view seq % S for seq in [begin, end),
  /// skipping severed views, paced like route_stream.
  void route(common::SeqNo begin, common::SeqNo end) {
    for (common::SeqNo seq = begin; seq < end; ++seq) {
      SchedulerRuntime& view = *views_[seq % kSources];
      if (severed_[seq % kSources]) {
        continue;
      }
      view.route((seq * 37) % 64, seq);
      if ((seq & 31) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
      if (view.state() == core::PosgScheduler::State::kWaitAll) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Finishes every view at once (a session ends on its own EndOfStream,
  /// but an instance closes its links only when all its sessions ended),
  /// then joins the instance threads. Idempotent.
  void finish() {
    std::vector<std::thread> finishers;
    for (auto& view : views_) {
      finishers.emplace_back([&view] { view->finish(); });
    }
    for (auto& finisher : finishers) {
      finisher.join();
    }
    for (auto& instance : instances_) {
      instance->join();
    }
  }

  static std::string reconnect_path(common::SourceId s) {
    return (std::filesystem::temp_directory_path() /
            ("posg_multisource_runtime_test_s" + std::to_string(s) + ".sock"))
        .string();
  }

  std::uint64_t routed_total(common::SourceId s) const {
    const auto routed = views_[s]->routed_counts();
    return std::accumulate(routed.begin(), routed.end(), std::uint64_t{0});
  }

  std::uint64_t executed_total(common::SourceId s) const {
    std::uint64_t total = 0;
    for (const auto& instance : instances_) {
      total += instance->stats.per_source_executed.at(s);
    }
    return total;
  }

  std::shared_ptr<core::InstancePool> pool_;
  std::vector<std::unique_ptr<SchedulerRuntime>> views_;
  std::vector<std::unique_ptr<TestInstance>> instances_;
  std::array<bool, kSources> severed_{};
  bool redial_ = false;  // sessions get reconnect_path(s) instead of none
};

/// The same rig, but every session may redial its source's socket path.
class MultiSourceRuntimeRedial : public MultiSourceRuntime {
 protected:
  MultiSourceRuntimeRedial() { redial_ = true; }
};

TEST_F(MultiSourceRuntime, EachSourceExecutesExactlyWhatItRouted) {
  const common::SeqNo m = 6000;
  route(0, m);
  finish();

  for (common::SourceId s = 0; s < kSources; ++s) {
    EXPECT_EQ(routed_total(s), m / kSources) << "source " << s;
    EXPECT_EQ(executed_total(s), routed_total(s)) << "source " << s;
    EXPECT_TRUE(views_[s]->quarantine_log().empty());
  }
  for (const auto& instance : instances_) {
    ASSERT_EQ(instance->stats.per_source_executed.size(), kSources);
    EXPECT_EQ(instance->stats.executed,
              instance->stats.per_source_executed[0] + instance->stats.per_source_executed[1]);
    EXPECT_EQ(instance->stats.sources_lost, 0u);
    EXPECT_FALSE(instance->stats.crashed);
  }
}

TEST_F(MultiSourceRuntime, SeveredSourceEndsOnlyItsOwnSessions) {
  const common::SeqNo m = 6000;
  route(0, m / 3);
  views_[1]->sever();  // source 1 dies with no EndOfStream, no reconnect path
  severed_[1] = true;
  route(m / 3, m);
  finish();

  // The survivor drained its whole share and quarantined nobody: a dead
  // source is not a dead instance.
  EXPECT_EQ(routed_total(0), m / kSources);
  EXPECT_EQ(executed_total(0), routed_total(0));
  EXPECT_TRUE(views_[0]->quarantine_log().empty());
  EXPECT_TRUE(views_[1]->quarantine_log().empty());
  const auto severed_routed = views_[1]->routed_counts();
  for (common::InstanceId op = 0; op < kInstances; ++op) {
    const auto& stats = instances_[op]->stats;
    EXPECT_EQ(stats.sources_lost, 1u) << "instance " << op;
    EXPECT_LE(stats.per_source_executed.at(1), severed_routed[op]) << "instance " << op;
    EXPECT_FALSE(stats.crashed);
    EXPECT_EQ(pool_->lifecycle(op), core::InstancePool::Lifecycle::kServing);
  }
}

/// A severed source restarts as a fresh view over the same pool: its
/// sessions, redialing on their own schedule while the live source keeps
/// flowing, re-attach with SchedulerHello and finish the stream.
TEST_F(MultiSourceRuntimeRedial, RestartedSourceIsReattachedWhileTheOtherFlows) {
  const common::SeqNo m = 6000;
  route(0, m / 3);
  views_[1]->sever();
  severed_[1] = true;
  const std::uint64_t severed_routed = routed_total(1);
  route(m / 3, 2 * m / 3);  // source 1's sessions are down and redialing

  net::Listener listener(reconnect_path(1));
  auto config = test_runtime_config(kInstances);
  config.source_id = 1;
  auto restarted = std::make_unique<SchedulerRuntime>(config, pool_);
  restarted->accept_registrations(listener);  // every session dials back in
  restarted->start();
  views_[1] = std::move(restarted);
  severed_[1] = false;
  route(2 * m / 3, m);
  finish();

  EXPECT_EQ(routed_total(0), m / kSources);
  EXPECT_EQ(executed_total(0), routed_total(0));
  // Session 1 executed all of the new view's tuples and at most all of
  // the severed one's.
  EXPECT_GE(executed_total(1), routed_total(1));
  EXPECT_LE(executed_total(1), routed_total(1) + severed_routed);
  for (const auto& view : views_) {
    EXPECT_TRUE(view->quarantine_log().empty());
  }
  for (common::InstanceId op = 0; op < kInstances; ++op) {
    const auto& stats = instances_[op]->stats;
    EXPECT_EQ(stats.reconnects, 1u) << "instance " << op;
    EXPECT_EQ(stats.reattach_acks, 1u) << "instance " << op;
    EXPECT_EQ(stats.sources_lost, 0u) << "instance " << op;
    EXPECT_EQ(pool_->lifecycle(op), core::InstancePool::Lifecycle::kServing);
  }
}

}  // namespace
