// Tests of PosgScheduler's quarantine API (mark_failed) and the stale-
// reply accounting: the scheduler-core half of the fault-tolerance layer
// (the runtime half — detection — is covered by runtime_test.cpp).
#include <gtest/gtest.h>

#include <numeric>

#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"

namespace {

using namespace posg;
using core::Decision;
using core::InstanceTracker;
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

/// Drives a k-instance scheduler through one complete epoch into RUN,
/// returning the markers it emitted.
std::vector<SyncRequest> drive_to_run(PosgScheduler& scheduler, const PosgConfig& config,
                                      std::size_t k) {
  for (common::InstanceId op = 0; op < k; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<SyncRequest> requests(k);
  for (common::SeqNo i = 0; i < k; ++i) {
    const Decision d = scheduler.schedule(1, i);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  for (common::InstanceId op = 0; op < k; ++op) {
    scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  return requests;
}

TEST(MarkFailed, RemovesInstanceFromGreedyCandidates) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  drive_to_run(scheduler, config, 3);

  scheduler.mark_failed(1);
  EXPECT_TRUE(scheduler.is_failed(1));
  EXPECT_EQ(scheduler.live_instances(), 2u);
  EXPECT_EQ(scheduler.failed_instances(), (std::vector<common::InstanceId>{1}));
  for (common::SeqNo i = 0; i < 200; ++i) {
    EXPECT_NE(scheduler.schedule(i % 8, i).instance, 1u);
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(MarkFailed, IsIdempotent) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  drive_to_run(scheduler, config, 3);
  scheduler.mark_failed(2);
  scheduler.mark_failed(2);
  EXPECT_EQ(scheduler.live_instances(), 2u);
}

TEST(MarkFailed, LastLiveInstanceQuarantineIsSurvivableAndTyped) {
  // Overload-resilience semantics: quarantining the last live instance is
  // legal (it may rejoin later); scheduling onto an empty cluster is the
  // defined, typed error path — never an abort.
  const auto config = test_config();
  PosgScheduler one(1, config);
  one.mark_failed(0);
  EXPECT_EQ(one.live_instances(), 0u);
  EXPECT_THROW(one.schedule(1, 0), core::NoLiveInstanceError);
  EXPECT_THROW(one.mark_failed(7), std::invalid_argument);  // out of range stays typed

  PosgScheduler two(2, config);
  two.mark_failed(0);
  two.mark_failed(1);
  EXPECT_EQ(two.live_instances(), 0u);
  EXPECT_THROW(two.schedule(1, 0), core::NoLiveInstanceError);
  // NoLiveInstanceError is a runtime_error (the runtime's catch path).
  EXPECT_THROW(two.schedule(1, 0), std::runtime_error);
}

TEST(MarkFailed, RejoinRevivesAnEmptyCluster) {
  const auto config = test_config();
  PosgScheduler scheduler(1, config);
  scheduler.mark_failed(0);
  ASSERT_THROW(scheduler.schedule(1, 0), core::NoLiveInstanceError);
  scheduler.rejoin(0);
  EXPECT_EQ(scheduler.live_instances(), 1u);
  EXPECT_EQ(scheduler.rejoin_count(), 1u);
  EXPECT_EQ(scheduler.schedule(1, 0).instance, 0u);
}

TEST(MarkFailed, SingleSurvivorAbsorbsEntireLoadShare) {
  // k = 1 survivor: the redistribution loop has exactly one recipient and
  // must conserve total C-hat into it.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  drive_to_run(scheduler, config, 2);
  for (common::SeqNo i = 0; i < 40; ++i) {
    scheduler.schedule(1 + i % 3, i);
  }
  const auto before = scheduler.estimated_loads();
  const double total_before = before[0] + before[1];
  scheduler.mark_failed(0);
  const auto after = scheduler.estimated_loads();
  EXPECT_DOUBLE_EQ(after[0], 0.0);
  EXPECT_NEAR(after[1], total_before, 1e-9);
  // And scheduling still works on the lone survivor.
  for (common::SeqNo i = 0; i < 20; ++i) {
    EXPECT_EQ(scheduler.schedule(1, 100 + i).instance, 1u);
  }
}

TEST(MarkFailed, RedistributesLoadShareOverSurvivors) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  drive_to_run(scheduler, config, 3);
  for (common::SeqNo i = 0; i < 30; ++i) {
    scheduler.schedule(1, i);
  }
  const auto before = scheduler.estimated_loads();
  const double total_before = std::accumulate(before.begin(), before.end(), 0.0);
  const double gap_before = before[0] - before[2];

  scheduler.mark_failed(1);
  const auto& after = scheduler.estimated_loads();
  EXPECT_DOUBLE_EQ(after[1], 0.0);
  // Total Ĉ is conserved and the survivors' relative ordering preserved
  // (each absorbed the same share).
  EXPECT_NEAR(after[0] + after[2], total_before, 1e-9);
  EXPECT_NEAR(after[0] - after[2], gap_before, 1e-9);
}

TEST(MarkFailed, DuringWaitAllCompletesEpochOnSurvivors) {
  // The WAIT_ALL liveness hole: instance 2 dies between the marker and
  // its reply; the survivors' replies must be enough to reach RUN.
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<SyncRequest> requests(3);
  for (common::SeqNo i = 0; i < 3; ++i) {
    const Decision d = scheduler.schedule(1, i);
    ASSERT_TRUE(d.sync_request.has_value());
    requests[d.instance] = *d.sync_request;
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);

  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 5.0});
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, -2.0});
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);  // still waiting on 2

  scheduler.mark_failed(2);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  EXPECT_EQ(scheduler.live_instances(), 2u);
}

TEST(MarkFailed, DuringSendAllAbandonsPendingMarker) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);

  // First marker goes out, then the next instance in rotation dies with
  // its marker still pending.
  const Decision first = scheduler.schedule(1, 0);
  ASSERT_TRUE(first.sync_request.has_value());
  const common::InstanceId victim = (first.instance + 1) % 3;
  scheduler.mark_failed(victim);
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);

  // The rotation now only ever visits survivors; once the remaining
  // marker is piggy-backed the epoch waits on two replies, not three.
  std::vector<SyncRequest> requests(3);
  requests[first.instance] = *first.sync_request;
  for (common::SeqNo i = 1; i < 4 && scheduler.state() == PosgScheduler::State::kSendAll; ++i) {
    const Decision d = scheduler.schedule(1, i);
    EXPECT_NE(d.instance, victim);
    if (d.sync_request) {
      requests[d.instance] = *d.sync_request;
    }
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  for (common::InstanceId op = 0; op < 3; ++op) {
    if (op != victim) {
      scheduler.on_feedback(core::SyncReply{op, requests[op].epoch, 0.0});
    }
  }
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(MarkFailed, RoundRobinRotationSkipsQuarantined) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  // Only instance 0 shipped: still ROUND_ROBIN when 1 dies.
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.mark_failed(1);
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin);
  std::vector<int> hits(3, 0);
  for (common::SeqNo i = 0; i < 10; ++i) {
    ++hits[scheduler.schedule(1, i).instance];
  }
  EXPECT_EQ(hits[0], 5);
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(hits[2], 5);
}

TEST(MarkFailed, UnblocksBootstrapWhenMissingShipperDies) {
  // Fig. 3.A/B requires a sketch from *every* instance before leaving
  // ROUND_ROBIN — a crashed instance must not pin the scheduler there.
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(make_shipment(1, config));
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin);
  scheduler.mark_failed(2);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  EXPECT_EQ(scheduler.epoch(), 1u);
}

TEST(MarkFailed, IgnoresLateTrafficFromQuarantinedInstance) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  const auto requests = drive_to_run(scheduler, config, 3);
  scheduler.mark_failed(0);
  const auto loads = scheduler.estimated_loads();
  // A zombie's late shipment and reply must both be dropped.
  scheduler.on_feedback(make_shipment(0, config));
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 1e6});
  EXPECT_EQ(scheduler.estimated_loads(), loads);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

TEST(StaleReplies, DelayedReplyIsCountedAndNotFoldedIn) {
  // Regression (satellite): a SyncReply delayed past its epoch used to be
  // silently discarded; it must be *counted* and must never perturb the
  // current epoch's bookkeeping.
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  const auto epoch1 = drive_to_run(scheduler, config, 2);
  ASSERT_EQ(scheduler.stale_reply_count(), 0u);

  // A fresh shipment opens epoch 2; now deliver instance 1's epoch-1
  // reply again, "delayed in the network".
  scheduler.on_feedback(make_shipment(0, config));
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  ASSERT_EQ(scheduler.epoch(), 2u);
  const auto loads = scheduler.estimated_loads();

  scheduler.on_feedback(core::SyncReply{1, epoch1[1].epoch, 777.0});
  EXPECT_EQ(scheduler.stale_reply_count(), 1u);
  EXPECT_EQ(scheduler.estimated_loads(), loads);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);

  // Replies from outside any active epoch (RUN) also count as stale.
  std::vector<SyncRequest> requests(2);
  for (common::SeqNo i = 0; i < 2; ++i) {
    const Decision d = scheduler.schedule(1, i);
    ASSERT_TRUE(d.sync_request.has_value());
    requests[d.instance] = *d.sync_request;
  }
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, 0.0});
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  scheduler.on_feedback(core::SyncReply{0, requests[0].epoch, 0.0});
  EXPECT_EQ(scheduler.stale_reply_count(), 2u);
}

TEST(StaleReplies, FutureEpochRepliesAreStaleToo) {
  const auto config = test_config();
  PosgScheduler scheduler(2, config);
  for (common::InstanceId op = 0; op < 2; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  scheduler.on_feedback(core::SyncReply{0, scheduler.epoch() + 5, 1.0});
  EXPECT_EQ(scheduler.stale_reply_count(), 1u);
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
}

TEST(PendingReplies, TracksLiveInstancesOwingTheCurrentEpoch) {
  const auto config = test_config();
  PosgScheduler scheduler(3, config);
  EXPECT_TRUE(scheduler.pending_replies().empty());  // no epoch active
  for (common::InstanceId op = 0; op < 3; ++op) {
    scheduler.on_feedback(make_shipment(op, config));
  }
  std::vector<SyncRequest> requests(3);
  for (common::SeqNo i = 0; i < 3; ++i) {
    const Decision d = scheduler.schedule(1, i);
    requests[d.instance] = *d.sync_request;
  }
  EXPECT_EQ(scheduler.pending_replies(), (std::vector<common::InstanceId>{0, 1, 2}));
  scheduler.on_feedback(core::SyncReply{1, requests[1].epoch, 0.0});
  EXPECT_EQ(scheduler.pending_replies(), (std::vector<common::InstanceId>{0, 2}));
  scheduler.mark_failed(0);
  EXPECT_EQ(scheduler.pending_replies(), (std::vector<common::InstanceId>{2}));
  scheduler.on_feedback(core::SyncReply{2, requests[2].epoch, 0.0});
  EXPECT_TRUE(scheduler.pending_replies().empty());
  EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRun);
}

}  // namespace
