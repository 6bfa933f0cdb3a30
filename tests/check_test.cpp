// Tests for the invariant-checking layer (src/common/check.hpp and the
// debug_validate() methods): every validator is driven through its passing
// path AND into its death/abort path. The abort paths need private-state
// corruption, which goes through the TestCorruptor friend backdoors —
// production code paths can never reach these states (that is the point of
// the invariants).

#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/posg_scheduler.hpp"
#include "engine/queue.hpp"
#include "net/protocol.hpp"
#include "sketch/dual_sketch.hpp"

namespace posg {
namespace core {

struct PosgScheduler::TestCorruptor {
  static void negate_c_est(PosgScheduler& scheduler, common::InstanceId op) {
    scheduler.c_est_[op] = -1.0;
  }
  static void desync_live_count(PosgScheduler& scheduler) { scheduler.live_count_ += 1; }
  static void pretend_marker_pending(PosgScheduler& scheduler, common::InstanceId op) {
    scheduler.marker_pending_[op] = true;  // without touching markers_outstanding_
  }
  static void give_failed_instance_load(PosgScheduler& scheduler, common::InstanceId op) {
    scheduler.c_est_[op] = 5.0;
  }
};

}  // namespace core

namespace engine {

template <typename T>
struct BoundedQueue<T>::TestCorruptor {
  // The counters are GUARDED_BY(mutex_), so even the corrupting backdoor
  // takes the queue's lock (friend access) — the thread-safety analysis
  // covers test code too.
  static void overcount_pushed(BoundedQueue<T>& queue) {
    posg::MutexLock lock(queue.mutex_);
    ++queue.pushed_;
  }
  static void fake_rejection_while_open(BoundedQueue<T>& queue) {
    posg::MutexLock lock(queue.mutex_);
    ++queue.rejected_;
  }
};

}  // namespace engine
}  // namespace posg

namespace {

using posg::core::PosgConfig;
using posg::core::PosgScheduler;
using posg::core::SketchShipment;
using posg::core::SyncReply;
using posg::engine::BoundedQueue;
using posg::sketch::DualSketch;
using posg::sketch::SketchDims;

// ---------------------------------------------------------------- macros

TEST(CheckMacros, PassingCheckIsSilent) {
  POSG_CHECK(1 + 1 == 2, "arithmetic holds");
  SUCCEED();
}

TEST(CheckMacrosDeathTest, FailingCheckAbortsWithMessage) {
  EXPECT_DEATH(POSG_CHECK(false, "tested failure message"), "tested failure message");
}

TEST(CheckMacrosDeathTest, FailureReportsCondition) {
  EXPECT_DEATH(POSG_CHECK(2 < 1, "impossible ordering"), "2 < 1");
}

#if POSG_DCHECK_IS_ON
TEST(CheckMacrosDeathTest, EnabledDcheckAborts) {
  EXPECT_DEATH(POSG_DCHECK(false, "dcheck failure message"), "dcheck failure message");
}

TEST(CheckMacros, EnabledDcheckEvaluatesItsCondition) {
  int evaluations = 0;
  POSG_DCHECK(++evaluations == 1, "side effect runs when DCHECKs are on");
  EXPECT_EQ(evaluations, 1);
}
#else
TEST(CheckMacros, DisabledDcheckDoesNotEvaluateItsCondition) {
  int evaluations = 0;
  POSG_DCHECK(++evaluations == 1, "side effect must not run when DCHECKs are off");
  EXPECT_EQ(evaluations, 0);
}
#endif

// ------------------------------------------------------------ DualSketch

DualSketch make_sketch(bool conservative = false, std::size_t heavy = 0) {
  DualSketch sketch(SketchDims{2, 8}, /*seed=*/42, heavy, conservative);
  for (std::uint64_t item = 0; item < 32; ++item) {
    sketch.update(item, static_cast<double>(item % 7) + 0.5);
  }
  return sketch;
}

TEST(DualSketchValidate, FreshAndPopulatedSketchesPass) {
  DualSketch fresh(SketchDims{2, 8}, 42);
  fresh.debug_validate();
  make_sketch().debug_validate();
  make_sketch(/*conservative=*/true).debug_validate();
  make_sketch(false, /*heavy=*/4).debug_validate();
}

TEST(DualSketchValidate, SurvivesResetAndMerge) {
  DualSketch sketch = make_sketch();
  DualSketch other = make_sketch();
  sketch.merge_from(other);
  sketch.debug_validate();
  sketch.reset();
  sketch.debug_validate();
}

TEST(DualSketchValidateDeathTest, NegativeWeightCellAborts) {
  DualSketch sketch = make_sketch();
  sketch.cells_mutable()[3].w = -0.25;
  EXPECT_DEATH(sketch.debug_validate(), "W cell went negative");
}

TEST(DualSketchValidateDeathTest, FrequencyMassLeakAborts) {
  DualSketch sketch = make_sketch();
  // One extra count in a single row breaks per-row mass conservation
  // against update_count().
  sketch.cells_mutable()[0].f += 1;
  EXPECT_DEATH(sketch.debug_validate(), "F row total != update count");
}

TEST(DualSketchValidateDeathTest, TotalsOutOfSyncAborts) {
  DualSketch sketch = make_sketch();
  sketch.restore_totals(sketch.update_count() + 10, sketch.total_execution_time());
  EXPECT_DEATH(sketch.debug_validate(), "F row total != update count");
}

TEST(DualSketchValidateDeathTest, NegativeTimeWithoutUpdatesAborts) {
  DualSketch sketch(SketchDims{2, 8}, 42);
  sketch.restore_totals(0, 3.5);
  EXPECT_DEATH(sketch.debug_validate(), "non-zero execution time with zero updates");
}

// --------------------------------------------------------- PosgScheduler

PosgConfig small_config() {
  PosgConfig config;
  config.epsilon = 0.7;  // 4 columns — tiny sketches keep the test fast
  config.delta = 0.25;   // 2 rows
  return config;
}

DualSketch instance_sketch(const PosgConfig& config) {
  DualSketch sketch(config.dims(), config.sketch_seed, config.heavy_hitter_capacity,
                    config.conservative_update);
  for (std::uint64_t item = 0; item < 16; ++item) {
    sketch.update(item, 1.0 + static_cast<double>(item % 3));
  }
  return sketch;
}

// Drives a k-instance scheduler through shipment + full synchronization so
// it reaches RUN with a populated Ĉ.
PosgScheduler make_running_scheduler(std::size_t k) {
  PosgConfig config = small_config();
  PosgScheduler scheduler(k, config);
  for (std::size_t op = 0; op < k; ++op) {
    scheduler.on_feedback(SketchShipment{op, instance_sketch(config)});
  }
  // SEND_ALL: route tuples until every marker went out, replying as they do.
  std::uint64_t seq = 0;
  while (scheduler.state() != PosgScheduler::State::kRun) {
    const auto decision = scheduler.schedule(seq % 16, seq);
    ++seq;
    if (decision.sync_request) {
      scheduler.on_feedback(
          SyncReply{decision.instance, decision.sync_request->epoch, 0.125});
    }
  }
  return scheduler;
}

TEST(PosgSchedulerValidate, FreshRoundRobinPasses) {
  PosgScheduler scheduler(3, small_config());
  scheduler.debug_validate();
}

TEST(PosgSchedulerValidate, EveryProtocolStatePasses) {
  PosgConfig config = small_config();
  PosgScheduler scheduler(3, config);
  scheduler.debug_validate();  // ROUND_ROBIN
  scheduler.on_feedback(SketchShipment{0, instance_sketch(config)});
  scheduler.on_feedback(SketchShipment{1, instance_sketch(config)});
  scheduler.on_feedback(SketchShipment{2, instance_sketch(config)});
  scheduler.debug_validate();  // SEND_ALL
  std::uint64_t seq = 0;
  std::vector<posg::core::Decision> markers;
  while (scheduler.state() == PosgScheduler::State::kSendAll) {
    const auto decision = scheduler.schedule(seq % 16, seq);
    ++seq;
    if (decision.sync_request) {
      markers.push_back(decision);
    }
  }
  scheduler.debug_validate();  // WAIT_ALL
  for (const auto& decision : markers) {
    scheduler.on_feedback(
        SyncReply{decision.instance, decision.sync_request->epoch, 0.5});
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kRun);
  scheduler.debug_validate();  // RUN
}

TEST(PosgSchedulerValidate, QuarantinePasses) {
  PosgScheduler scheduler = make_running_scheduler(3);
  scheduler.mark_failed(1);
  scheduler.debug_validate();
}

TEST(PosgSchedulerValidateDeathTest, NegativeCHatAborts) {
  PosgScheduler scheduler = make_running_scheduler(2);
  PosgScheduler::TestCorruptor::negate_c_est(scheduler, 0);
  EXPECT_DEATH(scheduler.debug_validate(), "C_hat went negative");
}

TEST(PosgSchedulerValidateDeathTest, LiveCountDesyncAborts) {
  PosgScheduler scheduler = make_running_scheduler(2);
  PosgScheduler::TestCorruptor::desync_live_count(scheduler);
  EXPECT_DEATH(scheduler.debug_validate(), "live count out of sync");
}

TEST(PosgSchedulerValidateDeathTest, MarkerCounterDesyncAborts) {
  PosgScheduler scheduler = make_running_scheduler(2);
  PosgScheduler::TestCorruptor::pretend_marker_pending(scheduler, 0);
  EXPECT_DEATH(scheduler.debug_validate(), "marker counter out of sync");
}

TEST(PosgSchedulerValidateDeathTest, QuarantinedInstanceWithLoadAborts) {
  PosgScheduler scheduler = make_running_scheduler(3);
  scheduler.mark_failed(2);
  PosgScheduler::TestCorruptor::give_failed_instance_load(scheduler, 2);
  EXPECT_DEATH(scheduler.debug_validate(), "quarantined instance still holds C_hat");
}

TEST(PosgSchedulerValidateDeathTest, CorruptShippedSketchAborts) {
  // Cross-layer path: the scheduler validates every sketch it bills from,
  // so a corrupt shipment is caught at the scheduler too. Only instance 0
  // ships — the scheduler stays in ROUND_ROBIN (no epoch boundary, so no
  // self-validation yet) and the corruption is caught by the explicit
  // debug_validate call.
  PosgConfig config = small_config();
  config.shared_billing = false;
  PosgScheduler scheduler(2, config);
  DualSketch bad = instance_sketch(config);
  bad.cells_mutable()[0].w = -1.0;
  scheduler.on_feedback(SketchShipment{0, bad});
  EXPECT_DEATH(scheduler.debug_validate(), "W cell went negative");
}

// ---------------------------------------------------------- BoundedQueue

TEST(BoundedQueueValidate, LifecyclePasses) {
  BoundedQueue<int> queue(4);
  queue.debug_validate();
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.debug_validate();
  EXPECT_EQ(queue.pop(), 1);
  queue.debug_validate();
  queue.close();
  EXPECT_FALSE(queue.push(3));  // rejected: closed
  EXPECT_EQ(queue.pop(), 2);    // drains the backlog
  EXPECT_EQ(queue.pop(), std::nullopt);
  queue.debug_validate();
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.popped(), 2u);
  EXPECT_EQ(queue.rejected(), 1u);
}

TEST(BoundedQueueValidateDeathTest, ConservationViolationAborts) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  BoundedQueue<int>::TestCorruptor::overcount_pushed(queue);
  EXPECT_DEATH(queue.debug_validate(), "element conservation violated");
}

TEST(BoundedQueueValidateDeathTest, RejectionWhileOpenAborts) {
  BoundedQueue<int> queue(4);
  BoundedQueue<int>::TestCorruptor::fake_rejection_while_open(queue);
  EXPECT_DEATH(queue.debug_validate(), "push rejected while the queue was open");
}

// ------------------------------------------------------- protocol frames

TEST(FrameValidate, EveryEncodedMessageKindPasses) {
  namespace net = posg::net;
  const PosgConfig config = small_config();
  const std::vector<net::Message> messages = {
      net::Hello{3},
      net::TupleMessage{7, 11, std::nullopt},
      net::TupleMessage{8, 12, posg::core::SyncRequest{2, 41.5}},
      posg::core::SketchShipment{1, instance_sketch(config)},
      posg::core::SyncReply{0, 2, -1.25},
      net::EndOfStream{},
      net::InstanceFailed{2, 5},
  };
  for (const auto& message : messages) {
    net::debug_validate_frame(net::encode(message));
  }
}

TEST(FrameValidateDeathTest, EmptyFrameAborts) {
  EXPECT_DEATH(posg::net::debug_validate_frame({}), "truncated message");
}

TEST(FrameValidateDeathTest, UnknownTagAborts) {
  const std::vector<std::byte> frame{std::byte{0x7F}};
  EXPECT_DEATH(posg::net::debug_validate_frame(frame), "unknown tag");
}

TEST(FrameValidateDeathTest, TruncatedHelloAborts) {
  auto frame = posg::net::encode(posg::net::Hello{1});
  frame.pop_back();
  EXPECT_DEATH(posg::net::debug_validate_frame(frame), "truncated message");
}

TEST(FrameValidateDeathTest, OversizedEndOfStreamAborts) {
  auto frame = posg::net::encode(posg::net::EndOfStream{});
  frame.push_back(std::byte{0});
  EXPECT_DEATH(posg::net::debug_validate_frame(frame), "trailing bytes");
}

TEST(FrameValidateDeathTest, LyingMarkerFlagAborts) {
  // A bare tuple whose marker flag claims a marker: flag and size disagree.
  auto frame = posg::net::encode(posg::net::TupleMessage{7, 11, std::nullopt});
  frame[17] = std::byte{1};
  EXPECT_DEATH(posg::net::debug_validate_frame(frame), "truncated message");
}

TEST(FrameValidateDeathTest, TruncatedShipmentAborts) {
  const std::vector<std::byte> frame(20, std::byte{3});  // tag 3 = shipment
  EXPECT_DEATH(posg::net::debug_validate_frame(frame), "bad magic");
}

}  // namespace
