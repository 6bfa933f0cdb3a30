/// Multi-source scheduler tier (DESIGN.md §15): S scheduler views over one
/// shared core::InstancePool.
///
/// Locks the load-bearing guarantees of the tier:
///   1. S = 1 byte-identity — a MultiSourceScheduler with one source
///      reproduces the golden scheduling streams bit for bit (the same
///      constants golden_schedule_test pins for the bare PosgScheduler).
///   2. Conservation — with S sources round-robining one stream over the
///      shared pool, every routed tuple is executed exactly once and
///      billed to exactly one view: Σ_s routed_s == Σ_op executed_op ==
///      |stream|, row by row.
///   3. Membership is pool state, not view state — a quarantine initiated
///      through one source's view is adopted by every sibling, and a
///      checkpoint restore over a SHARED pool reconciles toward the pool
///      instead of republishing its (possibly stale) image.
///   4. Source identity survives the edges — checkpoints carry their
///      owning source and refuse a mismatch (the double-billing guard),
///      and every source-stamped wire frame round-trips and rejects
///      truncation.
///   5. A view adopts the pool log before acting on it — a shared-pool
///      restore reconciles liveness before drains, and membership ops
///      issued while other sources route leave every view matching the
///      pool.
///   6. A view reads its siblings' Ĉ before it decides — the one S > 1
///      policy, so a view never piles onto an instance a sibling has
///      already loaded just because its own billing there is zero.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/instance_pool.hpp"
#include "core/multi_source.hpp"
#include "core/posg_scheduler.hpp"
#include "net/protocol.hpp"
#include "sim/simulator.hpp"
#include "sketch/dual_sketch.hpp"

namespace posg {
namespace {

/// FNV-1a over the instance sequence — the same hash golden_schedule_test
/// uses, so the constants are directly comparable.
std::uint64_t sequence_hash(const std::vector<common::InstanceId>& sequence) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const common::InstanceId instance : sequence) {
    h ^= static_cast<std::uint64_t>(instance);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The golden workload of golden_schedule_test, driven through a
/// MultiSourceScheduler with S = 1 instead of a bare PosgScheduler. Every
/// input is identical; only the call surface differs (schedule(source, …)
/// and the FeedbackEvent variant instead of the legacy virtuals), so a
/// matching hash proves the multi-source wrapper is a true pass-through.
std::vector<common::InstanceId> run_golden_stream_via_views(std::size_t k, bool with_failure,
                                                            bool with_hints) {
  core::PosgConfig config;
  config.epsilon = 0.05;  // 54 columns — the paper's coarse sketch
  config.delta = 0.1;     // 4 rows

  core::MultiSourceScheduler scheduler(k, config, /*sources=*/1);
  const auto dims = config.dims();
  common::Xoshiro256StarStar rng(42);

  if (with_hints) {
    std::vector<common::TimeMs> hints(k);
    for (std::size_t op = 0; op < k; ++op) {
      hints[op] = static_cast<double>(op % 3) * 0.25;
    }
    scheduler.view(0).set_latency_hints(std::move(hints));
  }

  std::vector<common::InstanceId> sequence;
  common::SeqNo seq = 0;

  for (common::InstanceId op = 0; op < k; ++op) {
    sequence.push_back(scheduler.schedule(0, rng.next_below(256), seq++).instance);
    sketch::DualSketch sketch(dims, config.sketch_seed);
    for (int i = 0; i < 400; ++i) {
      const common::Item item = rng.next_below(256);
      sketch.update(item, 0.5 + static_cast<double>(item % 7));
    }
    scheduler.on_feedback(0, core::FeedbackEvent{core::SketchShipment{op, sketch}});
  }

  std::vector<std::pair<common::InstanceId, core::SyncRequest>> pending_markers;
  for (int step = 0; step < 2000; ++step) {
    const common::Item item = rng.next_below(256);
    const core::Decision decision = scheduler.schedule(0, item, seq++);
    sequence.push_back(decision.instance);
    if (decision.sync_request) {
      pending_markers.emplace_back(decision.instance, *decision.sync_request);
    }
    if (!pending_markers.empty() && step % 5 == 4) {
      const auto [op, marker] = pending_markers.front();
      pending_markers.erase(pending_markers.begin());
      const common::TimeMs delta = static_cast<double>(step % 3 - 1) * 0.125;
      scheduler.on_feedback(0, core::FeedbackEvent{core::SyncReply{op, marker.epoch, delta}});
    }
    if (with_failure && step == 700) {
      scheduler.mark_failed(0, k / 2);
    }
    if (step == 1000) {
      sketch::DualSketch sketch(dims, config.sketch_seed);
      for (int i = 0; i < 300; ++i) {
        const common::Item item2 = rng.next_below(256);
        sketch.update(item2, 1.0 + static_cast<double>(item2 % 5));
      }
      scheduler.on_feedback(0, core::FeedbackEvent{core::SketchShipment{0, sketch}});
    }
  }

  for (const auto& [op, marker] : pending_markers) {
    scheduler.on_feedback(0, core::FeedbackEvent{core::SyncReply{op, marker.epoch, 0.0}});
  }
  for (int step = 0; step < 200; ++step) {
    sequence.push_back(scheduler.schedule(0, rng.next_below(256), seq++).instance);
  }

  scheduler.view(0).debug_validate();
  return sequence;
}

// The constants of golden_schedule_test's kGoldenCases — regenerating them
// there regenerates them here.
TEST(MultiSourceGolden, SingleSourceViewIsByteIdenticalSmallK) {
  const auto plain = run_golden_stream_via_views(4, false, false);
  EXPECT_EQ(plain.size(), 2204u);
  EXPECT_EQ(sequence_hash(plain), 0x26D06FEF7EF37F4AULL);
  const auto hardened = run_golden_stream_via_views(4, true, true);
  EXPECT_EQ(hardened.size(), 2204u);
  EXPECT_EQ(sequence_hash(hardened), 0x8F1CCCFB9AA88D53ULL);
}

TEST(MultiSourceGolden, SingleSourceViewIsByteIdenticalLargeK) {
  const auto plain = run_golden_stream_via_views(50, false, false);
  EXPECT_EQ(plain.size(), 2250u);
  EXPECT_EQ(sequence_hash(plain), 0x460BFE6B24A20D73ULL);
  const auto hardened = run_golden_stream_via_views(50, true, true);
  EXPECT_EQ(hardened.size(), 2250u);
  EXPECT_EQ(sequence_hash(hardened), 0x3E17E4435E47AE8EULL);
}

/// The sim-level restatement of the same guarantee: run() with a bare
/// PosgScheduler and run_multi() with an S = 1 MultiSourceScheduler must
/// route the identical decision stream (same per-instance tuple counts,
/// same makespan).
TEST(MultiSourceSim, SingleSourceRunMultiMatchesClassicRun) {
  sim::Simulator::Config config;
  config.instances = 5;
  config.inter_arrival = 0.8;
  const auto cost = [](common::Item item, common::InstanceId, common::SeqNo) {
    return 1.0 + static_cast<double>(item % 7);
  };
  std::vector<common::Item> stream(4000);
  common::Xoshiro256StarStar rng(7);
  for (auto& item : stream) {
    item = rng.next_below(512);
  }

  core::PosgScheduler classic(config.instances, config.posg);
  const auto classic_result = sim::Simulator(config, cost).run(stream, classic);

  core::MultiSourceScheduler views(config.instances, config.posg, /*sources=*/1);
  const auto multi_result = sim::Simulator(config, cost).run_multi(stream, views);

  EXPECT_EQ(multi_result.instance_tuples, classic_result.instance_tuples);
  EXPECT_DOUBLE_EQ(multi_result.makespan, classic_result.makespan);
  ASSERT_EQ(multi_result.source_routed.size(), 1u);
  EXPECT_EQ(multi_result.source_routed[0], stream.size());
}

/// Conservation over the shared pool with S = 4: every tuple is routed by
/// exactly one view and executed by exactly one instance, and the
/// per-(source, instance) cells tie both margins together.
TEST(MultiSourceSim, FourSourceConservation) {
  sim::Simulator::Config config;
  config.instances = 6;
  config.inter_arrival = 0.5;
  core::MultiSourceScheduler scheduler(config.instances, config.posg, 4);

  std::vector<common::Item> stream(8000);
  common::Xoshiro256StarStar rng(11);
  for (auto& item : stream) {
    item = rng.next_below(1024);
  }
  const auto cost = [](common::Item item, common::InstanceId, common::SeqNo) {
    return 1.0 + static_cast<double>(item % 5);
  };
  const auto result = sim::Simulator(config, cost).run_multi(stream, scheduler);

  std::uint64_t routed_total = 0;
  ASSERT_EQ(result.source_routed.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    // Round-robin assignment: each source owns every 4th tuple.
    EXPECT_EQ(result.source_routed[s], stream.size() / 4);
    routed_total += result.source_routed[s];
    std::uint64_t row = 0;
    for (common::InstanceId op = 0; op < config.instances; ++op) {
      row += result.per_source_instance_tuples[s][op];
    }
    EXPECT_EQ(row, result.source_routed[s]) << "source " << s << " billed != routed";
  }
  std::uint64_t executed_total = 0;
  for (common::InstanceId op = 0; op < config.instances; ++op) {
    std::uint64_t column = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      column += result.per_source_instance_tuples[s][op];
    }
    EXPECT_EQ(column, result.instance_tuples[op]) << "instance " << op;
    executed_total += result.instance_tuples[op];
  }
  EXPECT_EQ(routed_total, stream.size());
  EXPECT_EQ(executed_total, stream.size());
  EXPECT_EQ(result.completions.size(), stream.size());
}

/// The one S > 1 policy: before a view decides, it adds its siblings' Ĉ
/// to its greedy score. Both views are in RUN with zero Ĉ. Source 1 bills
/// its first tuple to instance 0 (the tie breaks toward the lowest id);
/// source 0's own Ĉ is still zero everywhere, so only the sibling's load
/// can send its first tuple to the other instance.
TEST(MultiSourcePolicy, ViewReadsSiblingLoadBeforeItDecides) {
  core::PosgConfig config;
  config.sync_enabled = false;
  core::MultiSourceScheduler scheduler(2, config, 2);
  const common::Item item = 7;
  for (common::SourceId s = 0; s < 2; ++s) {
    for (common::InstanceId op = 0; op < 2; ++op) {
      sketch::DualSketch sketch(config.dims(), config.sketch_seed);
      sketch.update(item, 1.0);
      core::SketchShipment shipment{op, sketch};
      shipment.source = s;
      scheduler.on_feedback(s, core::FeedbackEvent{std::move(shipment)});
    }
    ASSERT_EQ(scheduler.view(s).state(), core::PosgScheduler::State::kRun);
  }

  const common::InstanceId first = scheduler.schedule(/*source=*/1, item, /*seq=*/0).instance;
  EXPECT_EQ(first, 0u);
  const common::InstanceId second = scheduler.schedule(/*source=*/0, item, /*seq=*/1).instance;
  EXPECT_NE(second, first) << "view 0 did not see the load view 1 put on instance " << first;
}

/// The sibling read runs before every S > 1 decision, including while the
/// pool has no live instance: each call must still fail with the typed
/// NoLiveInstanceError that callers wait out, and a rejoin resumes
/// routing.
TEST(MultiSourcePolicy, NoLiveInstanceStaysTypedWhileViewsReadSiblings) {
  core::PosgConfig config;
  core::MultiSourceScheduler scheduler(2, config, 2);
  common::SeqNo seq = 0;
  scheduler.mark_failed(/*source=*/0, 0);
  scheduler.mark_failed(/*source=*/0, 1);
  for (int round = 0; round < 2; ++round) {
    for (common::SourceId s = 0; s < 2; ++s) {
      EXPECT_THROW(scheduler.schedule(s, 5, seq++), core::NoLiveInstanceError)
          << "source " << s << ", call " << round;
    }
  }
  scheduler.rejoin(/*source=*/1, 1);
  for (common::SourceId s = 0; s < 2; ++s) {
    EXPECT_EQ(scheduler.schedule(s, 5, seq++).instance, 1u);
  }
}

/// A membership transition initiated through ONE view is pool state: every
/// sibling adopts it on its next decision and stops routing there; a
/// rejoin through a *different* sibling restores the instance everywhere.
TEST(MultiSourcePool, QuarantineAndRejoinPropagateAcrossViews) {
  const std::size_t k = 4;
  core::PosgConfig config;
  core::MultiSourceScheduler scheduler(k, config, 3);

  common::SeqNo seq = 0;
  // Warm every view past ROUND_ROBIN so decisions are greedy.
  const auto dims = config.dims();
  for (std::size_t s = 0; s < 3; ++s) {
    for (common::InstanceId op = 0; op < k; ++op) {
      scheduler.schedule(static_cast<common::SourceId>(s), op, seq++);
      sketch::DualSketch sketch(dims, config.sketch_seed);
      sketch.update(op, 1.0);
      scheduler.on_feedback(static_cast<common::SourceId>(s),
                            core::FeedbackEvent{core::SketchShipment{op, sketch}});
    }
  }

  const common::InstanceId victim = 2;
  scheduler.mark_failed(/*source=*/0, victim);
  EXPECT_EQ(scheduler.pool()->lifecycle(victim),
            core::InstancePool::Lifecycle::kQuarantined);

  // No sibling ever routes to the quarantined instance again.
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s < 3; ++s) {
      const auto decision =
          scheduler.schedule(static_cast<common::SourceId>(s), step % 97, seq++);
      EXPECT_NE(decision.instance, victim) << "view " << s << " routed to a quarantined peer";
    }
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(scheduler.view(static_cast<common::SourceId>(s)).pool_lag(), 0u);
    // Only peer-initiated events count: the initiator adopts its own
    // quarantine from the log without counting it.
    EXPECT_EQ(scheduler.view(static_cast<common::SourceId>(s)).pool_events_applied(),
              s == 0 ? 0u : 1u);
  }

  // Rejoin through a different sibling: pool state flips back, every view
  // eventually routes there again (the rejoin ramp paces, not blocks).
  scheduler.rejoin(/*source=*/1, victim);
  EXPECT_EQ(scheduler.pool()->lifecycle(victim), core::InstancePool::Lifecycle::kServing);
  std::vector<bool> routed_again(3, false);
  for (int step = 0; step < 5000; ++step) {
    for (std::size_t s = 0; s < 3; ++s) {
      if (scheduler.schedule(static_cast<common::SourceId>(s), step % 97, seq++).instance ==
          victim) {
        routed_again[s] = true;
      }
    }
  }
  EXPECT_TRUE(routed_again[0] && routed_again[1] && routed_again[2]);
}

/// Builds a view over `pool` for source `source`, routes `tuples` tuples
/// into it, and returns it — shared-pool construction (private_pool =
/// false), the S > 1 deployment shape.
std::unique_ptr<core::PosgScheduler> make_view(std::shared_ptr<core::InstancePool> pool,
                                               common::SourceId source, int tuples,
                                               common::SeqNo& seq) {
  core::PosgConfig config;
  auto view = std::make_unique<core::PosgScheduler>(std::move(pool), config, source,
                                                    /*private_pool=*/false);
  for (int i = 0; i < tuples; ++i) {
    view->schedule(static_cast<common::Item>(i % 64), seq++);
  }
  return view;
}

/// The checkpoint image carries its owning source, restores into a same-
/// source replacement, and refuses any other source — the double-billing
/// guard: source 2's Ĉ billed source 2's routed tuples only.
TEST(MultiSourceCheckpoint, ImageCarriesSourceAndRejectsMismatch) {
  auto pool = std::make_shared<core::InstancePool>(4);
  common::SeqNo seq = 0;
  auto view = make_view(pool, /*source=*/2, 500, seq);

  const core::CheckpointState state = view->checkpoint_state();
  EXPECT_EQ(state.source_id, 2u);

  // Byte round-trip through the codec preserves the source.
  const auto image = core::encode(state);
  const core::CheckpointState decoded = core::decode(image);
  EXPECT_EQ(decoded.source_id, 2u);

  // Same source: restore succeeds and the replacement picks up the Ĉ view.
  core::PosgConfig config;
  core::PosgScheduler replacement(pool, config, /*source=*/2, /*private_pool=*/false);
  replacement.restore(decoded);
  EXPECT_EQ(replacement.estimated_loads(), state.c_est);
  EXPECT_EQ(replacement.decisions(), state.decisions);

  // Different source: rejected without mutating the cold start.
  core::PosgScheduler wrong_source(pool, config, /*source=*/3, /*private_pool=*/false);
  const auto cold_decisions = wrong_source.decisions();
  EXPECT_THROW(wrong_source.restore(decoded), std::invalid_argument);
  EXPECT_EQ(wrong_source.decisions(), cold_decisions);
}

/// Restoring over a SHARED pool must treat the pool as the membership
/// authority: the image's flags are reconciled toward the pool's current
/// state, never republished into it — a sibling's quarantine that landed
/// while this source was down must survive its restart.
TEST(MultiSourceCheckpoint, SharedPoolRestoreAdoptsPoolNotImage) {
  auto pool = std::make_shared<core::InstancePool>(4);
  common::SeqNo seq = 0;
  auto view = make_view(pool, /*source=*/1, 300, seq);
  const auto image = view->checkpoint_state();  // all 4 instances serving
  view.reset();                                 // the source dies

  // While source 1 is down, a sibling quarantines instance 3.
  core::PosgConfig config;
  core::PosgScheduler sibling(pool, config, /*source=*/0, /*private_pool=*/false);
  sibling.mark_failed(3);
  const auto pool_version = pool->version();

  // The restarted source restores its pre-quarantine image: the pool's
  // newer truth wins, and no membership events are republished.
  core::PosgScheduler restarted(pool, config, /*source=*/1, /*private_pool=*/false);
  restarted.restore(image);
  EXPECT_EQ(pool->version(), pool_version) << "shared-pool restore republished membership";
  EXPECT_EQ(pool->lifecycle(3), core::InstancePool::Lifecycle::kQuarantined);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(restarted.schedule(i % 64, seq++).instance, 3u);
  }
}

/// A shared-pool restore reconciles liveness before drains. The image has
/// instance 1 quarantined; since then a peer rejoined 1 and drained 0. Only
/// once 1 is back does the view have the two serving instances a drain of
/// 0 needs, so the rejoin must be reconciled first even though its id is
/// higher.
TEST(MultiSourceCheckpoint, SharedPoolRestoreReconcilesRejoinsBeforeDrains) {
  auto pool = std::make_shared<core::InstancePool>(2);
  core::PosgConfig config;
  core::CheckpointState image;
  {
    core::PosgScheduler view(pool, config, /*source=*/0, /*private_pool=*/false);
    view.mark_failed(1);
    image = view.checkpoint_state();
  }
  core::PosgScheduler peer(pool, config, /*source=*/1, /*private_pool=*/false);
  peer.rejoin(1);
  peer.begin_drain(0);
  ASSERT_EQ(pool->lifecycle(0), core::InstancePool::Lifecycle::kDraining);

  core::PosgScheduler restarted(pool, config, /*source=*/0, /*private_pool=*/false);
  restarted.restore(image);
  EXPECT_EQ(restarted.pool_lag(), 0u);
  EXPECT_TRUE(restarted.is_draining(0));
  EXPECT_FALSE(restarted.is_failed(1));
  for (common::SeqNo seq = 0; seq < 8; ++seq) {
    EXPECT_EQ(restarted.schedule(static_cast<common::Item>(seq), seq).instance, 1u)
        << "routed to the drainee";
  }
  restarted.debug_validate();
}

/// Membership ops issued while other sources route. Each of S = 3 threads
/// routes its own source's tuples and, every few hundred tuples,
/// quarantines and later rejoins "its" instance through its own view, so
/// own events and peer events interleave in the pool log. Afterwards
/// every view matches the pool, no decision is lost, and every view's
/// invariants hold.
TEST(MultiSourcePool, ConcurrentMembershipOpsKeepViewsConsistent) {
  constexpr std::size_t kSources = 3;
  constexpr std::size_t kInstances = kSources + 1;  // instance 3 never leaves
  constexpr int kTuples = 4000;
  core::PosgConfig config;
  config.sync_enabled = false;
  core::MultiSourceScheduler scheduler(kInstances, config, kSources);

  const auto ship = [&](common::SourceId source, common::InstanceId op) {
    sketch::DualSketch sketch(config.dims(), config.sketch_seed);
    sketch.update(op, 1.0 + static_cast<double>(op));
    scheduler.on_feedback(source, core::SketchShipment{op, sketch});
  };

  std::vector<std::thread> threads;
  for (common::SourceId s = 0; s < kSources; ++s) {
    threads.emplace_back([&, s] {
      const common::InstanceId own = s;
      for (common::InstanceId op = 0; op < kInstances; ++op) {
        ship(s, op);
      }
      for (int i = 0; i < kTuples; ++i) {
        const common::SeqNo seq = static_cast<common::SeqNo>(s) * kTuples + i;
        scheduler.schedule(s, static_cast<common::Item>(i % 64), seq);
        if (i % 400 == 100) {
          scheduler.mark_failed(s, own);
        } else if (i % 400 == 300) {
          scheduler.rejoin(s, own);
          ship(s, own);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(scheduler.total_decisions(), kSources * static_cast<std::uint64_t>(kTuples));
  const auto& pool = *scheduler.pool();
  pool.debug_validate();
  for (common::SourceId s = 0; s < kSources; ++s) {
    core::PosgScheduler& view = scheduler.view(s);
    view.sync_with_pool();
    EXPECT_EQ(view.pool_lag(), 0u);
    for (common::InstanceId op = 0; op < kInstances; ++op) {
      const auto lifecycle = pool.lifecycle(op);
      EXPECT_EQ(view.is_failed(op), lifecycle == core::InstancePool::Lifecycle::kQuarantined)
          << "view " << s << " instance " << op;
      EXPECT_EQ(view.is_draining(op), lifecycle == core::InstancePool::Lifecycle::kDraining)
          << "view " << s << " instance " << op;
    }
    view.debug_validate();
  }
}

/// Source-stamped wire frames: every frame that now carries a SourceId
/// round-trips it exactly, and every strict prefix of the encoding is
/// rejected (the fuzz half — a truncated source field must never decode
/// as a valid source-0 frame).
TEST(MultiSourceProtocol, SourceStampedFramesRoundTripAndRejectTruncation) {
  core::PosgConfig config;
  sketch::DualSketch sketch(config.dims(), config.sketch_seed);
  sketch.update(17, 2.5);
  core::SketchShipment shipment{1, sketch};
  shipment.source = 2;
  core::SyncReply reply{3, 9, -0.25};
  reply.source = 1;

  const std::vector<net::Message> frames = {
      net::Hello{7, 3},
      net::SchedulerHello{2, 1},
      shipment,
      reply,
  };
  for (const auto& frame : frames) {
    const auto bytes = net::encode(frame);
    net::debug_validate_frame(bytes);
    const net::Message back = net::decode(bytes);
    ASSERT_EQ(back.index(), frame.index());
    if (const auto* hello = std::get_if<net::Hello>(&back)) {
      EXPECT_EQ(hello->instance, 7u);
      EXPECT_EQ(hello->source, 3u);
    }
    if (const auto* reattach = std::get_if<net::SchedulerHello>(&back)) {
      EXPECT_EQ(reattach->instance, 2u);
      EXPECT_EQ(reattach->source, 1u);
    }
    if (const auto* shipped = std::get_if<core::SketchShipment>(&back)) {
      EXPECT_EQ(shipped->instance, 1u);
      EXPECT_EQ(shipped->source, 2u);
    }
    if (const auto* replied = std::get_if<core::SyncReply>(&back)) {
      EXPECT_EQ(replied->instance, 3u);
      EXPECT_EQ(replied->epoch, 9u);
      EXPECT_EQ(replied->source, 1u);
    }
    // Truncation fuzz: no strict prefix may decode.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_THROW(net::decode(std::span(bytes.data(), cut)), std::invalid_argument)
          << "prefix of " << cut << " bytes decoded";
    }
  }
}

}  // namespace
}  // namespace posg
