// Tests for the observability layer (src/obs/): histogram bucket math,
// TraceRing wraparound and concurrency (the TSan job runs these with
// multiple writer threads), the snapshot's JSON format, and registry
// handles surviving a scheduler quarantine/rejoin cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/posg_scheduler.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_ring.hpp"

namespace posg {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::Snapshot;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceRing;

TEST(Histogram, BucketIndexMatchesLogTwoLayout) {
  // Bucket 0 holds exact zeros, bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  for (std::size_t i = 2; i < Histogram::kBuckets - 1; ++i) {
    // Every non-degenerate bucket's bounds agree with bucket_index.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i) - 1), i);
  }
}

TEST(Histogram, OverflowBucketCatchesTopOfRange) {
  Histogram h;
  const std::uint64_t top = std::uint64_t{1} << 63;
  h.record(top);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(1), 1u);  // the one
  EXPECT_EQ(h.bucket(3), 2u);  // 5 lands in [4, 8)
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, HandlesAreFindOrCreateAndStable) {
  MetricsRegistry registry;
  obs::Counter& c1 = registry.counter("tuples");
  obs::Counter& c2 = registry.counter("tuples");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  c2.add();
  EXPECT_EQ(registry.snapshot().counters.at("tuples"), 4u);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
  EXPECT_THROW(registry.gauge_fn("x", [] { return 0.0; }), std::invalid_argument);
}

TEST(MetricsRegistry, PullCallbacksEvaluateAtSnapshotTime) {
  MetricsRegistry registry;
  std::uint64_t source = 7;
  registry.counter_fn("pull", [&source] { return source; });
  EXPECT_EQ(registry.snapshot().counters.at("pull"), 7u);
  source = 9;
  EXPECT_EQ(registry.snapshot().counters.at("pull"), 9u);
}

// tools/obs_report.py is the one reader of this format: a change here is
// a change to what it parses.
TEST(Snapshot, ToJsonWritesThePinnedFormat) {
  MetricsRegistry registry;
  registry.counter("c.one").add(42);
  registry.gauge("g.pi").set(3.25);
  Histogram& h = registry.histogram("h.lat");
  h.record(0);
  h.record(7);
  h.record(std::uint64_t{1} << 63);
  EXPECT_EQ(registry.snapshot().to_json(),
            R"({"schema":"posg-metrics/1","counters":{"c.one":42},"gauges":{"g.pi":3.25},)"
            R"("histograms":{"h.lat":{"count":3,"sum":9223372036854775815,)"
            R"("buckets":{"0":1,"3":1,"64":1}}}})");
}

TEST(TraceRing, DropOldestWraparoundKeepsNewest) {
  TraceRing ring(4);
  ring.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(TraceEvent{.type = TraceEventType::kScheduleDecision,
                           .detail = 0,
                           .component = 0,
                           .instance = 0,
                           .a = i,
                           .value = 0.0,
                           .tick = 0});
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6u + i);       // oldest-first payloads 6..9
    EXPECT_EQ(events[i].tick, 6u + i);    // ticks are the publish order
  }
}

TEST(TraceRing, DisabledRingRecordsNothing) {
  TraceRing ring(8);
  ring.record(TraceEvent{});
  TraceRing::Writer writer(ring);
  writer.record(TraceEvent{});
  writer.flush();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, WriterStagesUntilFlush) {
  TraceRing ring(64);
  ring.set_enabled(true);
  TraceRing::Writer writer(ring, /*stage_capacity=*/16);
  for (int i = 0; i < 5; ++i) {
    writer.record(TraceEvent{});
  }
  EXPECT_EQ(ring.recorded(), 0u);  // still staged
  writer.flush();
  EXPECT_EQ(ring.recorded(), 5u);
}

TEST(TraceRing, WriterDestructorFlushes) {
  TraceRing ring(64);
  ring.set_enabled(true);
  {
    TraceRing::Writer writer(ring);
    writer.record(TraceEvent{});
  }
  EXPECT_EQ(ring.recorded(), 1u);
}

// The TSan gate runs this: several threads each stage through their own
// Writer into one ring while another thread snapshots concurrently.
TEST(TraceRing, ConcurrentWritersPublishEverything) {
  TraceRing ring(1024);
  ring.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      TraceRing::Writer writer(ring, /*stage_capacity=*/32);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        writer.record(TraceEvent{.type = TraceEventType::kSketchShip,
                                 .detail = 0,
                                 .component = static_cast<std::uint16_t>(t),
                                 .instance = static_cast<std::uint32_t>(t),
                                 .a = i,
                                 .value = 0.0,
                                 .tick = 0});
      }
    });
  }
  threads.emplace_back([&ring] {
    for (int i = 0; i < 50; ++i) {
      (void)ring.snapshot();  // reader racing the writers
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ring.recorded(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(ring.snapshot().size(), 1024u);
}

TEST(TraceRing, DumpJsonlEmitsOneObjectPerEvent) {
  TraceRing ring(8);
  ring.set_enabled(true);
  ring.record(TraceEvent{.type = TraceEventType::kScheduleDecision,
                         .detail = 0,
                         .component = 0,
                         .instance = 2,
                         .a = 17,
                         .value = 1.5,
                         .tick = 0});
  ring.record(TraceEvent{.type = TraceEventType::kRejoin,
                         .detail = 0,
                         .component = 0,
                         .instance = 1,
                         .a = 3,
                         .value = 0.0,
                         .tick = 0});
  std::ostringstream out;
  ring.dump_jsonl(out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("\"type\":\"schedule_decision\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"rejoin\""), std::string::npos);
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

TEST(TraceRing, ZeroCapacityRejected) {
  EXPECT_THROW(TraceRing ring(0), std::invalid_argument);
}

// Registry handles must keep publishing through a scheduler's whole
// quarantine → rejoin cycle: the pull callbacks read live state, so the
// snapshot after the cycle reflects it without re-registration.
TEST(SchedulerMetrics, HandlesSurviveQuarantineAndRejoin) {
  core::PosgScheduler scheduler(3, core::PosgConfig{});
  MetricsRegistry registry;
  scheduler.register_metrics(registry);

  for (common::SeqNo seq = 0; seq < 10; ++seq) {
    (void)scheduler.schedule(seq % 5, seq);
  }
  Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("posg.scheduler.decisions"), 10u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("posg.scheduler.live_instances"), 3.0);

  scheduler.mark_failed(1);
  snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("posg.scheduler.live_instances"), 2.0);

  scheduler.rejoin(1);
  for (common::SeqNo seq = 10; seq < 20; ++seq) {
    (void)scheduler.schedule(seq % 5, seq);
  }
  snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("posg.scheduler.live_instances"), 3.0);
  EXPECT_EQ(snap.counters.at("posg.scheduler.rejoins"), 1u);
  EXPECT_EQ(snap.counters.at("posg.scheduler.decisions"), 20u);
}

TEST(SchedulerTrace, DecisionsAndRejoinsReachTheRing) {
  core::PosgScheduler scheduler(3, core::PosgConfig{});
  TraceRing ring(256);
  ring.set_enabled(true);
  scheduler.bind_trace(&ring);

  for (common::SeqNo seq = 0; seq < 8; ++seq) {
    (void)scheduler.schedule(seq, seq);
  }
  scheduler.mark_failed(2);
  scheduler.rejoin(2);  // rejoin flushes the staged writer
  const auto events = ring.snapshot();

  std::size_t decisions = 0;
  std::size_t rejoins = 0;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kScheduleDecision) {
      ++decisions;
    } else if (event.type == TraceEventType::kRejoin) {
      ++rejoins;
      EXPECT_EQ(event.instance, 2u);
    }
  }
  EXPECT_EQ(decisions, 8u);
  EXPECT_EQ(rejoins, 1u);

  // Unbinding flushes and detaches; further decisions must not arrive.
  scheduler.bind_trace(nullptr);
  const std::uint64_t before = ring.recorded();
  (void)scheduler.schedule(0, 100);
  EXPECT_EQ(ring.recorded(), before);
}

}  // namespace
}  // namespace posg
