// Micro-benchmarks (google-benchmark) for the per-tuple fast paths whose
// asymptotic costs Theorems 3.1/3.2 state: hash evaluation, sketch update
// and query, scheduler submit, tracker update.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "core/checkpoint.hpp"
#include "core/elastic.hpp"
#include "core/instance_tracker.hpp"
#include "core/multi_source.hpp"
#include "core/posg_scheduler.hpp"
#include "core/round_robin.hpp"
#include "engine/queue.hpp"
#include "engine/spsc_ring.hpp"
#include "hash/two_universal.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/trace_ring.hpp"
#include "sketch/dual_sketch.hpp"

namespace {

using namespace posg;

void BM_HashEvaluation(benchmark::State& state) {
  common::Xoshiro256StarStar rng(1);
  const auto h = hash::TwoUniversalHash::sample(rng, 544);
  common::Item x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(x++));
  }
}
BENCHMARK(BM_HashEvaluation);

/// One-pass digest of a tuple under a 4-row hash set — the per-tuple hash
/// budget after the digest refactor (everything downstream is cell
/// arithmetic).
void BM_BucketDigest(benchmark::State& state) {
  const hash::HashSet hashes(7, 4, 544);
  common::Item x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashes.digest(x++ % 4096));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketDigest);

void BM_DualSketchUpdate(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  sketch::DualSketch sketch(sketch::SketchDims{rows, 544}, 7);
  common::Item x = 0;
  for (auto _ : state) {
    sketch.update(x++ % 4096, 1.5);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DualSketchUpdate)->Arg(2)->Arg(4)->Arg(8);

void BM_DualSketchEstimate(benchmark::State& state) {
  sketch::DualSketch sketch(sketch::SketchDims{4, 544}, 7);
  common::Xoshiro256StarStar rng(3);
  for (int i = 0; i < 10'000; ++i) {
    sketch.update(rng.next_below(4096), 1.0 + static_cast<double>(rng.next_below(64)));
  }
  common::Item x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.estimate(x++ % 4096));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DualSketchEstimate);

void BM_RoundRobinSchedule(benchmark::State& state) {
  core::RoundRobinScheduler scheduler(5);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(seq % 4096, seq));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoundRobinSchedule);

/// Thm 3.1: scheduler submit is O(k + log 1/delta). Measured in RUN state
/// with warmed sketches.
void BM_PosgSchedule(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;  // ship every second window
  core::PosgScheduler scheduler(k, config);
  for (common::InstanceId op = 0; op < k; ++op) {
    core::InstanceTracker tracker(op, config);
    for (int i = 0; i < 10'000; ++i) {
      if (auto shipment = tracker.on_executed(i % 4096, 1.0 + i % 64)) {
        scheduler.on_feedback(std::move(*shipment));
        break;
      }
    }
  }
  // Complete the first sync epoch so the greedy path is exercised.
  core::InstanceTracker proxy(0, config);
  proxy.on_executed(0, 1.0);
  common::SeqNo seq = 0;
  while (scheduler.state() != core::PosgScheduler::State::kRun && seq < 10 * k) {
    const auto decision = scheduler.schedule(seq % 4096, seq);
    if (decision.sync_request) {
      scheduler.on_feedback(core::SyncReply{decision.instance, decision.sync_request->epoch, 0.0});
    }
    ++seq;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(seq % 4096, seq));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PosgSchedule)->Arg(2)->Arg(5)->Arg(10)->Arg(50);

/// End-to-end router throughput: the full decision loop an upstream
/// executor runs per tuple — greedy schedule (digest + cached argmin) with
/// the periodic shipment/marker/reply protocol folded in at its natural
/// rate, so epoch restarts and SEND_ALL billing stay on the measured path.
void BM_RouterThroughput(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;  // ship every second window
  core::PosgScheduler scheduler(k, config);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  common::Xoshiro256StarStar rng(11);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(item, seq);
    benchmark::DoNotOptimize(decision.instance);
    // The picked instance executes the tuple; its tracker occasionally
    // ships a stable sketch back (the feedback loop of Fig. 1).
    auto& tracker = trackers[decision.instance];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      scheduler.on_feedback(std::move(*shipment));
    }
    if (decision.sync_request) {
      scheduler.on_feedback(
          core::SyncReply{decision.instance, decision.sync_request->epoch, 0.0});
    }
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterThroughput)->Arg(5)->Arg(10)->Arg(50);

/// Router throughput with the degradation layer hot: same loop as
/// BM_RouterThroughput at k=10, but one instance carries a 4x de-rate (a
/// detected straggler kept in rotation). The de-rate is re-asserted after
/// every sync reply because epoch completion re-derives it from the health
/// monitor — this stands in for a detector that keeps flagging the
/// straggler. Measures what the per-pick de-rate multiply and the skewed
/// greedy index cost on the steady-state path — the healthy-path number
/// must not move (derate defaults to 1.0 and multiplies through
/// bit-identically).
void BM_RouterThroughputDegraded(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;
  core::PosgScheduler scheduler(k, config);
  scheduler.set_derate(k - 1, 4.0);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  common::Xoshiro256StarStar rng(11);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(item, seq);
    benchmark::DoNotOptimize(decision.instance);
    auto& tracker = trackers[decision.instance];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      scheduler.on_feedback(std::move(*shipment));
    }
    if (decision.sync_request) {
      scheduler.on_feedback(
          core::SyncReply{decision.instance, decision.sync_request->epoch, 0.0});
      scheduler.set_derate(k - 1, 4.0);
    }
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterThroughputDegraded)->Arg(10);

/// Router throughput with event tracing armed: same loop as
/// BM_RouterThroughput at k=10, but a TraceRing is bound and enabled, so
/// every decision stages a kScheduleDecision event and the ring mutex is
/// taken once per Writer batch. The gap to BM_RouterThroughput/10 is the
/// *enabled* tracing cost; the compiled-in-but-disabled cost (one relaxed
/// load + branch) is what tools/run_obs_overhead_gate.sh bounds, by
/// comparing BM_RouterThroughput/10 itself against the pre-obs baseline.
void BM_RouterThroughputTraced(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;
  core::PosgScheduler scheduler(k, config);
  obs::TraceRing ring(std::size_t{1} << 14U);
  ring.set_enabled(true);
  scheduler.bind_trace(&ring);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  common::Xoshiro256StarStar rng(11);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(item, seq);
    benchmark::DoNotOptimize(decision.instance);
    auto& tracker = trackers[decision.instance];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      scheduler.on_feedback(std::move(*shipment));
    }
    if (decision.sync_request) {
      scheduler.on_feedback(
          core::SyncReply{decision.instance, decision.sync_request->epoch, 0.0});
    }
    ++seq;
  }
  scheduler.bind_trace(nullptr);  // flush before the ring dies
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterThroughputTraced)->Arg(10);

/// Router throughput with the elastic controller compiled in but idle:
/// same loop as BM_RouterThroughput at k=10, plus a *disabled*
/// ElasticController fed a load sample at the window cadence — the shape
/// an executor that links autoscaling but has not enabled it carries. A
/// disabled controller's on_sample is a single branch and the sample
/// assembly is 1/64th-rate, so this must track BM_RouterThroughput/10
/// inside the same ≤5% budget the obs gate enforces
/// (tools/run_obs_overhead_gate.sh).
void BM_RouterThroughputElasticIdle(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;
  core::PosgScheduler scheduler(k, config);
  core::ElasticConfig elastic_config;  // enabled defaults to false: idle
  core::ElasticController controller(elastic_config);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  common::Xoshiro256StarStar rng(11);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(item, seq);
    benchmark::DoNotOptimize(decision.instance);
    auto& tracker = trackers[decision.instance];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      scheduler.on_feedback(std::move(*shipment));
    }
    if (decision.sync_request) {
      scheduler.on_feedback(
          core::SyncReply{decision.instance, decision.sync_request->epoch, 0.0});
    }
    ++seq;
    if (seq % config.window == 0) {
      core::ElasticSample sample;
      const auto loads = scheduler.estimated_loads();
      double total = 0.0;
      double peak = 0.0;
      for (const double load : loads) {
        total += load;
        peak = std::max(peak, load);
      }
      sample.backlog_ms = total;
      sample.queue_skew = total > 0.0 ? peak * static_cast<double>(k) / total : 1.0;
      sample.serving = k;
      benchmark::DoNotOptimize(controller.on_sample(sample).kind);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterThroughputElasticIdle)->Arg(10);

/// Queue hand-off cost per tuple: 256-tuple bursts moved producer ->
/// consumer on one thread, per-tuple push/pop vs push_all/pop_all. The
/// delta is pure lock/notify amortization (no contention, so this is the
/// lower bound of the batching win).
void BM_QueueTransfer(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  const bool batched = state.range(0) != 0;
  engine::BoundedQueue<std::uint64_t> queue(kBurst);
  std::vector<std::uint64_t> batch;
  batch.reserve(kBurst);
  std::vector<std::uint64_t> out;
  out.reserve(kBurst);
  std::uint64_t x = 0;
  for (auto _ : state) {
    if (batched) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        batch.push_back(x++);
      }
      queue.push_all(batch);
      benchmark::DoNotOptimize(queue.pop_all(out));
      out.clear();
    } else {
      for (std::size_t i = 0; i < kBurst; ++i) {
        queue.push(x++);
      }
      for (std::size_t i = 0; i < kBurst; ++i) {
        benchmark::DoNotOptimize(queue.pop());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_QueueTransfer)->Arg(0)->Arg(1);

/// SPSC ring hand-off cost per tuple: the same 256-tuple burst shape as
/// BM_QueueTransfer/1 but over the lock-free SpscRing — the delta against
/// BM_QueueTransfer/1 is what replacing the mutex/condvar with the
/// release/acquire index pair buys on an uncontended single-producer edge.
void BM_SpscTransfer(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  engine::SpscRing<std::uint64_t> ring(kBurst);
  engine::SpscBind produce(ring.producer_role());
  engine::SpscBind consume(ring.consumer_role());
  std::vector<std::uint64_t> batch;
  batch.reserve(kBurst);
  std::vector<std::uint64_t> out;
  out.reserve(kBurst);
  std::uint64_t x = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      batch.push_back(x++);
    }
    ring.push_all(batch);
    benchmark::DoNotOptimize(ring.pop_all(out));
    out.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_SpscTransfer);

/// A checkpoint as the runtime captures it once warm: default PosgConfig
/// (one ~35 KB sketch per instance), every instance shipped, at least one
/// epoch completed.
core::CheckpointState warm_checkpoint(std::size_t k) {
  const core::PosgConfig config;
  core::PosgScheduler scheduler(k, config);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  common::Xoshiro256StarStar rng(11);
  core::CheckpointState checkpoint = scheduler.checkpoint_state();
  for (common::SeqNo seq = 0; seq < (common::SeqNo{1} << 24U); ++seq) {
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(item, seq);
    auto& tracker = trackers[decision.instance];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      scheduler.on_feedback(std::move(*shipment));
    }
    if (decision.sync_request) {
      scheduler.on_feedback(tracker.on_sync_request(*decision.sync_request));
    }
    if (seq % 4096 == 4095 && scheduler.epochs_completed() > 0) {
      checkpoint = scheduler.checkpoint_state();
      if (std::all_of(checkpoint.sketches.begin(), checkpoint.sketches.end(),
                      [](const auto& sketch) { return sketch.has_value(); })) {
        break;
      }
    }
  }
  return checkpoint;
}

/// Checkpoint encode per image: payload serialization plus the CRC-32 over
/// it — the checkpoint writer's CPU per completed epoch (DESIGN.md §14),
/// at k = 3 (~105 KB) and k = 50 (~1.75 MB).
void BM_CheckpointEncode(benchmark::State& state) {
  const auto checkpoint = warm_checkpoint(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = core::encode(checkpoint);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  state.counters["image_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointEncode)->Arg(3)->Arg(50);

/// Same per-tuple decision loop as BM_RouterThroughput/10, but routed
/// through the multi-source tier: range(0) = S sources round-robining one
/// interleaved stream over S PosgScheduler views of a shared pool.
/// Trackers are per (instance, source) — each view is billed exactly its
/// own routed share (DESIGN.md §15). The S=1 row is the pass-through tax
/// over BM_RouterThroughput/10 (one mutex + one pool cursor check per
/// tuple); at S > 1 every decision first reads the S − 1 siblings' Ĉ and
/// installs their sum.
void BM_RouterThroughputMultiSource(benchmark::State& state) {
  const auto sources = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 10;
  core::PosgConfig config;
  config.window = 64;
  config.mu = 10.0;  // ship every second window
  core::MultiSourceScheduler scheduler(k, config, sources);
  std::vector<core::InstanceTracker> trackers;  // [op * sources + source]
  trackers.reserve(k * sources);
  for (common::InstanceId op = 0; op < k; ++op) {
    for (std::size_t s = 0; s < sources; ++s) {
      trackers.emplace_back(op, config);
    }
  }
  common::Xoshiro256StarStar rng(11);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    const auto source = static_cast<common::SourceId>(seq % sources);
    const common::Item item = seq % 4096;
    const auto decision = scheduler.schedule(source, item, seq);
    benchmark::DoNotOptimize(decision.instance);
    auto& tracker = trackers[decision.instance * sources + source];
    if (auto shipment =
            tracker.on_executed(item, 1.0 + static_cast<double>(rng.next_below(64)))) {
      shipment->source = source;
      scheduler.on_feedback(source, core::FeedbackEvent{std::move(*shipment)});
    }
    if (decision.sync_request) {
      core::SyncReply reply{decision.instance, decision.sync_request->epoch, 0.0};
      reply.source = source;
      scheduler.on_feedback(source, core::FeedbackEvent{std::move(reply)});
    }
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
  // Makespan lens (computed outside the timed loop): pool-wide Ĉ per
  // instance is Σ over views, makespan its max, ideal its mean — so
  // `imbalance` = 1.0 is a perfectly balanced pool. It is cumulative and
  // cannot see schedule quality (L); bench/extension_multisource does.
  std::vector<double> pool_load(k, 0.0);
  for (std::size_t s = 0; s < sources; ++s) {
    const auto loads = scheduler.view(static_cast<common::SourceId>(s)).estimated_loads();
    for (std::size_t op = 0; op < k; ++op) {
      pool_load[op] += loads[op];
    }
  }
  const double makespan = *std::max_element(pool_load.begin(), pool_load.end());
  const double total = std::accumulate(pool_load.begin(), pool_load.end(), 0.0);
  if (total > 0.0) {
    state.counters["imbalance"] = makespan / (total / static_cast<double>(k));
  }
}
BENCHMARK(BM_RouterThroughputMultiSource)->Arg(1)->Arg(2)->Arg(4);

void BM_TrackerOnExecuted(benchmark::State& state) {
  core::PosgConfig config;  // calibrated defaults
  core::InstanceTracker tracker(0, config);
  common::SeqNo seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracker.on_executed(seq % 4096, 1.0 + static_cast<double>(seq % 64)));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerOnExecuted);

// --- frame path: Socket::send_frame + recv_frame (src/net) ---

/// BM_FrameSendRecv's payloads: a bare tuple, a tuple carrying a marker,
/// and the first sketch shipment of a tracker under the default PosgConfig
/// (the largest frame a healthy run sends routinely).
const std::vector<std::vector<std::byte>>& frame_payloads() {
  static const std::vector<std::vector<std::byte>> payloads = [] {
    net::TupleMessage tuple;
    tuple.seq = 1;
    tuple.item = 42;
    std::vector<std::vector<std::byte>> out{net::encode(tuple)};
    tuple.marker = core::SyncRequest{3, 1234.5};
    out.push_back(net::encode(tuple));
    core::PosgConfig config;
    core::InstanceTracker tracker(0, config);
    for (common::SeqNo seq = 0; out.size() < 3; ++seq) {
      if (auto shipment =
              tracker.on_executed(seq % 4096, 1.0 + static_cast<double>(seq % 64))) {
        out.push_back(net::encode(*shipment));
      }
    }
    return out;
  }();
  return payloads;
}

/// One frame per iteration over a socket pair, on one thread: send_frame
/// on one end, then recv_frame on the other. Argument: payload bytes. No
/// peer wakeup is on this path; the row isolates the frame's syscalls and
/// copies, to which a cross-process run adds the wakeups.
void BM_FrameSendRecv(benchmark::State& state) {
  const auto& payloads = frame_payloads();
  const auto payload = std::find_if(payloads.begin(), payloads.end(), [&state](const auto& p) {
    return static_cast<std::int64_t>(p.size()) == state.range(0);
  });
  auto [sender, receiver] = net::socket_pair();
  for (auto _ : state) {
    sender.send_frame(*payload);
    auto frame = receiver.recv_frame();
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(sizeof(std::uint32_t) + payload->size()));
}

/// The burst counterpart of BM_FrameSendRecv: 64 bare tuple frames (the
/// 18-byte payload route() sends) framed back to back and sent with one
/// send_frames, then read back with 64 recv_frame calls, the first of which
/// takes the whole burst into the read buffer. One thread, so no wakeup
/// either; 64 items per iteration, comparable per item with the 18-byte
/// BM_FrameSendRecv row.
void BM_FrameBurstSendRecv(benchmark::State& state) {
  constexpr std::size_t kBurst = 64;
  const std::vector<std::byte>& payload = frame_payloads().front();
  std::vector<std::byte> burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    net::append_frame(burst, payload);
  }
  auto [sender, receiver] = net::socket_pair();
  for (auto _ : state) {
    sender.send_frames(burst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      auto frame = receiver.recv_frame();
      benchmark::DoNotOptimize(frame);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBurst));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(burst.size()));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamps the authoritative
// build-type context key. google-benchmark's own `library_build_type`
// reports how the *library* package was compiled (Debian ships a "debug"
// self-report even alongside -O3 binaries); `posg_build_type` reports how
// THIS binary was compiled, and tools/run_hotpath_bench.sh gates baseline
// regeneration on it.
int main(int argc, char** argv) {
#if defined(NDEBUG)
  benchmark::AddCustomContext("posg_build_type", "release");
#else
  benchmark::AddCustomContext("posg_build_type", "debug");
#endif
  // Registered here, not with BENCHMARK(): the rows are named by payload
  // size, and the shipment's size comes from running a tracker, which is
  // no work for static initialization.
  for (const auto& payload : frame_payloads()) {
    benchmark::RegisterBenchmark("BM_FrameSendRecv", BM_FrameSendRecv)
        ->Arg(static_cast<std::int64_t>(payload.size()));
  }
  benchmark::RegisterBenchmark("BM_FrameBurstSendRecv", BM_FrameBurstSendRecv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
