// engine-k3-openloop: an engine::Engine topology. One benchmark-owned
// spout, paced open-loop at half the nominal capacity k/W̄, feeds a
// PosgGrouping that routes to 3 benchmark-owned busy-wait bolts. Latency
// is timed from each tuple's due time, so generator stalls count.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>

#include "engine/engine.hpp"
#include "engine/posg_grouping.hpp"
#include "engine/topology.hpp"
#include "support.hpp"

namespace perfbench {

namespace {

namespace common = posg::common;
namespace core = posg::core;
namespace engine = posg::engine;
namespace metrics = posg::metrics;

constexpr std::size_t kBolts = 3;
/// Mean busy-wait per tuple W̄; the 64 cost classes are scaled to it.
constexpr double kMeanCostUs = 19.0;
/// Offered load as a share of the nominal capacity k / W̄.
constexpr double kLoad = 0.5;
/// Length of one set-up + run repetition.
constexpr double kRepSeconds = 1.25;
/// Latency tail and mean are taken per window of this many tuples (~13 ms)
/// and reported as the median over windows: a vCPU stalled for a
/// millisecond delays everything queued behind it, so the whole-run p99
/// follows the host's stall rate from run to run, while most short windows
/// hold no stall. 1024 samples leave 10 beyond the p99 (percentile rule).
constexpr std::size_t kWindow = 1024;
static_assert(kWindow >= 1000, "a window must support its p99");
/// Per-bolt speed multipliers for the first and second half of a run. Bolt
/// 0 is slow throughout, so round-robin would leave its busy time ~1.3x
/// the mean; bolts 1 and 2 swap speeds at m/2.
constexpr double kSpeedFirst[kBolts] = {1.3, 1.0, 0.7};
constexpr double kSpeedSecond[kBolts] = {1.3, 0.7, 1.0};

float ns_to_us(std::int64_t ns) { return static_cast<float>(static_cast<double>(ns) * 1e-3); }

/// Everything the spout and bolts share with the driver for one run. The
/// per-tuple vectors are indexed by seq; each entry has exactly one writer
/// thread and is read after Engine::run() joined every executor.
struct RunState {
  const Inputs* inputs = nullptr;
  /// start_ns is written by the spout thread in open(), before its first
  /// emission; the engine's queue hand-off orders it before any bolt reads.
  OpenLoopSchedule schedule;
  double cost_scale_us = 0.0;  // µs of busy-wait per cost unit
  Tracer* tracer = nullptr;
  std::vector<float> latency_us;   // due -> end of execute
  std::vector<float> lateness_us;  // due -> emission by the spout
  std::vector<float> handoff_us;   // emitted_at -> execute start (traced only)
  std::atomic<std::uint64_t> markers{0};
  std::atomic<std::int64_t> last_done_ns{0};
};

/// Open-loop generator: sleeps (never spins) until the next tuple is due,
/// then emits every tuple already due. The engine flushes after next().
class PacedSpout final : public engine::Spout {
 public:
  explicit PacedSpout(RunState& state) : state_(state) {}

  void open(const engine::ComponentContext&) override { state_.schedule.start_ns = mono_ns(); }

  bool next(engine::OutputCollector& collector) override {
    const std::vector<common::Item>& stream = state_.inputs->stream;
    if (cursor_ >= stream.size()) {
      return false;
    }
    const OpenLoopSchedule& schedule = state_.schedule;
    const std::int64_t due = schedule.due(cursor_);
    std::int64_t now = mono_ns();
    if (due > now) {
      const timespec wake{static_cast<time_t>(due / 1'000'000'000),
                          static_cast<long>(due % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &wake, nullptr);
      now = mono_ns();
    }
    if (state_.tracer != nullptr) {
      state_.tracer->begin(Layer::kSpoutEmit);
    }
    const std::uint64_t due_now = std::min<std::uint64_t>(stream.size(), schedule.due_by(now));
    for (; cursor_ < due_now; ++cursor_) {
      state_.lateness_us[cursor_] = ns_to_us(schedule.lateness_ns(cursor_, now));
      engine::Tuple tuple;
      tuple.item = stream[cursor_];
      collector.emit(std::move(tuple));
    }
    if (state_.tracer != nullptr) {
      state_.tracer->end();
    }
    return true;
  }

 private:
  RunState& state_;
  std::size_t cursor_ = 0;
};

/// Busy-waits the tuple's cost: its item's class, scaled to µs, times the
/// bolt's current speed multiplier. Records latency from the due time.
class CostBolt final : public engine::Bolt {
 public:
  explicit CostBolt(RunState& state) : state_(state) {}

  void prepare(const engine::ComponentContext& context) override { instance_ = context.instance; }

  void execute(const engine::Tuple& tuple, engine::OutputCollector&) override {
    const std::int64_t start = mono_ns();
    if (state_.tracer != nullptr) {
      state_.tracer->begin(Layer::kBoltExecute, tuple.seq);
      state_.handoff_us[tuple.seq] =
          ns_to_us(start - std::chrono::duration_cast<std::chrono::nanoseconds>(
                               tuple.emitted_at.time_since_epoch())
                               .count());
    }
    const bool second_half = tuple.seq >= state_.latency_us.size() / 2;
    const double speed = second_half ? kSpeedSecond[instance_] : kSpeedFirst[instance_];
    const double cost_us =
        state_.inputs->costs.base_time(tuple.item) * state_.cost_scale_us * speed;
    const std::int64_t deadline = start + static_cast<std::int64_t>(cost_us * 1e3);
    std::int64_t now = mono_ns();
    while (now < deadline) {
      now = mono_ns();
    }
    if (tuple.marker) {
      state_.markers.fetch_add(1, std::memory_order_relaxed);
    }
    state_.latency_us[tuple.seq] = ns_to_us(now - state_.schedule.due(tuple.seq));
    std::int64_t last = state_.last_done_ns.load(std::memory_order_relaxed);
    while (now > last && !state_.last_done_ns.compare_exchange_weak(last, now)) {
    }
    if (state_.tracer != nullptr) {
      state_.tracer->end();
    }
  }

 private:
  RunState& state_;
  common::InstanceId instance_ = 0;
};

/// engine::Grouping decorator timing route_batch and the feedback calls.
class TracingGrouping final : public engine::Grouping {
 public:
  TracingGrouping(std::shared_ptr<engine::Grouping> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  engine::Route route(const engine::Tuple& tuple, std::size_t k) override {
    const Tracer::Scope span(tracer_, Layer::kEngineRoute, tuple.seq);
    routed_.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    return inner_->route(tuple, k);
  }
  void route_batch(const engine::Tuple* tuples, std::size_t n, std::size_t k,
                   engine::Route* out) override {
    const Tracer::Scope span(tracer_, Layer::kEngineRoute, n > 0 ? tuples[0].seq : Tracer::kNoSeq);
    routed_.fetch_add(n, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    inner_->route_batch(tuples, n, k, out);
  }
  bool wants_feedback() const override { return inner_->wants_feedback(); }
  void on_sketches(const core::SketchShipment& shipment) override {
    const Tracer::Scope span(tracer_, Layer::kEngineFeedback);
    inner_->on_sketches(shipment);
  }
  void on_sketches(core::SketchShipment&& shipment) override {
    const Tracer::Scope span(tracer_, Layer::kEngineFeedback);
    inner_->on_sketches(std::move(shipment));
  }
  void on_sync_reply(const core::SyncReply& reply) override {
    const Tracer::Scope span(tracer_, Layer::kEngineFeedback);
    inner_->on_sync_reply(reply);
  }
  const core::PosgConfig* feedback_config() const override { return inner_->feedback_config(); }
  std::optional<double> cost_estimate(const engine::Tuple& tuple) const override {
    return inner_->cost_estimate(tuple);
  }
  void on_queue_sample(common::InstanceId instance, double occupancy) override {
    const Tracer::Scope span(tracer_, Layer::kEngineQueueSample);
    inner_->on_queue_sample(instance, occupancy);
  }
  std::string name() const override { return inner_->name(); }

  std::uint64_t routed() const { return routed_.load(); }
  std::uint64_t batches() const { return batches_.load(); }

 private:
  std::shared_ptr<engine::Grouping> inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> routed_{0};
  std::atomic<std::uint64_t> batches_{0};
};

struct Rep {
  double stream_s = 0.0;
  double setup_s = 0.0;
  double tuples_per_s = 0.0;
  double cpu_us_per_tuple = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double imbalance = 0.0;
  double lateness_p50_us = 0.0;
  double lateness_p99_us = 0.0;
  std::uint64_t ring_full_spins = 0;
  std::vector<double> latency_us;  // sorted
  std::vector<double> handoff_us;  // sorted, traced only
  std::uint64_t routed = 0;
  std::uint64_t batches = 0;
};

std::vector<double> sorted_copy(const std::vector<float>& values) {
  std::vector<double> out(values.begin(), values.end());
  std::sort(out.begin(), out.end());
  return out;
}

Rep run_once(const PassOptions& options, std::size_t m, Tracer* tracer, Result& result) {
  Rep rep;
  const std::int64_t t0 = mono_ns();
  const Inputs inputs(m, options.seed);
  rep.stream_s = static_cast<double>(mono_ns() - t0) * 1e-9;

  RunState state;
  state.inputs = &inputs;
  state.cost_scale_us = kMeanCostUs / inputs.mean_cost;
  state.schedule.interval_ns =
      static_cast<std::int64_t>(kMeanCostUs * 1e3 / (kLoad * static_cast<double>(kBolts)));
  state.tracer = tracer;
  state.latency_us.assign(m, -1.0F);
  state.lateness_us.assign(m, -1.0F);
  if (tracer != nullptr) {
    state.handoff_us.assign(m, -1.0F);
  }

  auto posg = std::make_shared<engine::PosgGrouping>(kBolts, core::PosgConfig{});
  std::shared_ptr<TracingGrouping> decorated;
  std::shared_ptr<engine::Grouping> grouping = posg;
  if (tracer != nullptr) {
    decorated = std::make_shared<TracingGrouping>(posg, *tracer);
    grouping = decorated;
  }
  engine::TopologyBuilder builder;
  builder.add_spout("gen", [&state](const engine::ComponentContext&) {
    return std::make_unique<PacedSpout>(state);
  });
  builder.add_bolt(
      "op", [&state](const engine::ComponentContext&) { return std::make_unique<CostBolt>(state); },
      kBolts, {{"gen", grouping}});
  engine::Engine eng(builder.build());

  const double cpu0 = process_cpu_s();
  eng.run();
  const double cpu = process_cpu_s() - cpu0;
  const std::int64_t due0 = state.schedule.start_ns;
  rep.setup_s = static_cast<double>(due0 - t0) * 1e-9;

  const engine::Engine::ComponentStats bolts = eng.stats("op");
  const engine::Engine::ComponentStats spout = eng.stats("gen");
  const auto recorded = static_cast<std::uint64_t>(std::count_if(
      state.latency_us.begin(), state.latency_us.end(), [](float v) { return v >= 0.0F; }));
  result.attempted += m;
  result.failed += m - std::min<std::uint64_t>(recorded, m);
  result.check(spout.emitted == m, "engine: emitted != m");
  result.check(bolts.executed == m && recorded == m, "engine: executed != m");
  result.check(bolts.shed == 0 && bolts.errors == 0, "engine: tuples shed or failed");
  result.check(state.markers.load() >= 1 &&
                   posg->scheduler_state() != core::PosgScheduler::State::kRoundRobin,
               "engine: POSG never left round-robin");

  const std::vector<double> in_order(state.latency_us.begin(), state.latency_us.end());
  rep.p99_ms = metrics::percentile(per_window(in_order, kWindow, 99.0), 50.0) * 1e-3;
  rep.mean_ms = metrics::percentile(per_window(in_order, kWindow, -1.0), 50.0) * 1e-3;
  rep.latency_us = sorted_copy(state.latency_us);
  const std::vector<double> lateness = sorted_copy(state.lateness_us);
  rep.p50_ms = metrics::percentile_sorted(rep.latency_us, 50.0) * 1e-3;
  rep.lateness_p50_us = metrics::percentile_sorted(lateness, 50.0);
  rep.lateness_p99_us = metrics::percentile_sorted(lateness, 99.0);
  const double span_s = static_cast<double>(state.last_done_ns.load() - due0) * 1e-9;
  rep.tuples_per_s = static_cast<double>(m) / span_s;
  rep.cpu_us_per_tuple = cpu * 1e6 / static_cast<double>(m);
  const double busy_max = *std::max_element(bolts.busy_ms.begin(), bolts.busy_ms.end());
  rep.imbalance = busy_max / (std::accumulate(bolts.busy_ms.begin(), bolts.busy_ms.end(), 0.0) /
                              static_cast<double>(kBolts));
  const auto snapshot = eng.metrics().snapshot();
  const auto spins = snapshot.counters.find("posg.engine.ring_full_spins");
  rep.ring_full_spins = spins != snapshot.counters.end() ? spins->second : 0;

  if (tracer != nullptr) {
    rep.handoff_us = sorted_copy(state.handoff_us);
    rep.routed = decorated->routed();
    rep.batches = decorated->batches();
  }
  return rep;
}

}  // namespace

Result run_engine(const PassOptions& options) {
  Result result;
  std::optional<Tracer> tracer;
  if (options.traced) {
    tracer.emplace();
  }
  const std::size_t reps_wanted =
      std::max<std::size_t>(3, static_cast<std::size_t>(options.seconds / (kRepSeconds + 0.1)));
  // At least half a second per repetition: POSG needs a few thousand
  // tuples per bolt to ship sketches and leave round-robin.
  const double seconds_per_rep = std::clamp(options.seconds / 3.0, 0.5, kRepSeconds);
  const auto m = static_cast<std::size_t>(seconds_per_rep * kLoad * static_cast<double>(kBolts) /
                                          (kMeanCostUs * 1e-6));
  std::vector<Rep> reps;
  for (std::size_t i = 0; i < reps_wanted; ++i) {
    reps.push_back(run_once(options, m, tracer ? &*tracer : nullptr, result));
  }
  const auto med = [&](double Rep::*field) { return median_of(reps, field); };
  result.set("setup_s", med(&Rep::setup_s), "s");
  result.set("tuples_per_s", med(&Rep::tuples_per_s), "tuples/s");
  // CPU is a median: a stolen vCPU ends a busy-wait without spending the
  // CPU time, so interference can lower it as well as raise it.
  result.set("cpu_us_per_tuple", med(&Rep::cpu_us_per_tuple), "us");
  // Latencies come from the least disturbed repetition: every repetition
  // offers the same stream at the same rate, and host stalls, which come
  // in bursts of seconds that can cover most of a run, only add latency.
  result.set("latency_p50_ms", least_of(reps, &Rep::p50_ms), "ms");
  result.set("latency_p99_ms", least_of(reps, &Rep::p99_ms), "ms");
  result.set("latency_mean_ms", least_of(reps, &Rep::mean_ms), "ms");
  result.set("imbalance", med(&Rep::imbalance), "ratio");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  result.set("workload.stream_setup_s.engine", med(&Rep::stream_s), "s");
  result.set("workload.gen_lateness_us_p50", med(&Rep::lateness_p50_us), "us");
  result.set("workload.gen_lateness_us_p99", med(&Rep::lateness_p99_us), "us");
  // Keeping up, judged on the median repetition so that one repetition
  // ending in a host stall does not count as falling behind: completions
  // at (nearly) the offered rate, and a generator close to its schedule.
  const double offered = kLoad * static_cast<double>(kBolts) / (kMeanCostUs * 1e-6);
  result.check(med(&Rep::tuples_per_s) >= 0.95 * offered,
               "engine: completion rate below offered rate");
  result.check(med(&Rep::lateness_p50_us) <= 1000.0, "engine: generator p50 lateness above 1 ms");
  std::uint64_t spins = 0;
  std::vector<double> all_latency;
  for (const Rep& rep : reps) {
    spins += rep.ring_full_spins;
    all_latency.insert(all_latency.end(), rep.latency_us.begin(), rep.latency_us.end());
  }
  std::sort(all_latency.begin(), all_latency.end());
  result.set("engine.ring_full_spins", static_cast<double>(spins), "count");
  result.set("engine.latency_p99_ms", metrics::percentile_sorted(all_latency, 99.0) * 1e-3, "ms");
  result.set("engine.latency_samples", static_cast<double>(all_latency.size()), "count");
  result.check(percentile_supported(all_latency.size(), 0.99),
               "engine: too few samples for a p99");
  std::ostringstream note;
  const double tail_q = highest_supported_percentile(all_latency.size());
  note << reps.size() << " repetitions of m=" << m << " tuples at "
       << 1e9 / (kMeanCostUs * 1e3 / (kLoad * kBolts)) << " tuples/s; latency tail p"
       << tail_q * 100 << "=" << metrics::percentile_sorted(all_latency, tail_q * 100) * 1e-3
       << " ms over "
       << all_latency.size() << " samples";
  result.notes["engine.repetitions"] = note.str();

  if (tracer) {
    const auto table = tracer->summary();
    const auto at = [&](Layer layer) { return table[static_cast<std::size_t>(layer)]; };
    std::uint64_t routed = 0;
    std::uint64_t batches = 0;
    std::vector<double> handoff;
    for (const Rep& rep : reps) {
      routed += rep.routed;
      batches += rep.batches;
      handoff.insert(handoff.end(), rep.handoff_us.begin(), rep.handoff_us.end());
    }
    const LayerStats route = at(Layer::kEngineRoute);
    const LayerStats feedback = at(Layer::kEngineFeedback);
    result.set("engine.route_ns_per_tuple",
               static_cast<double>(route.total_ns) / static_cast<double>(routed), "ns");
    result.set("engine.batch_fill", static_cast<double>(routed) / static_cast<double>(batches),
               "tuples");
    result.set("engine.handoff_wait_us_p50", metrics::percentile(std::move(handoff), 50.0), "us");
    result.set("engine.feedback_ns",
               static_cast<double>(feedback.total_ns) / static_cast<double>(feedback.count), "ns");
    result.set("engine.execute_us_p50", at(Layer::kBoltExecute).p50_ns * 1e-3, "us");
    // Budget over every executor thread: process CPU per tuple minus the
    // self time of every span. The residual is engine-internal work the
    // benchmark cannot see: ring hand-off, consumer backoff, trackers.
    std::int64_t self_total = 0;
    for (const LayerStats& stats : table) {
      self_total += stats.self_ns;
    }
    double cpu_ns = 0.0;
    for (const Rep& rep : reps) {
      cpu_ns += rep.cpu_us_per_tuple * 1e3 * static_cast<double>(m);
    }
    result.set("budget.engine_residual_ns_per_tuple",
               (cpu_ns - static_cast<double>(self_total)) / static_cast<double>(m * reps.size()),
               "ns");
    result.notes["engine.layers"] = layer_table_json(table);
    if (!options.trace_path.empty()) {
      tracer->write_jsonl(options.trace_path, "engine-k3-openloop");
    }
  }
  return result;
}

}  // namespace perfbench
