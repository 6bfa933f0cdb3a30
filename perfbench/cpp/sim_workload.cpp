// sim-k50-drift: sim::Simulator::run with a core::PosgScheduler over
// k = 50 instances. Single-threaded and clock-free, so the schedule-quality
// metrics (L, percentiles, imbalance) are exact for a seed; wall and CPU
// time per tuple measure the core (argmin over 50, merged estimates over
// 50 shipped sketches, billing, Δ-sync) and the instance trackers.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/posg_scheduler.hpp"
#include "sim/simulator.hpp"
#include "support.hpp"

namespace perfbench {

namespace {

namespace core = posg::core;
namespace common = posg::common;

constexpr std::size_t kInstances = 50;
/// Fixed (not derived from --seconds) so the quality metrics of a seed
/// never depend on how long the run measures. Large enough that POSG
/// completes sync epochs on every seed.
constexpr std::size_t kTuples = std::size_t{1} << 19;
/// Source inter-arrival = kOverprovisioning * W̄ / k (1.0 = exactly
/// provisioned). At 1.0 queues grow without bound, sync epochs (a round
/// trip through those queues) are superseded before they complete, and on
/// some seeds POSG completes none; 1.1 keeps every seed in steady state.
constexpr double kOverprovisioning = 1.1;
/// Schedule quality is measured over tuples from kTuples / 4 on: the first
/// quarter is the scheduler's cold start (round-robin until every instance
/// has shipped a sketch). The drift reversal at m/2 is inside the window.
constexpr std::size_t kWarmup = kTuples / 4;
/// Timing granularity: the cost callback, which the simulator calls once
/// per arrival, reads the clocks every kSegment arrivals.
constexpr std::size_t kSegment = std::size_t{1} << 14;

/// core::Scheduler decorator timing schedule() and on_feedback().
class TracingScheduler final : public core::Scheduler {
 public:
  TracingScheduler(core::Scheduler& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  core::Decision schedule(common::Item item, common::SeqNo seq) override {
    const Tracer::Scope span(tracer_, Layer::kCoreSchedule, seq);
    return inner_.schedule(item, seq);
  }
  void on_feedback(core::FeedbackEvent&& event) override {
    const Tracer::Scope span(tracer_, Layer::kCoreFeedback);
    inner_.on_feedback(std::move(event));
  }
  std::size_t instances() const override { return inner_.instances(); }
  std::string name() const override { return inner_.name(); }

 private:
  core::Scheduler& inner_;
  Tracer& tracer_;
};

struct Quality {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double imbalance = 0.0;
  std::uint64_t feedback_events = 0;
  std::uint64_t epochs = 0;

  bool operator==(const Quality&) const = default;
};

struct Rep {
  double stream_s = 0.0;
  double setup_s = 0.0;
  double run_wall_s = 0.0;
  /// Wall and thread-CPU seconds of each kSegment-arrival segment (the
  /// last one also holds the drain after the final arrival).
  std::vector<double> segment_wall_s;
  std::vector<double> segment_cpu_s;
  Quality quality;
};

Rep run_once(const PassOptions& options, Tracer* tracer, Result& result) {
  Rep rep;
  const std::int64_t t0 = mono_ns();
  const Inputs inputs(kTuples, options.seed);
  rep.stream_s = static_cast<double>(mono_ns() - t0) * 1e-9;

  // Load multipliers spread 1.10 -> 0.90 over the instances, reversed at
  // m/2: the fast half turns slow, forcing re-ships and fresh epochs.
  std::vector<double> forward(kInstances);
  for (std::size_t op = 0; op < kInstances; ++op) {
    forward[op] = 1.10 - 0.20 * static_cast<double>(op) / static_cast<double>(kInstances - 1);
  }
  const std::vector<double> reverse(forward.rbegin(), forward.rend());
  const posg::workload::ExecutionTimeModel model(
      inputs.costs, posg::workload::InstanceLoadModel(
                        kInstances, {{0, forward}, {kTuples / 2, reverse}}));
  posg::sim::Simulator::Config config;
  config.instances = kInstances;
  config.inter_arrival = kOverprovisioning * inputs.mean_cost / static_cast<double>(kInstances);
  core::PosgScheduler posg(kInstances, config.posg);
  std::uint64_t arrivals = 0;
  std::int64_t mark_wall = 0;
  double mark_cpu = 0.0;
  const auto close_segment = [&] {
    const std::int64_t wall = mono_ns();
    const double cpu = thread_cpu_s();
    rep.segment_wall_s.push_back(static_cast<double>(wall - mark_wall) * 1e-9);
    rep.segment_cpu_s.push_back(cpu - mark_cpu);
    mark_wall = wall;
    mark_cpu = cpu;
  };
  posg::sim::Simulator simulator(
      config, [&](common::Item item, common::InstanceId op, common::SeqNo seq) {
        if (++arrivals % kSegment == 0) {
          close_segment();
        }
        return model.execution_time(item, op, seq);
      });
  std::optional<TracingScheduler> decorated;
  if (tracer != nullptr) {
    decorated.emplace(posg, *tracer);
  }
  core::Scheduler& scheduler =
      decorated ? static_cast<core::Scheduler&>(*decorated) : static_cast<core::Scheduler&>(posg);
  const std::int64_t t1 = mono_ns();
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;

  mark_wall = mono_ns();
  mark_cpu = thread_cpu_s();
  posg::sim::Simulator::Result run;
  if (tracer != nullptr) {
    const Tracer::Scope span(*tracer, Layer::kSimRun);
    run = simulator.run(inputs.stream, scheduler);
  } else {
    run = simulator.run(inputs.stream, scheduler);
  }
  close_segment();
  rep.run_wall_s = static_cast<double>(mono_ns() - t1) * 1e-9;

  std::vector<double> latencies;
  std::size_t completed = 0;
  for (common::SeqNo seq = 0; seq < kTuples; ++seq) {
    const double latency = run.completions.at(seq);
    if (!std::isnan(latency)) {
      ++completed;
      if (seq >= kWarmup) {
        latencies.push_back(latency);
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double latency_sum = std::accumulate(latencies.begin(), latencies.end(), 0.0);
  const double work_max = *std::max_element(run.instance_work.begin(), run.instance_work.end());
  const double work_mean =
      std::accumulate(run.instance_work.begin(), run.instance_work.end(), 0.0) /
      static_cast<double>(kInstances);
  rep.quality = Quality{posg::metrics::percentile_sorted(latencies, 50.0),
                        posg::metrics::percentile_sorted(latencies, 99.0),
                        latency_sum / static_cast<double>(latencies.size()), work_max / work_mean,
                        run.messages.sketch_shipments + run.messages.sync_replies,
                        posg.epochs_completed()};

  // Output checks: exactly-once conservation, every tuple completed, and
  // POSG left round-robin.
  const std::uint64_t executed = std::accumulate(
      run.instance_tuples.begin(), run.instance_tuples.end(), std::uint64_t{0});
  result.attempted += kTuples;
  result.failed += kTuples - std::min<std::uint64_t>(executed, kTuples);
  result.check(executed == kTuples, "sim: sum of instance_tuples != m");
  result.check(completed == kTuples, "sim: not every tuple completed");
  result.check(rep.quality.epochs >= 1, "sim: POSG never left round-robin");
  return rep;
}

}  // namespace

Result run_sim(const PassOptions& options) {
  Result result;
  std::optional<Tracer> tracer;
  if (options.traced) {
    tracer.emplace();
  }
  std::vector<Rep> reps;
  const std::int64_t start = mono_ns();
  // Whole set-up + run repetitions of the same seed until the time is
  // used, at least three.
  while (reps.size() < 3 ||
         static_cast<double>(mono_ns() - start) * 1e-9 < options.seconds) {
    reps.push_back(run_once(options, tracer ? &*tracer : nullptr, result));
    result.check(reps.back().quality == reps.front().quality &&
                     reps.back().segment_wall_s.size() == reps.front().segment_wall_s.size(),
                 "sim: repetitions of one seed disagree on schedule quality");
  }

  double run_wall_total = 0.0;
  for (const Rep& rep : reps) {
    run_wall_total += rep.run_wall_s;
  }
  // Every repetition replays the same stream, so segment s is the same
  // work in each; timing takes each segment's fastest repetition.
  std::vector<std::vector<double>> segment_wall, segment_cpu;
  for (const Rep& rep : reps) {
    segment_wall.push_back(rep.segment_wall_s);
    segment_cpu.push_back(rep.segment_cpu_s);
  }
  const std::vector<double> wall_minima = segment_minima(segment_wall);
  const std::vector<double> cpu_minima = segment_minima(segment_cpu);
  const double best_wall = std::accumulate(wall_minima.begin(), wall_minima.end(), 0.0);
  const double best_cpu = std::accumulate(cpu_minima.begin(), cpu_minima.end(), 0.0);
  const Quality& q = reps.front().quality;
  result.set("setup_s", median_of(reps, &Rep::setup_s), "s");
  result.set("tuples_per_s", static_cast<double>(kTuples) / best_wall, "tuples/s");
  result.set("cpu_us_per_tuple", best_cpu * 1e6 / static_cast<double>(kTuples), "us");
  result.set("latency_p50_ms", q.p50_ms, "ms");
  result.set("latency_p99_ms", q.p99_ms, "ms");
  result.set("latency_mean_ms", q.mean_ms, "ms");
  result.set("imbalance", q.imbalance, "ratio");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Not a gated workload (see README.md), so its end-to-end numbers also
  // go to the per-layer report.
  for (const char* name : {"tuples_per_s", "cpu_us_per_tuple", "latency_p50_ms", "latency_p99_ms",
                           "latency_mean_ms", "imbalance"}) {
    result.metrics[std::string("sim.") + name] = result.metrics.at(name);
  }
  result.set("core.feedback_events", static_cast<double>(q.feedback_events), "count");
  result.set("core.epochs", static_cast<double>(q.epochs), "count");
  result.set("workload.stream_setup_s.sim", median_of(reps, &Rep::stream_s), "s");
  std::ostringstream note;
  note << reps.size() << " repetitions of m=" << kTuples << " tuples, k=" << kInstances
       << "; cpu_us_per_tuple by repetition:";
  for (const Rep& rep : reps) {
    note << ' '
         << std::accumulate(rep.segment_cpu_s.begin(), rep.segment_cpu_s.end(), 0.0) * 1e6 /
                static_cast<double>(kTuples);
  }
  result.notes["sim.repetitions"] = note.str();

  if (tracer) {
    const auto table = tracer->summary();
    const auto at = [&](Layer layer) { return table[static_cast<std::size_t>(layer)]; };
    const double tuples = static_cast<double>(kTuples * reps.size());
    const LayerStats schedule = at(Layer::kCoreSchedule);
    const LayerStats feedback = at(Layer::kCoreFeedback);
    const LayerStats run = at(Layer::kSimRun);
    result.set("core.schedule_ns",
               static_cast<double>(schedule.total_ns) / static_cast<double>(schedule.count), "ns");
    result.set("core.feedback_ns",
               static_cast<double>(feedback.total_ns) / static_cast<double>(feedback.count), "ns");
    result.set("sim.self_ns_per_tuple", static_cast<double>(run.self_ns) / tuples, "ns");
    // Budget of the single simulator thread: wall time per tuple of the
    // measured runs minus the self time of every layer span.
    const double self_total =
        static_cast<double>(run.self_ns + schedule.self_ns + feedback.self_ns);
    result.set("budget.sim_residual_ns_per_tuple", (run_wall_total * 1e9 - self_total) / tuples,
               "ns");
    result.notes["sim.layers"] = layer_table_json(table);
    if (!options.trace_path.empty()) {
      tracer->write_jsonl(options.trace_path, "sim-k50-drift");
    }
  }
  return result;
}

}  // namespace perfbench
