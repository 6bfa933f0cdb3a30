#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "metrics/stats.hpp"
#include "workload/distributions.hpp"
#include "workload/exec_time.hpp"

/// Helpers shared by the three benchmark workloads: clocks and resource
/// usage, the percentile rule, the generated inputs, the span tracer and
/// the result record every workload fills.
namespace perfbench {

// ---------------------------------------------------------------- clocks

std::int64_t mono_ns();
double thread_cpu_s();
double process_cpu_s();
/// Peak resident set of this process (getrusage ru_maxrss), in MB.
double peak_rss_mb();

/// Involuntary context switches of the calling thread so far: how often
/// the kernel preempted it (getrusage RUSAGE_THREAD ru_nivcsw).
std::int64_t involuntary_switches();

// ------------------------------------------------------------ statistics

/// Median over repetitions of one field of a per-repetition record.
template <typename Rep, typename Field>
double median_of(const std::vector<Rep>& reps, Field Rep::*field) {
  std::vector<double> values;
  values.reserve(reps.size());
  for (const Rep& rep : reps) {
    values.push_back(static_cast<double>(rep.*field));
  }
  return posg::metrics::percentile(std::move(values), 50.0);
}

/// Minimum over repetitions of one field: the least disturbed repetition
/// of a timing that interference from other tenants can only increase.
template <typename Rep, typename Field>
double least_of(const std::vector<Rep>& reps, Field Rep::*field) {
  double best = static_cast<double>(reps.front().*field);
  for (const Rep& rep : reps) {
    best = std::min(best, static_cast<double>(rep.*field));
  }
  return best;
}

/// The percentile rule: a tail percentile q is reportable from n samples
/// only when at least ten samples lie beyond it, n * (1 - q) >= 10.
bool percentile_supported(std::size_t n, double q);
/// Highest of p90, p99, p99.9, ... that n samples support (0 when even
/// p90 is not supported, i.e. n < 100).
double highest_supported_percentile(std::size_t n);

/// Splits `values` (in arrival order) into consecutive windows of
/// `window` samples (a shorter tail is dropped unless it is the only one)
/// and returns each window's p-th percentile (p in [0, 100]), or its mean
/// when p < 0. The median over windows is a tail estimate that one tail
/// event moves by one window, not as a whole.
std::vector<double> per_window(const std::vector<double>& values, std::size_t window, double p);

/// The smallest disturbance count c such that at least `at_least` of
/// `counts` are <= c (every count, if there are fewer): selects the least
/// disturbed samples, the undisturbed ones when enough of them exist.
std::int64_t least_disturbed_threshold(std::vector<std::int64_t> counts, std::size_t at_least);

/// Per segment s, the minimum over repetitions r of reps[r][s], where
/// every repetition did the same work in segment s. Bursty interference
/// from other tenants slows some repetitions of a segment; the fastest is
/// the least disturbed.
std::vector<double> segment_minima(const std::vector<std::vector<double>>& reps);

// --------------------------------------------------------- workload inputs

/// The generated input shared by all three workloads: a Zipf-1.0 stream
/// over 4 096 items drawn from the run's seed, and 64 linear cost classes
/// of 1..64 (ms in the simulator, scaled to µs elsewhere). The item ->
/// class map uses a fixed seed, so the mean cost W̄ — and with it the
/// offered load — is the same for every run seed; the seed changes only
/// which tuples arrive in which order.
struct Inputs {
  static constexpr std::size_t kItems = 4096;
  static constexpr std::size_t kCostClasses = 64;
  static constexpr std::uint64_t kAssignmentSeed = 1;

  Inputs(std::size_t m, std::uint64_t seed);

  std::vector<posg::common::Item> stream;
  posg::workload::ExecutionTimeAssignment costs;
  /// Analytic W̄ under the Zipf distribution, in cost units.
  double mean_cost = 0.0;
};

/// Open-loop arrival schedule: tuple `seq` is due at start + seq * interval
/// whatever the system did with earlier tuples.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  std::int64_t interval_ns = 1;

  std::int64_t due(std::uint64_t seq) const {
    return start_ns + static_cast<std::int64_t>(seq) * interval_ns;
  }
  /// Number of tuples due at or before `now_ns`.
  std::uint64_t due_by(std::int64_t now_ns) const {
    return now_ns < start_ns
               ? 0
               : static_cast<std::uint64_t>((now_ns - start_ns) / interval_ns) + 1;
  }
  /// How late a tuple handled at `now_ns` is against its due time (never
  /// negative: an early emission is on time).
  std::int64_t lateness_ns(std::uint64_t seq, std::int64_t now_ns) const {
    return now_ns > due(seq) ? now_ns - due(seq) : 0;
  }
};

// ------------------------------------------------------------------ spans

/// Span names, one per layer boundary the benchmark's decorators time.
enum class Layer : std::uint16_t {
  kSimRun,          // sim::Simulator::run
  kCoreSchedule,    // core::Scheduler::schedule
  kCoreFeedback,    // core::Scheduler::on_feedback
  kSpoutEmit,       // benchmark spout: one wake-up's emissions
  kEngineRoute,     // engine::Grouping::route_batch
  kEngineFeedback,  // engine::Grouping::on_sketches / on_sync_reply
  kEngineQueueSample,  // engine::Grouping::on_queue_sample
  kBoltExecute,     // benchmark bolt: execute()
  kRuntimeRoute,    // runtime::SchedulerRuntime::route
  kNetSend,         // net::FrameTransport::send_frame
  kCount
};
const char* layer_name(Layer layer);

struct LayerStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  double p50_ns = 0.0;
};

/// In-memory span recorder. Each thread appends to its own buffer, so
/// recording takes no lock after a thread's first span. A span's self
/// time is its duration minus the child spans it encloses on the same
/// thread, computed exactly for every span as it closes. Full records
/// (name, start, end, parent, seq) are kept for one span in kSampleEvery
/// of each layer whose parent was kept; they give the per-layer p50 and
/// are written as JSONL.
class Tracer {
 public:
  using ClockFn = std::int64_t (*)();

  explicit Tracer(ClockFn clock = &mono_ns);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin(Layer layer, std::uint64_t seq = kNoSeq);
  void end();

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, std::uint64_t seq = kNoSeq) : tracer_(tracer) {
      tracer_.begin(layer, seq);
    }
    ~Scope() { tracer_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  /// Per-layer totals over every thread (call after those threads ended).
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> summary() const;
  /// Appends the kept span records to `path` as JSONL.
  void write_jsonl(const std::string& path, const std::string& pass) const;

  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

 private:
  struct Record {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t seq;
    std::int32_t parent;  // index into the same thread's records, -1 = root
    Layer layer;
  };
  struct Open {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t seq;
    std::int32_t record;  // -1 when not kept
    Layer layer;
  };
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Open> stack;
    std::vector<Record> records;
    std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> stats{};
    std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> seen{};
  };
  ThreadBuffer& local();

  static constexpr std::uint64_t kSampleEvery = 64;

  ClockFn clock_;
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// ----------------------------------------------------------------- result

/// One workload pass: end-to-end metrics, per-layer metrics, output-check
/// failures and the attempted/failed tuple counts.
struct Result {
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Free-form facts printed beside the metrics (absent-metric reasons,
  /// span tables, tails with their sample counts).
  std::map<std::string, std::string> notes;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a violation unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
};

/// Options every workload pass receives.
struct PassOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Directory (inside the checkout) for checkpoint files and traces.
  std::string scratch_dir = ".";
  std::string trace_path;  // JSONL destination when traced
};

/// Per-layer table of a traced pass, as one JSON object string.
std::string layer_table_json(
    const std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)>& stats);

Result run_sim(const PassOptions& options);
Result run_engine(const PassOptions& options);
Result run_ipc(const PassOptions& options);

/// Helper self-tests; returns the number of failed checks.
int run_selftests();

}  // namespace perfbench
