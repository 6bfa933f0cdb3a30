#include "support.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "workload/stream.hpp"

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t mono_ns() { return clock_ns(CLOCK_MONOTONIC); }
double thread_cpu_s() { return static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID)) * 1e-9; }
double process_cpu_s() { return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) * 1e-9; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::int64_t involuntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nivcsw;
}

bool percentile_supported(std::size_t n, double q) {
  // The epsilon absorbs binary error in 1 - q (1 - 0.99 is not exactly 0.01).
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >= 10.0;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (double beyond = 0.1; beyond >= 1e-9; beyond /= 10.0) {
    const double q = 1.0 - beyond;
    if (!percentile_supported(n, q)) {
      break;
    }
    best = q;
  }
  return best;
}

std::vector<double> per_window(const std::vector<double>& values, std::size_t window, double p) {
  std::vector<double> out;
  for (std::size_t begin = 0; begin < values.size(); begin += window) {
    const std::size_t end = std::min(values.size(), begin + window);
    if (end - begin < window && !out.empty()) {
      break;
    }
    std::vector<double> slice(values.begin() + static_cast<std::ptrdiff_t>(begin),
                              values.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(p < 0.0 ? std::accumulate(slice.begin(), slice.end(), 0.0) /
                                static_cast<double>(slice.size())
                          : posg::metrics::percentile(std::move(slice), p));
  }
  return out;
}

std::int64_t least_disturbed_threshold(std::vector<std::int64_t> counts, std::size_t at_least) {
  if (counts.empty()) {
    throw std::invalid_argument("no samples");
  }
  std::sort(counts.begin(), counts.end());
  return counts[std::min(at_least, counts.size()) - 1];
}

std::vector<double> segment_minima(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) {
    throw std::invalid_argument("no repetitions");
  }
  std::vector<double> best = reps.front();
  for (const auto& rep : reps) {
    if (rep.size() != best.size()) {
      throw std::invalid_argument("repetitions differ in segment count");
    }
    for (std::size_t s = 0; s < best.size(); ++s) {
      best[s] = std::min(best[s], rep[s]);
    }
  }
  return best;
}

Inputs::Inputs(std::size_t m, std::uint64_t seed)
    : costs(kItems, kCostClasses, 1.0, 64.0, posg::workload::ValueSpacing::kLinear,
            kAssignmentSeed) {
  const posg::workload::ZipfItems zipf(kItems, 1.0);
  stream = posg::workload::StreamGenerator::generate(zipf, m, seed);
  mean_cost = costs.mean_under(zipf);
}

// ------------------------------------------------------------------ spans

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kCoreSchedule: return "core.schedule";
    case Layer::kCoreFeedback: return "core.feedback";
    case Layer::kSpoutEmit: return "workload.spout_emit";
    case Layer::kEngineRoute: return "engine.route_batch";
    case Layer::kEngineFeedback: return "engine.feedback";
    case Layer::kEngineQueueSample: return "engine.queue_sample";
    case Layer::kBoltExecute: return "engine.execute";
    case Layer::kRuntimeRoute: return "runtime.route";
    case Layer::kNetSend: return "net.send_frame";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

std::atomic<std::uint64_t> next_generation{1};

struct LocalSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;

}  // namespace

Tracer::Tracer(ClockFn clock) : clock_(clock), generation_(next_generation.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::local() {
  if (local_slot.generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->records.reserve(1 << 14);
    local_slot = LocalSlot{generation_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(local_slot.buffer);
}

void Tracer::begin(Layer layer, std::uint64_t seq) {
  ThreadBuffer& buf = local();
  // A span is kept when its parent was (or it is a root) and it is the
  // next 1-in-kSampleEvery of its layer on this thread.
  const std::int32_t parent = buf.stack.empty() ? -1 : buf.stack.back().record;
  const bool keep = (buf.stack.empty() || parent >= 0) &&
                    buf.seen[static_cast<std::size_t>(layer)]++ % kSampleEvery == 0;
  std::int32_t record = -1;
  if (keep) {
    record = static_cast<std::int32_t>(buf.records.size());
    buf.records.push_back(Record{0, 0, seq, parent, layer});
  }
  buf.stack.push_back(Open{clock_(), 0, seq, record, layer});
}

void Tracer::end() {
  const std::int64_t now = clock_();
  ThreadBuffer& buf = local();
  const Open open = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t duration = now - open.start_ns;
  LayerStats& stats = buf.stats[static_cast<std::size_t>(open.layer)];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - open.child_ns;
  if (!buf.stack.empty()) {
    buf.stack.back().child_ns += duration;
  }
  if (open.record >= 0) {
    Record& record = buf.records[static_cast<std::size_t>(open.record)];
    record.start_ns = open.start_ns;
    record.end_ns = now;
  }
}

std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> Tracer::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> out{};
  std::array<std::vector<double>, static_cast<std::size_t>(Layer::kCount)> kept;
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].count += buf->stats[i].count;
      out[i].total_ns += buf->stats[i].total_ns;
      out[i].self_ns += buf->stats[i].self_ns;
    }
    for (const Record& record : buf->records) {
      kept[static_cast<std::size_t>(record.layer)].push_back(
          static_cast<double>(record.end_ns - record.start_ns));
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!kept[i].empty()) {
      out[i].p50_ns = posg::metrics::percentile(std::move(kept[i]), 50.0);
    }
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path, const std::string& pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < buf->records.size(); ++i) {
      const Record& r = buf->records[i];
      out << "{\"pass\":\"" << pass << "\",\"name\":\"" << layer_name(r.layer)
          << "\",\"thread\":" << buf->thread << ",\"id\":" << i << ",\"parent\":";
      if (r.parent >= 0) {
        out << r.parent;
      } else {
        out << "null";
      }
      out << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns << ",\"seq\":";
      if (r.seq != kNoSeq) {
        out << r.seq;
      } else {
        out << "null";
      }
      out << "}\n";
    }
  }
}

std::string layer_table_json(
    const std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)>& stats) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].count == 0) {
      continue;
    }
    out << (first ? "" : ",") << '"' << layer_name(static_cast<Layer>(i)) << "\":{\"count\":"
        << stats[i].count << ",\"total_ns\":" << stats[i].total_ns
        << ",\"self_ns\":" << stats[i].self_ns << ",\"p50_ns\":" << stats[i].p50_ns << '}';
    first = false;
  }
  out << '}';
  return out.str();
}

}  // namespace perfbench
