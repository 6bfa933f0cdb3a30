// ipc-k3-flood: one router thread calls runtime::SchedulerRuntime::route()
// back to back (a closed loop: route() blocks when a socket buffer fills)
// towards 3 forked runtime::InstanceRuntime processes linked by
// net::socket_pair(). Checkpointing is on at the default cadence. The frame
// path — encode, send_frame, recv_frame, decode — and the reader threads'
// feedback handling set the numbers here.
#include <sys/resource.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

#include "net/socket.hpp"
#include "net/transport.hpp"
#include "runtime/instance_runtime.hpp"
#include "runtime/scheduler_runtime.hpp"
#include "support.hpp"

namespace perfbench {

namespace {

namespace common = posg::common;
namespace net = posg::net;
namespace runtime = posg::runtime;

constexpr std::size_t kInstances = 3;
/// Timing window of the route loop: ~4 ms of routes. route() timings come
/// from the windows in which the router thread was never preempted. When
/// other work takes vCPUs, the children and reader threads share the
/// router's CPU and preempt it hundreds of times per window, and every
/// timing of the closed loop follows how many vCPUs were left to it; an
/// unpreempted window times the program, not the host.
constexpr std::size_t kWindow = 1024;
static_assert(kWindow >= 1000, "a window must support its p99");
constexpr std::size_t kTuplesPerRep = 400 * kWindow;
/// Approximate wall time of one repetition, which sizes the repetition
/// count from --seconds. The count is fixed before the run, so a slow host
/// does not also leave fewer windows to choose from.
constexpr double kRepSeconds = 1.8;
/// The timings use at least this many windows: the unpreempted ones, or,
/// if fewer, those preempted least.
constexpr std::size_t kMinWindows = 64;

/// Frame counts of one side of the links.
struct FrameCounters {
  std::atomic<std::uint64_t> sent_frames{0};
  std::atomic<std::uint64_t> sent_bytes{0};
  std::atomic<std::uint64_t> recv_frames{0};
  std::atomic<std::uint64_t> recv_bytes{0};
  std::atomic<std::int64_t> recv_cpu_ns{0};
};

/// net::FrameTransport decorator: counts frames and wire bytes (4-byte
/// length prefix included), times send_frame as a span when a tracer is
/// given, and measures the thread CPU time of receives that returned a
/// frame when `time_recv` (CPU, not wall, so the idle wait for the next
/// frame is not counted).
class TracingTransport final : public net::FrameTransport {
 public:
  TracingTransport(std::unique_ptr<net::FrameTransport> inner, FrameCounters& counters,
                   Tracer* tracer, bool time_recv)
      : inner_(std::move(inner)), counters_(counters), tracer_(tracer), time_recv_(time_recv) {}

  void send_frame(std::span<const std::byte> payload) override {
    if (tracer_ != nullptr) {
      const Tracer::Scope span(*tracer_, Layer::kNetSend);
      inner_->send_frame(payload);
    } else {
      inner_->send_frame(payload);
    }
    counters_.sent_frames.fetch_add(1, std::memory_order_relaxed);
    counters_.sent_bytes.fetch_add(4 + payload.size(), std::memory_order_relaxed);
  }

  net::RecvResult recv_frame(std::chrono::milliseconds deadline) override {
    const double cpu0 = time_recv_ ? thread_cpu_s() : 0.0;
    net::RecvResult result = inner_->recv_frame(deadline);
    if (result.status == net::RecvStatus::kFrame) {
      counters_.recv_frames.fetch_add(1, std::memory_order_relaxed);
      counters_.recv_bytes.fetch_add(4 + result.payload.size(), std::memory_order_relaxed);
      if (time_recv_) {
        counters_.recv_cpu_ns.fetch_add(static_cast<std::int64_t>((thread_cpu_s() - cpu0) * 1e9),
                                        std::memory_order_relaxed);
      }
    }
    return result;
  }

  void close() noexcept override { inner_->close(); }
  bool valid() const noexcept override { return inner_->valid(); }

 private:
  std::unique_ptr<net::FrameTransport> inner_;
  FrameCounters& counters_;
  Tracer* tracer_;
  bool time_recv_;
};

/// What a child reports over its pipe when its event loop returns.
struct ChildReport {
  std::uint64_t executed = 0;
  double simulated_work = 0.0;
  std::uint64_t shipments = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t recv_frames = 0;
  std::int64_t recv_cpu_ns = 0;
  std::uint8_t crashed = 0;
};

/// Child process body: one InstanceRuntime over its socket, then the report.
[[noreturn]] void child_main(common::InstanceId op, net::Socket socket, int report_fd,
                             const Inputs& inputs, bool traced) {
  int status = 1;
  try {
    posg::InstanceRuntimeConfig config;
    config.cost_model = [&inputs](common::Item item) { return inputs.costs.base_time(item); };
    FrameCounters counters;
    std::unique_ptr<net::FrameTransport> link =
        std::make_unique<net::SocketTransport>(std::move(socket));
    if (traced) {
      link = std::make_unique<TracingTransport>(std::move(link), counters, nullptr, true);
    }
    runtime::InstanceRuntime instance(op, config);
    const runtime::InstanceRuntime::Stats stats = instance.run(*link);
    ChildReport report{stats.executed,         stats.simulated_work,  stats.shipments,
                       stats.replies_sent,     stats.decode_errors,   counters.recv_frames.load(),
                       counters.recv_cpu_ns.load(), static_cast<std::uint8_t>(stats.crashed)};
    if (write(report_fd, &report, sizeof(report)) == static_cast<ssize_t>(sizeof(report))) {
      status = 0;
    }
  } catch (...) {
    status = 1;
  }
  _exit(status);
}

struct Child {
  pid_t pid = -1;  // -1 once reaped
  int report_fd = -1;
  ChildReport report;
  bool ok = false;
};

/// Kills and reaps every child not yet reaped, so an exception between
/// fork() and the normal wait leaves no process behind.
struct Reaper {
  std::vector<Child>& children;
  ~Reaper() {
    for (Child& child : children) {
      if (child.report_fd >= 0) {
        close(child.report_fd);
      }
      if (child.pid > 0) {
        kill(child.pid, SIGKILL);
        waitpid(child.pid, nullptr, 0);
      }
    }
  }
};

struct Rep {
  double stream_s = 0.0;
  double setup_s = 0.0;
  double cpu_us_per_tuple = 0.0;
  double scheduler_cpu_us = 0.0;
  double instance_cpu_us = 0.0;
  double route_wall_s = 0.0;
  /// Per kWindow routes: wall seconds, route() time p50, p99 and mean in
  /// µs, and how often the router thread was preempted.
  std::vector<double> window_s;
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_mean_us;
  std::vector<std::int64_t> window_preemptions;
  /// From the end of the last route() until finish() returned and every
  /// child exited.
  double finish_s = 0.0;
  double route_p99_us = 0.0;  // whole repetition, not windowed
  double imbalance = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t feedback_events = 0;
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t sent_frames = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t recv_frames = 0;
  std::uint64_t recv_bytes = 0;
  std::uint64_t child_recv_frames = 0;
  std::int64_t child_recv_cpu_ns = 0;
};

double rusage_cpu_s(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return rusage_cpu_s(usage);
}

Rep run_once(const PassOptions& options, std::size_t rep_index, Tracer* tracer,
             Result& result) {
  Rep rep;
  const std::size_t m = kTuplesPerRep;
  const std::int64_t t0 = mono_ns();
  const Inputs inputs(m, options.seed);
  rep.stream_s = static_cast<double>(mono_ns() - t0) * 1e-9;

  // Fork the instances while this process is still single-threaded. Each
  // child closes the scheduler ends it inherited, so a link's only holders
  // are its two endpoints.
  std::vector<net::Socket> scheduler_ends;
  std::vector<Child> children(kInstances);
  const Reaper reaper{children};
  for (common::InstanceId op = 0; op < kInstances; ++op) {
    auto [scheduler_end, instance_end] = net::socket_pair();
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("fork() failed");
    }
    if (pid == 0) {
      close(pipe_fds[0]);
      scheduler_end.close();
      for (auto& end : scheduler_ends) {
        end.close();
      }
      for (common::InstanceId prev = 0; prev < op; ++prev) {
        close(children[prev].report_fd);
      }
      child_main(op, std::move(instance_end), pipe_fds[1], inputs, tracer != nullptr);
    }
    close(pipe_fds[1]);
    instance_end.close();
    children[op].pid = pid;
    children[op].report_fd = pipe_fds[0];
    scheduler_ends.push_back(std::move(scheduler_end));
  }

  posg::SchedulerRuntimeConfig config;
  config.instances = kInstances;
  config.checkpoint_path = options.scratch_dir + "/ipc-" + std::to_string(getpid()) + "-" +
                           std::to_string(rep_index) + ".ckpt";
  FrameCounters counters;
  std::vector<double> route_us(m);
  std::uint64_t epochs = 0;
  {
    runtime::SchedulerRuntime rt(config);
    for (common::InstanceId op = 0; op < kInstances; ++op) {
      std::unique_ptr<net::FrameTransport> link =
          std::make_unique<net::SocketTransport>(std::move(scheduler_ends[op]));
      if (tracer != nullptr) {
        link = std::make_unique<TracingTransport>(std::move(link), counters, tracer, false);
      }
      rt.attach(op, std::move(link));
    }
    rt.start();
    const std::int64_t t1 = mono_ns();
    rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    const double cpu0 = self_cpu_s();

    std::int64_t before = t1;
    std::int64_t window_start = t1;
    std::int64_t preemptions = involuntary_switches();
    for (std::size_t seq = 0; seq < m; ++seq) {
      if (tracer != nullptr) {
        const Tracer::Scope span(*tracer, Layer::kRuntimeRoute, seq);
        rt.route(inputs.stream[seq], seq);
      } else {
        rt.route(inputs.stream[seq], seq);
      }
      const std::int64_t after = mono_ns();
      route_us[seq] = static_cast<double>(after - before) * 1e-3;
      before = after;
      if ((seq + 1) % kWindow == 0) {
        const std::int64_t now_preemptions = involuntary_switches();
        rep.window_s.push_back(static_cast<double>(after - window_start) * 1e-9);
        rep.window_preemptions.push_back(now_preemptions - preemptions);
        window_start = after;
        preemptions = now_preemptions;
      }
    }
    rep.route_wall_s = static_cast<double>(before - t1) * 1e-9;
    rt.finish();

    double children_cpu = 0.0;
    for (Child& child : children) {
      const ssize_t got = read(child.report_fd, &child.report, sizeof(child.report));
      close(child.report_fd);
      child.report_fd = -1;
      int status = 0;
      rusage usage{};
      const pid_t waited = wait4(child.pid, &status, 0, &usage);
      child.ok = waited == child.pid && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                 got == static_cast<ssize_t>(sizeof(child.report));
      child.pid = -1;
      children_cpu += rusage_cpu_s(usage);
    }
    rep.finish_s = static_cast<double>(mono_ns() - before) * 1e-9;
    const double scheduler_cpu = self_cpu_s() - cpu0;
    rep.scheduler_cpu_us = scheduler_cpu * 1e6 / static_cast<double>(m);
    rep.instance_cpu_us = children_cpu * 1e6 / static_cast<double>(m);
    rep.cpu_us_per_tuple = rep.scheduler_cpu_us + rep.instance_cpu_us;

    // Output checks: per-instance exactly-once, no failure handling, POSG
    // left round-robin, checkpoints written.
    const std::vector<std::uint64_t> routed = rt.routed_counts();
    std::uint64_t executed = 0;
    double work_max = 0.0;
    double work_total = 0.0;
    for (common::InstanceId op = 0; op < kInstances; ++op) {
      const Child& child = children[op];
      result.check(child.ok && child.report.crashed == 0 && child.report.decode_errors == 0,
                   "ipc: instance " + std::to_string(op) + " did not exit cleanly");
      result.check(child.report.executed == routed[op],
                   "ipc: instance " + std::to_string(op) + " executed != routed");
      executed += child.report.executed;
      work_max = std::max(work_max, child.report.simulated_work);
      work_total += child.report.simulated_work;
      rep.feedback_events += child.report.shipments + child.report.replies_sent;
      rep.child_recv_frames += child.report.recv_frames;
      rep.child_recv_cpu_ns += child.report.recv_cpu_ns;
    }
    rep.imbalance = work_max / (work_total / static_cast<double>(kInstances));
    result.attempted += m;
    result.failed += m - std::min<std::uint64_t>(executed, m);
    result.check(executed == m, "ipc: executed != m");
    result.check(rt.quarantined().empty() && rt.reroutes() == 0,
                 "ipc: quarantines or reroutes happened");
    epochs = rt.scheduler().epochs_completed();
    result.check(epochs >= 1, "ipc: POSG never left round-robin");
    result.check(rt.checkpoint_writes() > 0 && rt.checkpoint_failures() == 0,
                 "ipc: checkpoints not written");
    rep.checkpoint_writes = rt.checkpoint_writes();
  }
  ::unlink(config.checkpoint_path.c_str());
  rep.epochs = epochs;

  rep.window_p50_us = per_window(route_us, kWindow, 50.0);
  rep.window_p99_us = per_window(route_us, kWindow, 99.0);
  rep.window_mean_us = per_window(route_us, kWindow, -1.0);
  std::sort(route_us.begin(), route_us.end());
  rep.route_p99_us = posg::metrics::percentile_sorted(route_us, 99.0);
  rep.sent_frames = counters.sent_frames.load();
  rep.sent_bytes = counters.sent_bytes.load();
  rep.recv_frames = counters.recv_frames.load();
  rep.recv_bytes = counters.recv_bytes.load();
  return rep;
}

}  // namespace

Result run_ipc(const PassOptions& options) {
  Result result;
  std::optional<Tracer> tracer;
  if (options.traced) {
    tracer.emplace();
  }
  const std::size_t reps_wanted =
      std::max<std::size_t>(3, static_cast<std::size_t>(options.seconds / kRepSeconds));
  std::vector<Rep> reps;
  for (std::size_t i = 0; i < reps_wanted; ++i) {
    reps.push_back(run_once(options, i, tracer ? &*tracer : nullptr, result));
  }
  const auto med = [&](double Rep::*field) { return median_of(reps, field); };
  const auto total = [&](auto Rep::*field) {
    double sum = 0.0;
    for (const Rep& rep : reps) {
      sum += static_cast<double>(rep.*field);
    }
    return sum;
  };
  const double tuples = static_cast<double>(kTuplesPerRep * reps.size());
  // Route timings: medians over the windows, pooled over repetitions, in
  // which the router was preempted least (see kWindow).
  std::vector<std::int64_t> all_preemptions;
  for (const Rep& rep : reps) {
    all_preemptions.insert(all_preemptions.end(), rep.window_preemptions.begin(),
                           rep.window_preemptions.end());
  }
  const std::int64_t threshold = least_disturbed_threshold(all_preemptions, kMinWindows);
  std::size_t chosen = 0;
  const auto undisturbed_median = [&](std::vector<double> Rep::*field) {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      for (std::size_t w = 0; w < rep.window_preemptions.size(); ++w) {
        if (rep.window_preemptions[w] <= threshold) {
          values.push_back((rep.*field)[w]);
        }
      }
    }
    chosen = values.size();
    return posg::metrics::percentile(std::move(values), 50.0);
  };
  const double window_s = undisturbed_median(&Rep::window_s);
  result.set("setup_s", med(&Rep::setup_s), "s");
  // Wall time of a repetition rebuilt from the typical undisturbed window,
  // plus the typical finish() and child exit.
  result.set("tuples_per_s",
             static_cast<double>(kTuplesPerRep) /
                 (static_cast<double>(kTuplesPerRep / kWindow) * window_s + med(&Rep::finish_s)),
             "tuples/s");
  // CPU time does not grow while the loop waits for a vCPU; it takes the
  // least disturbed repetition (see engine_workload.cpp).
  result.set("cpu_us_per_tuple", least_of(reps, &Rep::cpu_us_per_tuple), "us");
  result.set("latency_p50_ms", undisturbed_median(&Rep::window_p50_us) * 1e-3, "ms");
  result.set("latency_p99_ms", undisturbed_median(&Rep::window_p99_us) * 1e-3, "ms");
  result.set("latency_mean_ms", undisturbed_median(&Rep::window_mean_us) * 1e-3, "ms");
  result.set("imbalance", med(&Rep::imbalance), "ratio");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  result.set("workload.stream_setup_s.ipc", med(&Rep::stream_s), "s");
  result.set("core.ipc_epochs", total(&Rep::epochs) / static_cast<double>(reps.size()), "count");
  result.set("core.ipc_feedback_events",
             total(&Rep::feedback_events) / static_cast<double>(reps.size()), "count");
  result.set("core.checkpoint_writes",
             total(&Rep::checkpoint_writes) / static_cast<double>(reps.size()), "count");
  result.set("runtime.route_ns_p50", result.metrics.at("latency_p50_ms").value * 1e6, "ns");
  result.set("runtime.route_ns_p99", least_of(reps, &Rep::route_p99_us) * 1e3, "ns");
  result.set("runtime.scheduler_cpu_us_per_tuple", least_of(reps, &Rep::scheduler_cpu_us), "us");
  result.set("runtime.instance_cpu_us_per_tuple", least_of(reps, &Rep::instance_cpu_us), "us");
  std::ostringstream note;
  note << reps.size() << " repetitions of m=" << kTuplesPerRep
       << " tuples; counts are per repetition; route timings over " << chosen << " of "
       << all_preemptions.size() << " windows of " << kWindow << " routes, each preempted at most "
       << threshold << " times";
  result.notes["ipc.repetitions"] = note.str();

  if (tracer) {
    const auto table = tracer->summary();
    const auto at = [&](Layer layer) { return table[static_cast<std::size_t>(layer)]; };
    result.set("net.send_frame_ns", at(Layer::kNetSend).p50_ns, "ns");
    result.set("net.frames_per_tuple", total(&Rep::sent_frames) / tuples, "frames");
    result.set("net.bytes_per_tuple", total(&Rep::sent_bytes) / tuples, "B");
    result.set("net.recv_frame_ns", total(&Rep::child_recv_cpu_ns) / total(&Rep::child_recv_frames),
               "ns");
    result.set("net.feedback_frames_per_ktuple", total(&Rep::recv_frames) * 1e3 / tuples,
               "frames");
    result.set("net.feedback_bytes_per_tuple", total(&Rep::recv_bytes) / tuples, "B");
    // Budget of the router thread, the closed loop's critical path: its
    // wall time per tuple minus the self time of route() and of the
    // send_frame calls inside it.
    const double self_ns =
        static_cast<double>(at(Layer::kRuntimeRoute).self_ns + at(Layer::kNetSend).self_ns);
    result.set("budget.ipc_residual_ns_per_tuple",
               (total(&Rep::route_wall_s) * 1e9 - self_ns) / tuples, "ns");
    result.notes["ipc.layers"] = layer_table_json(table);
    if (!options.trace_path.empty()) {
      tracer->write_jsonl(options.trace_path, "ipc-k3-flood");
    }
  }
  return result;
}

}  // namespace perfbench
