// Distributed POSG over real processes: forks k operator-instance
// processes, connects them to the scheduler over Unix-domain sockets, and
// runs the full protocol — the deployment shape the wire codec
// (sketch/serialize.hpp) and transport (src/net/) exist for. The event
// loops themselves live in src/runtime/ (SchedulerRuntime /
// InstanceRuntime), so this file is only process plumbing; the in-process
// tests in tests/runtime_test.cpp drive the very same loops.
//
//   ./distributed_posg [--k 3] [--m 20000] [--kill ID] [--kill-epoch E]
//                      [--slow ID] [--slow-factor F] [--slow-after N]
//                      [--fault-seed S] [--rejoin]
//                      [--stats-dir DIR] [--autoscale] [--initial N]
//                      [--sleep-scale F] [--arrival-us U]
//                      [--spike-factor F] [--spike-at-ms T] [--spike-for-ms D]
//
// The run judges itself, and its exit code is the verdict:
//   0  every gate held;
//   1  explicit degradation: a `fatal:` line was printed, the stream could
//      not be drained, and no gate failed;
//   2  a refused flag: an id out of range (--kill/--slow >= k,
//      --kill-source >= S), a count below its floor (--k or --sources
//      below 1; --m, --sched-kill, --initial, --kill-epoch, --slow-after,
//      --metrics-every or --arrival-us below 0), a rate or scale out of
//      its domain (--slow-factor or --spike-factor not above 0;
//      --sleep-scale, --spike-at-ms or --spike-for-ms below 0), a
//      non-empty --stats-dir, or a numeric flag whose value does not parse
//      whole, all before anything forks;
//   3  a gate failed, named on a `gate failed:` line. 3 wins over 1:
//      conservation must hold in a degraded run too.
// The gates of each mode print as `ok|violated` summary lines:
//   single source  executed <= routed (with --stats-dir); on a drained
//                  stream, at least one live instance (`recovered`); under
//                  --autoscale, executed <= routed for each completed drain.
//   --ckpt         executed within [m, routed + kills] (with --stats-dir),
//                  all k x kills re-attaches, a clean final incarnation,
//                  every kill done.
//   --sources      per-source conservation, no quarantine, an intact pool;
//                  with --kill-source the sever happened, and with
//                  --restart-source the new incarnation restored.
// tools/run_soak.sh runs the seeded fault campaigns over these modes and
// adds only hangs and the gates that compare runs or read a child's output.
//
// `--kill ID` demonstrates the fault-tolerance path: instance ID crashes
// upon receiving the synchronization marker of epoch E (default 1) —
// between the marker and its SyncReply, the exact window that would
// deadlock a scheduler without failure detection. The run still drains
// the full stream on the survivors.
//
// The remaining flags are the chaos campaign's surface (tools/run_soak.sh):
//   --slow ID          instance ID truly executes --slow-factor times
//                      slower (from tuple --slow-after on) than its
//                      sketches predict — the gray fault the straggler
//                      detector must catch and de-rate.
//   --fault-seed S     every instance wraps its link in a FaultInjector
//                      running FaultPlan::random_gray derived from S (and
//                      its id), so the whole campaign replays from one
//                      integer. Actions that would hit the Hello frame are
//                      filtered out (registration must succeed).
//   --rejoin           overload-resilient mode: the scheduler re-admits
//                      quarantined ids over the Hello path, and the parent
//                      reforks exited instances (at most 3 times) so
//                      crash faults turn into rejoin exercises.
//   --stats-dir DIR    each instance writes its executed-tuple counts to
//                      DIR on exit; the parent sums them for its
//                      conservation gate (executed <= routed: at-most-once
//                      delivery even under drops, crashes, and rejoins).
//
// Elasticity flags (DESIGN.md §11; --autoscale implies --rejoin):
//   --autoscale        elastic-k mode: start with --initial serving
//                      instances (the rest drained right after
//                      registration), estimate per-instance backlog with a
//                      virtual-queue (billed simulated-ms minus wall-clock
//                      capacity under --sleep-scale), and let an
//                      ElasticController fork fresh instance processes on
//                      ScaleUp (they re-register through the rejoin
//                      acceptor) and losslessly drain them on Drain
//                      (DrainRequest/DrainComplete; the scheduler retires
//                      the slot when the final Δ lands).
//   --initial N        serving instances at start (default k).
//   --sleep-scale F    instances sleep F real-ms per simulated-ms of cost,
//                      so backlog is physically real (default 0.02).
//   --arrival-us U     base inter-route pacing in microseconds (default
//                      200 under --autoscale; 0 disables pacing).
//   --spike-factor F   flash crowd: multiply the arrival rate by F over
//                      [--spike-at-ms, +--spike-for-ms) of wall time.
//
// Scheduler kill-restart campaign (DESIGN.md §14):
//   --ckpt PATH        campaign mode: the scheduler runs as a forked child
//                      checkpointing its control state to PATH at every
//                      epoch boundary; instances get reconnect_path set so
//                      they survive scheduler restarts. The parent drives
//                      the campaign and prints `SCHEDKILL ...` /
//                      `RECOVERY ...` summary lines.
//   --sched-kill N     SIGKILL the scheduler child N times at seeded
//                      epochs (progress reported per routed tuple over a
//                      pipe); each restart resumes the stream from the
//                      last acknowledged sequence and recovers from the
//                      latest checkpoint. 0 = control run (checkpointing
//                      on, no kills) for the Ĉ-divergence baseline.
//   --kill-seed S      seed of the kill schedule (default 42, replayable).
//   --corrupt-ckpt     flip a checkpoint payload byte before the last
//                      restart: the CRC must reject it and the scheduler
//                      must degrade to a counted cold start, not crash.
//
// Multi-source tier (DESIGN.md §15):
//   --sources S        S > 1 switches to the multi-source driver: S
//                      SchedulerRuntimes (one Unix socket each) share ONE
//                      core::InstancePool; tuple seq belongs to source
//                      seq % S. Each of the k instance processes serves
//                      one session (and one tracker) per source, so Ĉ is
//                      billed per source and Σ over sources is the pool's
//                      true load.
//                      Before each route() the driver installs Σ of the
//                      sibling views' Ĉ into the routing view's
//                      external-load term (core::sibling_loads).
//   --kill-source ID   source churn: sever source ID's scheduler (no
//                      EndOfStream — its links just die) after ~40% of
//                      its share. The gates assert the churn quarantined
//                      no instance and stranded no Ĉ. The churn
//                      checkpoints are removed when the run ends.
//   --restart-source   restart the killed source from its checkpoint one
//                      stream-tenth later; its sessions re-attach through
//                      the per-session redial + SchedulerHello path.
//
// Observability flags (src/obs/; render with tools/obs_report.py):
//   --metrics-out FILE  write the scheduler runtime's metrics snapshot
//                       (posg-metrics/1 JSON) to FILE at the end of the
//                       run.
//   --metrics-every N   also rewrite FILE every N routed tuples, so a
//                       watcher can follow a live run (requires
//                       --metrics-out).
//   --trace             arm the scheduler's trace ring (ScheduleDecision,
//                       EpochAdvance, HealthTransition, ... events).
//   --trace-out FILE    dump the ring as JSONL on exit (implies --trace).
#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "posg.hpp"

using namespace posg;

namespace {

/// Per-instance fault plan: random_gray keyed on (campaign seed, id), with
/// any action that would touch the instance's *first sent frame* — the
/// Hello — removed: a campaign that breaks registration tests nothing.
/// Still a pure function of the seed, so runs replay bit-for-bit.
net::FaultPlan chaos_plan(std::uint64_t seed, common::InstanceId id) {
  constexpr std::uint64_t kHorizon = 256;
  constexpr std::size_t kFaults = 3;
  const std::uint64_t instance_seed = seed ^ ((id + 1) * 0x9E3779B97F4A7C15ULL);
  net::FaultPlan raw = net::FaultPlan::random_gray(instance_seed, kHorizon, kFaults);
  net::FaultPlan plan;
  for (const net::FaultAction& action : raw.actions()) {
    if (action.dir == net::FaultDir::kSend && action.applies_to(0)) {
      continue;  // would hit the Hello
    }
    using Kind = net::FaultAction::Kind;
    switch (action.kind) {
      case Kind::kDrop:
        plan.drop(action.dir, action.frame);
        break;
      case Kind::kDelay:
        plan.delay(action.dir, action.frame, action.delay);
        break;
      case Kind::kCorrupt:
        plan.corrupt(action.dir, action.frame, action.byte_offset, action.xor_mask);
        break;
      case Kind::kDisconnect:
        plan.disconnect_after(action.dir, action.frame);
        break;
      case Kind::kSlow:
        plan.slow(action.dir, action.frame, action.span, action.delay);
        break;
      case Kind::kPartition:
        plan.partition(action.dir, action.frame, action.span);
        break;
      case Kind::kStutter:
        plan.stutter(action.dir, action.frame, action.span, action.burst, action.delay);
        break;
    }
  }
  return plan;
}

/// A run's verdict, carried by its exit code (see the header).
struct Verdict {
  bool degraded = false;  // a `fatal:` line was printed
  std::string failed;     // the gates that failed
  void fatal(const char* what) {
    std::printf("\nfatal: %s\n", what);
    degraded = true;
  }
  void gate(const char* name, bool held) {
    if (!held) {
      failed += std::string(" ") + name;
    }
  }
  int exit_code() const {
    if (failed.empty()) {
      return degraded ? 1 : 0;
    }
    std::printf("gate failed:%s\n", failed.c_str());
    return 3;
  }
};

/// The parent's side of its instance processes: the socket each session
/// dials (one per source), the listeners behind them, and where each
/// process leaves its stats record.
struct Sockets {
  std::vector<std::string> paths;
  /// Parent-owned. An entry is empty while its source is down; the vector
  /// is empty when each scheduler incarnation binds its own listener.
  std::vector<std::optional<net::Listener>> listeners;
  std::string stats_dir;
  /// When a session's scheduler dies, redial its socket for up to 8
  /// rounds. Each round is one ConnectRetryPolicy schedule, about 3 s, so
  /// a killed scheduler or a severed source has about 25 s to come back,
  /// far above a churn restart gap (a tenth of the stream). A source that
  /// never comes back ends its sessions only when they spend this budget,
  /// so it also bounds the kill-only churn run's wall time.
  bool redial = false;
};

/// The operator-instance process: one session per socket, run the
/// instance event loop, write the stats record, then exit. Any transport
/// surprise (a scripted disconnect firing mid-handshake, say) counts as a
/// crash, not a hang.
[[noreturn]] void instance_process(common::InstanceId id, const Sockets& sockets,
                                   runtime::InstanceRuntimeConfig config,
                                   std::optional<std::uint64_t> fault_seed) {
  runtime::InstanceRuntime::Stats stats;
  bool threw = false;
  try {
    if (sockets.redial) {
      config.reconnect_attempts = 8;
    }
    runtime::InstanceRuntime instance(id, config);
    std::vector<std::unique_ptr<net::FrameTransport>> links;
    std::vector<runtime::InstanceRuntime::SourceLink> sessions;
    for (common::SourceId s = 0; s < sockets.paths.size(); ++s) {
      net::Socket socket = net::connect(sockets.paths[s]);
      if (fault_seed) {
        links.push_back(
            std::make_unique<net::FaultInjector>(std::move(socket), chaos_plan(*fault_seed, id)));
      } else {
        links.push_back(std::make_unique<net::SocketTransport>(std::move(socket)));
      }
      sessions.push_back({s, links.back().get(), sockets.redial ? sockets.paths[s] : ""});
    }
    stats = instance.run_multi(sessions);
  } catch (const std::exception& error) {
    std::printf("  [instance %zu, pid %d] transport error: %s\n", id, getpid(), error.what());
    threw = true;
  }
  if (!sockets.stats_dir.empty()) {
    // One record per (instance, pid): reforked incarnations of the same id
    // each leave their own file, and the parent sums them all.
    const std::string path =
        sockets.stats_dir + "/exec_" + std::to_string(id) + "_" + std::to_string(getpid());
    if (std::FILE* out = std::fopen(path.c_str(), "w")) {
      const auto put = [out](const std::string& key, std::uint64_t value) {
        std::fprintf(out, "%s=%llu\n", key.c_str(), static_cast<unsigned long long>(value));
      };
      put("executed", stats.executed);
      for (std::size_t s = 0; s < stats.per_source_executed.size(); ++s) {
        put("executed_s" + std::to_string(s), stats.per_source_executed[s]);
      }
      put("reattach_acks", stats.reattach_acks);
      put("reconnects", stats.reconnects);
      put("rejoin_acks", stats.rejoin_acks);
      put("sources_lost", stats.sources_lost);
      std::fclose(out);
    }
  }
  if (stats.crashed || threw) {
    std::printf("  [instance %zu, pid %d] CRASHED%s after %llu tuples\n", id, getpid(),
                stats.crashed ? " (scripted)" : "", static_cast<unsigned long long>(stats.executed));
    std::exit(2);
  }
  std::printf("  [instance %zu, pid %d] executed %llu tuples, simulated work %.0f units%s%s\n",
              id, getpid(), static_cast<unsigned long long>(stats.executed), stats.simulated_work,
              stats.rejoin_acks > 0 ? " (rejoined)" : "",
              stats.sources_lost > 0 ? " (lost a source)" : "");
  std::exit(0);
}

/// Forks instance process `id`. The child first closes its copies of the
/// parent's listeners: a child-held fd keeps the kernel socket and its
/// accept backlog alive after the parent closes and rebinds the path (the
/// churn restart does), stranding redials in a backlog nobody accepts.
/// Returns the child's pid, or -1 when fork failed.
pid_t fork_instance(Sockets& sockets, common::InstanceId id,
                    const runtime::InstanceRuntimeConfig& config,
                    std::optional<std::uint64_t> fault_seed) {
  std::fflush(stdout);  // children inherit the stdio buffer otherwise
  const pid_t pid = fork();
  if (pid == 0) {
    for (auto& listener : sockets.listeners) {
      if (listener) {
        listener->close_inherited();
      }
    }
    instance_process(id, sockets, config, fault_seed);
  }
  return pid;
}

/// Forks instances 0..k-1, configured by `config_for(id)` (the default
/// config when empty). When a fork fails it prints the `fatal:` line,
/// kills and reaps the instances already forked (orphans would spin in
/// connect-retry against a dying parent), and returns fewer than k pids.
std::vector<pid_t> fork_instances(
    Sockets& sockets, std::size_t k,
    const std::function<runtime::InstanceRuntimeConfig(common::InstanceId)>& config_for = {},
    std::optional<std::uint64_t> fault_seed = std::nullopt) {
  std::vector<pid_t> pids;
  for (common::InstanceId op = 0; op < k; ++op) {
    const pid_t pid = fork_instance(
        sockets, op, config_for ? config_for(op) : runtime::InstanceRuntimeConfig{}, fault_seed);
    if (pid < 0) {
      std::printf("\nfatal: fork: %s\n", std::strerror(errno));
      for (const pid_t child : pids) {
        kill(child, SIGTERM);
        waitpid(child, nullptr, 0);
      }
      return {};
    }
    pids.push_back(pid);
  }
  return pids;
}

/// Sums one `key=value` line across the records the instance processes
/// left in `stats_dir`. Missing/garbled files count as zero —
/// under-counting only ever makes the conservation checks *stricter*.
std::uint64_t sum_stat(const std::string& stats_dir, const std::string& key) {
  std::uint64_t total = 0;
  DIR* dir = opendir(stats_dir.c_str());
  if (dir == nullptr) {
    return 0;
  }
  const std::string prefix = key + "=";
  while (const dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind("exec_", 0) != 0) {
      continue;
    }
    std::ifstream in(stats_dir + "/" + name);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) == 0) {
        total += std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
        break;
      }
    }
  }
  closedir(dir);
  return total;
}

/// Writes the metrics snapshot of each scheduler in `views` to `path`, one
/// posg-metrics/1 document per line (S views give JSONL, which
/// obs_report.py merges; views are namespaced posg.s<id>.*). A null view,
/// such as a severed source, contributes nothing; an empty `path` writes
/// nothing.
template <typename Views>
void write_metrics(const std::string& path, const Views& views) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  for (const auto& view : views) {
    if (out && view != nullptr) {
      out << view->metrics_snapshot().to_json() << '\n';
    }
  }
}

/// One scheduler incarnation of the kill-restart campaign: binds the
/// (possibly stale) socket path fresh, recovers from the checkpoint when
/// `incarnation > 0`, re-admits the surviving instances, and routes the
/// stream from `resume_seq`. Every routed tuple is acknowledged to the
/// parent as a {seq, epoch} record over `progress_fd` — the parent kills
/// this process at a seeded epoch and resumes the next incarnation from
/// the last acknowledged sequence.
[[noreturn]] void scheduler_incarnation(std::size_t k, std::size_t m, std::size_t resume_seq,
                                        std::size_t incarnation, const std::string& socket_path,
                                        const std::string& ckpt_path,
                                        const std::string& metrics_out, int progress_fd) {
  int rc = 0;
  try {
    runtime::SchedulerRuntimeConfig config;
    config.instances = k;
    config.allow_rejoin = true;
    config.checkpoint_path = ckpt_path;
    config.recover = incarnation > 0;
    net::Listener listener(socket_path);
    runtime::SchedulerRuntime scheduler(config);
    std::printf("RECOVERY incarnation=%zu restored=%s epoch=%llu\n", incarnation,
                scheduler.recovered() ? "yes" : "no",
                static_cast<unsigned long long>(scheduler.recovered_epoch()));
    std::fflush(stdout);  // survive a later SIGKILL
    scheduler.accept_registrations(listener);
    scheduler.start();
    scheduler.enable_rejoin(listener);
    workload::ZipfItems zipf(4096, 1.0);
    const auto stream = workload::StreamGenerator::generate(zipf, m, 42);
    for (common::SeqNo seq = resume_seq; seq < stream.size(); ++seq) {
      scheduler.route(stream[seq], seq);
      // route() only queues the tuple; acknowledge it once it is in the
      // kernel, so a SIGKILL after the record cannot lose it.
      scheduler.flush();
      const std::uint64_t record[2] = {static_cast<std::uint64_t>(seq),
                                       static_cast<std::uint64_t>(scheduler.epoch())};
      if (write(progress_fd, record, sizeof record) != sizeof record) {
        break;  // parent gone; stop routing and shut down cleanly
      }
    }
    scheduler.finish();
    double chat_total = 0.0;
    for (const common::TimeMs load : scheduler.scheduler().estimated_loads()) {
      chat_total += load;
    }
    std::printf("SCHEDKILL chat_total=%.3f epoch=%llu checkpoint_writes=%llu "
                "checkpoint_failures=%llu reattach_count=%llu live=%zu\n",
                chat_total, static_cast<unsigned long long>(scheduler.epoch()),
                static_cast<unsigned long long>(scheduler.checkpoint_writes()),
                static_cast<unsigned long long>(scheduler.checkpoint_failures()),
                static_cast<unsigned long long>(scheduler.reattach_count()),
                scheduler.live_instances());
    write_metrics(metrics_out, std::array{&scheduler});
  } catch (const std::exception& error) {
    std::printf("SCHEDKILL incarnation=%zu error: %s\n", incarnation, error.what());
    rc = 1;
  }
  std::exit(rc);
}

/// Reads exactly `n` bytes from `fd` (pipe reads may be partial even for
/// records written atomically). Returns false on EOF/error.
bool read_full(int fd, void* buffer, std::size_t n) {
  auto* bytes = static_cast<unsigned char*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = read(fd, bytes + got, n - got);
    if (r <= 0) {
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// The kill-restart campaign driver (parent process): forks k
/// redialing instances once, then runs scheduler incarnations,
/// SIGKILLing each at a seeded epoch until `kills` are done, and gates the
/// campaign on conservation + full re-attachment.
int run_sched_kill_campaign(std::size_t k, std::size_t m, std::size_t kills,
                            std::uint64_t kill_seed, bool corrupt_ckpt,
                            const std::string& stats_dir, const std::string& ckpt_path,
                            const std::string& metrics_out) {
  const std::string socket_path =
      "/tmp/posg_schedkill_" + std::to_string(getpid()) + ".sock";
  std::printf("sched-kill campaign: k=%zu m=%zu kills=%zu seed=%llu ckpt=%s%s\n", k, m, kills,
              static_cast<unsigned long long>(kill_seed), ckpt_path.c_str(),
              corrupt_ckpt ? " (corrupting before last restart)" : "");
  // The instances outlive every scheduler incarnation: redialing is what
  // turns a scheduler crash into a re-attach instead of an exit.
  Sockets sockets{{socket_path}, {}, stats_dir, /*redial=*/true};
  if (fork_instances(sockets, k).size() < k) {
    return 1;
  }

  // xorshift64 keyed on the campaign seed: the whole kill schedule replays
  // from one integer.
  std::uint64_t rng = kill_seed ^ 0x9E3779B97F4A7C15ULL;
  const auto next_rand = [&rng] {
    rng ^= rng << 13U;
    rng ^= rng >> 7U;
    rng ^= rng << 17U;
    return rng;
  };

  std::size_t resume_seq = 0;
  std::uint64_t records_total = 0;
  std::size_t kills_done = 0;
  bool clean_exit = false;
  for (std::size_t incarnation = 0;; ++incarnation) {
    int fds[2];
    if (pipe(fds) != 0) {
      std::printf("\nfatal: pipe: %s\n", std::strerror(errno));
      return 1;
    }
    std::fflush(stdout);
    const pid_t sched_pid = fork();
    if (sched_pid == 0) {
      close(fds[0]);
      scheduler_incarnation(k, m, resume_seq, incarnation, socket_path, ckpt_path, metrics_out,
                            fds[1]);
    }
    close(fds[1]);
    if (sched_pid < 0) {
      std::printf("\nfatal: fork: %s\n", std::strerror(errno));
      close(fds[0]);
      return 1;
    }
    const bool kill_this = kills_done < kills;
    // Seeded target: a few epoch boundaries into this incarnation, with a
    // sequence fallback so a stalled epoch cannot stall the campaign.
    const std::uint64_t epoch_delta = 1 + next_rand() % 4;
    const std::size_t seq_fallback =
        resume_seq + std::max<std::size_t>(std::size_t{64}, (m - resume_seq) * 3 / 5);
    std::uint64_t first_epoch = 0;
    bool have_first = false;
    std::uint64_t last_seq = 0;
    bool saw_record = false;
    bool killed = false;
    std::uint64_t record[2];
    // Drain the progress pipe to EOF even after the SIGKILL: every record
    // the child managed to write counts toward the conservation bound.
    while (read_full(fds[0], record, sizeof record)) {
      ++records_total;
      saw_record = true;
      last_seq = record[0];
      if (!have_first) {
        first_epoch = record[1];
        have_first = true;
      }
      if (kill_this && !killed &&
          (record[1] >= first_epoch + epoch_delta || record[0] >= seq_fallback)) {
        kill(sched_pid, SIGKILL);
        killed = true;
      }
    }
    close(fds[0]);
    int status = 0;
    waitpid(sched_pid, &status, 0);
    if (killed) {
      ++kills_done;
      std::printf("SCHEDKILL killed incarnation=%zu at seq=%llu epoch=%llu (+%llu epochs)\n",
                  incarnation, static_cast<unsigned long long>(last_seq),
                  static_cast<unsigned long long>(record[1]),
                  static_cast<unsigned long long>(epoch_delta));
      if (saw_record) {
        // At most one routed tuple can be unacknowledged (SIGKILL between
        // route() and the pipe write) — the conservation bound below
        // budgets one duplicate per kill for it.
        resume_seq = static_cast<std::size_t>(last_seq) + 1;
      }
      if (corrupt_ckpt && kills_done == kills) {
        // Flip the checkpoint's last payload byte: the CRC must reject it
        // and the next incarnation must degrade to a counted cold start.
        if (std::FILE* file = std::fopen(ckpt_path.c_str(), "r+b")) {
          if (std::fseek(file, -1, SEEK_END) == 0) {
            const int byte = std::fgetc(file);
            if (byte != EOF && std::fseek(file, -1, SEEK_END) == 0) {
              std::fputc(byte ^ 0xFF, file);
              std::printf("SCHEDKILL corrupted checkpoint %s (last byte flipped)\n",
                          ckpt_path.c_str());
            }
          }
          std::fclose(file);
        }
      }
      continue;
    }
    clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    break;
  }

  // The final incarnation's finish() sent EndOfStream; the instances exit
  // and leave their stat records.
  while (wait(nullptr) > 0) {
  }
  const std::uint64_t executed_total = sum_stat(stats_dir, "executed");
  const std::uint64_t reattach_total = sum_stat(stats_dir, "reattach_acks");
  const std::uint64_t reconnect_total = sum_stat(stats_dir, "reconnects");
  // Conservation across the campaign: every tuple executes at least once
  // (the resumed stream re-covers the tail), and duplicates are bounded by
  // one unacknowledged route per kill — never silent loss, never unbounded
  // double billing.
  const bool have_stats = !stats_dir.empty();
  const bool conservation =
      !have_stats || (executed_total >= m && executed_total <= records_total + kills_done);
  const std::uint64_t expected_reattaches = static_cast<std::uint64_t>(k) * kills_done;
  const bool reattached = !have_stats || reattach_total >= expected_reattaches;
  std::printf("SCHEDKILL kills=%zu routed_records=%llu executed=%llu m=%zu conservation=%s\n",
              kills_done, static_cast<unsigned long long>(records_total),
              static_cast<unsigned long long>(executed_total), m,
              conservation ? "ok" : "violated");
  std::printf("SCHEDKILL reattach_acks=%llu reconnects=%llu expected_min=%llu reattached=%s\n",
              static_cast<unsigned long long>(reattach_total),
              static_cast<unsigned long long>(reconnect_total),
              static_cast<unsigned long long>(expected_reattaches), reattached ? "ok" : "short");
  std::printf("SCHEDKILL clean_exit=%s\n", clean_exit ? "yes" : "no");
  Verdict verdict;
  verdict.gate("conservation", conservation);
  verdict.gate("reattached", reattached);
  verdict.gate("clean_exit", clean_exit);
  verdict.gate("kills", kills_done == kills);
  return verdict.exit_code();
}

/// The multi-source driver (--sources S): S scheduler views over one
/// shared pool, an interleaved stream in which each view reads its
/// siblings' Ĉ before it routes, and optional source churn.
int run_multisource(std::size_t k, std::size_t m, std::size_t sources, int kill_source,
                    bool restart_source, const std::string& stats_dir,
                    const std::string& metrics_out) {
  const std::string base = "/tmp/posg_ms_" + std::to_string(getpid());
  Sockets sockets{{}, std::vector<std::optional<net::Listener>>(sources), stats_dir,
                  /*redial=*/true};
  for (common::SourceId s = 0; s < sources; ++s) {
    sockets.paths.push_back(base + "_s" + std::to_string(s) + ".sock");
    sockets.listeners[s].emplace(sockets.paths.back());
  }
  const bool churn = kill_source >= 0 && static_cast<std::size_t>(kill_source) < sources;
  std::printf("multi-source: k=%zu m=%zu sources=%zu%s%s\n", k, m, sources,
              churn ? " (killing one source)" : "",
              churn && restart_source ? " (restarting it)" : "");
  if (fork_instances(sockets, k).size() < k) {
    return 1;
  }

  // One pool, S views. Checkpointing is only needed for the churn story
  // (the restarted source recovers from its own file).
  const auto ckpt_path = [&base](common::SourceId s) {
    return base + "_s" + std::to_string(s) + ".ckpt";
  };
  auto pool = std::make_shared<core::InstancePool>(k);
  std::vector<std::unique_ptr<runtime::SchedulerRuntime>> views(sources);
  const auto view_config = [&](common::SourceId s, bool recover) {
    runtime::SchedulerRuntimeConfig config;
    config.instances = k;
    config.source_id = s;
    if (churn) {
      config.checkpoint_path = ckpt_path(s);
      config.recover = recover;
    }
    return config;
  };
  for (common::SourceId s = 0; s < sources; ++s) {
    views[s] = std::make_unique<runtime::SchedulerRuntime>(view_config(s, false), pool);
    views[s]->accept_registrations(*sockets.listeners[s]);
    views[s]->start();
  }

  // Routed-count ledger per source, accumulated across incarnations (the
  // restarted view's counters start at zero).
  std::vector<std::uint64_t> routed_by_source(sources, 0);
  std::vector<std::uint64_t> quarantines_by_source(sources, 0);
  const auto fold_view_counters = [&](common::SourceId s) {
    for (const std::uint64_t count : views[s]->routed_counts()) {
      routed_by_source[s] += count;
    }
    quarantines_by_source[s] += views[s]->quarantine_log().size();
  };

  // Churn schedule, in this source's own routed tuples.
  const std::uint64_t share = sources > 0 ? m / sources : m;
  const std::uint64_t kill_after = churn ? std::max<std::uint64_t>(1, share * 2 / 5) : 0;
  const std::uint64_t restart_gap = std::max<std::uint64_t>(1, m / 10);
  std::uint64_t killed_at_seq = 0;
  bool killed = false;
  bool restarted = false;
  bool restored = false;
  std::uint64_t skipped_while_dead = 0;
  std::vector<std::uint64_t> routed_live(sources, 0);  // current incarnation only

  // The one multi-source rule: before a view routes, it installs Σ of
  // its live siblings' Ĉ as its external load. A severed source has no
  // view and adds nothing.
  std::vector<common::TimeMs> sibling_load(k);
  const auto read_sibling = [&views](common::SourceId peer, const auto& add) {
    if (views[peer] != nullptr) {
      add(views[peer]->estimated_loads());
    }
  };

  workload::ZipfItems zipf(4096, 1.0);
  const auto stream = workload::StreamGenerator::generate(zipf, m, 42);
  Verdict verdict;
  const auto kill_sid = churn ? static_cast<common::SourceId>(kill_source) : 0;
  try {
    for (common::SeqNo seq = 0; seq < stream.size(); ++seq) {
      const auto s = static_cast<common::SourceId>(seq % sources);
      if (churn && s == kill_sid) {
        if (!killed && routed_live[s] >= kill_after) {
          // Sever: the source dies mid-stream with no handshake. Its
          // checkpoint (epoch-boundary cadence) is what a restart gets.
          fold_view_counters(s);
          views[s]->sever();
          views[s].reset();
          sockets.listeners[s].reset();  // stale socket: redials fail until rebind
          killed = true;
          killed_at_seq = seq;
          std::printf("MULTISOURCE severed source=%zu at seq=%llu (its tuple %llu)\n",
                      static_cast<std::size_t>(s), static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(routed_live[s]));
        }
        if (killed && !restarted) {
          if (restart_source && seq >= killed_at_seq + restart_gap) {
            // Fresh incarnation over the SAME pool, recovering from the
            // severed one's checkpoint; the instances' per-session
            // redial re-attaches with SchedulerHello.
            sockets.listeners[s].emplace(sockets.paths[s]);
            views[s] = std::make_unique<runtime::SchedulerRuntime>(view_config(s, true), pool);
            restored = views[s]->recovered();
            std::printf("MULTISOURCE restarted source=%zu restored=%s epoch=%llu\n",
                        static_cast<std::size_t>(s), restored ? "yes" : "no",
                        static_cast<unsigned long long>(views[s]->recovered_epoch()));
            views[s]->accept_registrations(*sockets.listeners[s]);
            views[s]->start();
            routed_live[s] = 0;
            restarted = true;
          } else {
            ++skipped_while_dead;  // a dead source routes nothing
            continue;
          }
        }
      }
      core::sibling_loads(sources, s, read_sibling, sibling_load);
      views[s]->set_external_loads(sibling_load);
      views[s]->route(stream[seq], seq);
      ++routed_live[s];
    }
    for (common::SourceId s = 0; s < sources; ++s) {
      if (views[s] != nullptr) {
        views[s]->finish();
      }
    }
  } catch (const std::exception& error) {
    verdict.fatal(error.what());
    for (common::SourceId s = 0; s < sources; ++s) {
      if (views[s] != nullptr) {
        try {
          views[s]->finish();
        } catch (const std::exception&) {
        }
      }
    }
  }
  for (common::SourceId s = 0; s < sources; ++s) {
    if (views[s] != nullptr) {
      fold_view_counters(s);
    }
  }
  // A killed-without-restart source leaves its instances' sessions
  // redialing a dead socket; they end those sessions on their own (budget
  // exhaustion) while the other sessions drain to EndOfStream.
  while (wait(nullptr) > 0) {
  }

  // --- gates ---
  std::uint64_t routed_total = 0;
  for (common::SourceId s = 0; s < sources; ++s) {
    routed_total += routed_by_source[s];
  }
  const bool have_stats = !stats_dir.empty();
  bool conservation = true;
  std::uint64_t executed_total = 0;
  for (common::SourceId s = 0; s < sources; ++s) {
    const std::uint64_t executed =
        have_stats ? sum_stat(stats_dir, "executed_s" + std::to_string(s)) : 0;
    executed_total += executed;
    // Per-source conservation over the shared pool: a view's sessions
    // execute exactly what that view routed — at-most-once always, and
    // exactly-once for sources that were never severed (a severed link
    // may drop frames already queued behind the EOF).
    const bool exact = !(churn && s == kill_sid);
    const bool ok = !have_stats || (exact ? executed == routed_by_source[s]
                                          : executed <= routed_by_source[s]);
    conservation = conservation && ok;
    std::printf("MULTISOURCE source=%zu routed=%llu executed=%llu quarantines=%llu "
                "conservation=%s\n",
                static_cast<std::size_t>(s),
                static_cast<unsigned long long>(routed_by_source[s]),
                static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(quarantines_by_source[s]),
                ok ? "ok" : "violated");
  }
  // Source churn must never masquerade as instance failure: no view may
  // have quarantined anyone, and the shared pool must still be serving
  // all k slots (no stranded membership, no stranded Ĉ share).
  std::uint64_t quarantine_total = 0;
  for (const std::uint64_t q : quarantines_by_source) {
    quarantine_total += q;
  }
  std::size_t pool_serving = 0;
  for (std::size_t op = 0; op < k; ++op) {
    if (pool->lifecycle(op) == core::InstancePool::Lifecycle::kServing) {
      ++pool_serving;
    }
  }
  const bool no_quarantine = quarantine_total == 0;
  const bool pool_intact = pool_serving == k;
  const std::uint64_t sources_lost_total = have_stats ? sum_stat(stats_dir, "sources_lost") : 0;
  std::printf("MULTISOURCE total routed=%llu executed=%llu skipped_dead=%llu m=%zu\n",
              static_cast<unsigned long long>(routed_total),
              static_cast<unsigned long long>(executed_total),
              static_cast<unsigned long long>(skipped_while_dead), m);
  std::printf("MULTISOURCE sources_lost=%llu pool_serving=%zu/%zu\n",
              static_cast<unsigned long long>(sources_lost_total), pool_serving, k);
  std::printf("MULTISOURCE conservation=%s no_quarantine=%s pool_intact=%s\n",
              conservation ? "ok" : "violated", no_quarantine ? "ok" : "violated",
              pool_intact ? "ok" : "violated");
  verdict.gate("conservation", conservation);
  verdict.gate("no_quarantine", no_quarantine);
  verdict.gate("pool_intact", pool_intact);
  if (churn) {
    verdict.gate("severed", killed);
  }
  if (churn && restart_source) {
    verdict.gate("restored", restored);
  }

  write_metrics(metrics_out, views);
  if (!metrics_out.empty()) {
    std::printf("metrics snapshots written to %s\n", metrics_out.c_str());
  }
  // The churn checkpoints serve this run only. Closing the views first
  // joins their checkpoint writers, so no write can land after the unlink.
  views.clear();
  if (churn) {
    for (common::SourceId s = 0; s < sources; ++s) {
      std::remove(ckpt_path(s).c_str());
    }
  }
  return verdict.exit_code();
}

/// Refuses a flag value the run would otherwise silently misuse; main
/// prints the message and exits 2.
[[noreturn]] void refuse(const std::string& message) {
  throw Error(ErrorCode::kConfig, message);
}

int run(const common::CliArgs& args) {
  // A count below its floor is refused before anything forks or binds: a
  // negative one would wrap to ~2^64 (a fork loop, a reserve that throws,
  // a pacing sleep that never ends), and k = 0 leaves nothing to route to.
  const auto count_at_least = [&args](const char* flag, std::int64_t fallback,
                                       std::int64_t floor) {
    const std::int64_t value = args.get_int(flag, fallback);
    if (value < floor) {
      refuse(std::string("--") + flag + " " + std::to_string(value) + " is below " +
             std::to_string(floor));
    }
    return static_cast<std::size_t>(value);
  };
  // So is a rate or scale outside its domain: an instance whose
  // constructor throws never dials, and registration waits for it; the
  // arrival profile checks nothing itself.
  const auto positive_real = [&args](const char* flag, double fallback, bool zero_ok) {
    const double value = args.get_double(flag, fallback);
    if (zero_ok ? value < 0.0 : value <= 0.0) {
      refuse(std::string("--") + flag + " " + args.get_string(flag, "") +
             (zero_ok ? " is below 0" : " is not above 0"));
    }
    return value;
  };
  const bool autoscale = args.get_bool("autoscale", false);
  const std::size_t k = count_at_least("k", 3, 1);
  const std::size_t m = count_at_least("m", 20'000, 0);
  const auto kill_id = args.get_int("kill", -1);
  const auto kill_epoch = static_cast<common::Epoch>(count_at_least("kill-epoch", 1, 0));
  const auto slow_id = args.get_int("slow", -1);
  const double slow_factor = positive_real("slow-factor", 4.0, false);
  const auto slow_after = static_cast<std::uint64_t>(count_at_least("slow-after", 0, 0));
  const bool rejoin = args.get_bool("rejoin", false) || autoscale;
  const std::string stats_dir = args.get_string("stats-dir", "");
  const std::string metrics_out = args.get_string("metrics-out", "");
  const auto metrics_every = static_cast<std::uint64_t>(count_at_least("metrics-every", 0, 0));
  const std::string trace_out = args.get_string("trace-out", "");
  const bool trace_on = args.get_bool("trace", false) || !trace_out.empty();
  std::optional<std::uint64_t> fault_seed;
  if (args.has("fault-seed")) {
    fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0));
  }
  const std::size_t sched_kills = count_at_least("sched-kill", 0, 0);
  const std::size_t initial_raw = count_at_least("initial", 0, 0);
  const auto arrival_us =
      static_cast<std::uint64_t>(count_at_least("arrival-us", autoscale ? 200 : 0, 0));
  const double sleep_scale = positive_real("sleep-scale", autoscale ? 0.02 : 0.0, true);
  workload::ArrivalProfile profile;  // wall-clock ms since the stream began
  if (args.has("spike-factor")) {
    profile.kind = workload::ArrivalProfile::Kind::kFlashCrowd;
    profile.spike_factor = positive_real("spike-factor", 20.0, false);
    profile.spike_start = positive_real("spike-at-ms", 500.0, true);
    profile.spike_duration = positive_real("spike-for-ms", 1000.0, true);
  }
  // Multi-source tier: --sources S > 1 switches to the shared-pool
  // driver (DESIGN.md §15). Orthogonal to the single-source modes below.
  const std::size_t sources = count_at_least("sources", 1, 1);
  const auto kill_source = args.get_int("kill-source", -1);
  // Ids the run would never match, and stats files it would sum with an
  // earlier run's, are refused before anything forks.
  for (const auto& [flag, id] : {std::pair{"kill", kill_id}, std::pair{"slow", slow_id}}) {
    if (id >= 0 && static_cast<std::size_t>(id) >= k) {
      refuse(std::string("--") + flag + " " + std::to_string(id) +
             " is not an instance id (k = " + std::to_string(k) + ")");
    }
  }
  if (kill_source >= 0 && static_cast<std::size_t>(kill_source) >= sources) {
    refuse("--kill-source " + std::to_string(kill_source) + " is not a source id (sources = " +
           std::to_string(sources) + ")");
  }
  std::error_code no_dir;
  if (!stats_dir.empty() && !std::filesystem::is_empty(stats_dir, no_dir) && !no_dir) {
    refuse("--stats-dir " + stats_dir +
           " is not empty: its files would be summed into this run's totals");
  }
  if (sources > 1) {
    return run_multisource(k, m, sources, static_cast<int>(kill_source),
                           args.get_bool("restart-source", false), stats_dir, metrics_out);
  }
  // Scheduler kill-restart campaign mode: a non-empty --ckpt switches to
  // the forked-scheduler driver (even with --sched-kill 0, which is the
  // checkpointing-on control run for the Ĉ-divergence baseline).
  const std::string ckpt_path = args.get_string("ckpt", "");
  if (!ckpt_path.empty()) {
    const auto kill_seed = static_cast<std::uint64_t>(args.get_int("kill-seed", 42));
    const bool corrupt_ckpt = args.get_bool("corrupt-ckpt", false);
    return run_sched_kill_campaign(k, m, sched_kills, kill_seed, corrupt_ckpt, stats_dir,
                                   ckpt_path, metrics_out);
  }
  const std::size_t initial = initial_raw == 0 ? k : std::min(initial_raw, k);

  runtime::SchedulerRuntimeConfig config;
  config.instances = k;  // PosgConfig keeps its calibrated defaults
  config.allow_rejoin = rejoin;
  config.tracing = trace_on;
  const std::string socket_path = "/tmp/posg_distributed_" + std::to_string(getpid()) + ".sock";
  Sockets sockets{{socket_path}, std::vector<std::optional<net::Listener>>(1), stats_dir};
  std::optional<net::Listener>& listener = sockets.listeners[0];
  listener.emplace(socket_path);

  const auto instance_config = [&](common::InstanceId op, bool original) {
    runtime::InstanceRuntimeConfig out;
    out.posg = config.posg;
    out.real_sleep_scale = sleep_scale;
    if (original) {
      if (kill_id >= 0 && static_cast<common::InstanceId>(kill_id) == op) {
        out.crash_on_marker_epoch = kill_epoch;
      }
      if (slow_id >= 0 && static_cast<common::InstanceId>(slow_id) == op) {
        out.cost_scale = slow_factor;
        out.straggle_after_executed = slow_after;
      }
    }
    return out;
  };
  // Reforked incarnations run healthy and fault-free: the campaign tests
  // that a *recovered* instance ramps back in, not that it dies twice.
  const auto refork = [&](common::InstanceId op) {
    return fork_instance(sockets, op, instance_config(op, /*original=*/false), std::nullopt);
  };

  std::printf("forking %zu operator-instance processes (socket %s)\n", k, socket_path.c_str());
  if (kill_id >= 0) {
    std::printf("instance %lld is scripted to crash on the epoch-%llu marker\n",
                static_cast<long long>(kill_id), static_cast<unsigned long long>(kill_epoch));
  }
  if (slow_id >= 0) {
    std::printf("instance %lld straggles at %.1fx true cost from tuple %llu on\n",
                static_cast<long long>(slow_id), slow_factor,
                static_cast<unsigned long long>(slow_after));
  }
  if (fault_seed) {
    std::printf("gray-fault campaign: seed %llu (replayable)\n",
                static_cast<unsigned long long>(*fault_seed));
  }
  const std::vector<pid_t> pids = fork_instances(
      sockets, k, [&](common::InstanceId op) { return instance_config(op, /*original=*/true); },
      fault_seed);
  if (pids.size() < k) {
    return 1;
  }
  std::map<pid_t, common::InstanceId> children;  // live child pids -> instance id
  for (common::InstanceId op = 0; op < k; ++op) {
    children.emplace(pids[op], op);
  }

  runtime::SchedulerRuntime scheduler(config);
  scheduler.accept_registrations(*listener);
  scheduler.start();
  if (rejoin) {
    scheduler.enable_rejoin(*listener);
  }

  // Reap-and-refork: called from the routing thread between sends, so all
  // forking happens on one thread. Any child exit while the stream is still
  // flowing becomes a fresh healthy incarnation (at most 3 per run) that
  // re-registers through the rejoin acceptor. A slot whose exit was a
  // *planned* drain (elastic scale-down) is not reforked — its next
  // incarnation, if any, is the controller's ScaleUp decision.
  std::uint64_t refork_budget = 3;
  std::uint64_t reforks = 0;
  std::set<common::InstanceId> drain_requested;  // pending + completed drains
  const auto reap = [&](bool refork_allowed) {
    int status = 0;
    pid_t pid;
    while ((pid = waitpid(-1, &status, WNOHANG)) > 0) {
      const auto it = children.find(pid);
      if (it == children.end()) {
        continue;
      }
      const common::InstanceId op = it->second;
      children.erase(it);
      if (drain_requested.count(op) != 0) {
        continue;  // clean scale-down exit, not a fault
      }
      if (refork_allowed && rejoin && refork_budget > 0) {
        --refork_budget;
        const pid_t replacement = refork(op);
        if (replacement > 0) {
          ++reforks;
          children.emplace(replacement, op);
          std::printf("reforked instance %zu (pid %d) for rejoin\n", op, replacement);
        }
      }
    }
  };

  const auto dump_metrics = [&] { write_metrics(metrics_out, std::array{&scheduler}); };

  // --- elastic-k state (--autoscale; DESIGN.md §11) ---
  // The controller sees backlog through a per-instance virtual queue:
  // vq[op] accumulates the simulated-ms this process routed to op (the
  // instance's default cost model, 1 + item % 64) and loses the wall-clock
  // execution capacity the instance had since the last sample (elapsed
  // real ms / sleep-scale). With the instances sleeping sleep-scale real
  // ms per simulated ms, that difference tracks the true queue depth
  // without any extra wire traffic.
  core::ElasticConfig elastic_config;
  elastic_config.enabled = autoscale;
  elastic_config.min_instances = 1;
  elastic_config.max_instances = k;
  // Thresholds in simulated-ms of queued work per serving instance (one
  // tuple bills 1..64, ~32.5 on average): scale up around five queued
  // tuples of headroom, drain below about one.
  elastic_config.up_backlog_per_instance = 160.0;
  elastic_config.down_backlog_per_instance = 30.0;
  core::ElasticController controller(elastic_config);
  if (autoscale && trace_on) {
    // Scale decisions land in the same ring as the runtime's events, so a
    // --trace-out dump carries the full elasticity timeline.
    controller.bind_trace(&scheduler.trace());
  }
  std::set<common::InstanceId> draining_local;  // drains begun, not yet retired
  std::vector<double> vq(k, 0.0);               // estimated backlog, simulated ms
  std::vector<double> billed(k, 0.0);           // routed sim-ms since the last sample
  std::vector<std::size_t> ramp_grace(k, 0);    // samples a scale-up still counts as ramping
  std::vector<std::pair<double, core::ScaleAction>> scale_timeline;  // (wall ms, action)
  std::uint64_t scale_up_forks = 0;
  if (autoscale) {
    // All k slots must register (the handshake needs every link), but only
    // `initial` keep serving: the spares drain losslessly right away and
    // their retired slots become the controller's scale-up pool.
    std::printf("autoscale: serving %zu of %zu instances, draining the spares\n", initial, k);
    for (common::InstanceId op = initial; op < k; ++op) {
      if (scheduler.request_drain(op)) {
        drain_requested.insert(op);
        draining_local.insert(op);
      }
    }
  }

  using WallClock = std::chrono::steady_clock;
  const auto wall_start = WallClock::now();
  const auto wall_ms = [&] {
    return std::chrono::duration<double, std::milli>(WallClock::now() - wall_start).count();
  };
  auto last_sample = wall_start;

  // One controller tick, rate-limited to ~50 ms of wall clock. Runs on the
  // routing thread between sends, like reap(), so every fork and every
  // request_drain stays on one thread.
  const auto elastic_tick = [&] {
    const auto now = WallClock::now();
    const double since_ms = std::chrono::duration<double, std::milli>(now - last_sample).count();
    if (since_ms < 50.0) {
      return;
    }
    last_sample = now;
    // Retired drains leave the draining set (the reader thread already
    // billed their final Δ when the DrainComplete landed).
    for (const auto& event : scheduler.drain_log()) {
      draining_local.erase(event.instance);
    }
    const double capacity_ms = sleep_scale > 0.0 ? since_ms / sleep_scale : 1e18;
    const auto quarantined = scheduler.quarantined();
    const std::set<common::InstanceId> failed(quarantined.begin(), quarantined.end());
    core::ElasticSample sample;
    double peak = 0.0;
    for (common::InstanceId op = 0; op < k; ++op) {
      vq[op] = std::max(0.0, vq[op] + billed[op] - capacity_ms);
      billed[op] = 0.0;
      if (ramp_grace[op] > 0) {
        ++sample.ramping;
        --ramp_grace[op];
      }
      if (failed.count(op) != 0 || draining_local.count(op) != 0) {
        continue;
      }
      ++sample.serving;
      sample.backlog_ms += vq[op];
      peak = std::max(peak, vq[op]);
    }
    sample.draining = draining_local.size();
    const double mean =
        sample.serving > 0 ? sample.backlog_ms / static_cast<double>(sample.serving) : 0.0;
    sample.queue_skew = (sample.serving >= 2 && mean > 0.0) ? peak / mean : 1.0;
    // Retirement is not the controller's: the reader that receives
    // DrainComplete bills the final Δ and retires the slot.
    const core::ScaleAction action = controller.on_sample(sample);
    if (action.kind == core::ScaleAction::Kind::kScaleUp) {
      // Revive a retired slot: it must be quarantined (the rejoin acceptor
      // only admits those) and have no live child process.
      std::set<common::InstanceId> alive;
      for (const auto& [child, id] : children) {
        (void)child;
        alive.insert(id);
      }
      for (const common::InstanceId op : quarantined) {
        if (alive.count(op) != 0) {
          continue;
        }
        const pid_t pid = refork(op);
        if (pid > 0) {
          children.emplace(pid, op);
          drain_requested.erase(op);  // a later crash of this slot reforks again
          vq[op] = 0.0;
          ramp_grace[op] = elastic_config.up_hold + elastic_config.cooldown_samples;
          ++scale_up_forks;
          core::ScaleAction recorded = action;
          recorded.instance = op;
          scale_timeline.emplace_back(wall_ms(), recorded);
          std::printf("scale-up: forked instance %zu (pid %d), predicted backlog %.0f ms\n", op,
                      pid, action.predicted_backlog);
        }
        break;
      }
    } else if (action.kind == core::ScaleAction::Kind::kDrain) {
      // Drain the serving instance with the shallowest virtual queue.
      common::InstanceId victim = common::kNoInstance;
      for (common::InstanceId op = 0; op < k; ++op) {
        if (failed.count(op) != 0 || draining_local.count(op) != 0) {
          continue;
        }
        if (victim == common::kNoInstance || vq[op] < vq[victim]) {
          victim = op;
        }
      }
      if (victim != common::kNoInstance && scheduler.request_drain(victim)) {
        drain_requested.insert(victim);
        draining_local.insert(victim);
        vq[victim] = 0.0;
        core::ScaleAction recorded = action;
        recorded.instance = victim;
        scale_timeline.emplace_back(wall_ms(), recorded);
        std::printf("scale-down: draining instance %zu, predicted backlog %.0f ms\n", victim,
                    action.predicted_backlog);
      }
    }
  };

  workload::ZipfItems zipf(4096, 1.0);
  const auto stream = workload::StreamGenerator::generate(zipf, m, 42);
  Verdict verdict;
  try {
    for (common::SeqNo seq = 0; seq < stream.size(); ++seq) {
      if (arrival_us != 0) {
        const double rate = profile.rate_multiplier(wall_ms());
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(static_cast<double>(arrival_us) / rate));
      }
      const common::InstanceId target = scheduler.route(stream[seq], seq);
      if (autoscale) {
        billed[target] += 1.0 + static_cast<double>(stream[seq] % 64);
        elastic_tick();
      }
      if (rejoin && (seq & 0xFF) == 0) {
        reap(/*refork_allowed=*/true);
      }
      if (metrics_every != 0 && seq != 0 && seq % metrics_every == 0) {
        dump_metrics();
      }
    }
    scheduler.finish();
  } catch (const std::exception& error) {
    // Fatal degradation (e.g. the last live instance died with rejoin
    // off). Still print the final report below: the quarantine log
    // explains what happened.
    verdict.fatal(error.what());
    try {
      scheduler.finish();
    } catch (const std::exception&) {
    }
  }
  // The rejoin acceptor is gone (finish() stopped it); close the listener
  // so a straggling refork sees a dead socket instead of parking in the
  // accept backlog forever, then wait out the survivors.
  listener.reset();
  reap(/*refork_allowed=*/false);
  while (wait(nullptr) > 0) {
  }

  const char* state_name = "mid-epoch";
  switch (scheduler.state()) {
    case core::PosgScheduler::State::kRun:
      state_name = "RUN";
      break;
    case core::PosgScheduler::State::kRoundRobin:
      state_name = "ROUND_ROBIN";
      break;
    default:
      break;
  }
  std::printf("\nscheduler: state=%s, epoch=%llu, live=%zu/%zu\n", state_name,
              static_cast<unsigned long long>(scheduler.epoch()), scheduler.live_instances(), k);
  for (const auto& event : scheduler.quarantine_log()) {
    std::printf("quarantined instance %zu: %s\n", event.instance, event.reason.c_str());
  }
  for (const common::InstanceId op : scheduler.rejoin_log()) {
    std::printf("rejoined instance %zu\n", op);
  }
  std::printf("tuples routed per instance (POSG balances estimated *work*, not counts):");
  std::uint64_t routed_total = 0;
  for (const std::uint64_t count : scheduler.routed_counts()) {
    std::printf(" %llu", static_cast<unsigned long long>(count));
    routed_total += count;
  }
  std::printf("\n");

  // Machine-readable summary. `conservation` is the at-most-once
  // invariant: no tuple executes that was never routed, across drops,
  // crashes, reroutes, and rejoins. finish() has joined every runtime
  // thread, so the scheduler is read directly.
  const core::PosgScheduler& posg_scheduler = scheduler.scheduler();
  const auto rejoins = static_cast<unsigned long long>(posg_scheduler.rejoin_count());
  std::printf("CHAOS seed=%lld rejoins=%llu reforks=%llu quarantines=%zu reroutes=%llu "
              "stale_replies=%llu\n",
              fault_seed ? static_cast<long long>(*fault_seed) : -1LL, rejoins,
              static_cast<unsigned long long>(reforks), scheduler.quarantine_log().size(),
              static_cast<unsigned long long>(scheduler.reroutes()),
              static_cast<unsigned long long>(scheduler.stale_replies()));
  const core::HealthMonitor& health = posg_scheduler.health();
  std::printf("CHAOS resilience: rejoins=%llu health[suspect=%llu degraded=%llu promoted=%llu] "
              "derate=[",
              rejoins, static_cast<unsigned long long>(health.suspect_transitions()),
              static_cast<unsigned long long>(health.degraded_transitions()),
              static_cast<unsigned long long>(health.promotions()));
  for (common::InstanceId op = 0; op < k; ++op) {
    std::printf("%s%g", op == 0 ? "" : " ", posg_scheduler.derate(op));
  }
  std::printf("]\n");
  if (!stats_dir.empty()) {
    const std::uint64_t executed_total = sum_stat(stats_dir, "executed");
    const bool conserved = executed_total <= routed_total;
    std::printf("CHAOS routed=%llu executed=%llu conservation=%s\n",
                static_cast<unsigned long long>(routed_total),
                static_cast<unsigned long long>(executed_total), conserved ? "ok" : "violated");
    verdict.gate("conservation", conserved);
  }
  // A degraded run has no live instance to show; a drained one must.
  const bool recovered = !verdict.degraded && scheduler.live_instances() >= 1;
  std::printf("CHAOS recovered=%s\n", recovered ? "yes" : "no");
  verdict.gate("recovered", recovered || verdict.degraded);

  if (autoscale) {
    // Machine-readable elastic summary. Per-drain conservation is executed <= routed: `executed` is the
    // retiring incarnation's own count while `routed` accumulates across
    // every incarnation of the slot, so equality only holds for slots that
    // never reforked.
    const auto drain_events = scheduler.drain_log();
    bool drains_ok = true;
    for (const auto& event : drain_events) {
      const bool ok = event.executed <= event.routed;
      drains_ok = drains_ok && ok;
      std::printf("ELASTIC drain instance=%zu epoch=%llu cut=%.1f delta=%.1f billed=%.1f "
                  "executed=%llu routed=%llu conservation=%s\n",
                  event.instance, static_cast<unsigned long long>(event.epoch), event.cut,
                  event.final_delta, event.final_billed,
                  static_cast<unsigned long long>(event.executed),
                  static_cast<unsigned long long>(event.routed), ok ? "ok" : "violated");
    }
    for (const auto& [at_ms, action] : scale_timeline) {
      std::printf("ELASTIC event t_ms=%.0f action=%s instance=%zu predicted=%.0f\n", at_ms,
                  core::scale_action_name(action.kind), action.instance,
                  action.predicted_backlog);
    }
    std::printf("ELASTIC scale_ups=%llu drains=%llu drains_completed=%zu skew_vetoes=%llu "
                "serving_final=%zu conservation=%s\n",
                static_cast<unsigned long long>(scale_up_forks),
                static_cast<unsigned long long>(controller.drains()), drain_events.size(),
                static_cast<unsigned long long>(controller.skew_vetoes()),
                scheduler.serving_instances(), drains_ok ? "ok" : "violated");
    verdict.gate("drain_conservation", drains_ok);
  }

  dump_metrics();
  if (!metrics_out.empty()) {
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    controller.bind_trace(nullptr);  // flush any staged scale decisions
    scheduler.trace_events();        // flush the scheduler's staged tail
    std::ofstream out(trace_out, std::ios::trunc);
    if (out) {
      scheduler.trace().dump_jsonl(out);
      std::printf("trace dump (%llu events, %llu dropped) written to %s\n",
                  static_cast<unsigned long long>(scheduler.trace().recorded()),
                  static_cast<unsigned long long>(scheduler.trace().dropped()), trace_out.c_str());
    }
  }
  return verdict.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(common::CliArgs(argc, argv));
  } catch (const Error& error) {
    if (error.code() != ErrorCode::kConfig) {
      throw;
    }
    std::fprintf(stderr, "distributed_posg: %s\n", error.what());
    return 2;
  }
}
