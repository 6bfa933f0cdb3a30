#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/config.hpp"
#include "net/transport.hpp"

namespace posg::runtime {

/// InstanceRuntimeConfig is declared in core/config.hpp beside the other
/// components' configs; InstanceRuntime's constructor checks it.
using InstanceRuntimeConfig = ::posg::InstanceRuntimeConfig;

/// The operator-instance side of the distributed runtime: one event loop
/// over S scheduler sessions (S = 1 for a classic deployment), extracted
/// from examples/distributed_posg.cpp so tests can drive a full
/// distributed run in-process (threads + socket pairs) and the example
/// can run it in forked processes — same code path.
///
/// Locking discipline: run() is single-threaded and owns all its state
/// (including the Stats it returns); the only cross-thread member is the
/// `stop_` atomic flag, set by request_stop() from any thread and polled
/// by run() once per poll tick. `id_` and `config_` are immutable after
/// construction. No mutexes, so no lock-ordering concerns.
class InstanceRuntime {
 public:
  struct Stats {
    std::uint64_t executed = 0;
    common::TimeMs simulated_work = 0.0;
    std::uint64_t shipments = 0;
    std::uint64_t replies_sent = 0;
    /// InstanceFailed notifications received (peers quarantined by the
    /// scheduler while we were running).
    std::uint64_t peer_failures_seen = 0;
    /// Frames that failed to decode (dropped, not fatal — a corrupt frame
    /// must not take the instance down with it).
    std::uint64_t decode_errors = 0;
    /// RejoinAcks received (tracker rearmed to the scheduler's seeded Ĉ).
    std::uint64_t rejoin_acks = 0;
    /// AdmissionGrants received (token-bucket ramp finished).
    std::uint64_t admission_grants = 0;
    /// Successful reconnects to a (restarted) scheduler via reconnect_path.
    std::uint64_t reconnects = 0;
    /// ReattachAcks received (tracker rebased to the checkpointed cut
    /// after a scheduler restart — DESIGN.md §14).
    std::uint64_t reattach_acks = 0;
    /// True when a scripted crash (InstanceRuntimeConfig) ended the run.
    bool crashed = false;
    /// True when a DrainRequest ended a session: the queue ran dry (FIFO
    /// link — nothing can follow the request), the final Δ was reported
    /// via DrainComplete, and the session retired cleanly.
    bool drained = false;
    /// Tuples executed per session, indexed like the SourceLink vector
    /// (the per-source side of the conservation gate — session i's count
    /// must equal what source i's scheduler routed here).
    std::vector<std::uint64_t> per_source_executed;
    /// Sessions that ended because their scheduler went away for good: a
    /// dead link with no reconnect path, or an outage that spent its
    /// redial budget. A dead source ends its session, never the instance.
    std::uint64_t sources_lost = 0;
  };

  /// One scheduler session of a multi-source run (DESIGN.md §15): the
  /// source id the link speaks for, the established link (caller-owned),
  /// and the socket path to redial when the link dies — empty means a
  /// link error permanently ends this session (counted in sources_lost).
  struct SourceLink {
    common::SourceId source = 0;
    net::FrameTransport* link = nullptr;
    std::string reconnect_path;
  };

  InstanceRuntime(common::InstanceId id, InstanceRuntimeConfig config);

  /// run_multi() over one session: {source 0, `link`,
  /// config.reconnect_path}.
  Stats run(net::FrameTransport& link);

  /// The event loop (DESIGN.md §15): registers every session (Hello),
  /// then executes tuples until every session ended, a scripted crash, or
  /// request_stop(). A session ends on EndOfStream, on a DrainRequest
  /// (lossless drain: final Δ and executed count reported per source), or
  /// when its scheduler is gone for good (counted in sources_lost). Each
  /// session owns its OWN InstanceTracker — tuples arriving on session
  /// s's link were routed (and billed) by source s, so sketches, Δ
  /// replies and drain deltas are computed per source and Σ over sessions
  /// equals the physical instance's true totals. A scripted crash is
  /// physical: it severs every session at once.
  ///
  /// Sessions are served round-robin, each waiting at most one poll tick
  /// of min(recv_deadline, 10 ms) on its link, so a session with traffic
  /// never waits on an idle sibling for longer than that.
  ///
  /// Scheduler-crash survival (DESIGN.md §14): every link error (recv
  /// transport error, EOF, failed send) marks that session down; frames
  /// it fails to send are buffered. With a reconnect path the session
  /// redials on net::ConnectRetryPolicy's schedule — reconnect_attempts
  /// rounds of max_attempts dials with jittered backoff doubling from
  /// initial_backoff to max_backoff, about 3 s per round — timed against
  /// the clock, never slept, so a down session never blocks its siblings.
  /// A successful dial re-attaches with SchedulerHello, replays the
  /// buffered frames and restores the full budget for the next outage.
  /// With no reconnect path, or once the budget is spent, the session
  /// ends.
  Stats run_multi(const std::vector<SourceLink>& links);

  /// Asynchronously asks run() to return at its next poll tick.
  void request_stop() noexcept { stop_.store(true); }

  common::InstanceId id() const noexcept { return id_; }

 private:
  common::InstanceId id_;
  InstanceRuntimeConfig config_;
  std::atomic<bool> stop_{false};
};

}  // namespace posg::runtime
