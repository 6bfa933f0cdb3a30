#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "core/checkpoint.hpp"
#include "core/instance_pool.hpp"
#include "core/posg_scheduler.hpp"
#include "metrics/stats.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_ring.hpp"

namespace posg::runtime {

/// SchedulerRuntimeConfig is declared in core/config.hpp beside the other
/// components' configs; SchedulerRuntime's constructor checks it.
using SchedulerRuntimeConfig = ::posg::SchedulerRuntimeConfig;

/// The scheduler side of the distributed runtime, extracted from
/// examples/distributed_posg.cpp: owns one FrameTransport per instance,
/// one reader thread per link for the feedback path (shipments, replies),
/// one link writer thread for the send path, and the PosgScheduler behind
/// a mutex.
///
/// Send path (DESIGN.md §13): every frame for instance op — tuples and
/// control frames alike — is appended to op's outbox under that link's
/// send mutex, and the link writer hands each non-empty outbox to the
/// kernel in one FrameTransport::send_frames call. route() makes no send
/// syscall. Frames on one link stay FIFO across all kinds. A pass that
/// found kPaceFrames or more in one outbox means the router outpaces the
/// writer: the writer then pauses for kWriterPause before its next pass,
/// so the outboxes fill meanwhile; a route() waiting on a full link or a
/// flush() ends the pause at once. After a pass that found fewer the
/// writer looks again at once, and after a pass that found none it parks
/// until an outbox goes from empty to non-empty, so light traffic leaves
/// as soon as the writer wakes, with no pause. The writer thread lowers
/// its own timer slack to 1 µs, or the kernel's default 50 µs slack would
/// stretch the pause about sixfold. A link queues at most kOutboxBytes
/// of tuples (outbox plus the batch in flight):
/// route() waits while its target's link is full (the closed loop's
/// back-pressure, as a full socket buffer is). Control frames never wait
/// on the cap, because the writer itself announces failures.
///
/// Failure detection: EOF or a transport/decode error on a link, a failed
/// send, or the epoch deadline each quarantine the instance via
/// PosgScheduler::mark_failed; routing continues on the k' survivors. A
/// failed send quarantines from the writer and drops the frames still in
/// that outbox, like frames in a dead peer's socket buffer: delivery is
/// at-most-once. route() reroutes a tuple whose target's link has failed
/// or been sent its DrainRequest by the time the tuple is queued. Only the
/// death of the *last* live instance is fatal (route() then throws).
///
/// Crash recovery (DESIGN.md §14): with a non-empty checkpoint_path the
/// runtime checkpoints the scheduler's control state at epoch boundaries
/// off the hot path (a reader captures under mutex_, a dedicated writer
/// thread encodes and writes atomically — core/checkpoint.hpp). With
/// `recover` set, construction restores from the latest checkpoint and
/// degrades to a cold start on any missing/torn/corrupt/rejected file.
/// Surviving instances reconnect with SchedulerHello and are reconciled
/// via PosgScheduler::reattach (live-in-checkpoint) or rejoin (stale
/// checkpoint says failed), answered with a ReattachAck seeding their cut.
class SchedulerRuntime {
 public:
  struct QuarantineEvent {
    common::InstanceId instance;
    std::string reason;
  };

  /// One completed lossless drain (DrainRequest → DrainComplete → retire).
  /// Conservation holds per event: `executed` (the instance's own count)
  /// equals `routed` (tuples this runtime queued there — a drain completes
  /// only over a link that delivered everything before its request), and
  /// `final_billed` = max(0, cut + final_delta) is the true cumulated
  /// execution time the retired instance carried out — billed exactly
  /// once, never redistributed.
  struct DrainEvent {
    common::InstanceId instance = 0;
    common::Epoch epoch = 0;
    common::TimeMs cut = 0.0;          ///< Ĉ frozen at begin_drain
    common::TimeMs final_delta = 0.0;  ///< C_real − cut, from DrainComplete
    common::TimeMs final_billed = 0.0; ///< scheduler's retired Ĉ
    std::uint64_t executed = 0;        ///< instance-side executed count
    std::uint64_t routed = 0;          ///< scheduler-side queued count
  };

  /// `pool` injects the shared instance pool of a multi-source deployment
  /// (DESIGN.md §15): S runtimes constructed over the same pool become S
  /// per-source views — membership transitions any of them publishes are
  /// adopted by the rest on their next decision. The pool's size must
  /// equal config.instances. nullptr (the default) keeps the pre-tier
  /// behaviour: a private pool, single-source restore semantics.
  ///
  /// config.source_id names this runtime's view: it is validated against
  /// every Hello/SchedulerHello, stamped into checkpoints (restore
  /// rejects another source's image), and prefixes this runtime's metrics
  /// ("posg.s<id>.*" when non-zero, plain "posg.*" for source 0).
  explicit SchedulerRuntime(const SchedulerRuntimeConfig& config,
                            std::shared_ptr<core::InstancePool> pool = nullptr);
  ~SchedulerRuntime();

  SchedulerRuntime(const SchedulerRuntime&) = delete;
  SchedulerRuntime& operator=(const SchedulerRuntime&) = delete;

  /// Attaches an established link for instance `op` (in-process tests).
  void attach(common::InstanceId op, std::unique_ptr<net::FrameTransport> link);

  /// Accepts registrations until every instance is attached: each peer
  /// must open with a Hello carrying an unclaimed id in [0, k). A
  /// connection whose first frame is missing, malformed, out of range, or
  /// a duplicate id is rejected (closed) — a wire value never indexes the
  /// link table unvalidated. Each connection, and each hello_deadline
  /// that passes with none, spends one attempt; throws
  /// posg::RegistrationError (ErrorCode::kRegistration) once the budget is
  /// exhausted, so an instance that never dials cannot stall registration.
  ///
  /// A SchedulerHello first frame (an instance that survived a scheduler
  /// restart) also attaches; its re-attach handshake completes in start().
  /// After a recovery restore, only instances that were live in the
  /// checkpoint are waited for — a checkpointed quarantine slot stays
  /// unattached (it may still reconnect opportunistically, or later via
  /// the rejoin listener).
  void accept_registrations(net::Listener& listener);

  /// Spawns the link writer, the reader threads (and the checkpoint writer
  /// when checkpoint_path is set). Every instance must be attached, except
  /// slots the restored checkpoint marked quarantined. Pending
  /// SchedulerHello handshakes are answered with ReattachAck here, before
  /// any tuple can be routed.
  void start();

  /// Spawns the rejoin acceptor (requires allow_rejoin and start()):
  /// accepts Hello frames from *quarantined* instance ids on `listener`,
  /// re-admits them via PosgScheduler::rejoin, answers with a RejoinAck
  /// carrying the seeded Ĉ, and restarts their reader. Hellos from live or
  /// unknown ids are rejected (closed). `listener` must outlive finish().
  void enable_rejoin(net::Listener& listener);

  /// Routes one tuple: schedules and queues the frame (with any
  /// piggy-backed marker) on the chosen instance's outbox, waiting while
  /// that outbox is full. Returns once the frame is queued, with the
  /// instance it was queued for; the link writer delivers it later (see
  /// flush()). A target whose link has failed, or that was sent its
  /// DrainRequest, is found at enqueue time and the tuple is rerouted.
  /// Throws core::NoLiveInstanceError (a posg::Error with
  /// ErrorCode::kNoLiveInstance) when no live instance remains.
  common::InstanceId route(common::Item item, common::SeqNo seq);

  /// Blocks until every outbox is empty with no send in flight: every
  /// frame queued before the call is in the kernel, or its link has failed
  /// (a failed link drops its outbox). For a caller that must know a
  /// routed tuple left this process before it acknowledges it elsewhere.
  /// Frames queued by other threads meanwhile are waited for too, so call
  /// it from the one routing thread with no lock held. Ends a writer pause
  /// (kWriterPause). Returns at once before start() and after finish() or
  /// sever().
  void flush();

  /// Opens a lossless drain on instance `op` (elastic scale-down): marks
  /// it draining in the scheduler (excluded from routing at once, Ĉ cut
  /// frozen) and queues it a DrainRequest under the link's send mutex.
  /// Because the outbox and the link are FIFO and route() re-checks the
  /// drain flag under the same mutex, no tuple can follow the request —
  /// the instance's queue runs dry by construction, it answers
  /// DrainComplete (handled on its reader, which retires it), and its slot
  /// may later rejoin as a scale-up. Returns false when `op` cannot drain
  /// right now (quarantined, already draining, last serving instance). A
  /// failed send of the request is the writer's to handle: it quarantines
  /// `op`, which cancels the drain. Safe from any thread after start().
  bool request_drain(common::InstanceId op);

  /// Queues EndOfStream to the survivors behind everything already
  /// queued, flushes, joins the link writer, drains the feedback path,
  /// joins the readers and closes every link. Idempotent. Once all that is
  /// done, throws core::NoLiveInstanceError if the last live instance died
  /// (without rejoin): a death the writer finds after the last route()
  /// returned is reported here instead.
  void finish();

  /// Simulated scheduler death for source-churn campaigns (DESIGN.md
  /// §15): closes every instance link with NO EndOfStream handshake and
  /// joins the readers — from the instances' side indistinguishable from
  /// this scheduler being SIGKILLed (their per-session reconnect logic
  /// takes over). Crucially it quarantines NOBODY: the instances are
  /// healthy, the *source* died, and a quarantine published here would
  /// propagate through the shared pool and poison every sibling view.
  /// Frames still queued in the outboxes are dropped, as a SIGKILL would
  /// lose them. After sever() the runtime is finished; a restarted source
  /// is a new SchedulerRuntime recovering from this one's checkpoint.
  /// Idempotent.
  void sever();

  /// Locked snapshot of this view's Ĉ vector (a multi-source driver reads
  /// the sibling views through this before each route()).
  std::vector<common::TimeMs> estimated_loads() const;

  /// Installs Σ of the sibling views' Ĉ (core::sibling_loads) as this
  /// view's external-load term (core::PosgScheduler::set_external_loads)
  /// so its greedy argmin sees pool-wide pressure, not just its own
  /// billing. Safe from any thread after start().
  void set_external_loads(const std::vector<common::TimeMs>& external);

  // --- observability (all safe to call concurrently with the readers) ---
  core::PosgScheduler::State state() const;
  common::Epoch epoch() const;
  std::size_t live_instances() const;
  std::vector<common::InstanceId> quarantined() const;
  std::vector<QuarantineEvent> quarantine_log() const;
  std::vector<std::uint64_t> routed_counts() const;
  std::uint64_t reroutes() const noexcept { return reroutes_.load(std::memory_order_relaxed); }
  std::uint64_t stale_replies() const;
  /// Instances re-admitted through the rejoin handshake, in order.
  std::vector<common::InstanceId> rejoin_log() const;
  /// Completed lossless drains, in retirement order.
  std::vector<DrainEvent> drain_log() const;
  /// Instances currently serving (live and not draining).
  std::size_t serving_instances() const;
  /// Snapshot of the degradation-layer counters (de-rates, health
  /// transitions, rejoins).
  metrics::ResilienceStats resilience() const;

  // --- crash recovery observers (DESIGN.md §14) ---
  /// True when construction restored scheduler state from a checkpoint
  /// (immutable after the constructor returns).
  bool recovered() const noexcept { return recovered_; }
  /// Epoch carried by the restored checkpoint (0 on cold start).
  common::Epoch recovered_epoch() const noexcept { return recovered_epoch_; }
  /// Checkpoints durably written / write attempts that failed (disk).
  std::uint64_t checkpoint_writes() const noexcept {
    return checkpoint_writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkpoint_failures() const noexcept {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  /// ReattachAcks queued (registration-time and mid-run SchedulerHello).
  std::uint64_t reattach_count() const noexcept {
    return reattach_count_.load(std::memory_order_relaxed);
  }

  /// Byte cap of one link's queued tuples: the outbox plus the batch the
  /// writer is sending. It bounds what waits in this process ahead of a
  /// sync marker — 1 KiB is 39 bare tuple frames, a sixth of the default
  /// 256-tuple sketch window on whose cadence instances re-ship. A deeper
  /// queue lets those re-shipments supersede every epoch in flight: at
  /// 16 KiB, ipc-k3-flood repetitions completed no epoch at all (DESIGN.md
  /// §13).
  static constexpr std::size_t kOutboxBytes = 1u << 10;

  /// How long the link writer pauses after a pass that found kPaceFrames
  /// or more in one outbox. Filling one link's kOutboxBytes (39 bare
  /// tuple frames) took the router ~14 µs at its peak of ~2.7 M routes/s
  /// on a 4-vCPU guest even with every tuple sent to that link, so there
  /// the pause ends before a link fills; yet each send carries a few dozen
  /// frames, not a handful (DESIGN.md §13). A router that fills a link
  /// faster (above ~3.9 M routes/s to one link) does not wait the pause
  /// out: its route() ends the pause when it finds the link full.
  static constexpr std::chrono::microseconds kWriterPause{10};

  /// Frames one outbox must hold at a pass for the writer to pause after
  /// it: the link got two more while the writer was busy elsewhere or
  /// waking up. One more is what a late wake-up alone leaves at light
  /// load, where a pause would only delay delivery (DESIGN.md §13).
  static constexpr std::uint64_t kPaceFrames = 3;

  /// Events the drop-oldest trace ring retains.
  static constexpr std::size_t kTraceCapacity = std::size_t{1} << 14U;

  /// The runtime's metrics registry. The scheduler's family
  /// (PosgScheduler::register_metrics) is registered at construction as
  /// pull callbacks that take mutex_, so metrics_snapshot() is safe from
  /// any thread while the readers and the router run. Callers may
  /// register additional instruments.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Convenience: evaluate every registered instrument now.
  obs::Snapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// The runtime's trace ring (events flow only when
  /// SchedulerRuntimeConfig::tracing armed it). The scheduler stages
  /// ScheduleDecision events in a thread-local writer; use trace_events()
  /// to read a snapshot that includes the staged tail.
  obs::TraceRing& trace() noexcept { return trace_; }

  /// Flushes the scheduler's staged trace events and returns the ring's
  /// contents, oldest first. Safe to call concurrently with routing.
  std::vector<obs::TraceEvent> trace_events();

  /// Access to the scheduler for single-threaded phases (before start()
  /// or after finish()).
  /// NO_THREAD_SAFETY_ANALYSIS: hands out a reference to the mutex_-guarded
  /// scheduler_ without the lock — sound only because callers are contract-
  /// bound to the single-threaded phases, where no reader thread exists.
  core::PosgScheduler& scheduler() noexcept NO_THREAD_SAFETY_ANALYSIS { return scheduler_; }

  /// This runtime's instance pool (the injected shared one, or the
  /// private pool it created). Internally synchronized — safe from any
  /// thread.
  const std::shared_ptr<core::InstancePool>& pool() const noexcept { return pool_; }

  /// The source id this runtime's view bills under (config.source_id).
  common::SourceId source_id() const noexcept { return config_.source_id; }

 private:
  void reader_loop(common::InstanceId op);
  void rejoin_acceptor_loop(net::Listener* listener);

  /// What a peer's opening frame claims: its instance id, and whether it
  /// re-attaches after a scheduler restart (SchedulerHello) rather than
  /// joins (Hello).
  struct Registration {
    common::InstanceId instance;
    bool reattaching;
  };
  /// Reads and checks a new peer's opening frame within hello_deadline.
  /// std::nullopt when the peer sent nothing, an undecodable frame, a
  /// message other than Hello/SchedulerHello, a frame for another source,
  /// or an id >= k; the caller then drops (closes) the socket. The id is
  /// an unvalidated wire value until this returns it. Reads only
  /// immutable members, so both registration paths may call it.
  std::optional<Registration> read_registration(net::Socket& socket) const;
  /// Registers the scheduler's metric family under mutex_ and the
  /// runtime's own <prefix>.runtime.* callbacks (constructor only).
  void register_runtime_metrics();

  /// One link's outbox: the frames queued for its instance and not yet
  /// handed to the kernel, framed back to back as the wire carries them.
  /// `mutex` is the link's send mutex.
  struct Outbox {
    Mutex mutex{"runtime::SchedulerRuntime::Outbox::mutex", lock_rank::kNetSend};
    /// Signalled when a send settles (room for route(), an empty link for
    /// flush() and the rejoin acceptor's link swap), when the outbox is
    /// dropped, and when a DrainRequest is queued (a route() waiting on the
    /// cap reroutes at once).
    CondVar changed;
    std::vector<std::byte> bytes GUARDED_BY(mutex);
    std::uint64_t frames GUARDED_BY(mutex) = 0;  ///< frames in `bytes`
    /// Bytes of the batch the writer is sending on the link outside the
    /// mutex (0 when it is not): they count against the cap, and the link
    /// must not be swapped until the send settles.
    std::size_t sending GUARDED_BY(mutex) = 0;
    /// A send failed: the instance was quarantined, and frames queued here
    /// are dropped until a rejoin installs a new link.
    bool broken GUARDED_BY(mutex) = false;
  };
  /// Appends one frame (unless the link is broken). Returns true when the
  /// outbox went from empty to non-empty: the caller then calls
  /// wake_writer() once it has released the mutex.
  static bool append_locked(Outbox& box, std::span<const std::byte> payload)
      REQUIRES(box.mutex);
  /// Queues a control frame for `op`: never waits on the cap.
  void queue_frame(common::InstanceId op, std::span<const std::byte> payload);
  /// Drops whatever `box` holds.
  static void drop_locked(Outbox& box) REQUIRES(box.mutex);
  /// Wakes the link writer if it is parked (the waker half of the park
  /// handshake in link_writer_loop).
  void wake_writer() noexcept;
  /// The link writer: hands each non-empty outbox to its link in one
  /// send_frames call; pauses after a pass that found kPaceFrames or more
  /// in one outbox, looks again at once after one that found fewer, parks
  /// after one that found none, exits once stopped with nothing left to
  /// send.
  void link_writer_loop();
  /// The writer's pause: waits kWriterPause unless cut_writer_pause() ends
  /// it first (or already did since the last pause).
  void pause_writer();
  /// Ends the writer's current or next pause: a caller that waits on the
  /// writer (a full link, a flush) must not wait out the pause.
  void cut_writer_pause();
  /// One hand-off of op's outbox (swapped into `batch`). Returns the
  /// frames it held, 0 when it was empty. A failed send quarantines `op`
  /// (holding no send mutex) and then drops the outbox.
  std::uint64_t send_outbox(common::InstanceId op, std::vector<std::byte>& batch);
  /// Stops and joins the link writer.
  void stop_writer();
  /// Quarantines `op` (idempotent) and broadcasts InstanceFailed to the
  /// survivors. Returns false when `op` was the last live instance (the
  /// run is lost; callers decide whether that is fatal).
  bool handle_failure(common::InstanceId op, const std::string& reason);
  /// Epoch deadline (route()'s per-tuple check while an epoch is open):
  /// instances owing a reply turn Suspect at half the deadline and are
  /// quarantined at the deadline, except the last survivor without rejoin.
  /// The scan allocates nothing.
  void check_epoch_deadline_locked() REQUIRES(mutex_);
  /// Sends AdmissionGrant to each instance in `done` (ramp completions
  /// route() took under mutex_) still in rotation. Takes mutex_ only when
  /// `done` is non-empty.
  void announce_admission_grants(const std::vector<common::InstanceId>& done,
                                 common::Epoch epoch);
  /// Captures a CheckpointState when an epoch completed since the last
  /// capture and hands it to the writer thread (rank-increasing
  /// kSchedulerState → kCheckpointWriter acquisition). Off the hot path:
  /// called on the feedback/reattach paths where epochs complete, never by
  /// route(). No-op when checkpoint_path is empty.
  void maybe_checkpoint_locked() REQUIRES(mutex_);
  /// The dedicated checkpoint writer: drains ckpt_pending_ (newest-wins
  /// double buffer), encodes, writes atomically, records kCheckpointWrite.
  /// A failed write counts checkpoint_failures_ and the loop continues —
  /// durability degrades, the run does not.
  void checkpoint_writer_loop();
  /// Completes one SchedulerHello handshake for an attached link: live op
  /// → PosgScheduler::reattach, quarantined op → rejoin; answers with a
  /// ReattachAck carrying the seeded cut (a failed send is the writer's).
  void complete_reattach(common::InstanceId op);

  // Locking discipline (threads involved: the routing caller, k reader
  // threads, and any observer thread):
  //   - mutex_ guards scheduler_, quarantine_log_ and last_feedback_ —
  //     everything the feedback path and the routing path both touch.
  //     Never held across a socket operation (sends/receives can block on
  //     a dead peer for the full deadline).
  //   - outboxes_[op]->mutex is link op's send mutex: it guards the
  //     outbox and serializes its producers (route(), control frames,
  //     the writer's hand-off, the rejoin acceptor's link swap). When it
  //     nests with mutex_ (request_drain), the send mutex is acquired
  //     FIRST (kNetSend < kSchedulerState) — no thread ever acquires a
  //     send mutex while holding mutex_, and none holds two send mutexes:
  //     the writer sends and calls handle_failure holding none.
  //   - dead_[op], draining_, fatal_ and the counters (routed_, reroutes_)
  //     are atomics: flags read at poll frequency in reader loops, counters
  //     written by the router and read by observers.
  //   - links_[op] is swapped only by the rejoin acceptor, under op's send
  //     mutex once the writer is not sending on it; config_, k_ are
  //     immutable after start(); drain_deadline_
  //     is written once in finish() before the draining_ store and only
  //     read by readers after they observe draining_ == true (the seq_cst
  //     store/load pair orders it).
  //   - started_ / finished_ are confined to the single control thread
  //     that calls start()/finish().
  SchedulerRuntimeConfig config_;
  std::size_t k_;
  /// "posg" for source 0, "posg.s<id>" otherwise — every instrument this
  /// runtime registers hangs off it, so S runtimes can share one
  /// exposition pipeline without colliding (obs_report.py's per-source
  /// lens keys off the s<id> segment).
  std::string metric_prefix_;
  /// Declared before scheduler_: the scheduler holds a TraceRing::Writer
  /// whose destructor flushes into trace_, so the ring must outlive it.
  obs::TraceRing trace_;
  obs::MetricsRegistry metrics_;
  mutable Mutex mutex_{"runtime::SchedulerRuntime::mutex_", lock_rank::kSchedulerState};
  /// True when the constructor received no pool and created a private one
  /// (ordered before pool_ so its initializer can still see the argument).
  bool pool_injected_;
  std::shared_ptr<core::InstancePool> pool_;
  core::PosgScheduler scheduler_ GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<net::FrameTransport>> links_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;
  std::thread link_writer_;
  /// Park handshake of the link writer, as engine::SpscRing parks an idle
  /// ring end: the writer reads the wake ticket, raises `writer_parked_`,
  /// re-checks the outboxes under their mutexes and only then waits on the
  /// ticket; a producer that made an outbox non-empty reads
  /// `writer_parked_` after releasing that mutex and bumps the ticket. The
  /// mutex orders the two, so either the re-check sees the frame or the
  /// producer sees the flag.
  std::atomic<std::uint32_t> writer_wake_{0};
  std::atomic<bool> writer_parked_{false};
  std::atomic<bool> writer_stop_{false};
  /// The writer's pause (pause_writer): a timed wait on `pause_end_` that
  /// cut_writer_pause() ends early by raising `pause_cut_`.
  Mutex pause_mutex_{"runtime::SchedulerRuntime::pause_mutex_", lock_rank::kWriterPause};
  CondVar pause_end_;
  bool pause_cut_ GUARDED_BY(pause_mutex_) = false;
  /// Frames the writer handed to the kernel, and the send_frames calls
  /// that carried them (metrics: frames per send is the batching).
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  /// Set when an instance is quarantined; its reader exits at the next
  /// poll tick instead of waiting on a link that may never close (the
  /// link itself is only closed in finish(), after the readers joined, so
  /// no thread ever closes a socket another thread is polling).
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_;
  /// readers_[op] is instance op's reader thread. Only the control thread
  /// and the rejoin acceptor touch a slot, and only after the old thread
  /// observed dead_[op] and exited (the acceptor joins it first); finish()
  /// stops and joins the acceptor before joining readers, so the two never
  /// race on a slot.
  std::vector<std::thread> readers_;
  std::thread rejoin_acceptor_;
  std::atomic<bool> stop_acceptor_{false};
  std::vector<QuarantineEvent> quarantine_log_ GUARDED_BY(mutex_);
  std::vector<common::InstanceId> rejoin_log_ GUARDED_BY(mutex_);
  std::vector<DrainEvent> drain_log_ GUARDED_BY(mutex_);
  /// Set under op's send mutex immediately before the DrainRequest is
  /// queued; route() re-reads it under the same mutex before it queues a
  /// tuple, so "a tuple never follows the DrainRequest on a link" is
  /// enforced by mutual exclusion and the outbox's FIFO order, not
  /// timing. Cleared by the rejoin acceptor when the slot scales back up.
  /// Atomic only for the benefit of lock-free observers.
  std::vector<std::unique_ptr<std::atomic<bool>>> drain_sent_;
  std::atomic<bool> draining_{false};
  /// Set by sever(): link errors and EOFs are the severance itself, not
  /// instance failures — handle_failure becomes a no-op so the shared
  /// pool never hears about a dying *source* as dying *instances*.
  std::atomic<bool> severed_{false};
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::atomic<bool> fatal_{false};
  bool started_ = false;
  bool finished_ = false;
  /// Per-instance routed-tuple counters (tuples route() queued there).
  /// Atomic because route() runs in the caller's thread while
  /// routed_counts() is documented safe from any observer thread.
  std::vector<std::atomic<std::uint64_t>> routed_;
  std::atomic<std::uint64_t> reroutes_{0};
  /// Epoch-deadline tracking: when each instance last produced feedback
  /// (any decodable frame on its reader).
  std::vector<std::chrono::steady_clock::time_point> last_feedback_ GUARDED_BY(mutex_);
  /// check_epoch_deadline_locked's snapshot of who owes the open epoch a
  /// reply (1 = owes), sized k_ once so the per-route scan never allocates.
  std::vector<std::uint8_t> deadline_owing_ GUARDED_BY(mutex_);

  // --- crash recovery (DESIGN.md §14) ---
  /// Hand-off slot between the capturing reader and the writer thread.
  /// Rank kCheckpointWriter: publishers hold mutex_ (kSchedulerState, 30)
  /// while pushing — strictly rank-increasing — and the writer holds only
  /// this while waiting.
  mutable Mutex ckpt_mutex_{"runtime::SchedulerRuntime::ckpt_mutex_",
                            lock_rank::kCheckpointWriter};
  CondVar ckpt_cv_;
  /// Newest-wins double buffer: a capture that lands before the previous
  /// one hit disk replaces it — the file always converges to the latest
  /// epoch boundary, and a slow disk can never back-pressure the readers.
  std::optional<core::CheckpointState> ckpt_pending_ GUARDED_BY(ckpt_mutex_);
  bool ckpt_stop_ GUARDED_BY(ckpt_mutex_) = false;
  std::thread ckpt_writer_;
  /// epochs_completed() at the last capture, so one capture is taken per
  /// completed epoch, not per message.
  std::uint64_t last_checkpoint_epochs_ GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> checkpoint_writes_{0};
  std::atomic<std::uint64_t> checkpoint_failures_{0};
  std::atomic<std::uint64_t> reattach_count_{0};
  /// Recovery outcome; written only in the constructor (single-threaded),
  /// immutable afterwards.
  bool recovered_ = false;
  common::Epoch recovered_epoch_ = 0;
  std::uint64_t recovery_cold_starts_ = 0;
  /// SchedulerHello handshakes accepted during registration, completed in
  /// start(). Confined to the single-threaded pre-start phase.
  std::vector<std::uint8_t> pending_reattach_;
};

}  // namespace posg::runtime
