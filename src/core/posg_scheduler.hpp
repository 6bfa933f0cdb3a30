#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/greedy_index.hpp"
#include "core/instance_health.hpp"
#include "core/instance_pool.hpp"
#include "core/scheduler.hpp"
#include "hash/two_universal.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_ring.hpp"

namespace posg::core {

/// Thrown by PosgScheduler::schedule when quarantine has emptied the
/// candidate set (live_instances() == 0). A typed error rather than an
/// assertion: an empty cluster is an operational condition — the runtime
/// surfaces it (or waits for a rejoin) — not a programming bug.
/// Carries ErrorCode::kNoLiveInstance (see common/error.hpp).
class NoLiveInstanceError : public ::posg::Error {
 public:
  explicit NoLiveInstanceError(const std::string& message)
      : ::posg::Error(ErrorCode::kNoLiveInstance, message) {}
};

/// The scheduler side of POSG (Fig. 3, Listing III.2).
///
/// Four-state machine:
///
///   ROUND_ROBIN ──(F,W received from every instance)──► SEND_ALL
///   SEND_ALL    ──(markers piggy-backed to all k)─────► WAIT_ALL
///   WAIT_ALL    ──(all Δop replies for this epoch)────► RUN
///   any state except ROUND_ROBIN ──(new F,W arrive)───► SEND_ALL
///
/// ROUND_ROBIN: no cost information yet; schedule i mod k.
/// SEND_ALL: keep round-robin for the next k tuples, piggy-backing on
///   each a SyncRequest carrying Ĉ[op] (marker; see messages.hpp), and
///   start accumulating Ĉ with estimated execution times.
/// WAIT_ALL / RUN: Greedy Online Scheduler — assign to
///   argmin_op Ĉ[op], then Ĉ[op] += ŵ_t (Listing III.2's SUBMIT +
///   UPDATE-Ĉ).
///
/// Synchronization (Fig. 3.E): when every instance replied for the current
/// epoch, Ĉ[op] += Δop cancels the accumulated estimation drift without
/// touching the estimates of tuples scheduled after the markers.
///
/// Failure tolerance (extension; DESIGN.md "Fault model and degradation
/// ladder"): the paper assumes every instance eventually ships sketches
/// and answers every marker, which turns a single crash into a permanent
/// WAIT_ALL deadlock. `mark_failed(op)` quarantines a dead instance: it
/// leaves the candidate set for good, its Ĉ share is redistributed over
/// the k' survivors, its outstanding marker/reply is abandoned (so an
/// in-flight epoch completes on the survivors' replies alone), and its
/// sketch is dropped from billing. If quarantine ever leaves no live
/// sketch-bearing instance, the scheduler degrades back to ROUND_ROBIN
/// over the survivors. Failure *detection* is the runtime's job
/// (runtime/scheduler_runtime.hpp): EOF or an epoch deadline on a
/// connection is what triggers the call.
class PosgScheduler final : public Scheduler {
 public:
  enum class State { kRoundRobin, kSendAll, kWaitAll, kRun };

  /// Single-source construction: membership authority lives in a private
  /// InstancePool this scheduler creates for itself, so the ownership
  /// split costs S = 1 deployments nothing (and the golden scheduling
  /// streams stay byte-identical).
  PosgScheduler(std::size_t instances, const PosgConfig& config);

  /// Multi-source construction (DESIGN.md §15): this scheduler is source
  /// `source`'s *view* over the shared `pool`. Membership transitions it
  /// initiates are published to the pool; transitions peers initiate are
  /// adopted lazily (one relaxed version check per scheduling decision).
  /// Ĉ, the sync epochs, ramps and the straggler monitor stay per-view.
  /// The pool must cover the same instance count and outlives nothing —
  /// shared ownership keeps it alive.
  /// `private_pool` selects the checkpoint-restore membership handoff:
  /// true means this view is the pool's only writer (restore republishes
  /// the image's membership into it — the S = 1 semantics); false means
  /// the pool outlived any crash and is the authority (restore reconciles
  /// the view toward the pool's current flags). Pass true only when the
  /// pool was created for this view alone.
  PosgScheduler(std::shared_ptr<InstancePool> pool, const PosgConfig& config,
                common::SourceId source, bool private_pool = false);

  Decision schedule(common::Item item, common::SeqNo seq) override;

  /// Consumes the two messages POSG is fed: stable (F, W) shipments,
  /// whose sketch is moved into the billing slot rather than copied, and
  /// Δ replies. Execution feedback and load reports are ignored. Throws
  /// std::invalid_argument on an unknown instance, a shipment in another
  /// sketch layout, or a non-finite Δ.
  void on_feedback(FeedbackEvent&& event) override;
  std::size_t instances() const override { return k_; }
  std::string name() const override { return "posg"; }

  State state() const noexcept { return state_; }
  common::Epoch epoch() const noexcept { return epoch_; }

  /// Quarantines instance `op`: removes it from every candidate set,
  /// redistributes its Ĉ share over the survivors, abandons its pending
  /// marker/reply so the current epoch can complete, and drops its sketch
  /// from billing. Idempotent. Throws std::invalid_argument when `op` is
  /// out of range. Quarantining the *last* live instance is a defined
  /// (tested) state: the scheduler drops to ROUND_ROBIN with an empty
  /// candidate set, schedule() throws NoLiveInstanceError until a
  /// rejoin() repopulates the cluster, and its Ĉ share is discarded
  /// (there is no survivor to carry it).
  void mark_failed(common::InstanceId op);

  /// Re-admits a quarantined instance (the rejoin handshake's core step;
  /// the wire side lives in runtime/scheduler_runtime.hpp). The rejoiner
  /// comes back with: Ĉ seeded from the minimum over the other live
  /// instances (so it is competitive but not a magnet for every tuple),
  /// no sketch until its tracker ships a fresh (F, W) pair, exclusion
  /// from any in-flight epoch (its abandoned marker is not resurrected; a
  /// late Δ from before the quarantine hits the stale/duplicate path and
  /// cannot corrupt Ĉ), and a token-bucket admission ramp (kRampTuples
  /// and its rates below) that throttles its greedy wins until it has
  /// warmed up. Throws std::invalid_argument when `op` is out of range or
  /// not quarantined.
  void rejoin(common::InstanceId op);
  std::uint64_t rejoin_count() const noexcept { return rejoin_count_; }

  // --- crash recovery (core/checkpoint.hpp; DESIGN.md §14) ---

  /// Captures the scheduler's primary control state for checkpointing:
  /// everything the Δ-synchronization protocol cannot reconstruct from
  /// instance feedback (Ĉ, the four-state machine, epoch bookkeeping,
  /// quarantine/drain/ramp sets, the health FSM, the shipped sketches).
  /// Derived caches (merged view, global mean, greedy index, live/serving
  /// counters) are deliberately excluded — restore() recomputes them.
  CheckpointState checkpoint_state() const;

  /// The scheduler's invariants, stated once, over a checkpoint image: it
  /// fits this scheduler (k, source, table sizes, sketch layouts), every
  /// value lies in its domain, quarantine and drain exclusivity hold, and
  /// the marker, reply and sketch bookkeeping matches its Fig. 3 state.
  /// Returns the first broken one, or nullptr; it allocates nothing.
  const char* invariant_violation(const CheckpointState& state) const noexcept;

  /// Restores a checkpoint_state() image. Checkpoints are untrusted input
  /// (a CRC only catches accidental corruption), so restore throws
  /// std::invalid_argument with invariant_violation()'s message before a
  /// single member is touched; a rejected image leaves the scheduler
  /// exactly as constructed, ready for a cold start. On success the
  /// derived caches are rebuilt and the restored scheduler is
  /// indistinguishable from one that never crashed (the round-trip
  /// checkpoint tests pin byte-equality).
  void restore(const CheckpointState& state);

  /// Re-attaches live instance `op` after a scheduler crash-restart (the
  /// SchedulerHello/ReattachAck handshake's core step; the wire side is
  /// runtime/scheduler_runtime.hpp). The restored epoch may have been cut
  /// mid-flight: op's unsent marker is cleared, its reply slot
  /// pre-satisfied, and its marker estimate disarmed so any Δ the
  /// instance computed against a pre-crash baseline lands on the
  /// stale-reply path instead of folding into Ĉ — the same isolation
  /// rejoin() applies, which is what makes double billing across the
  /// crash impossible. Returns the seeded cut Ĉ[op] the ReattachAck
  /// carries (the instance rearms its tracker to it). Throws
  /// std::invalid_argument when `op` is out of range or quarantined
  /// (a quarantined slot re-attaches via rejoin()).
  common::TimeMs reattach(common::InstanceId op);

  /// Opens a lossless drain of instance `op` (elasticity; DESIGN.md §11).
  /// The instance leaves the greedy argmin and the round-robin rotation at
  /// once — no further tuple is routed to it — but stays in the cluster
  /// while its FIFO queue runs dry. Returns the drain *cut*: Ĉ[op] at this
  /// moment, which the runtime ships in the DrainRequest so the instance
  /// can answer with Δ = C_real − cut. Any in-flight epoch completes
  /// without the drainee (its reply slot is pre-satisfied; a late genuine
  /// Δ is counted stale), and later epochs skip it entirely. Ĉ[op] is
  /// frozen until retire() bills the final Δ. Throws std::invalid_argument
  /// when `op` is out of range, quarantined, already draining, or the last
  /// serving instance (draining it would stall the stream). If failures
  /// later leave only draining survivors, their drains are *cancelled* —
  /// liveness beats planned elasticity (see drain_cancel_count).
  common::TimeMs begin_drain(common::InstanceId op);

  /// Completes the drain: folds the final Δop (C_real − cut, reported by
  /// the instance's DrainComplete once its queue ran dry) into Ĉ[op] —
  /// making it exactly the work the instance truly executed, billed once —
  /// then removes the instance like a quarantine *except* that its Ĉ is
  /// discarded, not redistributed: unlike a crash, the drained work really
  /// ran to completion, and handing it to the survivors would double-bill
  /// every drained tuple. Returns the final billed Ĉ (the conservation
  /// tests pin it against the instance's measured cumulated time). The
  /// retired slot may rejoin() later — that is exactly how a scale-up
  /// revives it. Throws std::invalid_argument unless `op` is draining
  /// and `final_delta` is finite.
  common::TimeMs retire(common::InstanceId op, common::TimeMs final_delta);

  bool is_draining(common::InstanceId op) const;
  /// Instances receiving new tuples: live and not draining.
  std::size_t serving_instances() const noexcept { return serving_count_; }
  std::uint64_t drain_begin_count() const noexcept { return drains_begun_; }
  std::uint64_t retire_count() const noexcept { return retires_; }
  /// Drains abandoned instead of completed: the drainee died mid-drain, or
  /// every serving instance failed and the draining survivors were pressed
  /// back into service.
  std::uint64_t drain_cancel_count() const noexcept { return drain_cancels_; }

  /// The rejoin admission ramp (extension). A rejoiner's Ĉ is seeded
  /// from the live minimum, which still leaves it the greedy favourite
  /// until it accumulates billing; the ramp caps how fast tuples may flow
  /// to it so it warms up (fresh sketches, caches, JITs in a real
  /// deployment) without a thundering herd. Every scheduled tuple grants
  /// each ramping instance kRampTokensPerTuple tokens, up to kRampBurst; a
  /// greedy win costs the rejoiner one token, and a win it cannot pay
  /// goes to the best non-ramping instance instead. After kRampTuples
  /// admitted tuples full rotation resumes. All quantities are tuple
  /// counts, so the ramp is deterministic.
  static constexpr std::uint64_t kRampTuples = 256;
  static constexpr double kRampTokensPerTuple = 0.25;  ///< ≈ one greedy win in four
  static constexpr double kRampBurst = 4.0;

  /// Tuples still to be admitted under `op`'s rejoin ramp (0 = not
  /// ramping).
  std::uint64_t ramp_remaining(common::InstanceId op) const;

  /// Straggler state machine fed by epoch drift measurements (see
  /// core/instance_health.hpp). Degraded instances are billed at
  /// health().derate(op) times their estimate, steering the greedy away
  /// from them in proportion to their measured slowdown.
  HealthMonitor& health() noexcept { return health_; }
  const HealthMonitor& health() const noexcept { return health_; }

  /// Billing multiplier currently applied to `op`'s estimates. Driven by
  /// the health monitor at epoch boundaries; settable directly for tests
  /// and benchmarks. Must be >= 1 and finite.
  void set_derate(common::InstanceId op, double factor);
  double derate(common::InstanceId op) const;

  bool is_failed(common::InstanceId op) const;
  /// k' — number of instances still in the candidate set.
  std::size_t live_instances() const noexcept { return live_count_; }
  /// Quarantined instances in increasing id order.
  std::vector<common::InstanceId> failed_instances() const;
  /// Synchronization replies discarded because they carried a stale epoch
  /// (or arrived outside an active epoch) — late/duplicate deliveries a
  /// distributed transport produces; they must never fold into the current
  /// epoch's bookkeeping.
  std::uint64_t stale_reply_count() const noexcept { return stale_replies_; }
  /// Live instances whose SyncReply for the current epoch is still
  /// outstanding (empty outside SEND_ALL/WAIT_ALL).
  std::vector<common::InstanceId> pending_replies() const;
  /// Whether `op` is in pending_replies(), without building the list: the
  /// runtime's epoch deadline asks on every route() while an epoch is open.
  bool reply_pending(common::InstanceId op) const noexcept {
    return (state_ == State::kSendAll || state_ == State::kWaitAll) && !failed_[op] &&
           !reply_received_[op];
  }

  /// Extension (the paper's stated future work, Sec. VII): make the
  /// greedy pick latency-aware. `hints[op]` is the one-way data-path
  /// latency toward instance op; the greedy then minimizes
  /// Ĉ[op] + hints[op] — the estimated completion of the tuple being
  /// placed — instead of Ĉ[op] alone. Pass an empty vector to disable.
  /// Hints must be finite and non-negative.
  void set_latency_hints(std::vector<common::TimeMs> hints);
  const std::vector<common::TimeMs>& latency_hints() const noexcept { return latency_hints_; }

  // --- multi-source tier (core/instance_pool.hpp; DESIGN.md §15) ---

  /// The shared membership pool behind this view.
  const std::shared_ptr<InstancePool>& pool() const noexcept { return pool_; }

  /// Adopts every pool transition this view has not applied yet, in log
  /// order (peer quarantines/rejoins/drains/retires). Called automatically
  /// at each scheduling decision behind a relaxed version check, and by
  /// this view's own membership ops right after they publish; exposed so
  /// coordinators can reconcile views at a deterministic point (and tests
  /// can pin the resulting membership). Returns the number of peer events
  /// applied by this call.
  std::size_t sync_with_pool() { return adopt_pool_events(0); }

  /// Peer-initiated membership events this view has adopted so far.
  std::uint64_t pool_events_applied() const noexcept { return pool_events_applied_; }

  /// Pool membership events published but not yet replayed by this view
  /// (0 = fully reconciled; the view catches up on its next decision).
  std::uint64_t pool_lag() const noexcept { return pool_raw_->version() - pool_cursor_; }

  /// Multi-source policy (DESIGN.md §15): per-instance bias added to the
  /// greedy objective, carrying the *other* sources' billed load
  /// Σ_{s' ≠ s} Ĉ_{s'}[op] (core::sibling_loads) so this view's argmin
  /// approximates the cluster-wide least-loaded choice. An empty vector
  /// disables the term — the paper's S = 1 behaviour, whose scheduling
  /// stream is byte-identical (x + 0.0 preserves every non-negative score
  /// bit-for-bit). Entries must be finite and non-negative; the greedy
  /// argmin is re-scored on install. Copies into storage the view keeps,
  /// so installing before every decision allocates nothing.
  void set_external_loads(const std::vector<common::TimeMs>& loads);

  /// Ĉ — estimated cumulated execution time per instance.
  const std::vector<common::TimeMs>& estimated_loads() const noexcept { return c_est_; }

  /// Ceiling of Ĉ (10^15 ms, ~31 700 years of work, far above any real
  /// instance's load), shared by both writers of Ĉ: the epoch fold clamps
  /// Ĉ[op] + Δ to [0, this], and the bill, which only raises Ĉ, raises it
  /// no further than this. Δ and the shipped sketches behind every ŵ
  /// source (merged W/F, the merged heavy-hitter table, the global mean)
  /// come off the wire and are only required to be finite. Unbounded, a Δ
  /// or a W cell of DBL_MAX left Ĉ near DBL_MAX, and the next sum over Ĉ
  /// (the next fold or bill, a quarantine's redistribution, the sibling
  /// sum over sources, a greedy score) overflowed to +∞. Bounded, such
  /// sums stay finite for any k·S below 10^293. An instance the fold holds
  /// at the ceiling carries the highest Ĉ, so the greedy argmin passes it
  /// over, as it would at DBL_MAX.
  static constexpr common::TimeMs kMaxFoldedLoad = 1e15;

  /// Estimated execution time the scheduler would use for `item` right
  /// now (nullopt while in ROUND_ROBIN or for a never-seen item with an
  /// empty fallback). Exposed for tests and diagnostics.
  std::optional<common::TimeMs> estimate(common::Item item) const;

  const PosgConfig& config() const noexcept { return config_; }

  // --- observability (src/obs/; all optional, nothing bound by default) ---

  /// Binds a trace sink: ScheduleDecision / EpochAdvance / SketchShip /
  /// SyncDelta / Rejoin events flow into `trace` (HealthTransition events
  /// are forwarded to the health monitor's hook). Events are staged in a
  /// Writer owned by this scheduler and flushed at epoch boundaries —
  /// call flush_trace() before reading the ring mid-epoch. The ring is
  /// not owned and must outlive the scheduler (or be unbound first).
  /// Per-tuple cost with the ring disarmed: one relaxed load + branch.
  /// Pass nullptr to unbind. The scheduler is externally synchronized
  /// (see SchedulerRuntime's locking discipline), so the Writer needs no
  /// lock of its own.
  void bind_trace(obs::TraceRing* trace);

  /// Publishes any staged trace events to the bound ring. No-op when
  /// nothing is bound.
  void flush_trace();

  /// Registers the scheduler's metric family (prefix + ".scheduler.*" and
  /// ".health.*", one ".health.derate.<op>" gauge per instance) as pull
  /// callbacks on `registry`. Each callback takes `owner_mutex`, the lock
  /// a multi-threaded owner holds around every scheduler call
  /// (SchedulerRuntime's mutex_), so any thread may snapshot; nullptr
  /// serves a single-threaded owner. The callbacks borrow the scheduler:
  /// snapshot the registry only while it lives.
  void register_metrics(obs::MetricsRegistry& registry, const std::string& prefix = "posg",
                        Mutex* owner_mutex = nullptr);

  /// Tuples scheduled (every successful schedule() call).
  std::uint64_t decisions() const noexcept { return decisions_; }
  /// Epochs whose synchronization completed (WAIT_ALL → RUN edges).
  std::uint64_t epochs_completed() const noexcept { return epochs_completed_; }

  /// Aborts via POSG_CHECK when checkpoint_state() breaks an invariant
  /// (invariant_violation) or a derived cache an image does not carry
  /// disagrees with it: the live/serving/marker/ramp counters, the greedy
  /// index against the reference scan (never a quarantined or draining
  /// pick), the shipped-op and cell caches, the merged sketch and the
  /// global mean. Called from tests unconditionally and at every epoch
  /// boundary under POSG_DCHECK_IS_ON.
  void debug_validate() const;

  /// Test-only backdoor (tests/check_test.cpp) that corrupts private state
  /// to drive debug_validate's abort paths; production code must never
  /// define or use it.
  struct TestCorruptor;

 private:
  friend struct TestCorruptor;
  /// ŵ for scheduling purposes: sketch estimate, falling back to the
  /// shipped sketch's mean execution time for never-seen items.
  common::TimeMs scheduling_estimate(common::InstanceId instance, common::Item item) const;
  /// Digest form: `digest` is the item's one-pass hash digest under the
  /// configured (seed, dims) — valid for every shipped sketch, because
  /// ingest_shipment rejects any other layout. schedule() computes it once
  /// per tuple.
  common::TimeMs scheduling_estimate(common::InstanceId instance, common::Item item,
                                     const hash::BucketDigest& digest) const;

  /// Cached argmin_op Ĉ[op] + latency_hints_[op] (see core/greedy_index.hpp);
  /// O(1), maintained incrementally by every Ĉ mutation.
  common::InstanceId greedy_pick() const noexcept;
  /// Reference linear scan of the same argmin, kept for debug_validate's
  /// cross-check against the incremental index.
  common::InstanceId greedy_pick_reference() const noexcept;
  /// Instance op's greedy objective: Ĉ[op] + latency hint + sibling
  /// external load (each term 0.0 when its feature is off — the additions
  /// are bit-exact no-ops for the non-negative scores involved, which is
  /// what keeps the golden streams byte-identical with both disabled).
  double greedy_score(common::InstanceId op) const noexcept {
    return c_est_[op] + (latency_hints_.empty() ? 0.0 : latency_hints_[op]) +
           (external_load_.empty() ? 0.0 : external_load_[op]);
  }
  /// Re-derives the incremental argmin from scratch after a global score
  /// change (epoch correction, quarantine, new latency hints).
  void rebuild_greedy();
  common::InstanceId next_round_robin() noexcept;
  void enter_send_all() noexcept;
  /// Shared tail of quarantine_local and retire_local: removes `op` (leaves
  /// the candidate set, drops its sketch, abandons its marker, re-derives
  /// the argmin, walks the degradation ladder). `redistribute` picks the Ĉ
  /// semantics: a crash hands its share to the serving survivors (the work
  /// must be redone somewhere); a retirement discards it (the work is
  /// done).
  void remove_instance(common::InstanceId op, bool redistribute);
  /// Takes `op` out of any in-flight epoch: clears its unsent marker (the
  /// last one moves SEND_ALL to WAIT_ALL), pre-satisfies a live instance's
  /// reply slot with a zero Δ, and disarms its marker estimate so a late
  /// genuine reply counts stale. Drain, reattach and removal share it.
  void leave_epoch(common::InstanceId op) noexcept;
  /// Cancels `op`'s rejoin admission ramp.
  void retire_ramp(common::InstanceId op);
  /// Degradation ladder, bottom rung: no billed sketch is left, so abandon
  /// the epoch's markers and schedule round-robin until sketches arrive.
  void fall_back_to_round_robin() noexcept;
  /// Rebuilds the billing view after any sketches_ slot changed: the
  /// shipped-op index and cell pointers, the global mean, and the merged
  /// heavy-hitter ledger.
  void refresh_global_mean() noexcept;
  /// Stores a stable (F, W) shipment after layout validation (a
  /// quarantined or draining sender's frame is dropped), then refreshes
  /// the billing view, traces, and drives the state machine (Fig. 3.A/B/F).
  void ingest_shipment(SketchShipment&& shipment);
  /// Records a Δ reply for the current epoch (stale and duplicate replies
  /// are counted and dropped) and completes the epoch when it was the last.
  void ingest_reply(const SyncReply& reply);
  /// Merged-view estimate without a materialized merged sketch:
  /// sketch::estimate_cells over shipped_cells_, so each per-row (f, w)
  /// pair is bit-identical to the cell a materialized merge (build_merged)
  /// would hold.
  std::optional<common::TimeMs> merged_estimate(const hash::BucketDigest& digest) const noexcept;
  /// True when at least one instance bills a sketch.
  bool has_billed_sketch() const noexcept { return !shipped_ops_.empty(); }
  /// Materializes the merged sketch for debug_validate.
  std::optional<sketch::DualSketch> build_merged() const;
  /// Live, serving, marker-owing, ramping and sketch-shipping instances
  /// counted from the per-instance sets: restore() sets its counters from
  /// it, debug_validate() checks the counters and caches against it.
  struct SetCounts {
    std::size_t live = 0;
    std::size_t serving = 0;
    std::size_t markers = 0;
    std::size_t ramping = 0;
    std::size_t shipped = 0;
  };
  SetCounts count_sets() const noexcept;
  void maybe_complete_epoch() noexcept;
  bool all_live_shipped() const noexcept;
  /// Bills `item` to `target` (estimate × de-rate factor) and nudges the
  /// incremental argmin — the one UPDATE-Ĉ path every scheduling state
  /// shares.
  void bill(common::InstanceId target, common::Item item);
  /// Applies the rejoin admission ramp to a greedy pick: a ramping
  /// instance needs a token to win; without one the pick falls through to
  /// the best non-ramping live instance.
  common::InstanceId ramp_admit(common::InstanceId pick);

  // --- pool replication (the membership-ownership split) ---
  /// One-load staleness gate: adopts pending pool events iff the pool
  /// version moved past this view's cursor. The steady-state cost of the
  /// multi-source tier on the per-tuple path.
  void sync_pool_if_stale() {
    if (pool_cursor_ != pool_raw_->version()) {
      sync_with_pool();
    }
  }
  /// Applies every pool event past the cursor, in log order. `own_seq`
  /// names the event this view just published (0 = none): it is adopted
  /// like any other but not counted as a peer event, and when it is a
  /// retirement it folds `final_delta` — the one value the log cannot
  /// carry (a peer's retirement folds zero). Returns the number of peer
  /// events that changed this view.
  std::size_t adopt_pool_events(std::uint64_t own_seq, common::TimeMs final_delta = 0.0);
  /// Applies one pool transition to this view's replica, guarded for
  /// idempotence (a restore may already have reconciled the transition an
  /// event records). Returns true when the event changed local state.
  bool apply_pool_event(const MemberEvent& event, common::TimeMs final_delta);
  // Local bodies of the membership transitions (Ĉ redistribution /
  // seeding, epoch abandonment, ramps, the degradation ladder). The public
  // methods validate and publish to the pool; every view, the publisher
  // included, applies them through apply_pool_event (restore's
  // reconciliation is the only other caller).
  void quarantine_local(common::InstanceId op);
  void rejoin_local(common::InstanceId op);
  void begin_drain_local(common::InstanceId op);
  void retire_local(common::InstanceId op, common::TimeMs final_delta);
  /// Peer's drain was cancelled upstream (pool says serving, view says
  /// draining after a checkpoint restore): press the instance back into
  /// this view's rotation.
  void cancel_drain_local(common::InstanceId op);

  std::size_t k_;
  PosgConfig config_;
  /// Membership authority (never null): private for single-source
  /// construction, shared across views in the multi-source tier. The raw
  /// pointer is the hot-path alias (one indirection fewer per decision).
  std::shared_ptr<InstancePool> pool_;
  InstancePool* pool_raw_ = nullptr;
  /// Newest pool event seq this view has applied.
  std::uint64_t pool_cursor_ = 0;
  /// True when pool_ was created by this scheduler (no peer views): the
  /// checkpoint-restore path then republishes the image's membership into
  /// the pool instead of reconciling toward it.
  bool pool_private_ = true;
  common::SourceId source_id_ = 0;
  std::uint64_t pool_events_applied_ = 0;
  /// Scratch for adopt_pool_events so reconciliation does not allocate.
  std::vector<MemberEvent> pool_events_scratch_;
  /// Siblings' Ĉ per instance (empty = a single source).
  std::vector<common::TimeMs> external_load_;
  /// The configured (seed, dims) hash set — identical to the one inside
  /// every shipped sketch (ingest_shipment enforces the layout), so schedule()
  /// can digest each tuple once, up front, for all sketch reads.
  hash::HashSet hashes_;
  State state_ = State::kRoundRobin;
  std::size_t rr_next_ = 0;
  common::Epoch epoch_ = 0;

  /// Latest stable sketch shipped by each instance (empty until first
  /// shipment).
  std::vector<std::optional<sketch::DualSketch>> sketches_;
  /// Ascending ids of instances whose sketches_ slot holds a sketch —
  /// the summation order of the merged view, which is never materialized:
  /// merged_estimate sums it per estimate. Rebuilt by refresh_global_mean
  /// alongside global_mean_.
  std::vector<common::InstanceId> shipped_ops_;
  /// shipped_ops_'s sketches as raw fused-cell pointers, in the same
  /// order — the per-decision merged_estimate sum reads these directly
  /// instead of chasing optional → vector → data on every (row, op) pair.
  /// Invalidated by any sketches_ slot mutation; every such site calls
  /// refresh_global_mean, which rebuilds both vectors together.
  std::vector<const sketch::FWCell*> shipped_cells_;
  /// Heavy-hitter configs only: the shipped sketches' Space-Saving tables
  /// merged in shipped_ops_ order, probed ahead of merged_estimate so heavy
  /// items bill from exact samples. Rebuilt with shipped_cells_.
  std::optional<sketch::SpaceSaving> merged_heavy_;
  /// Ĉ (Listing III.2).
  std::vector<common::TimeMs> c_est_;
  /// Mean execution time across all shipped sketches — the
  /// instance-independent fallback for never-seen items.
  common::TimeMs global_mean_ = 0.0;
  /// Optional per-instance latency bias for the greedy pick (empty =
  /// latency-oblivious, the paper's behaviour).
  std::vector<common::TimeMs> latency_hints_;
  /// SEND_ALL bookkeeping: which instances still need a marker this epoch.
  std::vector<bool> marker_pending_;
  std::size_t markers_outstanding_ = 0;
  /// Reply bookkeeping for the current epoch. Replies may legitimately
  /// arrive while later markers are still unsent (low-latency paths), so
  /// they are accepted in both SEND_ALL and WAIT_ALL.
  std::vector<bool> reply_received_;
  std::vector<common::TimeMs> reply_delta_;
  /// Quarantine bookkeeping (mark_failed).
  std::vector<bool> failed_;
  std::size_t live_count_;
  std::uint64_t stale_replies_ = 0;
  /// Lossless-drain bookkeeping (begin_drain / retire): a draining
  /// instance is live but out of rotation; serving_count_ counts live
  /// minus draining — the set the greedy index and the round-robin walk.
  std::vector<bool> draining_;
  std::size_t serving_count_;
  std::uint64_t drains_begun_ = 0;
  std::uint64_t retires_ = 0;
  std::uint64_t drain_cancels_ = 0;
  /// Graceful degradation (extension): straggler state machine, billing
  /// multipliers (1.0 = healthy; > 1 while Degraded), and the Ĉ value at
  /// each instance's marker emission (−1 when no marker went out this
  /// epoch) from which epoch drift ratios are measured.
  HealthMonitor health_;
  std::vector<double> derate_;
  std::vector<common::TimeMs> marker_estimate_;
  /// Rejoin admission ramp (token bucket, tuple-count driven): tokens per
  /// instance, tuples left to admit (0 = not ramping), and how many ramps
  /// are active (the fast-path gate: 0 keeps schedule() on the pre-rejoin
  /// code path).
  std::vector<double> ramp_tokens_;
  std::vector<std::uint64_t> ramp_left_;
  std::size_t ramps_active_ = 0;
  std::uint64_t rejoin_count_ = 0;
  /// Observability (all optional): staged trace writer over a borrowed
  /// ring, profiling sinks, and the plain tallies the pull-mode metrics
  /// read. Plain (non-atomic) members — the scheduler is externally
  /// synchronized. unique_ptr because Writer pins its ring by reference
  /// (not movable) while the scheduler itself must stay movable.
  std::unique_ptr<obs::TraceRing::Writer> trace_writer_;
  std::uint64_t decisions_ = 0;
  std::uint64_t epochs_completed_ = 0;
  /// Incremental greedy argmin over greedy_score(); rebuilt on global
  /// events, nudged by increase() on the per-tuple billing path.
  GreedyIndex greedy_;
  /// Scratch for rebuild_greedy() so epoch boundaries do not allocate.
  std::vector<double> greedy_scores_scratch_;
  std::vector<bool> greedy_alive_scratch_;
};

}  // namespace posg::core
