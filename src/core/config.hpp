#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"
#include "sketch/dual_sketch.hpp"

/// The configuration structs, one per component. Each is checked once, by
/// the constructor that reads it: an out-of-domain field throws
/// std::invalid_argument whose message names that field.
namespace posg::core {

/// All tunables of POSG, with the paper's defaults (Sec. V-A).
///
/// The sketch seed must be identical on the scheduler and every operator
/// instance — the protocol ships only counter matrices, never hash
/// functions, so all parties derive the same hashes from configuration.
struct PosgConfig {
  /// Count-Min precision; c = round(e/epsilon) columns.
  ///
  /// The paper states 0.05 (54 columns); this repository defaults to the
  /// calibrated 0.005 (544 columns). See DESIGN.md §5 "Calibration":
  /// under our reading of the stability rule, the published (0.05, 1024)
  /// pair does not show the published gains — the estimation noise of a
  /// 54-column sketch over a 4096-item universe drifts Ĉ faster than the
  /// shipment-coupled synchronization can correct. The ablation benches
  /// sweep both knobs.
  double epsilon = 0.005;
  /// Count-Min failure probability; r = ceil(log2(1/delta)) rows.
  /// Paper: 0.1 (4 rows).
  double delta = 0.1;
  /// Operator window size N: tuples executed between stability checks.
  /// Paper: 1024; repository default calibrated to 256 (see epsilon note:
  /// smaller windows ship stable sketches — and therefore resynchronize
  /// Ĉ — often enough to bound drift).
  std::size_t window = 256;
  /// Stability tolerance µ on the snapshot relative error (Eq. 1).
  /// Paper: 0.05. Finite and > 0.
  double mu = 0.05;
  /// Liveness cap (extension, not in the paper): ship the matrices after
  /// at most this many windows even when η never drops below µ. On
  /// workloads whose item universe dwarfs the sketch (e.g. the tweet
  /// dataset, n = 35 000), per-cell ratios churn indefinitely and Eq. 1
  /// alone would keep the scheduler in ROUND_ROBIN forever; a real system
  /// must bound the feedback delay. 0 disables the cap (strict paper
  /// behaviour).
  std::size_t max_windows_per_epoch = 8;
  /// Seed from which all (F, W) hash functions are derived.
  std::uint64_t sketch_seed = 0xC0FFEEULL;
  /// How W/F cells become per-tuple estimates (Listing III.2 by default).
  sketch::EstimatorVariant estimator = sketch::EstimatorVariant::kArgMinFrequency;
  /// Hybrid estimator (extension): when > 0, every (F, W) pair carries a
  /// Space-Saving table of this many exactly-tracked heavy items; the
  /// estimator answers heavy items from exact samples and only the tail
  /// from the sketch. Makes coarse sketches (the paper's ε = 0.05) usable
  /// on skewed streams — see bench/extension_hybrid.
  std::size_t heavy_hitter_capacity = 0;
  /// Conservative Count-Min updates (extension, Estan & Varghese): F
  /// raises only the minimum cells and W mirrors them, shrinking collision
  /// inflation. See bench/ablation_estimator_sync.
  bool conservative_update = false;
  /// Billing source for Ĉ updates (extension; see posg_scheduler.hpp).
  /// When true the scheduler bills every tuple from the *merged* sketch
  /// (sum over instances — Count-Min is linear), which makes estimates
  /// instance-independent and k times better sampled; when false it uses
  /// the paper's per-instance matrices (Listing III.2). Per-instance
  /// billing can exploit genuinely non-uniform instances but suffers
  /// differential estimation bias on workloads whose universe dwarfs the
  /// per-epoch sample.
  bool shared_billing = true;
  /// Ablation switch: when false, the scheduler skips the marker/Δ
  /// synchronization protocol and jumps straight from ROUND_ROBIN to RUN
  /// once all sketches arrived (estimation drift is never corrected).
  bool sync_enabled = true;

  sketch::SketchDims dims() const { return sketch::SketchDims::from_accuracy(epsilon, delta); }
};

}  // namespace posg::core

namespace posg {

/// Configuration of the multi-threaded Engine (src/engine/engine.hpp).
struct EngineConfig {
  /// Capacity of each executor's input queue; producers block when full
  /// (backpressure).
  std::size_t queue_capacity = std::size_t{1} << 16U;
};

/// Configuration of the scheduler-side distributed runtime
/// (src/runtime/scheduler_runtime.hpp).
struct SchedulerRuntimeConfig {
  std::size_t instances = 3;
  core::PosgConfig posg;

  /// Reader poll tick: bounds how fast a reader notices shutdown. > 0.
  std::chrono::milliseconds recv_deadline{100};

  /// Synchronization liveness bound: while an epoch is in flight
  /// (SEND_ALL / WAIT_ALL), an instance that still owes the current
  /// epoch's reply *and* has produced no feedback at all (no shipment, no
  /// reply) for this long is quarantined. A single lost reply self-heals
  /// — the next shipment from that instance opens a fresh epoch (Fig.
  /// 3.F) — so this only fires for peers that went feedback-mute, the one
  /// failure mode EOF detection cannot see. A value <= 0 disables the
  /// deadline.
  std::chrono::milliseconds epoch_deadline{2000};

  /// Wait budget for each connection, and then for its Hello, during
  /// registration. > 0.
  std::chrono::milliseconds hello_deadline{2000};

  /// Registration attempts allowed before giving up (0 = 2k + 8): each
  /// connection, and each hello_deadline that passes with none, is one.
  std::size_t max_registration_attempts = 0;

  /// Overload-resilient mode: quarantining the *last* live instance stops
  /// being fatal (route() then throws core::NoLiveInstanceError until a
  /// peer rejoins), and enable_rejoin() may re-admit quarantined
  /// instances over the Hello path.
  bool allow_rejoin = false;

  /// Arm the runtime's trace ring (src/obs/) from the first tuple. Off by
  /// default: the per-tuple cost of a disarmed ring is one relaxed load
  /// and a branch. Metrics-registry instruments are always registered.
  bool tracing = false;

  /// Crash-recovery checkpoint file (core/checkpoint.hpp; DESIGN.md §14).
  /// Empty (the default) disables checkpointing entirely — no writer
  /// thread is spawned and the epoch path stays untouched. When set, the
  /// runtime captures the scheduler's control state at every completed
  /// epoch (WAIT_ALL → RUN edge) and a background writer replaces this
  /// file atomically.
  std::string checkpoint_path;

  /// Attempt to restore from `checkpoint_path` at construction. A
  /// missing, torn, corrupt, or invariant-violating checkpoint degrades
  /// to a cold start (counted in posg.runtime.recovery_cold_starts), never
  /// a crash. Registration then accepts SchedulerHello re-attaches from
  /// instances that outlived the previous scheduler process. Without a
  /// checkpoint_path there is nothing to restore: the runtime starts cold.
  bool recover = false;

  /// This runtime's source id in a multi-source deployment (DESIGN.md
  /// §15): stamped into every frame it sends, into its checkpoints
  /// (restore rejects another source's image), and into its metrics
  /// prefix ("posg.s<id>" when non-zero, plain "posg" for source 0 so
  /// single-source dashboards keep working).
  common::SourceId source_id = 0;
};

/// Configuration of one operator-instance event loop
/// (src/runtime/instance_runtime.hpp).
struct InstanceRuntimeConfig {
  core::PosgConfig posg;

  /// Simulated content-dependent execution cost (a real operator would be
  /// timed instead). Default: items 0..63 cost 1..64 units.
  std::function<common::TimeMs(common::Item)> cost_model;

  /// Receive deadline (> 0); the poll tick is min(recv_deadline, 10 ms),
  /// which bounds how fast run() notices request_stop().
  std::chrono::milliseconds recv_deadline{200};

  /// Deterministic fault injection at the process level: crash (sever the
  /// link without the EndOfStream handshake) right before executing tuple
  /// number `crash_after_executed` (1-based count; 0 disables).
  std::uint64_t crash_after_executed = 0;

  /// Crash upon receiving the first synchronization marker of this epoch
  /// or any later one, *between* the marker's execution and its SyncReply —
  /// the exact window the scheduler's WAIT_ALL liveness hole lives in.
  /// (At-or-after, not exact-match: epoch churn can supersede epoch E
  /// before this instance's piggybacked marker arrives, so the first
  /// marker it sees may already carry E+1. Epochs start at 1; 0 disables.)
  common::Epoch crash_on_marker_epoch = 0;

  /// Go permanently mute upon receiving this epoch's synchronization
  /// marker: keep executing tuples, but ship no sketches and send no
  /// replies from then on. A merely *lost* reply self-heals (the mute
  /// instance's next shipment supersedes the stalled epoch); a mute peer
  /// starves WAIT_ALL forever, which is exactly what the scheduler's
  /// epoch deadline exists for (epochs start at 1; 0 disables).
  common::Epoch mute_from_epoch = 0;

  /// Gray-fault scripting: multiplies every cost_model() result, so the
  /// instance truly executes `cost_scale` times slower than its sketches
  /// (and everyone else's) predict — the straggler the drift detector must
  /// catch. 1.0 is a healthy instance. Finite and > 0.
  double cost_scale = 1.0;

  /// Straggle onset: cost_scale applies only from this executed-tuple
  /// count on (1-based; 0 means from the start). Lets one run cover both
  /// the healthy and the degraded phase of the same instance.
  std::uint64_t straggle_after_executed = 0;

  /// Wall-clock realism for elasticity demos: when positive, every
  /// executed tuple additionally sleeps cost × real_sleep_scale
  /// milliseconds of real time, so queues actually back up under load and
  /// an ElasticController watching backlog sees something true. 0 (the
  /// default) keeps execution instantaneous — the simulated-cost-only mode
  /// every correctness test uses. Finite and >= 0.
  double real_sleep_scale = 0.0;

  /// Scheduler-crash survival (DESIGN.md §14): when non-empty, a link
  /// error toward the scheduler (EOF, send failure) is treated as
  /// *reconnectable* — the instance re-dials this socket path with the
  /// standard backoff+jitter schedule, re-attaches via SchedulerHello,
  /// and resumes with its tracker intact. Empty (the default) keeps the
  /// pre-recovery behaviour: the first link error ends the session.
  std::string reconnect_path;

  /// Reconnect rounds per outage before giving up for good; each round
  /// runs one full net::ConnectRetryPolicy schedule (about 3 s). Read
  /// only when reconnect_path is non-empty; must then be >= 1.
  std::size_t reconnect_attempts = 3;
};

}  // namespace posg
