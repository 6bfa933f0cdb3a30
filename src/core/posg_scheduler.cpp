#include "core/posg_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"

namespace posg::core {

PosgScheduler::PosgScheduler(std::size_t instances, const PosgConfig& config)
    : PosgScheduler((common::require(instances >= 1, "PosgScheduler: need at least one instance"),
                     std::make_shared<InstancePool>(instances)),
                    config, 0, /*private_pool=*/true) {}

PosgScheduler::PosgScheduler(std::shared_ptr<InstancePool> pool, const PosgConfig& config,
                             common::SourceId source, bool private_pool)
    : k_((common::require(pool != nullptr, "PosgScheduler: null instance pool"), pool->size())),
      config_(config),
      pool_(std::move(pool)),
      pool_raw_(pool_.get()),
      pool_private_(private_pool),
      source_id_(source),
      hashes_(config.sketch_seed, config.dims().rows, config.dims().cols),
      sketches_(k_),
      c_est_(k_, 0.0),
      marker_pending_(k_, false),
      reply_received_(k_, false),
      reply_delta_(k_, 0.0),
      failed_(k_, false),
      live_count_(k_),
      draining_(k_, false),
      serving_count_(k_),
      health_(k_),
      derate_(k_, 1.0),
      marker_estimate_(k_, -1.0),
      ramp_tokens_(k_, 0.0),
      ramp_left_(k_, 0),
      greedy_scores_scratch_(k_, 0.0),
      greedy_alive_scratch_(k_, true) {
  common::require(k_ >= 1, "PosgScheduler: need at least one instance");
  const RejoinRampConfig& ramp = config.rejoin_ramp;
  if (ramp.ramp_tuples > 0) {
    common::require(std::isfinite(ramp.tokens_per_tuple) && ramp.tokens_per_tuple > 0.0,
                    "PosgScheduler: rejoin_ramp.tokens_per_tuple must be finite and > 0");
    common::require(std::isfinite(ramp.burst) && ramp.burst >= 1.0,
                    "PosgScheduler: rejoin_ramp.burst must be finite and >= 1");
  }
  if (config.heavy_hitter_capacity > 0) {
    merged_heavy_.emplace(config.heavy_hitter_capacity);
  }
  shipped_ops_.reserve(k_);
  shipped_cells_.reserve(k_);
  rebuild_greedy();
  // A view constructed after pool churn replays the membership history so
  // it never routes to an instance a peer already removed. A fresh pool
  // has an empty log, so the S = 1 construction applies nothing.
  sync_with_pool();
}

common::TimeMs PosgScheduler::scheduling_estimate(common::InstanceId instance,
                                                  common::Item item) const {
  return scheduling_estimate(instance, item, hashes_.digest(item));
}

common::TimeMs PosgScheduler::scheduling_estimate(common::InstanceId instance, common::Item item,
                                                  const hash::BucketDigest& digest) const {
  if (!config_.shared_billing) {
    const auto& own = sketches_[instance];
    if (own.has_value()) {
      if (auto estimate = own->estimate(item, digest, config_.estimator)) {
        return *estimate;
      }
      return global_mean_;
    }
    // A rejoined instance carries no per-instance sketch until its tracker
    // ships a fresh (F, W) pair; bill it from the merged view so
    // per-instance billing never dereferences an empty slot.
  }
  common::ensure(!shipped_ops_.empty(), "PosgScheduler: estimating without a sketch");
  // Hybrid estimator over the merged view: a heavy item bills its exact
  // mean from the merged ledger, everything else the merged W/F cells.
  if (merged_heavy_) {
    if (auto exact = merged_heavy_->mean_time(item)) {
      return *exact;
    }
  }
  if (auto estimate = merged_estimate(digest)) {
    return *estimate;
  }
  // Never-seen item: bill the *global* mean execution time over all
  // instances' shipped sketches. Using each instance's own epoch mean
  // here would be differentially biased — instances whose last epoch
  // sampled fewer heavy tuples would look cheaper for every unseen item,
  // attract them, truly get slower, and force large (bursty) corrections
  // at the next synchronization. A common fallback keeps the billing of
  // unseen items instance-independent, so their estimation error cancels
  // in the greedy comparison.
  return global_mean_;
}

void PosgScheduler::refresh_global_mean() noexcept {
  std::uint64_t updates = 0;
  common::TimeMs total = 0.0;
  shipped_ops_.clear();
  shipped_cells_.clear();
  if (merged_heavy_) {
    merged_heavy_->clear();
  }
  for (std::size_t op = 0; op < k_; ++op) {
    const auto& sketch = sketches_[op];
    if (!sketch) {
      continue;
    }
    shipped_ops_.push_back(static_cast<common::InstanceId>(op));
    shipped_cells_.push_back(sketch->cells().data());
    updates += sketch->update_count();
    total += sketch->total_execution_time();
    if (merged_heavy_) {
      // Merging into the empty ledger first copies the lowest id's table
      // exactly, so the fold matches build_merged's heavy-table merge.
      merged_heavy_->merge_from(*sketch->heavy_hitters());
    }
  }
  global_mean_ = updates > 0 ? total / static_cast<double>(updates) : 0.0;
}

std::optional<common::TimeMs> PosgScheduler::merged_estimate(
    const hash::BucketDigest& digest) const noexcept {
  // DualSketch::estimate's walk over a virtual merged cell: f and w are
  // summed across the shipped sketches in ascending op order — the same
  // additions, in the same order, a materialized merge performs (seeding
  // from the first shipped sketch and merge_from-ing the rest), so every
  // per-row (f, w) pair is bit-identical to the merged cell. The
  // heavy-hitter shortcut is scheduling_estimate's merged_heavy_ probe.
  return sketch::estimate_cells(shipped_cells_, digest, config_.estimator);
}

std::optional<sketch::DualSketch> PosgScheduler::build_merged() const {
  std::optional<sketch::DualSketch> merged;
  for (const auto op : shipped_ops_) {
    if (!merged.has_value()) {
      merged = *sketches_[op];
    } else {
      merged->merge_from(*sketches_[op]);
    }
  }
  return merged;
}

std::optional<common::TimeMs> PosgScheduler::estimate(common::Item item) const {
  if (state_ == State::kRoundRobin || live_count_ == 0) {
    return std::nullopt;
  }
  // Diagnostic view: average the per-instance estimates is not meaningful;
  // report the estimate against the instance the greedy pick would use.
  return scheduling_estimate(greedy_pick(), item);
}

common::InstanceId PosgScheduler::greedy_pick() const noexcept {
  return static_cast<common::InstanceId>(greedy_.best());
}

common::InstanceId PosgScheduler::greedy_pick_reference() const noexcept {
  common::InstanceId best = common::kNoInstance;
  common::TimeMs best_score = 0.0;
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (failed_[op] || draining_[op]) {
      continue;
    }
    // Latency-aware variant (paper's Sec. VII future work): minimize the
    // placed tuple's estimated completion, Ĉ[op] + latency[op]. The strict
    // `<` breaks score ties toward the lowest id — the order GreedyIndex
    // reproduces.
    const common::TimeMs score = greedy_score(op);
    if (best == common::kNoInstance || score < best_score) {
      best_score = score;
      best = op;
    }
  }
  return best;
}

void PosgScheduler::rebuild_greedy() {
  for (std::size_t op = 0; op < k_; ++op) {
    greedy_scores_scratch_[op] = greedy_score(op);
    // The candidate set is the *serving* set: a draining instance is live
    // (it still executes its queue) but receives nothing new.
    greedy_alive_scratch_[op] = !failed_[op] && !draining_[op];
  }
  greedy_.rebuild(greedy_scores_scratch_, greedy_alive_scratch_);
}

common::InstanceId PosgScheduler::next_round_robin() noexcept {
  // serving_count_ >= 1 whenever live_count_ >= 1 (begin_drain refuses the
  // last serving instance; mark_failed cancels drains before the serving
  // set can empty), so the rotation terminates.
  while (failed_[rr_next_] || draining_[rr_next_]) {
    rr_next_ = (rr_next_ + 1) % k_;
  }
  const common::InstanceId target = rr_next_;
  rr_next_ = (rr_next_ + 1) % k_;
  return target;
}

void PosgScheduler::set_latency_hints(std::vector<common::TimeMs> hints) {
  common::require(hints.empty() || hints.size() == k_,
                  "PosgScheduler: latency hints must cover every instance");
  for (const common::TimeMs hint : hints) {
    common::require(std::isfinite(hint) && hint >= 0.0,
                    "PosgScheduler: latency hints must be finite and non-negative");
  }
  latency_hints_ = std::move(hints);
  rebuild_greedy();
}

void PosgScheduler::set_external_loads(const std::vector<common::TimeMs>& loads) {
  common::require(loads.empty() || loads.size() == k_,
                  "PosgScheduler: external loads must cover every instance");
  for (const common::TimeMs load : loads) {
    common::require(std::isfinite(load) && load >= 0.0,
                    "PosgScheduler: external loads must be finite and non-negative");
  }
  external_load_ = loads;
  // Every score may have moved but the serving set has not: re-score the
  // argmin in place. With no live instance the index stays stale, as after
  // the last quarantine: schedule() throws NoLiveInstanceError and the
  // next rejoin() rebuilds it.
  if (live_count_ > 0) {
    for (std::size_t op = 0; op < k_; ++op) {
      greedy_scores_scratch_[op] = greedy_score(op);
    }
    greedy_.rescore(greedy_scores_scratch_);
  }
}

void PosgScheduler::bill(common::InstanceId target, common::Item item) {
  // UPDATE-Ĉ (Listing III.2), extended with the straggler de-rate: a
  // Degraded instance is billed factor × ŵ, so the greedy argmin hands it
  // proportionally fewer tuples while it stays in rotation. Healthy
  // instances carry factor 1.0, whose multiply is bit-identical — the
  // golden scheduling streams do not move. The bill stops at the ceiling
  // (kMaxFoldedLoad) for an estimate from an absurd shipped sketch; a real
  // load never reaches it. It never lowers Ĉ, which the greedy index
  // cannot absorb, even where a quarantine's redistribution already lifted
  // Ĉ past the ceiling.
  const common::TimeMs billed =
      c_est_[target] + scheduling_estimate(target, item, hashes_.digest(item)) * derate_[target];
  c_est_[target] = std::max(c_est_[target], std::min(billed, kMaxFoldedLoad));
  greedy_.increase(target, greedy_score(target));
}

common::InstanceId PosgScheduler::ramp_admit(common::InstanceId pick) {
  // Refill: every scheduled tuple (cluster-wide) grants tokens_per_tuple
  // to each ramping bucket, capped at the burst depth. Tuple counts, not
  // clocks, keep the ramp deterministic.
  for (std::size_t op = 0; op < k_; ++op) {
    if (ramp_left_[op] > 0) {
      ramp_tokens_[op] = std::min(config_.rejoin_ramp.burst,
                                  ramp_tokens_[op] + config_.rejoin_ramp.tokens_per_tuple);
    }
  }
  if (ramp_left_[pick] == 0) {
    return pick;
  }
  const auto admit = [&](common::InstanceId op) {
    if (--ramp_left_[op] == 0) {
      ramp_tokens_[op] = 0.0;
      --ramps_active_;
      ramp_completions_.push_back(op);
    }
    return op;
  };
  if (ramp_tokens_[pick] >= 1.0) {
    ramp_tokens_[pick] -= 1.0;
    return admit(pick);
  }
  // Out of tokens: hand the tuple to the best non-ramping live instance
  // instead (linear scan — ramps are rare and short).
  common::InstanceId best = common::kNoInstance;
  common::TimeMs best_score = 0.0;
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (failed_[op] || draining_[op] || ramp_left_[op] > 0) {
      continue;
    }
    const common::TimeMs score = greedy_score(op);
    if (best == common::kNoInstance || score < best_score) {
      best_score = score;
      best = op;
    }
  }
  if (best == common::kNoInstance) {
    // Every live instance is ramping (rejoin into a tiny cluster): admit
    // without a token — liveness beats pacing.
    return admit(pick);
  }
  return best;
}

Decision PosgScheduler::schedule(common::Item item, common::SeqNo seq) {
  // Adopt peer membership transitions before picking a target: one
  // relaxed version load in the steady state (and always a no-op for a
  // private pool, whose version never moves without this view moving it).
  sync_pool_if_stale();
  if (live_count_ == 0) {
    throw NoLiveInstanceError(
        "PosgScheduler: no live instance to schedule onto (all quarantined; awaiting rejoin)");
  }
  Decision decision{0, std::nullopt};
  switch (state_) {
    case State::kRoundRobin: {
      decision = Decision{next_round_robin(), std::nullopt};
      break;
    }
    case State::kSendAll: {
      // Keep round-robin so every live instance receives exactly one
      // marker within the next k' tuples (Fig. 1.D), while Ĉ starts
      // accumulating estimates.
      const common::InstanceId target = next_round_robin();
      bill(target, item);

      std::optional<SyncRequest> marker;
      if (marker_pending_[target]) {
        marker_pending_[target] = false;
        --markers_outstanding_;
        // Piggy-back Ĉ[op] *including* this tuple: FIFO queues make the
        // marker a consistent cut (see messages.hpp). Remember the billed
        // Ĉ at the cut — the epoch's Δ turns it into a drift ratio for
        // the straggler detector.
        marker = SyncRequest{epoch_, c_est_[target]};
        marker_estimate_[target] = c_est_[target];
        if (markers_outstanding_ == 0) {
          state_ = State::kWaitAll;  // Fig. 3.C
          // The last reply can only follow the last marker, so completion
          // is always detected in ingest_reply (or in remove_instance when
          // the replying instance left instead).
        }
      }
      decision = Decision{target, marker};
      break;
    }
    case State::kWaitAll:
    case State::kRun: {
      // Greedy Online Scheduler (Listing III.2: SUBMIT then UPDATE-Ĉ).
      // One digest per tuple serves every sketch read, the pick is the
      // cached argmin, and billing re-sifts only the picked instance.
      common::InstanceId target = greedy_pick();
      if (ramps_active_ > 0) {
        target = ramp_admit(target);
      }
      bill(target, item);
      decision = Decision{target, std::nullopt};
      break;
    }
  }
  ++decisions_;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{
        .type = obs::TraceEventType::kScheduleDecision,
        .detail = static_cast<std::uint8_t>(state_),
        .component = 0,
        .instance = static_cast<std::uint32_t>(decision.instance),
        .a = seq,
        .value = c_est_[decision.instance],
        .tick = 0});
  }
  return decision;
}

void PosgScheduler::enter_send_all() noexcept {
  ++epoch_;
  for (std::size_t op = 0; op < k_; ++op) {
    // A draining instance carries no marker — it receives no tuples to
    // piggy-back one on — and its reply slot is pre-satisfied so WAIT_ALL
    // completes on the serving set alone (its final Δ arrives with
    // DrainComplete instead).
    marker_pending_[op] = !failed_[op] && !draining_[op];
    reply_received_[op] = !failed_[op] && draining_[op];
    reply_delta_[op] = 0.0;
    marker_estimate_[op] = -1.0;  // re-armed when this epoch's marker goes out
  }
  markers_outstanding_ = serving_count_;
  state_ = State::kSendAll;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kEpochAdvance,
                                          .detail = static_cast<std::uint8_t>(state_),
                                          .component = 0,
                                          .instance = 0,
                                          .a = epoch_,
                                          .value = 0.0,
                                          .tick = 0});
    trace_writer_->flush();  // epoch edges are rare; bound ring staleness
  }
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

bool PosgScheduler::all_live_shipped() const noexcept {
  for (std::size_t op = 0; op < k_; ++op) {
    // Draining instances are never billed, so bootstrap does not wait on
    // their sketches.
    if (!failed_[op] && !draining_[op] && !sketches_[op].has_value()) {
      return false;
    }
  }
  return true;
}

void PosgScheduler::on_feedback(FeedbackEvent&& event) {
  if (auto* shipment = std::get_if<SketchShipment>(&event)) {
    ingest_shipment(std::move(*shipment));
  } else if (const auto* reply = std::get_if<SyncReply>(&event)) {
    ingest_reply(*reply);
  }
}

void PosgScheduler::ingest_shipment(SketchShipment&& shipment) {
  const common::InstanceId op = shipment.instance;
  common::require(op < k_, "PosgScheduler: shipment from unknown instance");
  if (failed_[op] || draining_[op]) {
    // Late frame from a quarantined instance, or a final shipment from a
    // draining one: either way the sender is leaving — refreshing the
    // merged estimates (and churning the epoch machinery) over a replica
    // that will never be billed again would only skew the survivors.
    return;
  }
  common::require(shipment.sketch.dims() == config_.dims() &&
                      shipment.sketch.seed() == config_.sketch_seed &&
                      shipment.sketch.heavy_capacity() == config_.heavy_hitter_capacity &&
                      shipment.sketch.conservative() == config_.conservative_update,
                  "PosgScheduler: shipment sketch layout mismatch");
  sketches_[op] = std::move(shipment.sketch);
  refresh_global_mean();
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{
        .type = obs::TraceEventType::kSketchShip,
        .detail = 0,
        .component = 0,
        .instance = static_cast<std::uint32_t>(op),
        .a = epoch_,
        .value = global_mean_,
        .tick = 0});
  }

  if (state_ == State::kRoundRobin) {
    // Fig. 3.A/B: collect until every live instance shipped once.
    if (!all_live_shipped()) {
      return;
    }
    if (!config_.sync_enabled) {
      state_ = State::kRun;  // ablation: skip the synchronization protocol
      return;
    }
    enter_send_all();
    return;
  }

  // Fig. 3.F: any other state returns to SEND_ALL with a fresh epoch;
  // replies still in flight for the old epoch will be discarded.
  if (config_.sync_enabled) {
    enter_send_all();
  }
}

void PosgScheduler::maybe_complete_epoch() noexcept {
  // The no-sketch case arises only transiently inside remove_instance (the
  // last sketch-bearing instance just left); its round-robin fallback runs
  // next and abandons the epoch wholesale — completing into RUN without
  // any billed sketch would be meaningless.
  if (state_ != State::kWaitAll || live_count_ == 0 || !has_billed_sketch()) {
    return;
  }
  for (std::size_t op = 0; op < k_; ++op) {
    if (!failed_[op] && !reply_received_[op]) {
      return;
    }
  }
  // Straggler signal: at the marker cut we recorded Ĉ_marker[op]; the reply
  // carries Δop = C_real − Ĉ_marker, so (Ĉ_marker + Δ)/Ĉ_marker is the
  // ratio of measured to estimated work — ≈ s for an instance running s×
  // slower than its sketches predict. Feed it to the health monitor before
  // applying the correction, then refresh de-rate factors. The first
  // epoch feeds nothing: ROUND_ROBIN bills no tuple, so Ĉ_marker covers
  // only the SEND_ALL tuples while Δ covers every tuple since start, and
  // the ratio would read in the hundreds on a healthy instance. A finite
  // Δ beyond Ĉ_marker·DBL_MAX still overflows the ratio, which then feeds
  // nothing.
  for (std::size_t op = 0; op < k_; ++op) {
    if (epochs_completed_ > 0 && !failed_[op] && marker_estimate_[op] > 1e-9) {
      const double ratio =
          std::max(0.0, (marker_estimate_[op] + reply_delta_[op]) / marker_estimate_[op]);
      if (std::isfinite(ratio)) {
        health_.on_epoch_drift(op, ratio);
      }
    }
  }
  for (std::size_t op = 0; op < k_; ++op) {
    if (!failed_[op]) {
      derate_[op] = health_.derate(op);
    }
  }
  // Fig. 3.E: resynchronize Ĉ — add each survivor's measured drift. A
  // quarantined instance's Δ (if it replied before dying) is dropped: its
  // Ĉ was already zeroed and redistributed.
  for (std::size_t op = 0; op < k_; ++op) {
    if (!failed_[op]) {
      // In exact arithmetic the corrected value is C_real + post-marker
      // estimates >= 0; the lower clamp only absorbs float rounding from the
      // (Ĉ_marker + post) + (C_real − Ĉ_marker) evaluation order so the
      // Ĉ >= 0 invariant (debug_validate) holds bit-for-bit. The upper one
      // bounds a finite but absurd Δ off the wire (kMaxFoldedLoad).
      c_est_[op] = std::clamp(c_est_[op] + reply_delta_[op], 0.0, kMaxFoldedLoad);
    }
  }
  // Δ corrections can lower scores, which the incremental index cannot
  // absorb via increase(); epoch completion is rare, so rebuild.
  rebuild_greedy();
  state_ = State::kRun;
  ++epochs_completed_;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kEpochAdvance,
                                          .detail = static_cast<std::uint8_t>(state_),
                                          .component = 0,
                                          .instance = 0,
                                          .a = epoch_,
                                          .value = 0.0,
                                          .tick = 0});
    trace_writer_->flush();
  }
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

void PosgScheduler::ingest_reply(const SyncReply& reply) {
  common::require(reply.instance < k_, "PosgScheduler: reply from unknown instance");
  // Δ comes off the wire: a non-finite one would poison Ĉ at the fold (a
  // finite one is bounded there, see kMaxFoldedLoad).
  common::require(std::isfinite(reply.delta), "PosgScheduler: reply delta must be finite");
  if (failed_[reply.instance]) {
    return;  // reply raced with the quarantine — already abandoned
  }
  const bool epoch_active = state_ == State::kSendAll || state_ == State::kWaitAll;
  if (reply.epoch != epoch_ || !epoch_active) {
    // Stale epoch or protocol restarted: count and discard. Folding a
    // delayed Δ from epoch e−1 into epoch e would double-correct drift
    // the newer markers already measured.
    ++stale_replies_;
    return;
  }
  if (marker_pending_[reply.instance]) {
    // An instance learns the epoch number only from its own marker, which
    // has not been sent yet: no conforming peer can produce this reply.
    // Discard it (fuzzed/byzantine input) instead of corrupting the
    // reply-implies-marker bookkeeping.
    ++stale_replies_;
    return;
  }
  if (reply_received_[reply.instance]) {
    // A rejoined instance is re-armed as "already replied" for the epoch it
    // missed; a Δ arriving in that window is a stale pre-quarantine reply
    // that must not corrupt the seeded Ĉ. Genuine duplicate deliveries
    // (marker sent this epoch) stay uncounted.
    if (marker_estimate_[reply.instance] < 0.0) {
      ++stale_replies_;
    }
    return;
  }
  reply_received_[reply.instance] = true;
  reply_delta_[reply.instance] = reply.delta;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{
        .type = obs::TraceEventType::kSyncDelta,
        .detail = 0,
        .component = 0,
        .instance = static_cast<std::uint32_t>(reply.instance),
        .a = reply.epoch,
        .value = reply.delta,
        .tick = 0});
  }
  maybe_complete_epoch();
}

void PosgScheduler::mark_failed(common::InstanceId op) {
  common::require(op < k_, "PosgScheduler: mark_failed on unknown instance");
  sync_pool_if_stale();
  if (failed_[op]) {
    return;  // idempotent: EOF and epoch deadline may both report the crash
  }
  // Publish to the membership authority, then adopt the log. A 0 seq means
  // a peer source's detector reported the same crash between our staleness
  // sync and now — adopting its event applies the quarantine once.
  adopt_pool_events(pool_raw_->report_quarantine(op, source_id_));
}

void PosgScheduler::quarantine_local(common::InstanceId op) {
  if (draining_[op]) {
    // The drainee died mid-drain: the lossless handshake is off (there is
    // no DrainComplete to bill), so it leaves as a plain crash — its
    // frozen Ĉ cut is redistributed like any dead instance's share.
    draining_[op] = false;
    ++drain_cancels_;
  } else {
    --serving_count_;
  }
  remove_instance(op, /*redistribute=*/true);
}

std::size_t PosgScheduler::adopt_pool_events(std::uint64_t own_seq, common::TimeMs final_delta) {
  pool_events_scratch_.clear();
  const std::uint64_t newest = pool_raw_->events_since(pool_cursor_, pool_events_scratch_);
  std::size_t changed = 0;
  std::size_t peer_applied = 0;
  for (const auto& event : pool_events_scratch_) {
    const bool own = event.seq == own_seq;
    if (apply_pool_event(event, own ? final_delta : 0.0)) {
      ++changed;
      if (!own) {
        ++peer_applied;
      }
    }
  }
  pool_cursor_ = newest;
  pool_events_applied_ += peer_applied;
#if POSG_DCHECK_IS_ON
  if (changed > 0) {
    debug_validate();
  }
#endif
  return peer_applied;
}

bool PosgScheduler::apply_pool_event(const MemberEvent& event, common::TimeMs final_delta) {
  const common::InstanceId op = event.op;
  common::ensure(op < k_, "PosgScheduler: pool event names an unknown instance");
  switch (event.kind) {
    case MemberEvent::Kind::kQuarantine:
      if (failed_[op]) {
        return false;  // already adopted
      }
      quarantine_local(op);
      return true;
    case MemberEvent::Kind::kRejoin:
      if (!failed_[op]) {
        return false;
      }
      rejoin_local(op);
      return true;
    case MemberEvent::Kind::kDrainBegin:
      if (failed_[op] || draining_[op] || serving_count_ < 2) {
        // The < 2 guard keeps this view's liveness invariant even if a
        // reconciled checkpoint left it with fewer serving members than
        // the pool believed existed when the drain opened.
        return false;
      }
      begin_drain_local(op);
      return true;
    case MemberEvent::Kind::kRetire:
      if (failed_[op]) {
        return false;
      }
      if (!draining_[op]) {
        // This view never applied the drain (e.g. the < 2 guard above):
        // open and immediately close it so the removal still lands.
        if (serving_count_ < 2) {
          return false;
        }
        begin_drain_local(op);
      }
      // The initiator folds the final Δ it measured. A peer measured that
      // Δ against *its* Ĉ view; this view's share of the drained work is
      // its own frozen cut, discarded by the retirement (a zero Δ).
      retire_local(op, final_delta);
      return true;
  }
  return false;
}

void PosgScheduler::cancel_drain_local(common::InstanceId op) {
  draining_[op] = false;
  ++serving_count_;
  ++drain_cancels_;
  rebuild_greedy();
}

void PosgScheduler::leave_epoch(common::InstanceId op) noexcept {
  if (state_ == State::kSendAll && marker_pending_[op]) {
    marker_pending_[op] = false;
    --markers_outstanding_;
    if (markers_outstanding_ == 0) {
      state_ = State::kWaitAll;
    }
  }
  // A quarantined instance's slot is skipped by epoch completion anyway.
  if (!failed_[op] && (state_ == State::kSendAll || state_ == State::kWaitAll)) {
    reply_received_[op] = true;
    reply_delta_[op] = 0.0;
  }
  marker_estimate_[op] = -1.0;
}

void PosgScheduler::retire_ramp(common::InstanceId op) {
  if (ramp_left_[op] == 0) {
    return;
  }
  ramp_left_[op] = 0;
  ramp_tokens_[op] = 0.0;
  --ramps_active_;
  ramp_completions_.erase(std::remove(ramp_completions_.begin(), ramp_completions_.end(), op),
                          ramp_completions_.end());
}

void PosgScheduler::fall_back_to_round_robin() noexcept {
  std::fill(marker_pending_.begin(), marker_pending_.end(), false);
  markers_outstanding_ = 0;
  state_ = State::kRoundRobin;
}

void PosgScheduler::remove_instance(common::InstanceId op, bool redistribute) {
  failed_[op] = true;
  --live_count_;
  health_.on_quarantined(op);
  derate_[op] = 1.0;
  // A ramping rejoiner that leaves mid-ramp never collects its grant.
  retire_ramp(op);

  if (live_count_ > 0 && redistribute) {
    // Redistribute the dead instance's Ĉ share evenly over the serving
    // survivors (a draining survivor retires soon and its Ĉ is discarded
    // then, so a share parked there would evaporate). The absolute shift
    // is identical for every recipient, so the greedy ordering among them
    // is preserved; what matters is that op itself no longer competes and
    // that total Ĉ (the global accounting the next synchronization
    // corrects against) is conserved.
    const std::size_t recipients = serving_count_ > 0 ? serving_count_ : live_count_;
    const common::TimeMs share = c_est_[op] / static_cast<double>(recipients);
    for (std::size_t other = 0; other < k_; ++other) {
      if (failed_[other]) {
        continue;
      }
      if (serving_count_ > 0 ? !draining_[other] : true) {
        c_est_[other] += share;
      }
    }
  }
  // A retirement (redistribute == false) discards Ĉ[op] instead: the
  // drained work truly executed; handing it to survivors would bill every
  // drained tuple twice. A last-instance crash discards it too — there is
  // no survivor to carry it.
  c_est_[op] = 0.0;

  // Liveness beats planned elasticity: if the crash left only draining
  // survivors, press them back into service — an empty serving set with a
  // live cluster must never happen.
  if (serving_count_ == 0 && live_count_ > 0) {
    for (std::size_t other = 0; other < k_; ++other) {
      if (!failed_[other] && draining_[other]) {
        draining_[other] = false;
        ++serving_count_;
        ++drain_cancels_;
      }
    }
  }
  if (live_count_ > 0) {
    // Candidate set and every survivor's score changed at once; removal
    // is rare, so re-derive the incremental argmin wholesale.
    rebuild_greedy();
  }
  // else: last live instance gone. The defined semantics (DESIGN.md
  // "Fault model"): the scheduler idles in ROUND_ROBIN over an empty
  // candidate set, schedule() throws NoLiveInstanceError until a rejoin
  // revives the cluster, and the greedy index is left stale — it requires
  // >= 1 alive and is rebuilt by the next rejoin().

  // Drop the instance's matrices from billing: on heterogeneous clusters
  // its per-item costs describe a replica that no longer executes
  // anything, and keeping them would skew the merged estimates.
  sketches_[op].reset();
  refresh_global_mean();

  // Abandon its outstanding marker so the in-flight epoch can complete on
  // the survivors alone (the WAIT_ALL liveness hole).
  leave_epoch(op);
  maybe_complete_epoch();

  if (state_ == State::kRoundRobin) {
    // Bootstrap liveness: the removed instance may have been the only one
    // whose sketch was still missing.
    if (all_live_shipped() && has_billed_sketch()) {
      if (config_.sync_enabled) {
        enter_send_all();
      } else {
        state_ = State::kRun;
      }
    }
  } else if (!has_billed_sketch()) {
    // Every sketch-bearing instance is gone, so no estimates exist. The
    // in-flight epoch is abandoned wholesale (markers and replies alike):
    // without sketches there is no Ĉ left for a late Δ to correct.
    fall_back_to_round_robin();
  }
}

common::TimeMs PosgScheduler::begin_drain(common::InstanceId op) {
  common::require(op < k_, "PosgScheduler: begin_drain on unknown instance");
  sync_pool_if_stale();
  common::require(!failed_[op], "PosgScheduler: begin_drain on a quarantined instance");
  common::require(!draining_[op], "PosgScheduler: instance is already draining");
  common::require(serving_count_ >= 2,
                  "PosgScheduler: draining the last serving instance would stall the stream");
  const std::uint64_t seq = pool_raw_->report_drain(op, source_id_);
  common::require(seq != 0, "PosgScheduler: drain lost a race to a concurrent pool transition");
  adopt_pool_events(seq);
  // Ĉ[op] stays frozen from the drain event on: it is the cut.
  return c_est_[op];
}

void PosgScheduler::begin_drain_local(common::InstanceId op) {
  draining_[op] = true;
  --serving_count_;
  ++drains_begun_;
  // A still-ramping rejoiner will never win another tuple.
  retire_ramp(op);

  // The drain cut: everything billed to op up to this instant. FIFO links
  // mean every tuple routed before the DrainRequest executes before the
  // instance sees it, so Δ = C_real − cut measured at the queue-dry point
  // is exactly the estimation drift of the billed work — retire() folds it
  // in and the final Ĉ equals the true executed work, counted once.
  const common::TimeMs cut = c_est_[op];

  // Leave any in-flight epoch at once. Pre-satisfying the reply slot zeroes
  // a Δ that may already have arrived: folding it *and* the final
  // DrainComplete Δ would double-correct the pre-cut drift.
  leave_epoch(op);

  rebuild_greedy();
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kDrainBegin,
                                          .detail = 0,
                                          .component = 0,
                                          .instance = static_cast<std::uint32_t>(op),
                                          .a = epoch_,
                                          .value = cut,
                                          .tick = 0});
    trace_writer_->flush();
  }
  maybe_complete_epoch();
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

common::TimeMs PosgScheduler::retire(common::InstanceId op, common::TimeMs final_delta) {
  common::require(op < k_, "PosgScheduler: retire of unknown instance");
  sync_pool_if_stale();
  common::require(draining_[op], "PosgScheduler: retire of an instance that is not draining");
  common::require(std::isfinite(final_delta), "PosgScheduler: final delta must be finite");
  // Ĉ[op] is frozen while op drains, so the final bill is fixed before the
  // event is adopted (retire_local folds the same Δ into the same cut).
  const common::TimeMs final_billed = std::max(0.0, c_est_[op] + final_delta);
  const std::uint64_t seq = pool_raw_->report_retire(op, source_id_);
  common::require(seq != 0, "PosgScheduler: retire lost a race to a concurrent pool transition");
  adopt_pool_events(seq, final_delta);
  return final_billed;
}

void PosgScheduler::retire_local(common::InstanceId op, common::TimeMs final_delta) {
  // Fold the final Δ: cut + (C_real − cut) = the work the instance truly
  // executed, billed exactly once. The clamp mirrors the epoch correction:
  // exact arithmetic is non-negative; only float rounding can dip below.
  const common::TimeMs final_billed = std::max(0.0, c_est_[op] + final_delta);
  draining_[op] = false;
  ++retires_;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kDrainComplete,
                                          .detail = 0,
                                          .component = 0,
                                          .instance = static_cast<std::uint32_t>(op),
                                          .a = epoch_,
                                          .value = final_billed,
                                          .tick = 0});
    trace_writer_->flush();
  }
  remove_instance(op, /*redistribute=*/false);
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

bool PosgScheduler::is_draining(common::InstanceId op) const {
  common::require(op < k_, "PosgScheduler: unknown instance");
  return draining_[op];
}

void PosgScheduler::rejoin(common::InstanceId op) {
  common::require(op < k_, "PosgScheduler: rejoin of unknown instance");
  sync_pool_if_stale();
  common::require(failed_[op], "PosgScheduler: rejoin of an instance that is not quarantined");
  // A 0 seq means a peer re-admitted the instance between our staleness
  // sync and now; adopting its event seeds from *this* view's minimum.
  adopt_pool_events(pool_raw_->report_rejoin(op, source_id_));
}

void PosgScheduler::rejoin_local(common::InstanceId op) {
  // Seed Ĉ from the live minimum: the rejoiner starts as (joint) greedy
  // favourite without dragging the whole cluster's accounting down, and
  // the next synchronization corrects whatever error the seed carries.
  // With no live peer (reviving a fully-quarantined cluster) the seed is 0
  // and no ramp applies — there is nobody to shield from the newcomer.
  bool found = false;
  common::TimeMs seed = 0.0;
  for (std::size_t other = 0; other < k_; ++other) {
    // Seed from the *serving* minimum: a draining peer's Ĉ is a frozen
    // cut awaiting retirement, not a load the newcomer should match.
    if (!failed_[other] && !draining_[other] && (!found || c_est_[other] < seed)) {
      seed = c_est_[other];
      found = true;
    }
  }

  failed_[op] = false;
  ++live_count_;
  ++serving_count_;
  c_est_[op] = seed;
  derate_[op] = 1.0;
  health_.on_rejoined(op);
  ++rejoin_count_;
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kRejoin,
                                          .detail = 0,
                                          .component = 0,
                                          .instance = static_cast<std::uint32_t>(op),
                                          .a = epoch_,
                                          .value = seed,
                                          .tick = 0});
    trace_writer_->flush();
  }

  // The rejoiner did not see this epoch's marker: re-arm it as already
  // replied so WAIT_ALL does not hang on it, and flag its marker slot so a
  // stale pre-quarantine Δ is counted and discarded (see ingest_reply).
  marker_pending_[op] = false;
  reply_received_[op] = true;
  reply_delta_[op] = 0.0;
  marker_estimate_[op] = -1.0;

  if (config_.rejoin_ramp.ramp_tuples > 0 && found) {
    if (ramp_left_[op] == 0) {
      ++ramps_active_;
    }
    ramp_left_[op] = config_.rejoin_ramp.ramp_tuples;
    ramp_tokens_[op] = std::min(config_.rejoin_ramp.burst, 1.0);
  }

  rebuild_greedy();

  if (!has_billed_sketch()) {
    // No sketch-bearing instance anywhere (the rejoiner ships a fresh one
    // once its tracker warms up): round-robin until estimates exist.
    fall_back_to_round_robin();
  }
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

CheckpointState PosgScheduler::checkpoint_state() const {
  const auto pack = [this](const std::vector<bool>& bits) {
    std::vector<std::uint8_t> out(k_, 0);
    for (std::size_t op = 0; op < k_; ++op) {
      out[op] = bits[op] ? 1 : 0;
    }
    return out;
  };
  CheckpointState out;
  out.k = k_;
  out.source_id = source_id_;
  out.scheduler_state = static_cast<std::uint8_t>(state_);
  out.rr_next = rr_next_;
  out.epoch = epoch_;
  out.epochs_completed = epochs_completed_;
  out.decisions = decisions_;
  out.rejoin_count = rejoin_count_;
  out.stale_replies = stale_replies_;
  out.drains_begun = drains_begun_;
  out.retires = retires_;
  out.drain_cancels = drain_cancels_;
  out.c_est = c_est_;
  out.latency_hints = latency_hints_;
  out.failed = pack(failed_);
  out.draining = pack(draining_);
  out.marker_pending = pack(marker_pending_);
  out.reply_received = pack(reply_received_);
  out.reply_delta = reply_delta_;
  out.marker_estimate = marker_estimate_;
  out.derate = derate_;
  out.ramp_tokens = ramp_tokens_;
  out.ramp_left = ramp_left_;
  out.health = health_.snapshot();
  out.sketches = sketches_;
  return out;
}

void PosgScheduler::restore(const CheckpointState& state) {
  // Check everything against this scheduler's configuration before a
  // single member moves, so a rejected checkpoint leaves the cold-start
  // construction untouched. A checkpoint is untrusted input: rejecting it
  // is an operational condition the runtime answers with a cold start, so
  // the check that debug_validate() aborts on *throws* here.
  if (const char* why = invariant_violation(state)) {
    throw std::invalid_argument(why);
  }
  health_.restore(state.health);
  state_ = static_cast<State>(state.scheduler_state);
  rr_next_ = static_cast<std::size_t>(state.rr_next);
  epoch_ = state.epoch;
  epochs_completed_ = state.epochs_completed;
  decisions_ = state.decisions;
  rejoin_count_ = state.rejoin_count;
  stale_replies_ = state.stale_replies;
  drains_begun_ = state.drains_begun;
  retires_ = state.retires;
  drain_cancels_ = state.drain_cancels;
  c_est_ = state.c_est;
  latency_hints_ = state.latency_hints;
  for (std::size_t op = 0; op < k_; ++op) {
    failed_[op] = state.failed[op] == 1;
    draining_[op] = state.draining[op] == 1;
    marker_pending_[op] = state.marker_pending[op] == 1;
    reply_received_[op] = state.reply_received[op] == 1;
  }
  reply_delta_ = state.reply_delta;
  marker_estimate_ = state.marker_estimate;
  derate_ = state.derate;
  ramp_tokens_ = state.ramp_tokens;
  ramp_left_ = state.ramp_left;
  const SetCounts counts = count_sets();
  live_count_ = counts.live;
  serving_count_ = counts.serving;
  markers_outstanding_ = counts.markers;
  ramps_active_ = counts.ramping;
  // Un-collected AdmissionGrant notices are informational and died with
  // the crashed process.
  ramp_completions_.clear();
  sketches_ = state.sketches;

  // Derived caches: merged billing view + global mean, then the greedy
  // argmin (which requires a live cluster).
  refresh_global_mean();
  if (live_count_ > 0) {
    rebuild_greedy();
  }
  // Membership authority handoff (DESIGN.md §15). A private pool has no
  // peer views: republish the image's membership into it and move on. A
  // shared pool outlived this view's crash and *is* the authority —
  // reconcile the restored replica toward its current flags (a peer may
  // have quarantined, re-admitted, or retired instances while this source
  // was down), skipping the event history the image already reflects.
  pool_cursor_ = pool_raw_->version();
  if (pool_private_) {
    pool_raw_->adopt_membership(state.failed, state.draining);
  } else {
    using Lifecycle = InstancePool::Lifecycle;
    std::vector<Lifecycle> target(k_);
    for (std::size_t op = 0; op < k_; ++op) {
      target[op] = pool_raw_->lifecycle(op);
    }
    // Liveness first — rejoins, then quarantines — so the serving count
    // the drain guard reads already includes every instance the pool
    // re-admitted, whatever its id. Cancels precede new drains for the
    // same reason.
    for (std::size_t op = 0; op < k_; ++op) {
      if (failed_[op] && target[op] != Lifecycle::kQuarantined) {
        rejoin_local(op);
      }
    }
    for (std::size_t op = 0; op < k_; ++op) {
      if (!failed_[op] && target[op] == Lifecycle::kQuarantined) {
        quarantine_local(op);
      }
    }
    for (std::size_t op = 0; op < k_; ++op) {
      if (draining_[op] && target[op] == Lifecycle::kServing) {
        cancel_drain_local(op);
      }
    }
    for (std::size_t op = 0; op < k_; ++op) {
      if (!draining_[op] && target[op] == Lifecycle::kDraining && serving_count_ >= 2) {
        begin_drain_local(op);
      }
    }
  }
  // Self-heal a WAIT_ALL image whose last missing reply will never come
  // (epoch completion is edge-triggered in ingest_reply; a checkpoint cut
  // between the final reply and the completion edge must not hang).
  maybe_complete_epoch();
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
}

common::TimeMs PosgScheduler::reattach(common::InstanceId op) {
  if (op >= k_) {
    throw std::invalid_argument("PosgScheduler: reattach of unknown instance");
  }
  if (failed_[op]) {
    throw std::invalid_argument(
        "PosgScheduler: reattach of a quarantined instance (rejoin re-admits it)");
  }
  // The crash window swallowed whatever marker/reply traffic was in
  // flight toward op: clear its unsent marker, pre-satisfy its reply slot,
  // and disarm its marker estimate so a Δ computed against a pre-crash
  // baseline is counted stale (ingest_reply) instead of folded — the
  // exact isolation rejoin() applies, minus the re-seeding (op's Ĉ is the
  // restored cut, already consistent with the work billed to it).
  leave_epoch(op);
  const common::TimeMs cut = c_est_[op];
  if (trace_writer_) {
    trace_writer_->record(obs::TraceEvent{.type = obs::TraceEventType::kReattach,
                                          .detail = 0,
                                          .component = 0,
                                          .instance = static_cast<std::uint32_t>(op),
                                          .a = epoch_,
                                          .value = cut,
                                          .tick = 0});
    trace_writer_->flush();
  }
  maybe_complete_epoch();
#if POSG_DCHECK_IS_ON
  debug_validate();
#endif
  return cut;
}

std::uint64_t PosgScheduler::ramp_remaining(common::InstanceId op) const {
  common::require(op < k_, "PosgScheduler: unknown instance");
  return ramp_left_[op];
}

std::vector<common::InstanceId> PosgScheduler::take_ramp_completions() {
  std::vector<common::InstanceId> out;
  out.swap(ramp_completions_);
  return out;
}

void PosgScheduler::set_derate(common::InstanceId op, double factor) {
  common::require(op < k_, "PosgScheduler: unknown instance");
  common::require(std::isfinite(factor) && factor >= 1.0,
                  "PosgScheduler: de-rate factor must be finite and >= 1");
  derate_[op] = factor;
}

double PosgScheduler::derate(common::InstanceId op) const {
  common::require(op < k_, "PosgScheduler: unknown instance");
  return derate_[op];
}

PosgScheduler::SetCounts PosgScheduler::count_sets() const noexcept {
  SetCounts counts;
  for (std::size_t op = 0; op < k_; ++op) {
    counts.live += failed_[op] ? 0 : 1;
    counts.serving += failed_[op] || draining_[op] ? 0 : 1;
    counts.markers += marker_pending_[op] ? 1 : 0;
    counts.ramping += ramp_left_[op] > 0 ? 1 : 0;
    counts.shipped += sketches_[op].has_value() ? 1 : 0;
  }
  return counts;
}

const char* PosgScheduler::invariant_violation(const CheckpointState& state) const noexcept {
  if (state.k != k_) {
    return "PosgScheduler: instance count mismatch";
  }
  if (state.source_id != source_id_) {
    // A source's image is its *own* Ĉ view: source s billed the tuples
    // source s routed. Restoring another source's image would double-bill
    // its work here and orphan this source's own share.
    return "PosgScheduler: source id mismatch";
  }
  if (state.scheduler_state > static_cast<std::uint8_t>(State::kRun)) {
    return "PosgScheduler: state machine value out of range";
  }
  if (state.rr_next >= k_) {
    return "PosgScheduler: round-robin cursor out of range";
  }
  if (state.epochs_completed > state.epoch) {
    return "PosgScheduler: completed epochs exceed the epoch counter (non-monotone epoch)";
  }
  if (state.c_est.size() != k_ || state.failed.size() != k_ || state.draining.size() != k_ ||
      state.marker_pending.size() != k_ || state.reply_received.size() != k_ ||
      state.reply_delta.size() != k_ || state.marker_estimate.size() != k_ ||
      state.derate.size() != k_ || state.ramp_tokens.size() != k_ ||
      state.ramp_left.size() != k_ || state.sketches.size() != k_) {
    return "PosgScheduler: per-instance tables do not cover every instance";
  }
  if (!state.latency_hints.empty() && state.latency_hints.size() != k_) {
    return "PosgScheduler: latency hints do not cover every instance";
  }
  // The health tables must cover every instance before the loop reads them.
  if (const char* why = health_.invariant_violation(state.health)) {
    return why;
  }
  std::size_t live = 0;
  std::size_t serving = 0;
  std::size_t markers = 0;
  bool any_sketch = false;
  for (std::size_t op = 0; op < k_; ++op) {
    if (state.failed[op] > 1 || state.draining[op] > 1 || state.marker_pending[op] > 1 ||
        state.reply_received[op] > 1) {
      return "PosgScheduler: per-instance flag is not 0/1";
    }
    // Ĉ[op] >= 0: scheduling only adds non-negative estimates and the
    // epoch correction Ĉ += Δop lands on true-cumulated-time-plus-
    // post-marker-estimates, both non-negative. A tiny negative float
    // here means drift cancellation is broken, which voids the greedy
    // bound of Theorem 4.2.
    if (!std::isfinite(state.c_est[op])) {
      return "PosgScheduler: C_hat is not finite";
    }
    if (state.c_est[op] < 0.0) {
      return "PosgScheduler: C_hat went negative";
    }
    if (!(std::isfinite(state.derate[op]) && state.derate[op] >= 1.0)) {
      return "PosgScheduler: de-rate factor must be finite and >= 1";
    }
    if (!std::isfinite(state.reply_delta[op])) {
      return "PosgScheduler: reply delta must be finite";
    }
    if (!(std::isfinite(state.marker_estimate[op]) &&
          (state.marker_estimate[op] == -1.0 || state.marker_estimate[op] >= 0.0))) {
      return "PosgScheduler: marker estimate must be non-negative or the -1 sentinel";
    }
    if (!(std::isfinite(state.ramp_tokens[op]) && state.ramp_tokens[op] >= 0.0)) {
      return "PosgScheduler: ramp tokens must be finite and non-negative";
    }
    if (!state.latency_hints.empty() &&
        !(std::isfinite(state.latency_hints[op]) && state.latency_hints[op] >= 0.0)) {
      return "PosgScheduler: latency hints must be finite and non-negative";
    }
    const bool failed = state.failed[op] == 1;
    const bool draining = state.draining[op] == 1;
    const bool marker = state.marker_pending[op] == 1;
    if (failed) {
      // Quarantine exclusivity: a failed instance has fully left the
      // candidate set — its Ĉ share was redistributed, its sketch dropped
      // from billing, and its marker estimate, de-rate and drain retired.
      if (state.c_est[op] != 0.0) {
        return "PosgScheduler: quarantined instance still holds C_hat";
      }
      if (state.sketches[op].has_value()) {
        return "PosgScheduler: quarantined instance still bills a sketch";
      }
      if (state.marker_estimate[op] != -1.0) {
        return "PosgScheduler: quarantined instance still holds a marker estimate";
      }
      if (state.derate[op] != 1.0) {
        return "PosgScheduler: quarantined instance still de-rated";
      }
      if (draining) {
        return "PosgScheduler: quarantined instance still marked draining";
      }
    } else {
      ++live;
      serving += draining ? 0 : 1;
    }
    // Out of the rotation means no tuple to piggy-back a marker on and no
    // ramp; a draining instance stays in the cluster, Ĉ frozen at the cut.
    if ((failed || draining) && marker) {
      return failed ? "PosgScheduler: quarantined instance still owes a marker"
                    : "PosgScheduler: draining instance still owes a marker";
    }
    if ((failed || draining) && state.ramp_left[op] != 0) {
      return failed ? "PosgScheduler: quarantined instance still ramping"
                    : "PosgScheduler: draining instance still ramping";
    }
    if (failed != (state.health.states[op] == InstanceHealth::kQuarantined)) {
      return "PosgScheduler: health FSM disagrees with the quarantine set";
    }
    // An instance replies only after its marker was piggy-backed, so a
    // received reply and a still-pending marker are mutually exclusive.
    if (marker && state.reply_received[op] == 1) {
      return "PosgScheduler: reply received before its marker was sent";
    }
    markers += marker ? 1 : 0;
    if (const auto& sketch = state.sketches[op]; sketch.has_value()) {
      any_sketch = true;
      if (sketch->dims() != config_.dims() || sketch->seed() != config_.sketch_seed ||
          sketch->heavy_capacity() != config_.heavy_hitter_capacity ||
          sketch->conservative() != config_.conservative_update) {
        return "PosgScheduler: shipped sketch layout does not match this configuration";
      }
      if (const char* why = sketch->invariant_violation()) {
        return why;
      }
    }
  }
  if (live > 0 && serving == 0) {
    return "PosgScheduler: live cluster with an empty serving set";
  }
  const auto image_state = static_cast<State>(state.scheduler_state);
  if (live == 0 && image_state != State::kRoundRobin) {
    // A fully quarantined cluster idles (schedule() throws) until rejoin().
    return "PosgScheduler: zero live instances outside ROUND_ROBIN";
  }

  // State-machine consistency (Fig. 3).
  switch (image_state) {
    case State::kRoundRobin:
      return markers != 0 ? "PosgScheduler: markers pending in ROUND_ROBIN" : nullptr;
    case State::kSendAll:
      return !config_.sync_enabled   ? "PosgScheduler: SEND_ALL with synchronization disabled"
             : state.epoch < 1       ? "PosgScheduler: SEND_ALL before the first epoch"
             : markers < 1           ? "PosgScheduler: SEND_ALL with no marker left to send"
             : !any_sketch           ? "PosgScheduler: SEND_ALL without any billed sketch"
                                     : nullptr;
    case State::kWaitAll:
      return !config_.sync_enabled   ? "PosgScheduler: WAIT_ALL with synchronization disabled"
             : state.epoch < 1       ? "PosgScheduler: WAIT_ALL before the first epoch"
             : markers != 0          ? "PosgScheduler: WAIT_ALL with markers still pending"
             : !any_sketch           ? "PosgScheduler: WAIT_ALL without any billed sketch"
                                     : nullptr;
    case State::kRun:
      return markers != 0  ? "PosgScheduler: markers pending in RUN"
             : !any_sketch ? "PosgScheduler: RUN without any billed sketch"
                           : nullptr;
  }
  return nullptr;
}

void PosgScheduler::debug_validate() const {
  // The counters an image does not carry must agree with the sets it does.
  const SetCounts counts = count_sets();
  POSG_CHECK(counts.live == live_count_, "PosgScheduler: live count out of sync with failed set");
  POSG_CHECK(counts.serving == serving_count_,
             "PosgScheduler: serving count out of sync with the draining set");
  POSG_CHECK(counts.markers == markers_outstanding_,
             "PosgScheduler: marker counter out of sync with pending set");
  POSG_CHECK(counts.ramping == ramps_active_,
             "PosgScheduler: ramp counter out of sync with buckets");
  // Everything an image carries is checked by the function restore() uses.
  const char* why = invariant_violation(checkpoint_state());
  POSG_CHECK(why == nullptr, why);

  if (live_count_ == 0) {
    // Fully-quarantined cluster: the greedy index is stale by design until
    // rejoin() revives it.
    return;
  }

  // Rotation exclusivity: the greedy pick must never name a quarantined
  // instance (the rotation itself is checked structurally by the image —
  // a failed instance never holds a pending marker, and next_round_robin
  // skips the failed set by construction).
  POSG_CHECK(!failed_[greedy_pick()], "PosgScheduler: greedy pick chose a quarantined instance");
  POSG_CHECK(!draining_[greedy_pick()], "PosgScheduler: greedy pick chose a draining instance");
  // The incremental argmin must agree with the reference linear scan at
  // every validation point — the invariant that keeps the optimized
  // scheduling stream byte-identical (tests/golden_schedule_test.cpp).
  greedy_.debug_validate();
  POSG_CHECK(greedy_.live() == serving_count_,
             "PosgScheduler: greedy index live count out of sync with the serving set");
  POSG_CHECK(greedy_pick() == greedy_pick_reference(),
             "PosgScheduler: incremental greedy diverged from the reference scan");

  POSG_CHECK(std::isfinite(global_mean_) && global_mean_ >= 0.0,
             "PosgScheduler: global mean execution time must be finite and non-negative");
  POSG_CHECK(counts.shipped == shipped_ops_.size(),
             "PosgScheduler: shipped-op index out of sync with the sketch slots");
  POSG_CHECK(shipped_cells_.size() == shipped_ops_.size(),
             "PosgScheduler: shipped-cell pointer cache out of sync with the op index");
  for (std::size_t i = 0; i < shipped_ops_.size(); ++i) {
    POSG_CHECK(shipped_cells_[i] == sketches_[shipped_ops_[i]]->cells().data(),
               "PosgScheduler: stale shipped-cell pointer (sketch slot mutated without refresh)");
  }
  if (auto merged = build_merged()) {
    merged->debug_validate();
  }
}

bool PosgScheduler::is_failed(common::InstanceId op) const {
  common::require(op < k_, "PosgScheduler: unknown instance");
  return failed_[op];
}

std::vector<common::InstanceId> PosgScheduler::failed_instances() const {
  std::vector<common::InstanceId> out;
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (failed_[op]) {
      out.push_back(op);
    }
  }
  return out;
}

void PosgScheduler::bind_trace(obs::TraceRing* trace) {
  flush_trace();
  if (trace == nullptr) {
    trace_writer_.reset();
  } else {
    trace_writer_ = std::make_unique<obs::TraceRing::Writer>(*trace);
  }
  health_.bind_trace(trace);
}

void PosgScheduler::flush_trace() {
  if (trace_writer_) {
    trace_writer_->flush();
  }
}

void PosgScheduler::register_metrics(obs::MetricsRegistry& registry, const std::string& prefix,
                                     Mutex* owner_mutex) {
  // Wraps `read` in the owner's lock. Lock order is registry → owner:
  // snapshot() holds the registry mutex while it calls back.
  const auto locked = [owner_mutex](auto read) {
    return [owner_mutex, read] {
      if (owner_mutex == nullptr) {
        return read();
      }
      const MutexLock lock(*owner_mutex);
      return read();
    };
  };
  const auto counter = [&](const std::string& name, auto read) {
    registry.counter_fn(prefix + name, locked(read));
  };
  const auto gauge = [&](const std::string& name, auto read) {
    registry.gauge_fn(prefix + name, locked([read] { return static_cast<double>(read()); }));
  };
  counter(".scheduler.decisions", [this] { return decisions_; });
  counter(".scheduler.epochs_completed", [this] { return epochs_completed_; });
  counter(".scheduler.epoch", [this] { return epoch_; });
  counter(".scheduler.stale_replies", [this] { return stale_replies_; });
  counter(".scheduler.rejoins", [this] { return rejoin_count_; });
  counter(".scheduler.drains_begun", [this] { return drains_begun_; });
  counter(".scheduler.retires", [this] { return retires_; });
  counter(".scheduler.drain_cancels", [this] { return drain_cancels_; });
  gauge(".scheduler.live_instances", [this] { return live_count_; });
  gauge(".scheduler.serving_instances", [this] { return serving_count_; });
  gauge(".scheduler.state", [this] { return state_; });
  gauge(".scheduler.source_id", [this] { return source_id_; });
  counter(".scheduler.pool_events_applied", [this] { return pool_events_applied_; });
  // How many pool membership events this view has not yet replayed. A
  // persistently non-zero lag means the view stopped routing (sync happens
  // on the schedule path) or a peer is churning faster than this source
  // schedules — obs_report.py's reconciliation table keys off this.
  gauge(".scheduler.reconcile_lag", [this] { return pool_lag(); });
  counter(".health.suspect_transitions", [this] { return health_.suspect_transitions(); });
  counter(".health.degraded_transitions", [this] { return health_.degraded_transitions(); });
  counter(".health.promotions", [this] { return health_.promotions(); });
  // Per-instance billing de-rate (1.0 = healthy). The registry is the one
  // exposition path for these — metrics::ResilienceStats carries the same
  // values only as a programmatic snapshot / log line, never a second
  // metrics family.
  for (common::InstanceId op = 0; op < k_; ++op) {
    gauge(".health.derate." + std::to_string(op), [this, op] { return derate(op); });
  }
}

std::vector<common::InstanceId> PosgScheduler::pending_replies() const {
  std::vector<common::InstanceId> out;
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (reply_pending(op)) {
      out.push_back(op);
    }
  }
  return out;
}

}  // namespace posg::core
