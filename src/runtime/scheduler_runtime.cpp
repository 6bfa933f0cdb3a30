#include "runtime/scheduler_runtime.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/protocol.hpp"

namespace posg::runtime {

SchedulerRuntime::SchedulerRuntime(const SchedulerRuntimeConfig& config,
                                   std::shared_ptr<core::InstancePool> pool)
    : config_(config),
      k_(config.instances),
      metric_prefix_(config.source_id == 0 ? "posg"
                                           : "posg.s" + std::to_string(config.source_id)),
      trace_(kTraceCapacity),
      pool_injected_(pool != nullptr),
      pool_((common::require(config.instances >= 1, "SchedulerRuntime: instances must be >= 1"),
             common::require(pool == nullptr || pool->size() == config.instances,
                             "SchedulerRuntime: shared pool size disagrees with instances"),
             pool != nullptr ? std::move(pool)
                             : std::make_shared<core::InstancePool>(config.instances))),
      scheduler_(pool_, config.posg, config.source_id, /*private_pool=*/!pool_injected_),
      links_(config.instances),
      outboxes_(config.instances),
      dead_(config.instances),
      drain_sent_(config.instances),
      routed_(config.instances),
      pending_reattach_(config.instances, 0) {
  common::require(config.recv_deadline.count() > 0, "SchedulerRuntime: recv_deadline must be > 0");
  common::require(config.hello_deadline.count() > 0,
                  "SchedulerRuntime: hello_deadline must be > 0");
  for (std::size_t op = 0; op < k_; ++op) {
    outboxes_[op] = std::make_unique<Outbox>();
    dead_[op] = std::make_unique<std::atomic<bool>>(false);
    drain_sent_[op] = std::make_unique<std::atomic<bool>>(false);
  }
  // Binding is unconditional; whether events flow is the ring's armed
  // flag, so tracing can be toggled at runtime via trace().set_enabled().
  trace_.set_enabled(config.tracing);
  scheduler_.bind_trace(&trace_);
  if (config_.recover && !config_.checkpoint_path.empty()) {
    // Restore-or-cold-start: a missing, torn, corrupt, or invariant-
    // rejected checkpoint must never take the restarted scheduler down —
    // restore() validates everything before applying anything, so a throw
    // anywhere below leaves scheduler_ in its freshly-constructed state.
    try {
      const auto bytes = core::read_checkpoint_file(config_.checkpoint_path);
      if (!bytes.has_value()) {
        throw std::runtime_error("checkpoint file missing or unreadable");
      }
      const core::CheckpointState state = core::decode(*bytes);
      scheduler_.restore(state);
      recovered_ = true;
      recovered_epoch_ = state.epoch;
      last_checkpoint_epochs_ = state.epochs_completed;
    } catch (const std::exception&) {
      recovered_ = false;
      recovered_epoch_ = 0;
      recovery_cold_starts_ = 1;
    }
    obs::TraceEvent event;
    event.type = obs::TraceEventType::kRecoveryBegin;
    event.detail = recovered_ ? 1 : 0;
    event.a = static_cast<std::uint64_t>(recovered_epoch_);
    trace_.record(event);
  }
  register_runtime_metrics();
}

void SchedulerRuntime::register_runtime_metrics() {
  // The scheduler's own family (<prefix>.scheduler.*, .health.*), each
  // callback under mutex_: snapshots run concurrently with the readers and
  // the router. Lock order is registry → runtime; nothing acquires the
  // registry mutex while holding mutex_, so the order cannot invert.
  scheduler().register_metrics(metrics_, metric_prefix_, &mutex_);
  metrics_.counter_fn(metric_prefix_ + ".runtime.reroutes",
                      [this] { return reroutes_.load(std::memory_order_relaxed); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.routed", [this] {
    std::uint64_t total = 0;
    for (const auto& per_instance : routed_) {
      total += per_instance.load(std::memory_order_relaxed);
    }
    return total;
  });
  // Send-path batching: frames per send call is the mean outbox the link
  // writer handed to the kernel at once.
  metrics_.counter_fn(metric_prefix_ + ".runtime.frames_sent",
                      [this] { return frames_sent_.load(std::memory_order_relaxed); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.send_calls",
                      [this] { return send_calls_.load(std::memory_order_relaxed); });
  metrics_.gauge_fn(metric_prefix_ + ".runtime.quarantined", [this] {
    MutexLock lock(mutex_);
    return static_cast<double>(k_ - scheduler_.live_instances());
  });
  // Recovery counters (obs_report.py's recovery section). recovered_ /
  // recovered_epoch_ are constructor-written and immutable, so the
  // callbacks read them lock-free.
  metrics_.counter_fn(metric_prefix_ + ".runtime.checkpoint_writes",
                      [this] { return checkpoint_writes_.load(std::memory_order_relaxed); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.checkpoint_failures",
                      [this] { return checkpoint_failures_.load(std::memory_order_relaxed); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.recovery_restored",
                      [this] { return static_cast<std::uint64_t>(recovered_ ? 1 : 0); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.recovery_cold_starts",
                      [this] { return recovery_cold_starts_; });
  metrics_.counter_fn(metric_prefix_ + ".runtime.recovery_checkpoint_epoch",
                      [this] { return static_cast<std::uint64_t>(recovered_epoch_); });
  metrics_.counter_fn(metric_prefix_ + ".runtime.reattach_count",
                      [this] { return reattach_count_.load(std::memory_order_relaxed); });
}

std::vector<obs::TraceEvent> SchedulerRuntime::trace_events() {
  {
    MutexLock lock(mutex_);
    scheduler_.flush_trace();
  }
  return trace_.snapshot();
}

SchedulerRuntime::~SchedulerRuntime() {
  try {
    finish();
  } catch (...) {
    // Destructor shutdown is best-effort; readers are joined regardless.
  }
}

void SchedulerRuntime::attach(common::InstanceId op, std::unique_ptr<net::FrameTransport> link) {
  common::require(op < k_, "SchedulerRuntime: attach out of range");
  common::require(!started_, "SchedulerRuntime: attach after start");
  common::require(links_[op] == nullptr, "SchedulerRuntime: instance already attached");
  common::require(link != nullptr && link->valid(), "SchedulerRuntime: invalid link");
  links_[op] = std::move(link);
}

void SchedulerRuntime::accept_registrations(net::Listener& listener) {
  const std::size_t max_attempts =
      config_.max_registration_attempts != 0 ? config_.max_registration_attempts : 2 * k_ + 8;
  // After a recovery restore, only instances the checkpoint considered
  // live are waited for: a checkpointed quarantine slot has no process to
  // hear from (its crash is exactly why it was quarantined). If such a
  // peer does show up it is attached opportunistically and re-admitted in
  // start() — it just never blocks registration.
  std::vector<std::uint8_t> expected(k_, 1);
  if (recovered_) {
    MutexLock lock(mutex_);
    for (std::size_t op = 0; op < k_; ++op) {
      expected[op] = scheduler_.is_failed(op) ? 0 : 1;
    }
  }
  std::size_t want = 0;
  std::size_t attached = 0;
  for (std::size_t op = 0; op < k_; ++op) {
    if (expected[op] != 0) {
      ++want;
      if (links_[op] != nullptr) {
        ++attached;
      }
    }
  }
  std::size_t attempts = 0;
  while (attached < want) {
    if (++attempts > max_attempts) {
      throw RegistrationError("SchedulerRuntime: registration attempts exhausted (" +
                              std::to_string(attached) + "/" + std::to_string(want) +
                              " instances registered)");
    }
    // A peer that never dials (it died before its connect) must not stall
    // registration: a silent hello_deadline spends one attempt.
    std::optional<net::Socket> accepted = listener.accept(config_.hello_deadline);
    if (!accepted.has_value()) {
      continue;
    }
    // Hello = fresh registration; SchedulerHello = a survivor of a
    // scheduler restart, reconciled in start(). Registration wants an id
    // that has no link yet.
    const std::optional<Registration> peer = read_registration(*accepted);
    if (!peer.has_value() || links_[peer->instance] != nullptr) {
      continue;  // refused or a duplicate id: the socket closes here
    }
    const common::InstanceId op = peer->instance;
    links_[op] = std::make_unique<net::SocketTransport>(std::move(*accepted));
    pending_reattach_[op] = peer->reattaching ? 1 : 0;
    if (expected[op] != 0) {
      ++attached;
    }
  }
}

std::optional<SchedulerRuntime::Registration> SchedulerRuntime::read_registration(
    net::Socket& socket) const {
  try {
    const net::RecvResult first = socket.recv_frame(config_.hello_deadline);
    if (first.status != net::RecvStatus::kFrame) {
      return std::nullopt;  // silent or instantly-dead peer
    }
    const net::Message message = net::decode(first.payload);
    Registration peer{};
    common::SourceId source = 0;
    if (const auto* hello = std::get_if<net::Hello>(&message)) {
      peer = Registration{hello->instance, false};
      source = hello->source;
    } else if (const auto* survivor = std::get_if<net::SchedulerHello>(&message)) {
      peer = Registration{survivor->instance, true};
      source = survivor->source;
    } else {
      return std::nullopt;  // wrong message kind
    }
    // A frame addressed to another source's view is a crossed wire:
    // attaching it would bind the wrong tracker to the wrong Ĉ.
    if (source != config_.source_id || peer.instance >= k_) {
      return std::nullopt;
    }
    return peer;
  } catch (const std::exception&) {
    return std::nullopt;  // malformed frame or transport error
  }
}

void SchedulerRuntime::start() {
  common::require(!started_, "SchedulerRuntime: started twice");
  for (std::size_t op = 0; op < k_; ++op) {
    if (links_[op] != nullptr) {
      continue;
    }
    // Only a slot the restored checkpoint already quarantined may start
    // unattached — its instance died before the scheduler did, and it can
    // still come back later through the rejoin listener.
    MutexLock lock(mutex_);
    common::require(scheduler_.is_failed(op),
                    "SchedulerRuntime: start with unattached instance " + std::to_string(op));
  }
  started_ = true;
  {
    // last_feedback_ is GUARDED_BY(mutex_): take the lock for the seed
    // write too, even though the reader threads only spawn below — the
    // guard discipline admits no unlocked writes, and the uncontended
    // acquisition here is free.
    MutexLock lock(mutex_);
    last_feedback_.assign(k_, std::chrono::steady_clock::now());
    deadline_owing_.assign(k_, 0);
  }
  link_writer_ = std::thread([this] { link_writer_loop(); });
  // Complete the registration-time SchedulerHello handshakes before any
  // tuple can be routed: the ReattachAck is queued ahead of the first
  // post-recovery sync marker, so each survivor's tracker is rebased to the
  // checkpointed cut (no stale-Δ double billing) by the time it replies.
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (pending_reattach_[op] == 0 || links_[op] == nullptr) {
      continue;
    }
    pending_reattach_[op] = 0;
    complete_reattach(op);
  }
  if (!config_.checkpoint_path.empty()) {
    ckpt_writer_ = std::thread([this] { checkpoint_writer_loop(); });
  }
  readers_.resize(k_);  // slot per instance so a rejoin can restart one
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (links_[op] == nullptr) {
      dead_[op]->store(true);  // checkpointed quarantine slot, no reader
      continue;
    }
    readers_[op] = std::thread([this, op] { reader_loop(op); });
  }
}

void SchedulerRuntime::enable_rejoin(net::Listener& listener) {
  common::require(config_.allow_rejoin, "SchedulerRuntime: enable_rejoin without allow_rejoin");
  common::require(started_, "SchedulerRuntime: enable_rejoin before start");
  common::require(!rejoin_acceptor_.joinable(), "SchedulerRuntime: rejoin already enabled");
  rejoin_acceptor_ = std::thread([this, &listener] { rejoin_acceptor_loop(&listener); });
}

bool SchedulerRuntime::append_locked(Outbox& box, std::span<const std::byte> payload) {
  if (box.broken) {
    return false;  // the link failed; a frame queued now would be dropped
  }
  const bool was_empty = box.bytes.empty();
  net::append_frame(box.bytes, payload);
  ++box.frames;
  return was_empty;
}

void SchedulerRuntime::drop_locked(Outbox& box) {
  box.frames = 0;
  box.bytes.clear();
}

void SchedulerRuntime::queue_frame(common::InstanceId op, std::span<const std::byte> payload) {
  Outbox& box = *outboxes_[op];
  bool wake = false;
  {
    MutexLock lock(box.mutex);
    wake = append_locked(box, payload);
  }
  if (wake) {
    wake_writer();
  }
}

void SchedulerRuntime::wake_writer() noexcept {
  if (writer_parked_.load(std::memory_order_seq_cst)) {
    writer_wake_.fetch_add(1);
    writer_wake_.notify_one();
  }
}

void SchedulerRuntime::pause_writer() {
  MutexLock lock(pause_mutex_);
  if (!pause_cut_) {
    pause_end_.wait_for(lock, kWriterPause);
  }
  pause_cut_ = false;
}

void SchedulerRuntime::cut_writer_pause() {
  {
    MutexLock lock(pause_mutex_);
    pause_cut_ = true;
  }
  pause_end_.notify_one();
}

void SchedulerRuntime::link_writer_loop() {
#if defined(__linux__)
  // This thread only: the default 50 µs timer slack would stretch each
  // kWriterPause to ~60 µs, and the router would then wait on full links.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
  std::vector<std::byte> batch;
  while (true) {
    std::uint64_t most = 0;  // the most frames one outbox held this pass
    for (common::InstanceId op = 0; op < k_; ++op) {
      most = std::max(most, send_outbox(op, batch));
    }
    if (most >= kPaceFrames) {
      // The router outpaces the writer: let the outboxes fill rather than
      // chase it (fewer, fuller sends, fewer instance wake-ups, less
      // contention on the send mutexes).
      pause_writer();
      continue;
    }
    if (most > 0) {
      continue;  // light traffic: look again at once, unpaced
    }
    if (writer_stop_.load()) {
      return;  // stopped, and a full pass found nothing left to send
    }
    // Park (see writer_parked_): announce, re-check every outbox under its
    // mutex, and only then wait on the ticket read before the announcement.
    const std::uint32_t ticket = writer_wake_.load();
    writer_parked_.store(true, std::memory_order_seq_cst);
    bool idle = !writer_stop_.load();
    for (common::InstanceId op = 0; op < k_ && idle; ++op) {
      Outbox& box = *outboxes_[op];
      MutexLock lock(box.mutex);
      idle = box.bytes.empty();
    }
    if (idle) {
      writer_wake_.wait(ticket);
    }
    writer_parked_.store(false, std::memory_order_relaxed);
  }
}

std::uint64_t SchedulerRuntime::send_outbox(common::InstanceId op, std::vector<std::byte>& batch) {
  Outbox& box = *outboxes_[op];
  std::uint64_t frames = 0;
  net::FrameTransport* link = nullptr;
  {
    MutexLock lock(box.mutex);
    if (box.bytes.empty()) {
      return 0;
    }
    batch.swap(box.bytes);  // the outbox keeps the old batch's capacity
    frames = std::exchange(box.frames, 0);
    box.sending = batch.size();
    link = links_[op].get();
  }
  bool failed = false;
  try {
    link->send_frames(batch);
  } catch (const std::exception&) {
    failed = true;
  }
  batch.clear();
  if (failed) {
    // Quarantine first: once the link reads as broken, the scheduler no
    // longer picks op, so each reroute in route() strictly shrinks its
    // candidates.
    handle_failure(op, "send failed: link writer");
  } else {
    // Counted before the send settles, so a flush() that returns sees them.
    frames_sent_.fetch_add(frames, std::memory_order_relaxed);
    send_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    MutexLock lock(box.mutex);
    box.sending = 0;
    if (failed) {
      box.broken = true;
      drop_locked(box);  // like frames in a dead peer's socket buffer
    }
  }
  box.changed.notify_all();
  return frames;
}

void SchedulerRuntime::stop_writer() {
  if (!link_writer_.joinable()) {
    return;
  }
  writer_stop_.store(true);
  writer_wake_.fetch_add(1);
  writer_wake_.notify_one();
  link_writer_.join();
}

void SchedulerRuntime::flush() {
  for (const auto& outbox : outboxes_) {
    Outbox& box = *outbox;
    MutexLock lock(box.mutex);
    while (!box.bytes.empty() || box.sending != 0) {
      cut_writer_pause();  // a caller waiting on the writer does not wait out the pause
      box.changed.wait(lock);
    }
  }
}

bool SchedulerRuntime::request_drain(common::InstanceId op) {
  common::require(started_, "SchedulerRuntime: request_drain before start");
  common::require(op < k_, "SchedulerRuntime: request_drain out of range");
  // Hold this link's send mutex across the scheduler transition *and* the
  // enqueue: a tuple whose schedule() decision predates the drain either
  // was queued ahead of the DrainRequest (FIFO outbox and link ⇒ executed
  // before the instance reads the request) or observes drain_sent_ under
  // this same mutex and is rerouted. Acquiring send → mutex_ cannot
  // deadlock: the order is rank-increasing (kNetSend < kSchedulerState)
  // and no thread ever acquires a send mutex while holding mutex_.
  Outbox& box = *outboxes_[op];
  MutexLock send_lock(box.mutex);
  common::TimeMs cut = 0.0;
  common::Epoch epoch = 0;
  {
    MutexLock lock(mutex_);
    if (scheduler_.is_failed(op) || scheduler_.is_draining(op) ||
        scheduler_.serving_instances() <= 1) {
      return false;
    }
    cut = scheduler_.begin_drain(op);
    epoch = scheduler_.epoch();
  }
  drain_sent_[op]->store(true);
  // If the drainee died before the request reaches it, the writer's
  // failed send takes the crash path (mark_failed cancels the drain and
  // redistributes the frozen cut).
  const bool wake = append_locked(box, net::encode(net::DrainRequest{op, epoch, cut}));
  send_lock.unlock();
  box.changed.notify_all();  // a route() waiting on op's cap reroutes now
  if (wake) {
    wake_writer();
  }
  return true;
}

bool SchedulerRuntime::handle_failure(common::InstanceId op, const std::string& reason) {
  if (severed_.load()) {
    return true;  // sever() closed the links itself; nobody actually failed
  }
  MutexLock lock(mutex_);
  if (scheduler_.is_failed(op)) {
    return true;  // EOF and epoch deadline may both report the same crash
  }
  if (scheduler_.live_instances() <= 1 && !config_.allow_rejoin) {
    // Without rejoin there is no way back from an empty candidate set,
    // so losing the last instance is fatal. With rejoin enabled the
    // quarantine proceeds: route() throws core::NoLiveInstanceError
    // until a peer re-registers.
    fatal_.store(true);
    quarantine_log_.push_back({op, reason + " (last live instance)"});
    return false;
  }
  quarantine_locked(op, reason);
  return true;
}

void SchedulerRuntime::quarantine_locked(common::InstanceId op, std::string reason) {
  scheduler_.mark_failed(op);
  dead_[op]->store(true);
  quarantine_log_.push_back({op, std::move(reason)});
}

void SchedulerRuntime::check_epoch_deadline_locked() {
  if (config_.epoch_deadline.count() <= 0) {
    return;
  }
  // Epoch churn makes a fixed (state, epoch) watch useless: any survivor's
  // shipment opens a fresh epoch (Fig. 3.F), so a feedback-mute peer never
  // pins one epoch — it just keeps *every* epoch from completing. What
  // identifies it is recency: it owes the in-flight epoch a reply and has
  // said nothing at all for the whole deadline, while healthy instances
  // keep shipping and replying.
  const auto state = scheduler_.state();
  if (state != core::PosgScheduler::State::kSendAll &&
      state != core::PosgScheduler::State::kWaitAll) {
    return;
  }
  // Snapshot who owes a reply before quarantining anyone: a quarantine can
  // close the epoch, and the scan must still visit everyone who owed it.
  for (common::InstanceId op = 0; op < k_; ++op) {
    deadline_owing_[op] = scheduler_.reply_pending(op) ? 1 : 0;
  }
  const auto now = std::chrono::steady_clock::now();
  for (common::InstanceId op = 0; op < k_; ++op) {
    if (deadline_owing_[op] == 0) {
      continue;
    }
    const auto age = now - last_feedback_[op];
    if (age >= config_.epoch_deadline / 2) {
      // Halfway to quarantine: surface feedback staleness to the health
      // monitor so the instance is already Suspect before it goes mute.
      scheduler_.health().note_stale_feedback(op);
    }
    if (scheduler_.live_instances() <= 1 && !config_.allow_rejoin) {
      break;  // keep the last survivor even if its reply was lost
    }
    if (age < config_.epoch_deadline) {
      continue;
    }
    quarantine_locked(op, "epoch deadline: no feedback since the epoch started");
  }
}

common::InstanceId SchedulerRuntime::route(common::Item item, common::SeqNo seq) {
  common::require(started_, "SchedulerRuntime: route before start");
  net::TupleFrameBuffer buffer{};
  // One attempt per instance is enough: each failed send quarantines its
  // target, strictly shrinking the candidate set.
  for (std::size_t attempt = 0; attempt < k_; ++attempt) {
    if (fatal_.load()) {
      break;
    }
    core::Decision decision;
    {
      MutexLock lock(mutex_);
      check_epoch_deadline_locked();
      decision = scheduler_.schedule(item, seq);
    }
    const auto frame =
        net::encode_tuple(net::TupleMessage{seq, item, decision.sync_request}, buffer);
    Outbox& box = *outboxes_[decision.instance];
    std::atomic<bool>& drain_sent = *drain_sent_[decision.instance];
    bool queued = false;
    bool wake = false;
    {
      MutexLock send_lock(box.mutex);
      while (box.bytes.size() + box.sending >= kOutboxBytes && !box.broken &&
             !drain_sent.load()) {
        cut_writer_pause();  // a full link does not wait out the pause
        box.changed.wait(send_lock);
      }
      // A drain_sent target raced request_drain: the DrainRequest is
      // already queued and nothing may follow it (the drainee's dry-queue
      // guarantee is exactly "no tuple after the request"); the phantom Ĉ
      // bill from schedule() is absorbed by the drain's final Δ, which
      // measures true executed work against the cut. A broken target's
      // send failed and the writer quarantined it; Ĉ already billed this
      // attempt, and the next synchronization absorbs that skew. Either
      // way the scheduler no longer picks it: reroute.
      if (!box.broken && !drain_sent.load()) {
        wake = append_locked(box, frame);
        queued = true;
      }
    }
    if (!queued) {
      reroutes_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (wake) {
      wake_writer();
    }
    routed_[decision.instance].fetch_add(1, std::memory_order_relaxed);
    return decision.instance;
  }
  throw core::NoLiveInstanceError("SchedulerRuntime: no live instance left to route to");
}

void SchedulerRuntime::complete_reattach(common::InstanceId op) {
  common::TimeMs seed = 0.0;
  {
    MutexLock lock(mutex_);
    if (scheduler_.is_failed(op)) {
      // The checkpoint (or a cold start after a rejected one) says this
      // slot is quarantined, yet its process is alive and knocking: the
      // stale pre-crash history is unusable, so re-admit it through the
      // rejoin path — Ĉ seeded to the survivor mean, ramp applied — and
      // let the ReattachAck rebase its tracker to that seed.
      scheduler_.rejoin(op);
      seed = scheduler_.estimated_loads()[op];
      rejoin_log_.push_back(op);
    } else {
      // Live in the checkpoint: reconcile against the checkpointed cut.
      // reattach() pre-satisfies the slot's in-flight reply and disarms
      // its marker estimate so a stale pre-crash Δ counts as stale
      // instead of billing twice.
      seed = scheduler_.reattach(op);
    }
    last_feedback_[op] = std::chrono::steady_clock::now();
    maybe_checkpoint_locked();
  }
  queue_frame(op, net::encode(net::ReattachAck{op, seed}));
  reattach_count_.fetch_add(1, std::memory_order_relaxed);
}

void SchedulerRuntime::maybe_checkpoint_locked() {
  if (config_.checkpoint_path.empty()) {
    return;
  }
  const std::uint64_t done = scheduler_.epochs_completed();
  if (done <= last_checkpoint_epochs_) {
    return;
  }
  last_checkpoint_epochs_ = done;
  core::CheckpointState state = scheduler_.checkpoint_state();
  {
    MutexLock lock(ckpt_mutex_);  // kSchedulerState → kCheckpointWriter: rank-increasing
    ckpt_pending_ = std::move(state);
  }
  ckpt_cv_.notify_one();
}

void SchedulerRuntime::checkpoint_writer_loop() {
  while (true) {
    std::optional<core::CheckpointState> state;
    {
      MutexLock lock(ckpt_mutex_);
      while (!ckpt_pending_.has_value() && !ckpt_stop_) {
        ckpt_cv_.wait(lock);
      }
      if (!ckpt_pending_.has_value()) {
        return;  // stop requested with nothing left to flush
      }
      state = std::move(ckpt_pending_);
      ckpt_pending_.reset();
    }
    // Encode and write outside every lock: serialization touches only the
    // captured copy, and the atomic tmp+rename means a crash mid-write
    // leaves the previous checkpoint intact.
    try {
      const std::vector<std::byte> bytes = core::encode(*state);
      core::write_checkpoint_file(config_.checkpoint_path, bytes);
      checkpoint_writes_.fetch_add(1, std::memory_order_relaxed);
      obs::TraceEvent event;
      event.type = obs::TraceEventType::kCheckpointWrite;
      event.a = static_cast<std::uint64_t>(state->epoch);
      event.value = static_cast<double>(bytes.size());
      trace_.record(event);
    } catch (const std::exception&) {
      // Disk trouble degrades durability, never the run: count it and
      // keep draining so a recovered disk resumes checkpointing.
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SchedulerRuntime::rejoin_acceptor_loop(net::Listener* listener) {
  while (!stop_acceptor_.load()) {
    std::optional<net::Socket> socket;
    try {
      socket = listener->accept(std::chrono::milliseconds(200));
    } catch (const std::exception&) {
      return;  // listener torn down — acceptor has nothing left to do
    }
    if (!socket.has_value()) {
      continue;  // deadline tick: re-check the stop flag
    }
    const std::optional<Registration> peer = read_registration(*socket);
    if (!peer.has_value()) {
      continue;  // refused: the socket closes here
    }
    const common::InstanceId op = peer->instance;
    try {
      if (!peer->reattaching) {
        MutexLock lock(mutex_);
        if (!scheduler_.is_failed(op)) {
          continue;  // only a quarantined id may rejoin with a plain Hello
        }
      } else {
        // A SchedulerHello from a live id is a survivor whose side of the
        // link broke before ours noticed (half-open link): retire the old
        // reader explicitly so its slot is safe to touch. From a
        // quarantined id it degrades to the rejoin path below.
        dead_[op]->store(true);
      }
      // The old reader observed dead_[op] and exited (or is about to);
      // join it before touching its slot, then swap the link under the
      // send mutex once the writer is not sending on it, so the writer
      // never sees a half-replaced transport.
      if (readers_[op].joinable()) {
        readers_[op].join();
      }
      Outbox& box = *outboxes_[op];
      {
        MutexLock send_lock(box.mutex);
        while (box.sending != 0) {
          box.changed.wait(send_lock);
        }
        links_[op] = std::make_unique<net::SocketTransport>(std::move(*socket));
        // The new link starts with an empty outbox: frames queued for the
        // old one die with it.
        drop_locked(box);
        box.broken = false;
        // A slot whose previous life ended in a drain keeps drain_sent_
        // set so no tuple could follow the DrainRequest; its next life
        // (this rejoin — elastically, a scale-up) starts clean.
        drain_sent_[op]->store(false);
      }
      box.changed.notify_all();
      if (peer->reattaching) {
        // complete_reattach reconciles against current state: live →
        // reattach (checkpointed-cut seed), quarantined → rejoin (mean
        // seed) — either way the ReattachAck rebases the survivor.
        complete_reattach(op);
      } else {
        common::TimeMs seed = 0.0;
        {
          MutexLock lock(mutex_);
          scheduler_.rejoin(op);
          seed = scheduler_.estimated_loads()[op];
          last_feedback_[op] = std::chrono::steady_clock::now();
          rejoin_log_.push_back(op);
        }
        queue_frame(op, net::encode(net::ReattachAck{op, seed}));
      }
      dead_[op]->store(false);
      readers_[op] = std::thread([this, op] { reader_loop(op); });
    } catch (const std::exception&) {
      continue;  // the rejoiner died mid-accept
    }
  }
}

void SchedulerRuntime::reader_loop(common::InstanceId op) {
  net::FrameTransport& link = *links_[op];
  while (true) {
    if (dead_[op]->load()) {
      return;  // quarantined: nothing this link says matters any more
    }
    net::RecvResult received;
    try {
      received = link.recv_frame(config_.recv_deadline);
    } catch (const std::exception&) {
      handle_failure(op, "transport error on feedback path");
      return;
    }
    if (received.status == net::RecvStatus::kTimeout) {
      if (draining_.load() && std::chrono::steady_clock::now() > drain_deadline_) {
        return;  // shutdown grace period expired; stop waiting for EOF
      }
      continue;
    }
    if (received.status == net::RecvStatus::kEof) {
      if (!draining_.load()) {
        handle_failure(op, "connection EOF");
      }
      return;
    }
    net::Message message;
    try {
      message = net::decode(received.payload);
    } catch (const std::invalid_argument&) {
      // A peer speaking garbage is as gone as a dead one — quarantine
      // rather than risk folding corrupt feedback into Ĉ.
      handle_failure(op, "undecodable frame");
      return;
    }
    bool retired = false;
    try {
      MutexLock lock(mutex_);
      last_feedback_[op] = std::chrono::steady_clock::now();
      if (auto* shipment = std::get_if<core::SketchShipment>(&message)) {
        // Feedback stamped for another source's view must never fold into
        // this Ĉ (require throws into the protocol-violation catch below).
        common::require(shipment->source == config_.source_id,
                        "SketchShipment: frame addressed to another source's view");
        // `message` is dead after dispatch — let the scheduler steal the
        // decoded sketch instead of copying its cell array.
        scheduler_.on_feedback(core::FeedbackEvent{std::move(*shipment)});
      } else if (const auto* reply = std::get_if<core::SyncReply>(&message)) {
        common::require(reply->source == config_.source_id,
                        "SyncReply: frame addressed to another source's view");
        scheduler_.on_feedback(core::FeedbackEvent{*reply});
      } else if (const auto* complete = std::get_if<net::DrainComplete>(&message)) {
        // End of a lossless drain: bill the final Δ and retire the slot.
        // A DrainComplete from an instance that is not draining (or that
        // claims another id) is a protocol violation — retire()'s own
        // require throws into the catch below.
        common::require(complete->instance == op,
                        "DrainComplete: frame claims a different instance id");
        DrainEvent event;
        event.instance = op;
        event.epoch = complete->epoch;
        event.cut = scheduler_.estimated_loads()[op];  // frozen since begin_drain
        event.final_delta = complete->delta;
        event.final_billed = scheduler_.retire(op, complete->delta);
        event.executed = complete->executed;
        event.routed = routed_[op].load(std::memory_order_relaxed);
        drain_log_.push_back(event);
        dead_[op]->store(true);  // slot is free for a future scale-up rejoin
        retired = true;
      }
      // Data-path messages echoed at the scheduler are ignored.
      // Feedback is where epoch boundaries happen (the WAIT_ALL → RUN
      // edge fires on the last Δ reply), so this is the checkpoint capture
      // point — a cheap cadence check on every other message.
      maybe_checkpoint_locked();
    } catch (const std::invalid_argument&) {
      handle_failure(op, "protocol violation in feedback message");
      return;
    }
    if (retired) {
      return;  // the instance exits right after DrainComplete; so do we
    }
  }
}

void SchedulerRuntime::finish() {
  if (!started_ || finished_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  // Stop the rejoin acceptor first: it mutates readers_/links_ slots, so
  // it must be gone before the joins below walk them.
  stop_acceptor_.store(true);
  if (rejoin_acceptor_.joinable()) {
    rejoin_acceptor_.join();
  }
  drain_deadline_ = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  draining_.store(true);
  const auto eos = net::encode(net::EndOfStream{});
  for (common::InstanceId op = 0; op < k_; ++op) {
    bool skip;
    {
      MutexLock lock(mutex_);
      // A draining instance's exit is its DrainComplete, not EndOfStream;
      // its reader returns when the retirement lands.
      skip = scheduler_.is_failed(op) || scheduler_.is_draining(op);
    }
    if (!skip) {
      queue_frame(op, eos);  // behind every frame already queued
    }
  }
  // An instance that died at the finish line fails the writer's send; its
  // reader observes the EOF. The writer is joined before any link closes.
  flush();
  stop_writer();
  for (auto& reader : readers_) {
    if (reader.joinable()) {
      reader.join();
    }
  }
  // Checkpoints are published by the readers and the rejoin acceptor,
  // both joined above — the writer just drains its pending slot and exits.
  if (ckpt_writer_.joinable()) {
    {
      MutexLock lock(ckpt_mutex_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_one();
    ckpt_writer_.join();
  }
  for (auto& link : links_) {
    if (link) {
      link->close();
    }
  }
  if (fatal_.load()) {
    // The last live instance died, perhaps after the last route() had
    // returned: the tuples queued for it are lost, and the caller must
    // hear it as route() would have said it.
    throw core::NoLiveInstanceError("SchedulerRuntime: the last live instance died");
  }
}

void SchedulerRuntime::sever() {
  if (!started_ || finished_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  // Order matters: disarm the failure paths FIRST, so the readers' view
  // of the links dying below is "shutdown", not "k instance crashes".
  severed_.store(true);
  drain_deadline_ = std::chrono::steady_clock::now();
  draining_.store(true);
  stop_acceptor_.store(true);
  if (rejoin_acceptor_.joinable()) {
    rejoin_acceptor_.join();
  }
  // What the outboxes still hold is lost, as a SIGKILL would lose it; the
  // writer finishes at most the send it is in.
  for (const auto& outbox : outboxes_) {
    Outbox& box = *outbox;
    {
      MutexLock lock(box.mutex);
      drop_locked(box);
    }
    box.changed.notify_all();
  }
  stop_writer();
  // No EndOfStream — the severance IS the message. The readers return at
  // their next poll tick (the drain deadline above is already expired);
  // only then are the sockets closed, preserving finish()'s rule that no
  // thread ever closes a socket another thread is polling. The instances
  // see the EOF the moment the links close below.
  for (auto& reader : readers_) {
    if (reader.joinable()) {
      reader.join();
    }
  }
  for (auto& link : links_) {
    if (link) {
      link->close();
    }
  }
  if (ckpt_writer_.joinable()) {
    {
      MutexLock lock(ckpt_mutex_);
      ckpt_stop_ = true;
    }
    ckpt_cv_.notify_one();
    ckpt_writer_.join();
  }
}

std::vector<common::TimeMs> SchedulerRuntime::estimated_loads() const {
  MutexLock lock(mutex_);
  return scheduler_.estimated_loads();
}

void SchedulerRuntime::set_external_loads(const std::vector<common::TimeMs>& external) {
  MutexLock lock(mutex_);
  scheduler_.set_external_loads(external);
}

core::PosgScheduler::State SchedulerRuntime::state() const {
  MutexLock lock(mutex_);
  return scheduler_.state();
}

common::Epoch SchedulerRuntime::epoch() const {
  MutexLock lock(mutex_);
  return scheduler_.epoch();
}

std::size_t SchedulerRuntime::live_instances() const {
  MutexLock lock(mutex_);
  return scheduler_.live_instances();
}

std::vector<common::InstanceId> SchedulerRuntime::quarantined() const {
  MutexLock lock(mutex_);
  return scheduler_.failed_instances();
}

std::vector<SchedulerRuntime::QuarantineEvent> SchedulerRuntime::quarantine_log() const {
  MutexLock lock(mutex_);
  return quarantine_log_;
}

std::vector<std::uint64_t> SchedulerRuntime::routed_counts() const {
  std::vector<std::uint64_t> counts(routed_.size());
  for (std::size_t op = 0; op < routed_.size(); ++op) {
    counts[op] = routed_[op].load(std::memory_order_relaxed);
  }
  return counts;
}

std::uint64_t SchedulerRuntime::stale_replies() const {
  MutexLock lock(mutex_);
  return scheduler_.stale_reply_count();
}

std::vector<common::InstanceId> SchedulerRuntime::rejoin_log() const {
  MutexLock lock(mutex_);
  return rejoin_log_;
}

std::vector<SchedulerRuntime::DrainEvent> SchedulerRuntime::drain_log() const {
  MutexLock lock(mutex_);
  return drain_log_;
}

std::size_t SchedulerRuntime::serving_instances() const {
  MutexLock lock(mutex_);
  return scheduler_.serving_instances();
}

}  // namespace posg::runtime
