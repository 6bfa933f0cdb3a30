#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "engine/arena.hpp"

namespace posg::engine {

void OutputCollector::emit(Tuple tuple) {
  if (is_spout_) {
    tuple.seq = engine_.next_seq_.fetch_add(1, std::memory_order_relaxed);
    tuple.emitted_at = Clock::now();
    auto& spout = *engine_.spouts_[component_index_];
    engine_.route_emit(spout.outputs, std::move(tuple), *this);
    spout.emitted.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto& bolt = *engine_.bolts_[component_index_];
    engine_.route_emit(bolt.outputs, std::move(tuple), *this);
    bolt.emitted.fetch_add(1, std::memory_order_relaxed);
  }
  ++emitted_;
}

void OutputCollector::flush() {
  const std::vector<Engine::StreamTarget>& targets = is_spout_
                                                         ? engine_.spouts_[component_index_]->outputs
                                                         : engine_.bolts_[component_index_]->outputs;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].tuples.empty()) {
      engine_.flush_stream(targets[i], pending_[i].tuples, *this);  // clears, keeps capacity
    }
  }
}

Engine::Engine(Topology topology, EngineConfig config)
    : config_(config), topology_(std::move(topology)) {
  common::require(config_.queue_capacity >= 1, "Engine: queue_capacity must be >= 1");

  spouts_.reserve(topology_.spouts.size());
  for (const auto& spec : topology_.spouts) {
    auto runtime = std::make_unique<SpoutRuntime>();
    runtime->spec = spec;
    spouts_.push_back(std::move(runtime));
  }
  bolts_.reserve(topology_.bolts.size());
  for (const auto& spec : topology_.bolts) {
    auto runtime = std::make_unique<BoltRuntime>();
    runtime->spec = spec;
    runtime->per_instance_executed.assign(spec.parallelism, 0);
    runtime->per_instance_busy_ms.assign(spec.parallelism, 0.0);
    runtime->per_instance_queue_peak.assign(spec.parallelism, 0);
    if (config_.overload.enabled) {
      runtime->overload = std::make_unique<core::OverloadController>(config_.overload);
      if (config_.trace != nullptr) {
        // ShedWindow events tag the bolt by topology index so a trace dump
        // can tell which stage shed (safe here: the controller is not yet
        // shared with producer threads).
        runtime->overload->bind_trace(config_.trace,
                                      static_cast<std::uint16_t>(bolts_.size()));
      }
    }
    bolts_.push_back(std::move(runtime));
  }

  // Registry handles over the runtime atomics: pull callbacks read the
  // same relaxed counters stats() reads, so snapshots are valid mid-run.
  // The BoltRuntime/SpoutRuntime objects outlive the registry's callbacks
  // (both are members of this engine; the registry is destroyed first
  // only at engine destruction, after run() joined every thread).
  for (const auto& spout : spouts_) {
    SpoutRuntime* raw = spout.get();
    metrics_.counter_fn("posg.engine." + raw->spec.name + ".emitted",
                        [raw] { return raw->emitted.load(std::memory_order_relaxed); });
  }
  for (const auto& bolt : bolts_) {
    BoltRuntime* raw = bolt.get();
    const std::string prefix = "posg.engine." + raw->spec.name;
    metrics_.counter_fn(prefix + ".executed",
                        [raw] { return raw->executed.load(std::memory_order_relaxed); });
    metrics_.counter_fn(prefix + ".emitted",
                        [raw] { return raw->emitted.load(std::memory_order_relaxed); });
    metrics_.counter_fn(prefix + ".errors",
                        [raw] { return raw->errors.load(std::memory_order_relaxed); });
    if (raw->overload) {
      metrics_.counter_fn(prefix + ".shed",
                          [raw] { return raw->shed.load(std::memory_order_relaxed); });
      metrics_.counter_fn(prefix + ".shed_entries", [raw] { return raw->overload->entries(); });
      metrics_.counter_fn(prefix + ".shed_exits", [raw] { return raw->overload->exits(); });
    }
  }
  batch_fill_ = &metrics_.histogram("posg.engine.batch_fill");

  // Wire streams: for every bolt input, register this bolt as a target of
  // the upstream component, and detect the feedback grouping.
  for (std::size_t b = 0; b < bolts_.size(); ++b) {
    for (const auto& input : bolts_[b]->spec.inputs) {
      StreamTarget target{input.grouping.get(), b};
      bool wired = false;
      for (auto& spout : spouts_) {
        if (spout->spec.name == input.from) {
          spout->outputs.push_back(target);
          wired = true;
        }
      }
      for (auto& upstream : bolts_) {
        if (upstream->spec.name == input.from) {
          upstream->outputs.push_back(target);
          wired = true;
        }
      }
      common::ensure(wired, "Engine: unwired input (builder validation should prevent this)");

      if (input.grouping->wants_feedback()) {
        common::require(
            bolts_[b]->feedback == nullptr || bolts_[b]->feedback == input.grouping.get(),
            "Engine: bolt '" + bolts_[b]->spec.name + "' has multiple feedback-wanting groupings");
        common::require(input.grouping->feedback_config() != nullptr,
                        "Engine: feedback grouping without a tracker config");
        bolts_[b]->feedback = input.grouping.get();
      }
    }
  }
  for (auto& bolt : bolts_) {
    bolt->terminal = bolt->outputs.empty();
  }

  // Data-plane channel selection (DESIGN.md §13), now that the wiring is
  // known: count the upstream executor threads that can push into each
  // bolt. Exactly one means every one of the bolt's input channels is a
  // single-producer edge and gets the lock-free SPSC ring; anything else
  // keeps the mutex MPMC BoundedQueue.
  for (std::size_t b = 0; b < bolts_.size(); ++b) {
    const auto feeds_b = [b](const StreamTarget& target) { return target.bolt_index == b; };
    std::size_t producers = 0;
    for (const auto& spout : spouts_) {
      if (std::any_of(spout->outputs.begin(), spout->outputs.end(), feeds_b)) {
        producers += spout->spec.parallelism;
      }
    }
    for (const auto& upstream : bolts_) {
      if (std::any_of(upstream->outputs.begin(), upstream->outputs.end(), feeds_b)) {
        producers += upstream->spec.parallelism;
      }
    }
    bolts_[b]->single_producer = producers == 1;
    for (std::size_t i = 0; i < bolts_[b]->spec.parallelism; ++i) {
      bolts_[b]->queues.push_back(std::make_unique<TupleChannel>(
          bolts_[b]->single_producer ? TupleChannel::make_spsc(config_.queue_capacity)
                                     : TupleChannel::make_mpmc(config_.queue_capacity)));
    }
  }
}

void Engine::route_emit(const std::vector<StreamTarget>& targets, Tuple tuple,
                        OutputCollector& collector) {
  common::require(!targets.empty(), "Engine: emitting from a terminal component");
  if (collector.pending_.size() < targets.size()) {
    collector.pending_.resize(targets.size());
  }
  // Stage pre-route: the instance choice is deferred to flush_stream so
  // the grouping sees whole batches. Copies for all targets but the last
  // draw their field buffers from the thread's arena; the original moves
  // into the last.
  for (std::size_t i = 0; i + 1 < targets.size(); ++i) {
    Tuple copy;
    copy.seq = tuple.seq;
    copy.item = tuple.item;
    copy.fields = ValueArena::local().acquire();
    copy.fields = tuple.fields;
    copy.emitted_at = tuple.emitted_at;
    collector.pending_[i].tuples.push_back(std::move(copy));
  }
  collector.pending_[targets.size() - 1].tuples.push_back(std::move(tuple));
}

void Engine::flush_stream(const StreamTarget& target, std::vector<Tuple>& tuples,
                          OutputCollector& collector) {
  BoltRuntime& bolt = *bolts_[target.bolt_index];
  const std::size_t k = bolt.spec.parallelism;
  const std::size_t n = tuples.size();
  collector.routes_.resize(n);
  target.grouping->route_batch(tuples.data(), n, k, collector.routes_.data());
  batch_fill_->record(n);
  if (collector.scatter_.size() < k) {
    collector.scatter_.resize(k);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Route& route = collector.routes_[i];
    common::ensure(route.instance < k, "Engine: grouping routed out of range");
    tuples[i].marker = route.marker;
    collector.scatter_[route.instance].push_back(std::move(tuples[i]));
  }
  tuples.clear();
  // Per-instance runs keep emission order within each destination — the
  // same per-channel FIFO the per-tuple path produced.
  for (std::size_t op = 0; op < k; ++op) {
    if (!collector.scatter_[op].empty()) {
      flush_batch(bolt, *bolt.queues[op], collector.scatter_[op]);
    }
  }
}

void Engine::flush_batch(BoltRuntime& bolt, TupleChannel& channel, std::vector<Tuple>& tuples) {
  core::OverloadController* controller = bolt.overload.get();
  if (controller == nullptr) {
    channel.push_all(tuples);
    return;
  }
  // Shed mode requires *every* queue of the stage past the high watermark
  // for the configured deadline — a single hot instance is the straggler
  // detector's problem, not overload.
  double saturation = 1.0;
  for (const auto& queue : bolt.queues) {
    saturation = std::min(saturation, static_cast<double>(queue->size()) /
                                          static_cast<double>(queue->capacity()));
  }
  if (!controller->sample(saturation)) {
    channel.push_all(tuples);
    return;
  }

  // Shed path: stop blocking the producer. Markers are never shed — a
  // dropped marker would sever the epoch's consistent cut and hang
  // WAIT_ALL — so they are pushed blocking at their original sequence
  // position, after the non-marker segment before them is disposed of.
  std::uint64_t dropped = 0;
  std::vector<Tuple> segment;
  const auto drain_segment = [&] {
    if (segment.empty()) {
      return;
    }
    if (bolt.feedback != nullptr && segment.size() > 1) {
      // Keep the most expensive tuples (losing them would skew the load
      // estimates the most); the cheapest spill over and are dropped.
      std::vector<std::pair<double, std::size_t>> keyed;
      keyed.reserve(segment.size());
      for (std::size_t i = 0; i < segment.size(); ++i) {
        keyed.emplace_back(bolt.feedback->cost_estimate(segment[i]).value_or(0.0), i);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      std::vector<Tuple> ordered;
      ordered.reserve(segment.size());
      for (const auto& [cost, i] : keyed) {
        ordered.push_back(std::move(segment[i]));
      }
      segment.swap(ordered);
    }
    channel.try_push_all(segment);  // erases the admitted prefix
    dropped += segment.size();
    segment.clear();
  };
  for (Tuple& tuple : tuples) {
    if (tuple.marker.has_value()) {
      drain_segment();
      channel.push(std::move(tuple));
    } else {
      segment.push_back(std::move(tuple));
    }
  }
  drain_segment();
  tuples.clear();
  if (dropped > 0) {
    bolt.shed.fetch_add(dropped, std::memory_order_relaxed);
    controller->note_shed(dropped);
  }
}

namespace {

/// Distinct destination bolts of an output list (a component with two
/// streams to the same bolt must claim that bolt's channels once).
template <typename Target>
std::vector<std::size_t> distinct_bolt_targets(const std::vector<Target>& targets) {
  std::vector<std::size_t> bolts;
  for (const auto& target : targets) {
    if (std::find(bolts.begin(), bolts.end(), target.bolt_index) == bolts.end()) {
      bolts.push_back(target.bolt_index);
    }
  }
  return bolts;
}

}  // namespace

void Engine::spout_main(std::size_t index, common::InstanceId instance) {
  SpoutRuntime& spout = *spouts_[index];
  // Claim the producer role on every downstream channel this thread can
  // push into (runtime proof of the SPSC wiring; no-op on MPMC edges).
  const std::vector<std::size_t> target_bolts = distinct_bolt_targets(spout.outputs);
  for (const std::size_t b : target_bolts) {
    for (auto& channel : bolts_[b]->queues) {
      channel->claim_producer();
    }
  }

  ComponentContext context{spout.spec.name, instance, spout.spec.parallelism};
  const auto spout_impl = spout.spec.factory(context);
  OutputCollector collector(*this, index, true);
  spout_impl->open(context);
  // Flush after every next(): a paced source's emissions reach the queue
  // before its next inter-arrival gap, so batching never inflates the
  // end-to-end latency the completion recorder measures.
  while (spout_impl->next(collector)) {
    collector.flush();
  }
  collector.flush();  // a final next() may emit before reporting exhaustion
  spout_impl->close();

  for (const std::size_t b : target_bolts) {
    for (auto& channel : bolts_[b]->queues) {
      channel->unclaim_producer();
    }
  }
}

void Engine::bolt_main(std::size_t index, common::InstanceId instance) {
  BoltRuntime& bolt = *bolts_[index];
  // Role claims: consumer of this instance's own input channel, producer
  // of every downstream channel (no-ops on MPMC edges).
  bolt.queues[instance]->claim_consumer();
  const std::vector<std::size_t> target_bolts = distinct_bolt_targets(bolt.outputs);
  for (const std::size_t b : target_bolts) {
    for (auto& channel : bolts_[b]->queues) {
      channel->claim_producer();
    }
  }

  ComponentContext context{bolt.spec.name, instance, bolt.spec.parallelism};
  const auto bolt_impl = bolt.spec.factory(context);
  OutputCollector collector(*this, index, false);
  bolt_impl->prepare(context);

  // POSG feedback: instance tracker whose sketch layout comes from the
  // grouping's config, so scheduler and instances stay consistent.
  std::optional<core::InstanceTracker> tracker;
  if (bolt.feedback != nullptr) {
    tracker.emplace(instance, *bolt.feedback->feedback_config());
  }

  // Batched dequeue: one pop_all drains everything queued under a single
  // synchronization — under load the consumer touches the channel once
  // per burst instead of once per tuple, and when the channel runs dry it
  // blocks exactly as pop() did.
  TupleChannel& queue = *bolt.queues[instance];
  std::vector<Tuple> batch;
  while (queue.pop_all(batch) > 0) {
    // The whole drained batch was resident at dequeue time — the same
    // occupancy pop() observed as size() + 1 per element.
    bolt.per_instance_queue_peak[instance] =
        std::max(bolt.per_instance_queue_peak[instance], batch.size());
    if (bolt.feedback != nullptr) {
      // Occupancy sample for the straggler detector: a queue that stays
      // deep relative to its siblings marks a consumer falling behind.
      bolt.feedback->on_queue_sample(
          instance, static_cast<double>(batch.size()) / static_cast<double>(queue.capacity()));
    }
    for (Tuple& tuple : batch) {
      const auto started = Clock::now();
      try {
        bolt_impl->execute(tuple, collector);
      } catch (const std::exception&) {
        bolt.errors.fetch_add(1, std::memory_order_relaxed);
      }
      // Downstream emissions leave with this tuple, not with the batch:
      // holding them back would add queued-behind-me latency to tuples
      // the completion recorder times end to end.
      collector.flush();
      const auto finished = Clock::now();
      bolt.executed.fetch_add(1, std::memory_order_relaxed);
      ++bolt.per_instance_executed[instance];
      bolt.per_instance_busy_ms[instance] += elapsed_ms(started, finished);

      if (tracker) {
        const common::TimeMs duration = elapsed_ms(started, finished);
        if (auto shipment = tracker->on_executed(tuple.item, duration)) {
          bolt.feedback->on_sketches(std::move(*shipment));
        }
        if (tuple.marker) {
          // Contract: the marker's reply uses C_op *including* this tuple,
          // hence on_executed above runs first.
          bolt.feedback->on_sync_reply(tracker->on_sync_request(*tuple.marker));
        }
      }

      if (bolt.terminal) {
        recorder_.record(tuple.seq, elapsed_ms(tuple.emitted_at, finished));
      }

      // The tuple is fully consumed (execute takes a const ref, the
      // bookkeeping above is done) — park its field buffer for reuse by
      // this thread's next fan-out copy instead of freeing it.
      ValueArena::local().recycle(std::move(tuple.fields));
    }
    batch.clear();
  }
  bolt_impl->cleanup();

  bolt.queues[instance]->unclaim_consumer();
  for (const std::size_t b : target_bolts) {
    for (auto& channel : bolts_[b]->queues) {
      channel->unclaim_producer();
    }
  }
}

void Engine::run() {
  common::require(!ran_, "Engine: run() may be called once");
  ran_ = true;

  // Start all bolt executors first so queues have consumers, then spouts.
  for (std::size_t b = 0; b < bolts_.size(); ++b) {
    for (common::InstanceId i = 0; i < bolts_[b]->spec.parallelism; ++i) {
      bolts_[b]->threads.emplace_back([this, b, i] { bolt_main(b, i); });
    }
  }
  for (std::size_t s = 0; s < spouts_.size(); ++s) {
    for (common::InstanceId i = 0; i < spouts_[s]->spec.parallelism; ++i) {
      spouts_[s]->threads.emplace_back([this, s, i] { spout_main(s, i); });
    }
  }

  // Drain: spouts finish on their own; then close each bolt's queues in
  // declaration order (a topological order by construction: inputs only
  // reference earlier components), letting each stage fully drain before
  // its consumers shut down.
  for (auto& spout : spouts_) {
    for (auto& thread : spout->threads) {
      thread.join();
    }
  }
  for (auto& bolt : bolts_) {
    for (auto& queue : bolt->queues) {
      queue->close();
    }
    for (auto& thread : bolt->threads) {
      thread.join();
    }
  }

  // SPSC edge signals, aggregated post-join (the channels are quiescent
  // now, so the relaxed counters are exact): failed producer room checks
  // against full rings (back-pressure) and consumer parks on empty rings
  // (idle bolts that gave their CPU back).
  std::uint64_t ring_full_spins = 0;
  std::uint64_t ring_parks = 0;
  for (const auto& bolt : bolts_) {
    for (const auto& queue : bolt->queues) {
      ring_full_spins += queue->full_spins();
      ring_parks += queue->consumer_parks();
    }
  }
  metrics_.counter("posg.engine.ring_full_spins").add(ring_full_spins);
  metrics_.counter("posg.engine.ring_parks").add(ring_parks);
}

Engine::ComponentStats Engine::stats(const std::string& component) const {
  for (const auto& spout : spouts_) {
    if (spout->spec.name == component) {
      ComponentStats stats;
      stats.emitted = spout->emitted.load();
      return stats;
    }
  }
  for (const auto& bolt : bolts_) {
    if (bolt->spec.name == component) {
      ComponentStats stats;
      stats.executed = bolt->executed.load();
      stats.emitted = bolt->emitted.load();
      stats.errors = bolt->errors.load();
      stats.per_instance = bolt->per_instance_executed;
      stats.busy_ms = bolt->per_instance_busy_ms;
      stats.queue_peak = bolt->per_instance_queue_peak;
      stats.shed = bolt->shed.load();
      if (bolt->overload) {
        stats.shed_entries = bolt->overload->entries();
        stats.shed_exits = bolt->overload->exits();
      }
      return stats;
    }
  }
  throw std::invalid_argument("Engine: unknown component '" + component + "'");
}

}  // namespace posg::engine
