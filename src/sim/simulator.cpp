#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <type_traits>

#include "core/posg_scheduler.hpp"

namespace posg::sim {

namespace {

/// Internal event kinds. Arrival events are generated lazily (one in
/// flight at a time), so the heap stays small regardless of stream size.
enum class EventKind : std::uint8_t {
  kArrival,
  kFinish,
  kShipment,
  kReply,
  kExecutedNotice,
  kLoadReportSample,  // instance samples its queue state
  kLoadReportDeliver,  // the sample reaches the scheduler
};

struct Event {
  common::TimeMs time = 0.0;
  std::uint64_t tie_breaker = 0;  // FIFO order among simultaneous events
  EventKind kind = EventKind::kArrival;

  // kArrival / kFinish payload
  common::SeqNo seq = 0;
  common::Item item = 0;
  common::InstanceId instance = 0;
  common::TimeMs execution_time = 0.0;
  std::optional<core::SyncRequest> marker;
  // The source whose view routed (and gets billed for) this tuple /
  // feedback frame; always 0 when S = 1.
  common::SourceId source = 0;

  // kShipment / kReply payload
  std::optional<core::SketchShipment> shipment;
  std::optional<core::SyncReply> reply;

  // kLoadReport* payload
  common::TimeMs backlog = 0.0;
  common::TimeMs mean_execution = 0.0;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.tie_breaker > b.tie_breaker;
  }
};

}  // namespace

Simulator::Simulator(Config config, CostFunction cost)
    : config_(config), cost_(std::move(cost)) {
  common::require(config_.instances >= 1, "Simulator: need at least one instance");
  common::require(config_.inter_arrival > 0.0, "Simulator: inter-arrival must be positive");
  common::require(config_.data_latency >= 0.0 && config_.control_latency >= 0.0,
                  "Simulator: latencies must be non-negative");
  common::require(config_.per_instance_data_latency.empty() ||
                      config_.per_instance_data_latency.size() == config_.instances,
                  "Simulator: per-instance latency vector must cover every instance");
  for (common::TimeMs latency : config_.per_instance_data_latency) {
    common::require(latency >= 0.0, "Simulator: latencies must be non-negative");
  }
  common::require(static_cast<bool>(cost_), "Simulator: cost function must be callable");
}

template <typename SchedulerT>
Simulator::Result Simulator::replay(const std::vector<common::Item>& stream,
                                    SchedulerT& scheduler) {
  // The two scheduler shapes, told apart at compile time. A plain
  // core::Scheduler is the S = 1 case; the single-source features below
  // (load reports, executed notices, the scheduler's metric family) drive
  // or read that one scheduler, so only it gets them.
  constexpr bool kMulti = std::is_same_v<SchedulerT, core::MultiSourceScheduler>;
  const auto schedule = [&](common::SourceId source, common::Item item, common::SeqNo seq) {
    if constexpr (kMulti) {
      return scheduler.schedule(source, item, seq);
    } else {
      return scheduler.schedule(item, seq);
    }
  };
  const auto feed = [&](common::SourceId source, core::FeedbackEvent event) {
    if constexpr (kMulti) {
      scheduler.on_feedback(source, std::move(event));
    } else {
      scheduler.on_feedback(std::move(event));
    }
  };
  common::require(scheduler.instances() == config_.instances,
                  "Simulator: scheduler instance count mismatch");

  const std::size_t k = config_.instances;
  std::size_t sources = 1;
  core::PosgScheduler* posg_scheduler = nullptr;
  if constexpr (kMulti) {
    sources = scheduler.sources();
    common::require(config_.load_report_period <= 0.0,
                    "Simulator: load reports are a single-source feature (run())");
  } else {
    posg_scheduler = dynamic_cast<core::PosgScheduler*>(&scheduler);
  }
  Result result;
  result.completions = metrics::CompletionSeries(stream.size());
  result.instance_work.assign(k, 0.0);
  result.instance_tuples.assign(k, 0);
  result.source_routed.assign(sources, 0);
  result.per_source_instance_tuples.assign(sources, std::vector<std::uint64_t>(k, 0));

  // One tracker per (instance, source): tuples routed by source s's view
  // are billed into s's sketches only, mirroring the per-session trackers
  // of InstanceRuntime. trackers[op * sources + s].
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k * sources);
  for (common::InstanceId op = 0; op < k; ++op) {
    for (common::SourceId s = 0; s < sources; ++s) {
      trackers.emplace_back(op, config_.posg);
    }
  }

  // When each instance becomes free (FIFO, work-conserving servers). The
  // instances are physically shared: one free time per op, fed by all S
  // sources' routed tuples.
  std::vector<common::TimeMs> instance_free(k, 0.0);

  // Injection time per in-flight tuple, for completion-time accounting.
  std::vector<common::TimeMs> injection_time(stream.size(), 0.0);

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t tie = 0;
  auto push = [&](Event event) {
    event.tie_breaker = tie++;
    events.push(std::move(event));
  };

  // Tuples scheduled but not yet finished — lets the periodic reporters
  // know when the run is over.
  std::uint64_t outstanding = 0;
  common::SeqNo arrivals_done = 0;

  if (!stream.empty()) {
    Event first;
    first.time = 0.0;
    first.kind = EventKind::kArrival;
    first.seq = 0;
    first.item = stream[0];
    push(std::move(first));
  }

  if (config_.load_report_period > 0.0) {
    for (common::InstanceId op = 0; op < k; ++op) {
      Event sample;
      sample.time = config_.load_report_period;
      sample.kind = EventKind::kLoadReportSample;
      sample.instance = op;
      push(std::move(sample));
    }
  }

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();

    switch (event.kind) {
      case EventKind::kArrival: {
        injection_time[event.seq] = event.time;
        ++outstanding;
        ++arrivals_done;
        // Round-robin source assignment: tuple seq belongs to source
        // seq % S, so S = 1 is the classic single-source stream.
        const common::SourceId source =
            kMulti ? static_cast<common::SourceId>(event.seq % sources) : common::SourceId{0};
        const core::Decision decision = schedule(source, event.item, event.seq);
        common::ensure(decision.instance < k, "Simulator: scheduler returned bad instance");
        ++result.source_routed[source];
        if (decision.sync_request) {
          ++result.messages.sync_markers;
        }

        // The tuple reaches the instance after the data latency, waits for
        // the FIFO queue to drain, then executes for its true cost.
        const common::TimeMs hop_latency =
            config_.per_instance_data_latency.empty()
                ? config_.data_latency
                : config_.per_instance_data_latency[decision.instance];
        const common::TimeMs at_instance = event.time + hop_latency;
        const common::TimeMs cost = cost_(event.item, decision.instance, event.seq);
        common::ensure(cost >= 0.0, "Simulator: negative cost from cost function");
        const common::TimeMs start = std::max(at_instance, instance_free[decision.instance]);
        const common::TimeMs finish = start + cost;
        instance_free[decision.instance] = finish;

        Event finish_event;
        finish_event.time = finish;
        finish_event.kind = EventKind::kFinish;
        finish_event.seq = event.seq;
        finish_event.item = event.item;
        finish_event.instance = decision.instance;
        finish_event.execution_time = cost;
        finish_event.marker = decision.sync_request;
        finish_event.source = source;
        push(std::move(finish_event));

        // Lazily inject the next arrival.
        const common::SeqNo next = event.seq + 1;
        if (next < stream.size()) {
          Event arrival;
          arrival.time = event.time + config_.inter_arrival;
          arrival.kind = EventKind::kArrival;
          arrival.seq = next;
          arrival.item = stream[next];
          push(std::move(arrival));
        }
        break;
      }

      case EventKind::kFinish: {
        --outstanding;
        result.completions.record(event.seq, event.time - injection_time[event.seq]);
        result.instance_work[event.instance] += event.execution_time;
        ++result.instance_tuples[event.instance];
        ++result.per_source_instance_tuples[event.source][event.instance];
        result.makespan = std::max(result.makespan, event.time);

        // Feedback flows back to the view that routed the tuple.
        core::InstanceTracker& tracker = trackers[event.instance * sources + event.source];
        auto shipment = tracker.on_executed(event.item, event.execution_time);
        if (shipment) {
          ++result.messages.sketch_shipments;
          shipment->source = event.source;
          Event delivery;
          delivery.time = event.time + config_.control_latency;
          delivery.kind = EventKind::kShipment;
          delivery.shipment = std::move(shipment);
          delivery.source = event.source;
          push(std::move(delivery));
        }
        if (event.marker) {
          ++result.messages.sync_replies;
          Event delivery;
          delivery.time = event.time + config_.control_latency;
          delivery.kind = EventKind::kReply;
          delivery.reply = tracker.on_sync_request(*event.marker);
          delivery.reply->source = event.source;
          delivery.source = event.source;
          push(std::move(delivery));
        }

        if constexpr (!kMulti) {
          // Execution notice for backlog-style policies, subject to the
          // same control latency a real reactive collector would pay.
          Event notice;
          notice.time = event.time + config_.control_latency;
          notice.kind = EventKind::kExecutedNotice;
          notice.instance = event.instance;
          notice.execution_time = event.execution_time;
          push(std::move(notice));
        }
        break;
      }

      case EventKind::kShipment:
        feed(event.source, core::FeedbackEvent{*event.shipment});
        break;

      case EventKind::kReply:
        feed(event.source, core::FeedbackEvent{*event.reply});
        break;

      case EventKind::kExecutedNotice:
        feed(0, core::FeedbackEvent{core::TupleExecuted{event.instance, event.execution_time}});
        break;

      case EventKind::kLoadReportSample: {
        // The instance samples its queue: outstanding work is everything
        // already routed to it that has not finished by now.
        Event deliver;
        deliver.time = event.time + config_.control_latency;
        deliver.kind = EventKind::kLoadReportDeliver;
        deliver.instance = event.instance;
        deliver.backlog = std::max(0.0, instance_free[event.instance] - event.time);
        const auto& tracker = trackers[event.instance];
        deliver.mean_execution =
            tracker.executed_count() > 0
                ? tracker.cumulated_execution_time() /
                      static_cast<double>(tracker.executed_count())
                : 0.0;
        push(std::move(deliver));

        // Keep sampling while the run is alive.
        const bool stream_done = arrivals_done == stream.size();
        if (!stream_done || outstanding > 0) {
          Event next;
          next.time = event.time + config_.load_report_period;
          next.kind = EventKind::kLoadReportSample;
          next.instance = event.instance;
          push(std::move(next));
        }
        break;
      }

      case EventKind::kLoadReportDeliver:
        feed(0, core::FeedbackEvent{
                    core::LoadReport{event.instance, event.backlog, event.mean_execution}});
        break;
    }
  }

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    registry.counter("posg.sim.tuples").add(stream.size());
    registry.counter("posg.sim.sketch_shipments").add(result.messages.sketch_shipments);
    registry.counter("posg.sim.sync_markers").add(result.messages.sync_markers);
    registry.counter("posg.sim.sync_replies").add(result.messages.sync_replies);
    if (posg_scheduler != nullptr) {
      // One truth for the scheduler-side counters: the same family the
      // runtime exposes (posg.scheduler.*, posg.health.* including the
      // per-instance derate gauges) rather than a parallel posg.sim.* copy.
      // Published by value: the caller's registry may outlive the
      // scheduler (Experiment::run frees it on return), so it must not
      // keep callbacks that borrow it.
      obs::MetricsRegistry family;
      posg_scheduler->register_metrics(family);
      const obs::Snapshot values = family.snapshot();
      for (const auto& [name, value] : values.counters) {
        registry.counter(name).add(value);
      }
      for (const auto& [name, value] : values.gauges) {
        registry.gauge(name).set(value);
      }
    }
    if constexpr (kMulti) {
      for (common::SourceId s = 0; s < sources; ++s) {
        registry.counter("posg.s" + std::to_string(s) + ".sim.routed")
            .add(result.source_routed[s]);
      }
    }
    registry.gauge("posg.sim.makespan_ms").set(result.makespan);
    registry.gauge("posg.sim.mean_completion_ms").set(result.completions.average());
    // Simulated-time completion latencies, log-bucketed in microseconds so
    // the snapshot carries the distribution, not just the mean.
    obs::Histogram& latency = registry.histogram("posg.sim.completion_us");
    for (common::SeqNo seq = 0; seq < stream.size(); ++seq) {
      const common::TimeMs completion = result.completions.at(seq);
      if (!std::isnan(completion)) {  // unrecorded slots read back NaN
        latency.record(static_cast<std::uint64_t>(completion * 1000.0));
      }
    }
  }

  return result;
}

Simulator::Result Simulator::run(const std::vector<common::Item>& stream,
                                 core::Scheduler& scheduler) {
  return replay(stream, scheduler);
}

Simulator::Result Simulator::run_multi(const std::vector<common::Item>& stream,
                                       core::MultiSourceScheduler& scheduler) {
  return replay(stream, scheduler);
}

}  // namespace posg::sim
