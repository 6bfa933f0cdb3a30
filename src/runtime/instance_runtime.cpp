#include "runtime/instance_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "core/instance_tracker.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace posg::runtime {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

InstanceRuntime::InstanceRuntime(common::InstanceId id, InstanceRuntimeConfig config)
    : id_(id), config_(std::move(config)) {
  common::require(config_.recv_deadline.count() > 0, "InstanceRuntime: recv_deadline must be > 0");
  common::require(std::isfinite(config_.cost_scale) && config_.cost_scale > 0.0,
                  "InstanceRuntime: cost_scale must be finite and > 0");
  common::require(std::isfinite(config_.real_sleep_scale) && config_.real_sleep_scale >= 0.0,
                  "InstanceRuntime: real_sleep_scale must be finite and >= 0");
  common::require(config_.reconnect_path.empty() || config_.reconnect_attempts >= 1,
                  "InstanceRuntime: reconnect_attempts must be >= 1 when reconnect_path is set");
  if (!config_.cost_model) {
    config_.cost_model = [](common::Item item) {
      return 1.0 + static_cast<common::TimeMs>(item % 64);
    };
  }
}

InstanceRuntime::Stats InstanceRuntime::run(net::FrameTransport& link) {
  return run_multi({SourceLink{0, &link, config_.reconnect_path}});
}

InstanceRuntime::Stats InstanceRuntime::run_multi(const std::vector<SourceLink>& links) {
  common::require(!links.empty(), "InstanceRuntime: run_multi needs at least one session");
  Stats stats;

  // Per-scheduler session state. Each session owns its OWN tracker: the
  // tuples on link s were routed by source s's view, so s's sketches and
  // Δ corrections must cover exactly that share of the work — per-source
  // billing is what keeps Σ_s Ĉ_s ≈ C_total without double counting.
  struct Session {
    common::SourceId source = 0;
    // Rebound on reconnect; `owned` keeps a replacement transport alive
    // (the caller still owns the first link).
    net::FrameTransport* link = nullptr;
    std::unique_ptr<net::FrameTransport> owned;
    std::unique_ptr<core::InstanceTracker> tracker;
    // Frames whose send failed (or that were produced while the link was
    // down), replayed in order after a successful re-attach. A replayed
    // stale SyncReply is safe: the restarted scheduler's reattach disarmed
    // the slot's marker, so the reply lands on the counted-stale path
    // instead of billing twice.
    std::vector<std::vector<std::byte>> pending;
    std::string reconnect_path;
    std::uint64_t executed = 0;
    // Redial pacing of the current outage (see `redial`).
    std::size_t dials = 0;
    double backoff_ms = 0.0;
    common::SplitMix64 jitter{0};
    Clock::time_point next_dial{};
    bool link_down = false;
    // The current link opened with SchedulerHello (a redial), not Hello:
    // its ReattachAck is a re-attach, not a rejoin.
    bool reattached = false;
    bool muted = false;
    bool ended = false;
  };
  std::vector<Session> sessions(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    common::require(links[i].link != nullptr, "InstanceRuntime: null session link");
    Session& session = sessions[i];
    session.source = links[i].source;
    session.link = links[i].link;
    session.tracker = std::make_unique<core::InstanceTracker>(id_, config_.posg);
    session.reconnect_path = links[i].reconnect_path;
    // Decorrelate the k instances (and S sessions) redialing one restarted
    // scheduler: distinct seeds give distinct jittered schedules.
    session.jitter = common::SplitMix64(0x9E3779B97F4A7C15ULL ^
                                        (static_cast<std::uint64_t>(id_) << 32U) ^
                                        (static_cast<std::uint64_t>(session.source) << 16U));
    session.link->send_frame(net::encode(net::Hello{id_, session.source}));
  }

  // The reconnect rule (see the header): a down session dials once when
  // its next dial is due, on net::connect's own schedule — a round of
  // max_attempts dials with jittered backoff between them, and
  // reconnect_attempts rounds per outage — but timed against the clock
  // instead of slept, so the live sessions keep flowing meanwhile.
  // Returns false once the session is gone for good.
  const net::ConnectRetryPolicy schedule;
  const auto round = static_cast<std::size_t>(schedule.max_attempts);
  const std::size_t dial_budget = config_.reconnect_attempts * round;
  net::ConnectRetryPolicy one_dial;
  one_dial.max_attempts = 1;
  const auto redial = [&](Session& session) -> bool {
    if (session.reconnect_path.empty() || session.dials >= dial_budget) {
      return false;
    }
    const auto now = Clock::now();
    if (now < session.next_dial) {
      return true;  // between dials: the session stays alive, waiting
    }
    if (session.dials % round == 0) {
      session.backoff_ms = static_cast<double>(schedule.initial_backoff.count());
    }
    ++session.dials;
    try {
      session.owned =
          std::make_unique<net::SocketTransport>(net::connect(session.reconnect_path, one_dial));
      session.link = session.owned.get();
      session.link->send_frame(net::encode(net::SchedulerHello{id_, session.source}));
      for (const auto& frame : session.pending) {
        session.link->send_frame(frame);
      }
    } catch (const std::exception&) {
      // Nobody listening yet, or it died again mid-handshake. Inside a
      // round, wait backoff × uniform[0.5, 1), as net::connect sleeps
      // between refusals; after a round's last refusal the next round
      // starts at once.
      if (session.dials % round != 0) {
        const double uniform =
            0.5 + 0.5 * (static_cast<double>(session.jitter.next() >> 11U) * 0x1.0p-53);
        session.next_dial =
            now + std::chrono::milliseconds(
                      std::max(1LL, static_cast<long long>(session.backoff_ms * uniform)));
        session.backoff_ms = std::min(session.backoff_ms * schedule.multiplier,
                                      static_cast<double>(schedule.max_backoff.count()));
      }
      return session.dials < dial_budget;
    }
    session.pending.clear();
    session.link_down = false;
    session.reattached = true;
    session.dials = 0;  // the next outage gets the full budget again
    ++stats.reconnects;
    return true;
  };

  // Sends one frame, or buffers it for post-reconnect replay when the
  // link is (or just went) down.
  const auto send_or_stash = [&](Session& session, std::vector<std::byte> frame) {
    if (!session.link_down) {
      try {
        session.link->send_frame(frame);
        return;
      } catch (const std::system_error&) {
        session.link_down = true;
      }
    }
    if (!session.reconnect_path.empty()) {
      session.pending.push_back(std::move(frame));
    }
  };

  // A crash is physical and the *absence* of protocol: the whole instance
  // dies, severing every source's link with no EndOfStream handshake —
  // exactly what the schedulers' failure detectors must cope with.
  const auto crash = [&] {
    stats.crashed = true;
    for (Session& session : sessions) {
      if (!session.ended && !session.link_down) {
        session.link->close();
      }
    }
  };

  std::size_t active = sessions.size();
  const auto end_session = [&](Session& session) {
    session.ended = true;
    --active;
  };
  // The poll tick (see the header): no session waits on an idle sibling
  // for longer than this.
  const auto tick = std::min<std::chrono::milliseconds>(config_.recv_deadline,
                                                        std::chrono::milliseconds(10));
  while (!stop_.load() && active > 0 && !stats.crashed) {
    bool polled = false;  // did any session actually wait on its link?
    auto wake = Clock::time_point::max();  // earliest due dial of a down session
    for (Session& session : sessions) {
      if (session.ended) {
        continue;
      }
      if (session.link_down) {
        if (!redial(session)) {
          // This source's scheduler is gone for good: its session ends,
          // the instance keeps serving the other sources (a dead source
          // must never take the instance down — DESIGN.md §15).
          end_session(session);
          ++stats.sources_lost;
        } else if (session.link_down) {
          wake = std::min(wake, session.next_dial);
        }
        continue;
      }
      polled = true;
      net::RecvResult received;
      try {
        received = session.link->recv_frame(tick);
      } catch (const std::exception&) {
        session.link_down = true;  // transport error: redial or end next pass
        continue;
      }
      if (received.status == net::RecvStatus::kTimeout) {
        continue;
      }
      if (received.status == net::RecvStatus::kEof) {
        session.link_down = true;  // scheduler gone without EndOfStream
        continue;
      }
      net::Message message;
      try {
        message = net::decode(received.payload);
      } catch (const std::invalid_argument&) {
        ++stats.decode_errors;  // corrupt frame: drop it, stay alive
        continue;
      }
      if (std::holds_alternative<net::EndOfStream>(message)) {
        end_session(session);
        continue;
      }
      if (const auto* ack = std::get_if<net::ReattachAck>(&message)) {
        // Re-admission accept: restart the sketch FSM and rebase C_op to
        // the scheduler's seeded Ĉ, so the next Δ measures only drift
        // since the handshake (see InstanceTracker::rearm). After a rejoin
        // that is the live-minimum seed; after a re-attach the
        // checkpointed cut, already billed before the scheduler crashed
        // and never to be billed again.
        session.tracker->rearm(ack->seed);
        ++(session.reattached ? stats.reattach_acks : stats.rejoin_acks);
        continue;
      }
      if (const auto* drain = std::get_if<net::DrainRequest>(&message)) {
        // Lossless drain of this source's session: the link is FIFO, so
        // every tuple this source routed here arrived (and was executed)
        // before this frame. The final Δ against the view's Ĉ cut and the
        // executed count are PER SOURCE (this view billed only its own
        // routed tuples — the conservation check is per scheduler).
        const common::TimeMs delta =
            session.tracker->cumulated_execution_time() - drain->estimated_cumulated;
        try {
          session.link->send_frame(
              net::encode(net::DrainComplete{id_, drain->epoch, delta, session.executed}));
        } catch (const std::system_error&) {
          // Scheduler gone mid-drain: nothing left to report either way.
        }
        stats.drained = true;
        end_session(session);
        continue;
      }
      const auto* tuple = std::get_if<net::TupleMessage>(&message);
      if (tuple == nullptr) {
        continue;  // scheduler-bound message echoed back? ignore defensively
      }
      if (config_.crash_after_executed != 0 &&
          stats.executed + 1 == config_.crash_after_executed) {
        crash();
        break;
      }
      const bool straggling = stats.executed + 1 >= config_.straggle_after_executed;
      const common::TimeMs cost =
          config_.cost_model(tuple->item) * (straggling ? config_.cost_scale : 1.0);
      if (config_.real_sleep_scale > 0.0) {
        // Elasticity demos need wall-clock reality: make the simulated
        // cost cost real time so upstream queues genuinely back up.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(cost * config_.real_sleep_scale));
      }
      if (auto shipment = session.tracker->on_executed(tuple->item, cost)) {
        if (!session.muted) {
          // Counted when produced: a frame stashed by a down link is
          // replayed by the reconnect handshake, so it still ships.
          shipment->source = session.source;
          send_or_stash(session, net::encode(*shipment));
          ++stats.shipments;
        }
      }
      ++stats.executed;
      ++session.executed;
      stats.simulated_work += cost;
      if (tuple->marker) {
        if (config_.crash_on_marker_epoch != 0 &&
            tuple->marker->epoch >= config_.crash_on_marker_epoch) {
          crash();  // die between the marker's execution and its SyncReply
          break;
        }
        if (config_.mute_from_epoch != 0 && tuple->marker->epoch >= config_.mute_from_epoch) {
          session.muted = true;  // alive and executing, but feedback-silent
        }
        if (session.muted) {
          continue;
        }
        core::SyncReply reply = session.tracker->on_sync_request(*tuple->marker);
        reply.source = session.source;
        send_or_stash(session, net::encode(reply));
        ++stats.replies_sent;
      }
    }
    if (!polled && active > 0) {
      // Every live session is down and between dials: sleep to the next
      // due dial, at most one tick so request_stop() is still seen.
      std::this_thread::sleep_until(std::min(wake, Clock::now() + tick));
    }
  }
  for (const Session& session : sessions) {
    stats.per_source_executed.push_back(session.executed);
  }
  return stats;
}

}  // namespace posg::runtime
