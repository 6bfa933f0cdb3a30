// Randomized robustness tests of the POSG protocol at two layers:
//
//  1. State-machine fuzz: drive the scheduler with arbitrary
//     interleavings of tuple submissions, sketch shipments, (partly
//     garbage) synchronization replies and instance failures, checking
//     the state-machine invariants after every step — the "message
//     reordering / duplication / loss / crash" test a distributed
//     deployment needs.
//
//  2. Wire fuzz: truncated, mutated and random byte buffers through
//     net::decode, plus hostile length prefixes through Socket framing —
//     every malformed input must throw, never crash.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/prng.hpp"
#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace {

using namespace posg;
using core::PosgConfig;
using core::PosgScheduler;

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, InvariantsHoldUnderRandomInterleavings) {
  const std::uint64_t seed = GetParam();
  common::Xoshiro256StarStar rng(seed);
  const std::size_t k = 2 + rng.next_below(6);

  PosgConfig config;
  config.window = 8;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  PosgScheduler scheduler(k, config);

  // Real trackers provide well-formed shipments on demand.
  std::vector<core::InstanceTracker> trackers;
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  auto make_shipment = [&](common::InstanceId op) {
    for (int i = 0; i < 1000; ++i) {
      if (auto shipment = trackers[op].on_executed(rng.next_below(32),
                                                   1.0 + static_cast<double>(rng.next_below(8)))) {
        return *shipment;
      }
    }
    throw std::logic_error("fuzz: tracker never shipped");
  };

  bool left_round_robin = false;
  std::vector<bool> marker_seen_this_epoch(k, false);
  common::Epoch marker_epoch = 0;

  for (int step = 0; step < 3000; ++step) {
    const auto action = rng.next_below(100);
    const auto state_before = scheduler.state();

    if (action < 60) {
      // Submit a tuple.
      const auto decision = scheduler.schedule(rng.next_below(32), step);
      ASSERT_LT(decision.instance, k);
      ASSERT_FALSE(scheduler.is_failed(decision.instance))
          << "scheduled a tuple to a quarantined instance";
      if (decision.sync_request) {
        // Markers only while in SEND_ALL, exactly one per instance per epoch.
        ASSERT_EQ(state_before, PosgScheduler::State::kSendAll);
        if (decision.sync_request->epoch != marker_epoch) {
          marker_epoch = decision.sync_request->epoch;
          std::fill(marker_seen_this_epoch.begin(), marker_seen_this_epoch.end(), false);
        }
        ASSERT_FALSE(marker_seen_this_epoch[decision.instance])
            << "duplicate marker for instance " << decision.instance;
        marker_seen_this_epoch[decision.instance] = true;
        ASSERT_TRUE(std::isfinite(decision.sync_request->estimated_cumulated));
      }
    } else if (action < 78) {
      // Ship fresh matrices from a random instance (possibly one that is
      // already quarantined — must be ignored, not folded in).
      scheduler.on_feedback(make_shipment(rng.next_below(k)));
    } else if (action < 82) {
      // Crash a random instance mid-protocol; the scheduler must absorb
      // the quarantine in any state, but always keep one live instance.
      if (scheduler.live_instances() > 1) {
        scheduler.mark_failed(rng.next_below(k));
      }
    } else if (action < 86) {
      // Re-admit a random quarantined instance (the rejoin path): the
      // scheduler must re-arm it and keep every invariant, including not
      // hanging the in-flight epoch on the rejoiner's missing reply.
      const auto failed = scheduler.failed_instances();
      if (!failed.empty()) {
        scheduler.rejoin(failed[rng.next_below(failed.size())]);
      }
    } else {
      // Deliver a reply that may be stale, duplicated, or for a future
      // epoch; the scheduler must absorb all of them.
      core::SyncReply reply;
      reply.instance = rng.next_below(k);
      reply.epoch = scheduler.epoch() + rng.next_below(4) - 2;  // epoch-2 .. epoch+1
      reply.delta = static_cast<double>(rng.next_below(2000)) - 1000.0;
      scheduler.on_feedback(reply);
    }

    // Global invariants. Returning to ROUND_ROBIN after leaving it is
    // legal only on the degradation ladder's bottom rung: a sketchless
    // rejoiner keeps the cluster live while every sketch-bearing instance
    // is quarantined, leaving no estimates to bill with. That rung is
    // reachable solely through quarantine/rejoin activity — a relapse in a
    // cluster that never saw either would be a genuine FSM bug.
    const auto state = scheduler.state();
    if (state != PosgScheduler::State::kRoundRobin) {
      left_round_robin = true;
    } else if (left_round_robin) {
      ASSERT_TRUE(!scheduler.failed_instances().empty() || scheduler.rejoin_count() > 0)
          << "scheduler fell back to ROUND_ROBIN without any quarantine activity";
    }
    for (const common::TimeMs load : scheduler.estimated_loads()) {
      ASSERT_TRUE(std::isfinite(load));
    }
    ASSERT_EQ(scheduler.live_instances() + scheduler.failed_instances().size(), k);
    ASSERT_GE(scheduler.live_instances(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// Wire fuzz: decode must reject every malformed buffer with
// std::invalid_argument — no crash, no other exception type.
// ---------------------------------------------------------------------------

static_assert(std::variant_size_v<net::Message> == 9,
              "a new message kind needs a sample in sample_encodings()");

/// One well-formed encoding of every message kind in the protocol.
std::vector<std::vector<std::byte>> sample_encodings() {
  std::vector<std::vector<std::byte>> samples;
  samples.push_back(net::encode(net::Hello{3}));
  {
    net::TupleMessage plain;
    plain.seq = 12;
    plain.item = 7;
    samples.push_back(net::encode(plain));
    net::TupleMessage marked = plain;
    marked.marker = core::SyncRequest{2, 987.5};
    samples.push_back(net::encode(marked));
  }
  {
    core::PosgConfig config;
    config.window = 4;
    config.mu = 10.0;
    core::InstanceTracker tracker(1, config);
    std::optional<core::SketchShipment> shipment;
    for (int i = 0; i < 100 && !shipment; ++i) {
      shipment = tracker.on_executed(i % 4, 2.0);
    }
    samples.push_back(net::encode(*shipment));
  }
  samples.push_back(net::encode(core::SyncReply{0, 4, -1.25}));
  samples.push_back(net::encode(net::EndOfStream{}));
  samples.push_back(net::encode(net::DrainRequest{2, 9, 345.75}));
  samples.push_back(net::encode(net::DrainComplete{2, 9, -12.5, 4096}));
  samples.push_back(net::encode(net::SchedulerHello{2, 1}));
  samples.push_back(net::encode(net::ReattachAck{1, 512.25}));
  return samples;
}

TEST(WireFuzz, RecoveryMessagesRoundTrip) {
  const net::SchedulerHello hello{4, 3};
  const auto hello_decoded = net::decode(net::encode(hello));
  const auto* hello_out = std::get_if<net::SchedulerHello>(&hello_decoded);
  ASSERT_NE(hello_out, nullptr);
  EXPECT_EQ(hello_out->instance, hello.instance);
  EXPECT_EQ(hello_out->source, hello.source);

  const net::ReattachAck ack{2, 9876.125};
  const auto ack_decoded = net::decode(net::encode(ack));
  const auto* ack_out = std::get_if<net::ReattachAck>(&ack_decoded);
  ASSERT_NE(ack_out, nullptr);
  EXPECT_EQ(ack_out->instance, ack.instance);
  EXPECT_DOUBLE_EQ(ack_out->seed, ack.seed);
}

TEST(WireFuzz, EveryTruncationOfEveryMessageKindThrows) {
  std::set<std::size_t> kinds;
  for (const auto& full : sample_encodings()) {
    ASSERT_NO_THROW(kinds.insert(net::decode(full).index()));
    for (std::size_t length = 0; length < full.size(); ++length) {
      const std::span<const std::byte> prefix(full.data(), length);
      EXPECT_THROW(net::decode(prefix), std::invalid_argument)
          << "prefix of " << length << "/" << full.size() << " bytes decoded";
    }
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<net::Message>);  // every kind was swept
}

TEST(WireFuzz, MutatedEncodingsEitherDecodeOrThrowInvalidArgument) {
  common::Xoshiro256StarStar rng(0xFAB);
  const auto samples = sample_encodings();
  for (int round = 0; round < 4000; ++round) {
    auto buffer = samples[rng.next_below(samples.size())];
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      buffer[rng.next_below(buffer.size())] ^=
          static_cast<std::byte>(1 + rng.next_below(255));
    }
    try {
      (void)net::decode(buffer);  // surviving a mutation is fine...
    } catch (const std::invalid_argument&) {
      // ...and so is rejecting it; anything else is a robustness bug.
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashesDecode) {
  common::Xoshiro256StarStar rng(0xBAD);
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::byte> buffer(rng.next_below(300));
    for (auto& byte : buffer) {
      byte = static_cast<std::byte>(rng.next_below(256));
    }
    try {
      (void)net::decode(buffer);
    } catch (const std::invalid_argument&) {
      // the only acceptable rejection path
    }
  }
}

// ---------------------------------------------------------------------------
// Frame fuzz: hostile length prefixes and torn frames at the socket layer.
// ---------------------------------------------------------------------------

void write_raw(const posg::net::Socket& socket, const void* data, std::size_t size) {
  ASSERT_EQ(::write(socket.fd(), data, size), static_cast<ssize_t>(size));
}

TEST(FrameFuzz, OversizedLengthPrefixIsRejectedNotAllocated) {
  auto [a, b] = net::socket_pair();
  const std::uint32_t hostile = net::Socket::kMaxFrameBytes + 1;
  write_raw(a, &hostile, sizeof(hostile));
  EXPECT_THROW(b.recv_frame(), std::runtime_error);
}

TEST(FrameFuzz, OversizedLengthPrefixRejectedOnDeadlinePathToo) {
  auto [a, b] = net::socket_pair();
  const std::uint32_t hostile = 0xFFFFFFFFu;
  write_raw(a, &hostile, sizeof(hostile));
  EXPECT_THROW(b.recv_frame(std::chrono::milliseconds(1000)), std::runtime_error);
}

TEST(FrameFuzz, LargestAcceptedPrefixStillBoundsTheRead) {
  // kMaxFrameBytes exactly is legal: the receiver must start reading the
  // payload (and then hit mid-frame EOF when the sender bails), proving
  // the bound is checked before the allocation, not after.
  auto [a, b] = net::socket_pair();
  const std::uint32_t edge = net::Socket::kMaxFrameBytes;
  write_raw(a, &edge, sizeof(edge));
  a.close();
  EXPECT_THROW(b.recv_frame(), std::runtime_error);
}

TEST(FrameFuzz, EofMidPayloadThrows) {
  auto [a, b] = net::socket_pair();
  const std::uint32_t length = 10;
  write_raw(a, &length, sizeof(length));
  const char partial[3] = {1, 2, 3};
  write_raw(a, partial, sizeof(partial));
  a.close();
  EXPECT_THROW(b.recv_frame(), std::runtime_error);
}

TEST(FrameFuzz, EofMidHeaderThrows) {
  auto [a, b] = net::socket_pair();
  const char half_header[2] = {4, 0};
  write_raw(a, half_header, sizeof(half_header));
  a.close();
  EXPECT_THROW(b.recv_frame(), std::runtime_error);
}

TEST(FrameFuzz, TornFramesNeverReachDecodeAsValid) {
  // End-to-end: random torn writes (header + partial payload, then EOF)
  // must surface as exceptions from the framing or decode layer, never as
  // a silently accepted message.
  common::Xoshiro256StarStar rng(0xC0FFEE);
  for (int round = 0; round < 50; ++round) {
    auto [a, b] = net::socket_pair();
    const auto samples = sample_encodings();
    const auto& frame = samples[rng.next_below(samples.size())];
    const auto keep = rng.next_below(frame.size());  // strictly truncated
    const auto length = static_cast<std::uint32_t>(frame.size());
    write_raw(a, &length, sizeof(length));
    write_raw(a, frame.data(), keep);
    a.close();
    EXPECT_THROW((void)b.recv_frame(), std::runtime_error);
  }
}

}  // namespace
