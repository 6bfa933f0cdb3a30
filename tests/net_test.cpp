// Tests for the network transport: framing, the wire protocol, and a full
// distributed POSG run (scheduler + instances as socket peers).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace {

using namespace posg;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  if (!text.empty()) {
    std::memcpy(out.data(), text.data(), text.size());
  }
  return out;
}

TEST(Socket, FramesRoundTripOverSocketPair) {
  auto [a, b] = net::socket_pair();
  a.send_frame(bytes_of("hello"));
  a.send_frame(bytes_of(""));
  a.send_frame(bytes_of("world!"));
  EXPECT_EQ(b.recv_frame().value(), bytes_of("hello"));
  EXPECT_EQ(b.recv_frame().value(), bytes_of(""));
  EXPECT_EQ(b.recv_frame().value(), bytes_of("world!"));
}

TEST(Socket, OrderlyShutdownYieldsNullopt) {
  auto [a, b] = net::socket_pair();
  a.send_frame(bytes_of("last"));
  a.close();
  EXPECT_EQ(b.recv_frame().value(), bytes_of("last"));
  EXPECT_FALSE(b.recv_frame().has_value());
}

TEST(Socket, LargeFrameRoundTrips) {
  auto [a, b] = net::socket_pair();
  std::vector<std::byte> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 31);
  }
  std::thread sender([&a, &big] { a.send_frame(big); });
  EXPECT_EQ(b.recv_frame().value(), big);
  sender.join();
}

TEST(Socket, ListenerAcceptsConnections) {
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_net_test.sock").string();
  net::Listener listener(path);
  std::thread client([&path] {
    auto socket = net::connect(path);
    socket.send_frame(bytes_of("ping"));
    EXPECT_EQ(socket.recv_frame().value(), bytes_of("pong"));
  });
  auto served = listener.accept();
  EXPECT_EQ(served.recv_frame().value(), bytes_of("ping"));
  served.send_frame(bytes_of("pong"));
  client.join();
}

TEST(Protocol, AllMessageKindsRoundTrip) {
  // Hello
  {
    const auto decoded = net::decode(net::encode(net::Hello{7}));
    EXPECT_EQ(std::get<net::Hello>(decoded).instance, 7u);
  }
  // Tuple without marker
  {
    net::TupleMessage tuple;
    tuple.seq = 123;
    tuple.item = 456;
    const auto decoded = std::get<net::TupleMessage>(net::decode(net::encode(tuple)));
    EXPECT_EQ(decoded.seq, 123u);
    EXPECT_EQ(decoded.item, 456u);
    EXPECT_FALSE(decoded.marker.has_value());
  }
  // Tuple with marker
  {
    net::TupleMessage tuple;
    tuple.seq = 1;
    tuple.item = 2;
    tuple.marker = core::SyncRequest{9, 1234.5};
    const auto decoded = std::get<net::TupleMessage>(net::decode(net::encode(tuple)));
    ASSERT_TRUE(decoded.marker.has_value());
    EXPECT_EQ(decoded.marker->epoch, 9u);
    EXPECT_DOUBLE_EQ(decoded.marker->estimated_cumulated, 1234.5);
  }
  // Shipment (with a heavy-hitter table to cover the full codec)
  {
    core::PosgConfig config;
    config.window = 4;
    config.mu = 10.0;
    config.heavy_hitter_capacity = 8;
    core::InstanceTracker tracker(3, config);
    std::optional<core::SketchShipment> shipment;
    for (int i = 0; i < 100 && !shipment; ++i) {
      shipment = tracker.on_executed(i % 4, 2.0);
    }
    ASSERT_TRUE(shipment.has_value());
    const auto decoded =
        std::get<core::SketchShipment>(net::decode(net::encode(*shipment)));
    EXPECT_EQ(decoded.instance, 3u);
    EXPECT_EQ(decoded.sketch.update_count(), shipment->sketch.update_count());
    EXPECT_EQ(decoded.sketch.heavy_capacity(), 8u);
  }
  // SyncReply
  {
    const auto decoded =
        std::get<core::SyncReply>(net::decode(net::encode(core::SyncReply{2, 5, -3.5})));
    EXPECT_EQ(decoded.instance, 2u);
    EXPECT_EQ(decoded.epoch, 5u);
    EXPECT_DOUBLE_EQ(decoded.delta, -3.5);
  }
  // EndOfStream
  {
    EXPECT_TRUE(std::holds_alternative<net::EndOfStream>(
        net::decode(net::encode(net::EndOfStream{}))));
  }
  // InstanceFailed
  {
    const auto decoded =
        std::get<net::InstanceFailed>(net::decode(net::encode(net::InstanceFailed{4, 11})));
    EXPECT_EQ(decoded.instance, 4u);
    EXPECT_EQ(decoded.epoch, 11u);
  }
  // DrainRequest
  {
    const auto decoded = std::get<net::DrainRequest>(
        net::decode(net::encode(net::DrainRequest{3, 7, 512.25})));
    EXPECT_EQ(decoded.instance, 3u);
    EXPECT_EQ(decoded.epoch, 7u);
    EXPECT_DOUBLE_EQ(decoded.estimated_cumulated, 512.25);
  }
  // DrainComplete (negative delta: the cut over-estimated the real work)
  {
    const auto decoded = std::get<net::DrainComplete>(
        net::decode(net::encode(net::DrainComplete{3, 7, -12.5, 4096})));
    EXPECT_EQ(decoded.instance, 3u);
    EXPECT_EQ(decoded.epoch, 7u);
    EXPECT_DOUBLE_EQ(decoded.delta, -12.5);
    EXPECT_EQ(decoded.executed, 4096u);
  }
}

TEST(Protocol, RejectsMalformedPayloads) {
  EXPECT_THROW(net::decode({}), std::invalid_argument);
  const std::vector<std::byte> unknown_tag{std::byte{0x7F}};
  EXPECT_THROW(net::decode(unknown_tag), std::invalid_argument);
  auto truncated = net::encode(net::Hello{1});
  truncated.pop_back();
  EXPECT_THROW(net::decode(truncated), std::invalid_argument);
  auto trailing = net::encode(net::EndOfStream{});
  trailing.push_back(std::byte{0});
  EXPECT_THROW(net::decode(trailing), std::invalid_argument);
  auto short_drain = net::encode(net::DrainRequest{1, 2, 3.0});
  short_drain.pop_back();
  EXPECT_THROW(net::decode(short_drain), std::invalid_argument);
  auto long_complete = net::encode(net::DrainComplete{1, 2, 3.0, 4});
  long_complete.push_back(std::byte{0xAB});
  EXPECT_THROW(net::decode(long_complete), std::invalid_argument);
}

/// Full distributed run: one scheduler, two operator-instance peers, real
/// sockets, the complete POSG protocol (shipments, markers, replies).
TEST(DistributedPosg, ProtocolCompletesOverSockets) {
  const std::size_t k = 2;
  core::PosgConfig config;
  config.window = 32;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;

  std::vector<std::pair<net::Socket, net::Socket>> links;
  for (std::size_t i = 0; i < k; ++i) {
    links.push_back(net::socket_pair());
  }

  // Instance peers: execute tuples (simulated cost), track, ship, reply.
  std::vector<std::thread> instances;
  std::vector<std::uint64_t> executed(k, 0);
  for (common::InstanceId op = 0; op < k; ++op) {
    instances.emplace_back([&, op] {
      net::Socket& socket = links[op].second;
      core::InstanceTracker tracker(op, config);
      while (auto frame = socket.recv_frame()) {
        const auto message = net::decode(*frame);
        if (std::holds_alternative<net::EndOfStream>(message)) {
          break;
        }
        const auto& tuple = std::get<net::TupleMessage>(message);
        const common::TimeMs cost = 1.0 + static_cast<double>(tuple.item % 8);
        if (auto shipment = tracker.on_executed(tuple.item, cost)) {
          socket.send_frame(net::encode(*shipment));
        }
        if (tuple.marker) {
          socket.send_frame(net::encode(tracker.on_sync_request(*tuple.marker)));
        }
        ++executed[op];
      }
      socket.close();
    });
  }

  // Scheduler: route 5000 tuples; a reader thread per instance feeds the
  // control messages back.
  core::PosgScheduler scheduler(k, config);
  std::mutex scheduler_mutex;
  std::atomic<std::uint64_t> replies{0};
  std::vector<std::thread> readers;
  for (common::InstanceId op = 0; op < k; ++op) {
    readers.emplace_back([&, op] {
      net::Socket& socket = links[op].first;
      // NOTE: recv on the same socket the scheduler sends on is safe —
      // Unix stream sockets are full-duplex.
      while (true) {
        std::optional<std::vector<std::byte>> frame;
        try {
          frame = socket.recv_frame();
        } catch (const std::exception&) {
          break;
        }
        if (!frame) {
          break;
        }
        const auto message = net::decode(*frame);
        std::lock_guard lock(scheduler_mutex);
        if (const auto* shipment = std::get_if<core::SketchShipment>(&message)) {
          scheduler.on_feedback(*shipment);
        } else if (const auto* reply = std::get_if<core::SyncReply>(&message)) {
          scheduler.on_feedback(*reply);
          replies.fetch_add(1);
        }
      }
    });
  }

  for (common::SeqNo seq = 0; seq < 5000; ++seq) {
    net::TupleMessage tuple;
    tuple.seq = seq;
    tuple.item = (seq * 37) % 64;
    core::Decision decision;
    {
      std::lock_guard lock(scheduler_mutex);
      decision = scheduler.schedule(tuple.item, seq);
    }
    tuple.marker = decision.sync_request;
    links[decision.instance].first.send_frame(net::encode(tuple));
  }
  for (common::InstanceId op = 0; op < k; ++op) {
    links[op].first.send_frame(net::encode(net::EndOfStream{}));
  }
  for (auto& thread : instances) {
    thread.join();
  }
  for (auto& thread : readers) {
    thread.join();
  }

  EXPECT_EQ(executed[0] + executed[1], 5000u);
  EXPECT_GT(replies.load(), 0u);
  std::lock_guard lock(scheduler_mutex);
  EXPECT_NE(scheduler.state(), core::PosgScheduler::State::kRoundRobin);
}

}  // namespace
