// Tests for the network transport: framing, the wire protocol, and a full
// distributed POSG run (scheduler + instances as socket peers).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <thread>

#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "net/iovec.hpp"
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

TEST(Socket, SendResumesAtEveryPartialWriteSplit) {
  // A frame is one sendmsg over {prefix, payload}; a partial write may stop
  // anywhere — inside the prefix, exactly at the boundary, inside the
  // payload — and the next sendmsg must start at the first unsent byte.
  // Every pair of consecutive splits of a (4 + n)-byte frame.
  for (const std::size_t n : {0, 1, 3, 4, 5, 34}) {
    std::vector<std::byte> header(4);
    std::vector<std::byte> payload(n);
    for (std::size_t i = 0; i < header.size(); ++i) {
      header[i] = static_cast<std::byte>(0xA0 + i);
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>(i + 1);
    }
    std::vector<std::byte> frame = header;
    frame.insert(frame.end(), payload.begin(), payload.end());
    for (std::size_t first = 0; first <= frame.size(); ++first) {
      for (std::size_t second = first; second <= frame.size(); ++second) {
        iovec parts[2] = {{header.data(), header.size()}, {payload.data(), payload.size()}};
        std::span<iovec> pending(parts);
        net::detail::advance_iovec(pending, first);
        net::detail::advance_iovec(pending, second - first);
        std::vector<std::byte> rest;
        for (const iovec& part : pending) {
          const auto* begin = static_cast<const std::byte*>(part.iov_base);
          rest.insert(rest.end(), begin, begin + part.iov_len);
        }
        ASSERT_EQ(rest, std::vector<std::byte>(frame.begin() + static_cast<std::ptrdiff_t>(second),
                                               frame.end()))
            << "payload " << n << " bytes, writes of " << first << " then " << second - first;
        // An entry fully sent leaves the list: the loop ends on an empty list.
        EXPECT_EQ(pending.empty(), second == frame.size());
      }
    }
  }
}

TEST(Socket, BurstThroughShrunkSendBufferKeepsFrameBoundaries) {
  auto [a, b] = net::socket_pair();
  const int tiny = 1;  // the kernel raises it to its minimum buffer size
  ASSERT_EQ(::setsockopt(a.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)), 0);
  ASSERT_EQ(::setsockopt(b.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  // Empty; shorter than, equal to and just past the prefix; a tuple with
  // a marker; and a payload many times the buffer.
  const std::size_t sizes[] = {0, 1, 3, 4, 5, 34, 64 * 1024};
  constexpr std::size_t kFrames = 40 * std::size(sizes);
  const auto payload_for = [&sizes](std::size_t index) {
    std::vector<std::byte> out(sizes[index % std::size(sizes)]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::byte>(index * 131 + i * 7);
    }
    return out;
  };
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < kFrames; ++i) {
        a.send_frame(payload_for(i));
      }
    } catch (const std::exception&) {
      send_failed.store(true);  // the receiver gave up and shut its end
    }
  });
  std::size_t received = 0;
  for (; received < kFrames; ++received) {
    // Alternate the blocking and the deadline-bounded receive; the latter
    // waits between the pieces of a frame that is still arriving.
    std::vector<std::byte> frame;
    if (received % 2 == 0) {
      auto next = b.recv_frame();
      if (!next) {
        break;
      }
      frame = std::move(*next);
    } else {
      auto next = b.recv_frame(std::chrono::milliseconds(5000));
      if (next.status != net::RecvStatus::kFrame) {
        break;
      }
      frame = std::move(next.payload);
    }
    if (frame != payload_for(received)) {
      ADD_FAILURE() << "frame " << received << " (" << frame.size() << " bytes) differs";
      break;
    }
  }
  b.shutdown();  // unblocks the sender if the loop stopped early
  sender.join();
  EXPECT_EQ(received, kFrames);
  EXPECT_FALSE(send_failed.load());
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
  // Tuples, without and with a marker: the stack-buffer encoding route()
  // sends equals encode() byte for byte, matches the documented layout,
  // passes the frame validator and decodes back to the message.
  const auto check_tuple_encoding = [](const net::TupleMessage& tuple) {
    std::vector<std::byte> layout;
    const auto put = [&layout](const auto& value) {
      const auto* begin = reinterpret_cast<const std::byte*>(&value);
      layout.insert(layout.end(), begin, begin + sizeof(value));
    };
    put(std::uint8_t{2});
    put(tuple.seq);
    put(tuple.item);
    put(static_cast<std::uint8_t>(tuple.marker.has_value() ? 1 : 0));
    if (tuple.marker) {
      put(tuple.marker->epoch);
      put(tuple.marker->estimated_cumulated);
    }
    net::TupleFrameBuffer buffer{};
    const std::span<const std::byte> stacked = net::encode_tuple(tuple, buffer);
    const std::vector<std::byte> encoded = net::encode(tuple);
    EXPECT_TRUE(std::equal(stacked.begin(), stacked.end(), encoded.begin(), encoded.end()));
    EXPECT_TRUE(std::equal(stacked.begin(), stacked.end(), layout.begin(), layout.end()));
    net::debug_validate_frame(stacked);
    return std::get<net::TupleMessage>(net::decode(stacked));
  };
  {
    net::TupleMessage tuple;
    tuple.seq = 123;
    tuple.item = 456;
    const auto decoded = check_tuple_encoding(tuple);
    EXPECT_EQ(decoded.seq, 123u);
    EXPECT_EQ(decoded.item, 456u);
    EXPECT_FALSE(decoded.marker.has_value());
  }
  {
    net::TupleMessage tuple;
    tuple.seq = 1;
    tuple.item = 2;
    tuple.marker = core::SyncRequest{9, 1234.5};
    const auto decoded = check_tuple_encoding(tuple);
    EXPECT_EQ(decoded.seq, 1u);
    EXPECT_EQ(decoded.item, 2u);
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
