// Tests for the network transport: framing, the wire protocol, and a full
// distributed POSG run (scheduler + instances as socket peers).
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <future>
#include <iterator>
#include <thread>

#include "core/instance_tracker.hpp"
#include "common/error.hpp"
#include "core/posg_scheduler.hpp"
#include "net/iovec.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace {

using namespace posg;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  if (!text.empty()) {
    std::memcpy(out.data(), text.data(), text.size());
  }
  return out;
}

/// The wire form of `payloads`: each a u32 length prefix and its bytes,
/// back to back, as Socket::send_frames expects them.
std::vector<std::byte> framed(const std::vector<std::vector<std::byte>>& payloads) {
  std::vector<std::byte> out;
  for (const auto& payload : payloads) {
    net::append_frame(out, payload);
  }
  return out;
}

/// Writes `raw` as-is with one ::send, no framing of its own.
void send_raw(const net::Socket& socket, std::span<const std::byte> raw) {
  ASSERT_EQ(::send(socket.fd(), raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
}

/// Bytes the kernel holds for `socket` to read (FIONREAD).
std::size_t kernel_readable(const net::Socket& socket) {
  int bytes = 0;
  EXPECT_EQ(::ioctl(socket.fd(), FIONREAD, &bytes), 0);
  return static_cast<std::size_t>(bytes);
}

constexpr auto kWait = std::chrono::milliseconds(5000);

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
  // send_frames hands a run of frames to one sendmsg; its resume loop
  // (detail::write_all) must pick the run up at every pair of splits,
  // inside a prefix, at a frame boundary or inside a payload.
  std::vector<std::byte> run;
  for (const std::size_t n : {0, 1, 5, 34}) {
    const std::vector<std::byte> frame = framed({std::vector<std::byte>(n, std::byte{0x11})});
    run.insert(run.end(), frame.begin(), frame.end());
  }
  for (std::size_t i = 0; i < run.size(); ++i) {
    run[i] ^= static_cast<std::byte>(i);  // every byte distinct in position
  }
  for (std::size_t first = 0; first <= run.size(); ++first) {
    for (std::size_t second = first; second <= run.size(); ++second) {
      const std::size_t limits[] = {first, second - first};
      std::size_t call = 0;
      std::vector<std::byte> wire;
      iovec whole[1] = {{run.data(), run.size()}};
      net::detail::write_all(whole, [&](std::span<iovec> pending) {
        // A sendmsg that writes at most the next limit (all, after two).
        const std::size_t budget = call < std::size(limits) ? limits[call] : run.size();
        ++call;
        std::size_t written = 0;
        for (const iovec& part : pending) {
          const std::size_t take = std::min(part.iov_len, budget - written);
          const auto* begin = static_cast<const std::byte*>(part.iov_base);
          wire.insert(wire.end(), begin, begin + take);
          written += take;
        }
        return written;
      });
      ASSERT_EQ(wire, run) << "run of " << run.size() << " bytes, writes of " << first
                           << " then " << second - first;
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

TEST(Socket, ThreeFramesInOneSendComeBackAsThree) {
  auto [a, b] = net::socket_pair();
  send_raw(a, framed({bytes_of("one"), bytes_of(""), bytes_of("three")}));
  for (const char* expected : {"one", "", "three"}) {
    const net::RecvResult received = b.recv_frame(kWait);
    ASSERT_EQ(received.status, net::RecvStatus::kFrame);
    EXPECT_EQ(received.payload, bytes_of(expected));
  }
  // One recv took the whole burst; the later frames came from the buffer.
  EXPECT_EQ(kernel_readable(b), 0u);
}

TEST(Socket, FrameSplitAcrossTwoSendsCompletes) {
  // The first send carries a whole frame and the start of the next, so
  // the reader holds a partial frame in its buffer when the rest arrives.
  // Splits inside the prefix, at its end, and inside the payload.
  const std::vector<std::byte> next = framed({bytes_of("split frame")});
  for (const std::size_t split : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    SCOPED_TRACE("split after " + std::to_string(split) + " bytes");
    auto [a, b] = net::socket_pair();
    std::vector<std::byte> first = framed({bytes_of("whole")});
    first.insert(first.end(), next.begin(), next.begin() + static_cast<std::ptrdiff_t>(split));
    send_raw(a, first);
    const net::RecvResult whole = b.recv_frame(kWait);
    ASSERT_EQ(whole.status, net::RecvStatus::kFrame);
    EXPECT_EQ(whole.payload, bytes_of("whole"));
    send_raw(a, std::span(next).subspan(split));
    const net::RecvResult rest = b.recv_frame(kWait);
    ASSERT_EQ(rest.status, net::RecvStatus::kFrame);
    EXPECT_EQ(rest.payload, bytes_of("split frame"));
  }
}

TEST(Socket, StallInsideABufferedFrameThrowsPastTheDeadline) {
  // The frame's start is already in the read buffer, so the frame has
  // started: a receive must not wait for another "first byte", and a gap
  // longer than the deadline is broken framing, not an idle link.
  auto [a, b] = net::socket_pair();
  std::vector<std::byte> raw = framed({bytes_of("whole")});
  const std::vector<std::byte> stalled = framed({bytes_of("never finished")});
  raw.insert(raw.end(), stalled.begin(), stalled.begin() + 6);
  send_raw(a, raw);
  ASSERT_EQ(b.recv_frame(kWait).status, net::RecvStatus::kFrame);
  auto pending = std::async(std::launch::async, [&b] {
    return b.recv_frame(std::chrono::milliseconds(100));
  });
  const auto status = pending.wait_for(std::chrono::milliseconds(2000));
  if (status != std::future_status::ready) {
    a.shutdown();  // unblock the receive so the test can fail cleanly
  }
  ASSERT_EQ(status, std::future_status::ready);
  EXPECT_THROW(pending.get(), TransportError);
}

TEST(Socket, FrameLargerThanTheReadBufferRoundTrips) {
  // A small frame, one three buffers and a bit long, and a small frame, in
  // one send_frames: the large payload is read straight into place and
  // the frames around it keep their boundaries.
  auto [a, b] = net::socket_pair();
  std::vector<std::byte> big(3 * net::Socket::kReadBufferBytes + 5);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 7 + 3);
  }
  const std::vector<std::vector<std::byte>> payloads = {bytes_of("before"), big,
                                                        bytes_of("after")};
  const std::vector<std::byte> run = framed(payloads);
  std::thread sender([&a, &run] { a.send_frames(run); });
  for (const auto& expected : payloads) {
    const net::RecvResult received = b.recv_frame(kWait);
    ASSERT_EQ(received.status, net::RecvStatus::kFrame);
    EXPECT_EQ(received.payload, expected);
  }
  sender.join();
}

TEST(Socket, ReadAheadSurvivesMovingTheSocketIntoATransport) {
  // A handshake reads the first frame off a bare Socket and then hands the
  // Socket to a transport: the frames that arrived behind the first one
  // were read ahead with it and must come out of the transport.
  auto [a, b] = net::socket_pair();
  a.send_frames(framed({bytes_of("hello"), bytes_of("stashed 1"), bytes_of("stashed 2")}));
  const net::RecvResult first = b.recv_frame(kWait);
  ASSERT_EQ(first.status, net::RecvStatus::kFrame);
  EXPECT_EQ(first.payload, bytes_of("hello"));
  ASSERT_EQ(kernel_readable(b), 0u);  // the rest is in b's buffer, not the kernel's
  net::SocketTransport transport(std::move(b));
  for (const char* expected : {"stashed 1", "stashed 2"}) {
    const net::RecvResult received = transport.recv_frame(kWait);
    ASSERT_EQ(received.status, net::RecvStatus::kFrame);
    EXPECT_EQ(received.payload, bytes_of(expected));
  }
  a.close();
  EXPECT_EQ(transport.recv_frame(kWait).status, net::RecvStatus::kEof);
}

TEST(Socket, TransportDefaultSendFramesGoesFrameByFrame) {
  // A decorator that implements only send_frame (a fault injector, a
  // counting wrapper) sees every frame of a send_frames run, in order.
  struct Recording final : net::FrameTransport {
    std::vector<std::vector<std::byte>> sent;
    void send_frame(std::span<const std::byte> payload) override {
      sent.emplace_back(payload.begin(), payload.end());
    }
    net::RecvResult recv_frame(std::chrono::milliseconds) override { return {}; }
    void close() noexcept override {}
    bool valid() const noexcept override { return true; }
  };
  const std::vector<std::vector<std::byte>> payloads = {bytes_of("a"), bytes_of(""),
                                                        bytes_of("frame three")};
  Recording recording;
  recording.send_frames(framed(payloads));
  EXPECT_EQ(recording.sent, payloads);
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
