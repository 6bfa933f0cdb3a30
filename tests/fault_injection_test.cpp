// Tests of the hardened transport layer (src/net/socket.*) and the
// deterministic fault injector (src/net/fault_injection.*): deadline
// receives, connect retry with backoff, and scripted drop / delay /
// corrupt / disconnect faults whose sequence is reproducible from a seed.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/fault_injection.hpp"
#include "net/socket.hpp"

namespace {

using namespace posg;
using net::FaultDir;
using net::FaultInjector;
using net::FaultPlan;
using Clock = std::chrono::steady_clock;

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) {
    out.push_back(static_cast<std::byte>(v));
  }
  return out;
}

TEST(SocketDeadline, DistinguishesSilenceFromShutdown) {
  auto [a, b] = net::socket_pair();
  // Idle peer: timeout, no bytes consumed, safe to retry.
  auto idle = b.recv_frame(std::chrono::milliseconds(30));
  EXPECT_EQ(idle.status, net::RecvStatus::kTimeout);
  // A frame sent later is still delivered intact by the retried call.
  a.send_frame(bytes({1, 2, 3}));
  auto framed = b.recv_frame(std::chrono::milliseconds(1000));
  ASSERT_EQ(framed.status, net::RecvStatus::kFrame);
  EXPECT_EQ(framed.payload, bytes({1, 2, 3}));
  // Orderly shutdown: EOF, not timeout, not an exception.
  a.close();
  auto eof = b.recv_frame(std::chrono::milliseconds(1000));
  EXPECT_EQ(eof.status, net::RecvStatus::kEof);
}

TEST(SocketDeadline, SendToClosedPeerThrowsInsteadOfSigpipe) {
  auto [a, b] = net::socket_pair();
  b.close();
  // Without MSG_NOSIGNAL this would kill the process with SIGPIPE; the
  // hardened send surfaces a catchable error instead.
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          a.send_frame(bytes({9}));
        }
      },
      std::system_error);
}

/// Writes `raw` to the socket as-is, with no framing: a peer that starts
/// a frame and then goes quiet.
void send_raw(const net::Socket& socket, const std::vector<std::byte>& raw) {
  EXPECT_EQ(::send(socket.fd(), raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
}

/// Length prefix of a `size`-byte frame.
std::vector<std::byte> prefix(std::uint32_t size) {
  std::vector<std::byte> out(sizeof(size));
  std::memcpy(out.data(), &size, sizeof(size));
  return out;
}

/// recv_frame(100 ms) on `reader`, while `writer` holds a frame half sent,
/// must give up with TransportError after the deadline. A receive still
/// blocked after 2 s fails the test; `writer` is then shut down so the
/// stuck read sees EOF, and the test ends instead of hanging.
void expect_stall_throws(net::Socket& writer, net::Socket& reader) {
  const auto start = Clock::now();
  auto pending = std::async(std::launch::async, [&reader] {
    return reader.recv_frame(std::chrono::milliseconds(100));
  });
  const auto status = pending.wait_for(std::chrono::milliseconds(2000));
  if (status != std::future_status::ready) {
    writer.shutdown();
  }
  ASSERT_EQ(status, std::future_status::ready) << "recv_frame(100 ms) still blocked after 2 s";
  EXPECT_THROW(pending.get(), TransportError);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(90));
}

TEST(SocketDeadline, StallInsidePrefixThrowsInsteadOfHanging) {
  auto [a, b] = net::socket_pair();
  auto header = prefix(8);
  header.resize(2);  // half the length prefix, then silence
  send_raw(a, header);
  expect_stall_throws(a, b);
}

TEST(SocketDeadline, StallInsidePayloadThrowsInsteadOfHanging) {
  // The whole prefix then nothing (a stall exactly at the boundary), and
  // the prefix plus 3 of 10 payload bytes.
  for (const std::size_t sent : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("payload bytes sent: " + std::to_string(sent));
    auto [a, b] = net::socket_pair();
    auto raw = prefix(10);
    raw.resize(raw.size() + sent, std::byte{0x5A});
    send_raw(a, raw);
    expect_stall_throws(a, b);
  }
}

TEST(SocketDeadline, TrickleUnderTheDeadlineCompletes) {
  // One byte per 10 ms: the 20-byte frame takes ~200 ms in all, twice the
  // deadline, but no single gap comes near it. The deadline bounds each
  // wait, not the whole frame.
  auto [a, b] = net::socket_pair();
  std::vector<std::byte> payload(16);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 13 + 1);
  }
  std::vector<std::byte> wire(sizeof(std::uint32_t) + payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::memcpy(wire.data(), &length, sizeof(length));
  std::memcpy(wire.data() + sizeof(length), payload.data(), payload.size());
  std::thread trickler([&a, &wire] {
    for (const std::byte byte : wire) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      send_raw(a, {byte});
    }
  });
  auto pending = std::async(std::launch::async, [&b] {
    return b.recv_frame(std::chrono::milliseconds(100));
  });
  const auto status = pending.wait_for(std::chrono::milliseconds(5000));
  if (status != std::future_status::ready) {
    a.shutdown();
  }
  trickler.join();
  ASSERT_EQ(status, std::future_status::ready);
  const net::RecvResult received = pending.get();
  ASSERT_EQ(received.status, net::RecvStatus::kFrame);
  EXPECT_EQ(received.payload, payload);
}

TEST(ConnectRetry, GivesUpAfterExhaustedSchedule) {
  net::ConnectRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(4);
  EXPECT_THROW(net::connect("/tmp/posg_no_such_listener.sock", policy), std::runtime_error);
}

TEST(ConnectRetry, SurvivesServerThatBindsLate) {
  const auto path =
      (std::filesystem::temp_directory_path() / "posg_late_bind_test.sock").string();
  std::remove(path.c_str());
  net::Socket client;
  std::thread connector([&] {
    net::ConnectRetryPolicy policy;
    policy.initial_backoff = std::chrono::milliseconds(2);
    client = net::connect(path, policy);
  });
  // Bind only after the client has started (and failed) its first attempts.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net::Listener listener(path);
  net::Socket server = listener.accept();
  connector.join();
  client.send_frame(bytes({42}));
  auto received = server.recv_frame();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, bytes({42}));
}

TEST(FaultPlan, SameSeedReproducesIdenticalPlan) {
  const auto first = FaultPlan::random_gray(42, 100, 10);
  const auto second = FaultPlan::random_gray(42, 100, 10);
  ASSERT_EQ(first.actions().size(), second.actions().size());
  ASSERT_EQ(first.actions().size(), 10u);
  for (std::size_t i = 0; i < first.actions().size(); ++i) {
    EXPECT_EQ(first.actions()[i].describe(), second.actions()[i].describe());
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  const auto first = FaultPlan::random_gray(1, 100, 10);
  const auto second = FaultPlan::random_gray(2, 100, 10);
  std::vector<std::string> a, b;
  for (const auto& action : first.actions()) {
    a.push_back(action.describe());
  }
  for (const auto& action : second.actions()) {
    b.push_back(action.describe());
  }
  EXPECT_NE(a, b);
}

TEST(FaultInjector, DropSwallowsExactlyTheScriptedFrame) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.drop(FaultDir::kSend, 1);
  FaultInjector injector(std::move(a), plan);
  injector.send_frame(bytes({0}));
  injector.send_frame(bytes({1}));  // dropped
  injector.send_frame(bytes({2}));
  injector.close();
  EXPECT_EQ(*b.recv_frame(), bytes({0}));
  EXPECT_EQ(*b.recv_frame(), bytes({2}));
  EXPECT_FALSE(b.recv_frame().has_value());
  EXPECT_EQ(injector.frames_sent(), 3u);
  ASSERT_EQ(injector.event_log().size(), 1u);
  EXPECT_EQ(injector.event_log().front(), plan.actions().front().describe());
}

TEST(FaultInjector, CorruptFlipsTheScriptedByte) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.corrupt(FaultDir::kSend, 0, 2, 0x01);
  FaultInjector injector(std::move(a), plan);
  injector.send_frame(bytes({10, 20, 30}));
  injector.close();
  EXPECT_EQ(*b.recv_frame(), bytes({10, 20, 30 ^ 0x01}));
}

TEST(FaultInjector, DelayHoldsTheFrameBack) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.delay(FaultDir::kSend, 0, std::chrono::milliseconds(40));
  FaultInjector injector(std::move(a), plan);
  const auto start = Clock::now();
  injector.send_frame(bytes({5}));
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
  EXPECT_EQ(*b.recv_frame(), bytes({5}));
}

TEST(FaultInjector, DisconnectAfterSendSeversTheLink) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.disconnect_after(FaultDir::kSend, 1);
  FaultInjector injector(std::move(a), plan);
  injector.send_frame(bytes({0}));
  injector.send_frame(bytes({1}));  // delivered, then the link dies
  // The fd stays owned (the sever is shutdown(), not close(), so it is
  // safe against a concurrent reader); the dead link surfaces as EPIPE.
  EXPECT_TRUE(injector.valid());
  EXPECT_THROW(injector.send_frame(bytes({2})), std::system_error);
  EXPECT_EQ(*b.recv_frame(), bytes({0}));
  EXPECT_EQ(*b.recv_frame(), bytes({1}));
  EXPECT_FALSE(b.recv_frame().has_value());  // peer observes a crash-style EOF
}

TEST(FaultInjector, RecvDropSkipsToTheNextFrame) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.drop(FaultDir::kRecv, 0);
  FaultInjector injector(std::move(a), plan);
  b.send_frame(bytes({0}));  // consumed and discarded
  b.send_frame(bytes({1}));
  auto received = injector.recv_frame(std::chrono::milliseconds(1000));
  ASSERT_EQ(received.status, net::RecvStatus::kFrame);
  EXPECT_EQ(received.payload, bytes({1}));
  EXPECT_EQ(injector.frames_received(), 2u);
}

TEST(FaultInjector, RecvDisconnectDeliversThenReportsEof) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.disconnect_after(FaultDir::kRecv, 0);
  FaultInjector injector(std::move(a), plan);
  b.send_frame(bytes({7}));
  b.send_frame(bytes({8}));  // never seen: the injector kills the link first
  auto first = injector.recv_frame(std::chrono::milliseconds(1000));
  ASSERT_EQ(first.status, net::RecvStatus::kFrame);
  EXPECT_EQ(first.payload, bytes({7}));
  auto second = injector.recv_frame(std::chrono::milliseconds(1000));
  EXPECT_EQ(second.status, net::RecvStatus::kEof);
}

TEST(FaultPlan, RandomGrayIsSeedStableAndSeparateFromRandom) {
  // random_gray must replay bit-for-bit from its seed: a chaos campaign
  // is replayed from the one integer it prints.
  const auto first = FaultPlan::random_gray(42, 100, 12);
  const auto second = FaultPlan::random_gray(42, 100, 12);
  ASSERT_EQ(first.actions().size(), 12u);
  for (std::size_t i = 0; i < first.actions().size(); ++i) {
    EXPECT_EQ(first.actions()[i].describe(), second.actions()[i].describe());
  }
}

TEST(FaultInjector, SlowDelaysEveryFrameInItsRange) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.slow(FaultDir::kSend, 1, 2, std::chrono::milliseconds(25));
  FaultInjector injector(std::move(a), plan);
  injector.send_frame(bytes({0}));  // before the range: untouched
  for (std::uint64_t frame = 1; frame <= 2; ++frame) {
    const auto start = Clock::now();
    injector.send_frame(bytes({static_cast<int>(frame)}));
    EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(25)) << "frame " << frame;
  }
  injector.send_frame(bytes({3}));  // past the range
  injector.close();
  for (int i = 0; i <= 3; ++i) {
    EXPECT_EQ(*b.recv_frame(), bytes({i}));  // slowed, never lost
  }
  EXPECT_EQ(injector.event_log().size(), 2u);
}

TEST(FaultInjector, PartitionDropsTheWholeRange) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.partition(FaultDir::kSend, 1, 3);  // one-way: frames 1..3 vanish
  FaultInjector injector(std::move(a), plan);
  for (int i = 0; i < 6; ++i) {
    injector.send_frame(bytes({i}));
  }
  injector.close();
  EXPECT_EQ(*b.recv_frame(), bytes({0}));
  EXPECT_EQ(*b.recv_frame(), bytes({4}));
  EXPECT_EQ(*b.recv_frame(), bytes({5}));
  EXPECT_FALSE(b.recv_frame().has_value());
  EXPECT_EQ(injector.event_log().size(), 3u);
}

TEST(FaultInjector, StutterStallsAtBurstBoundaries) {
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  // burst = 2: every third frame of the range stalls (phases 2 and 5).
  plan.stutter(FaultDir::kSend, 0, 6, 2, std::chrono::milliseconds(20));
  FaultInjector injector(std::move(a), plan);
  for (int frame = 0; frame < 6; ++frame) {
    const auto start = Clock::now();
    injector.send_frame(bytes({frame}));
    const auto elapsed = Clock::now() - start;
    if (frame % 3 == 2) {
      EXPECT_GE(elapsed, std::chrono::milliseconds(20)) << "frame " << frame << " did not stall";
    }
  }
  injector.close();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*b.recv_frame(), bytes({i}));  // stuttered, never lost
  }
  EXPECT_EQ(injector.event_log().size(), 2u);  // only the stalls are logged
}

TEST(FaultInjector, RecvPartitionStarvesTheReader) {
  // A one-way partition on the receive side: the frames are consumed off
  // the wire and discarded, exactly like in-flight loss.
  auto [a, b] = net::socket_pair();
  FaultPlan plan;
  plan.partition(FaultDir::kRecv, 0, 2);
  FaultInjector injector(std::move(a), plan);
  b.send_frame(bytes({0}));
  b.send_frame(bytes({1}));
  b.send_frame(bytes({2}));
  auto received = injector.recv_frame(std::chrono::milliseconds(1000));
  ASSERT_EQ(received.status, net::RecvStatus::kFrame);
  EXPECT_EQ(received.payload, bytes({2}));
  EXPECT_EQ(injector.frames_received(), 3u);
}

/// Acceptance: the same FaultPlan produces the same fault sequence (and
/// the same surviving traffic) on every run — asserted by executing one
/// randomized plan twice over identical streams and comparing the event
/// logs and the frames the peer actually received.
TEST(FaultInjector, SamePlanSameTrafficSameFaultSequence) {
  const auto plan = FaultPlan::random_gray(7, 16, 12);
  ASSERT_FALSE(plan.empty());

  const auto run_once = [&plan] {
    auto [a, b] = net::socket_pair();
    FaultInjector injector(std::move(a), plan);
    std::vector<std::vector<std::byte>> delivered;
    std::thread receiver([&b, &delivered] {
      while (auto frame = b.recv_frame()) {
        delivered.push_back(std::move(*frame));
      }
    });
    for (int i = 0; i < 16; ++i) {
      try {
        injector.send_frame(bytes({i, i + 1, i + 2}));
      } catch (const std::system_error&) {
        break;  // scripted disconnect — part of the sequence under test
      }
    }
    injector.close();
    receiver.join();
    return std::make_pair(injector.event_log(), delivered);
  };

  const auto first = run_once();
  const auto second = run_once();
  EXPECT_FALSE(first.first.empty());  // the seed's plan fires at least once
  EXPECT_EQ(first.first, second.first);    // identical fault sequence
  EXPECT_EQ(first.second, second.second);  // identical surviving traffic
}

}  // namespace
