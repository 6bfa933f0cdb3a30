#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "net/socket.hpp"

/// Frame-oriented transport abstraction.
///
/// The runtime layer (src/runtime/) drives scheduler ↔ instance links
/// through this interface so the same code paths run over a plain socket
/// in production and over a net::FaultInjector (net/fault_injection.hpp)
/// in the deterministic failure tests.
namespace posg::net {

class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  /// Sends one frame; throws on a dead peer (EPIPE/ECONNRESET), never
  /// raises SIGPIPE.
  virtual void send_frame(std::span<const std::byte> payload) = 0;

  /// Sends a run of frames framed back to back (u32 little-endian length,
  /// then the payload, per frame), such as SchedulerRuntime's link writer
  /// hands over one outbox at a time. Same throw contract as send_frame;
  /// when it throws, an unknown prefix of the run may have left.
  ///
  /// This default sends frame by frame through send_frame, so a decorator
  /// that implements only send_frame (net::FaultInjector, a test's
  /// counting transport) still sees, faults and counts every frame.
  /// SocketTransport overrides it with one Socket::send_frames call.
  virtual void send_frames(std::span<const std::byte> framed) {
    while (!framed.empty()) {
      std::uint32_t length = 0;
      std::memcpy(&length, framed.data(), sizeof(length));
      send_frame(framed.subspan(sizeof(length), length));
      framed = framed.subspan(sizeof(length) + length);
    }
  }

  /// Deadline-bounded receive (see Socket::recv_frame(deadline)).
  virtual RecvResult recv_frame(std::chrono::milliseconds deadline) = 0;

  virtual void close() noexcept = 0;
  virtual bool valid() const noexcept = 0;
};

/// Pass-through adapter over an owned socket.
class SocketTransport final : public FrameTransport {
 public:
  explicit SocketTransport(Socket socket) noexcept : socket_(std::move(socket)) {}

  void send_frame(std::span<const std::byte> payload) override { socket_.send_frame(payload); }
  void send_frames(std::span<const std::byte> framed) override { socket_.send_frames(framed); }
  RecvResult recv_frame(std::chrono::milliseconds deadline) override {
    return socket_.recv_frame(deadline);
  }
  void close() noexcept override { socket_.close(); }
  bool valid() const noexcept override { return socket_.valid(); }

  Socket& socket() noexcept { return socket_; }

 private:
  Socket socket_;
};

}  // namespace posg::net
