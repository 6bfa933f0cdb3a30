#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

/// Minimal RAII socket layer for running POSG's scheduler and operator
/// instances as separate processes.
///
/// Scope: Unix-domain stream sockets with length-prefixed frames — enough
/// to demonstrate and test the wire protocol (net/protocol.hpp) without
/// pulling in an async runtime. Blocking I/O; one socket per peer.
///
/// Receives read ahead: one recv takes whatever the peer has sent, up to
/// kReadBufferBytes, and later receives return the frames it holds without
/// a syscall. A burst of frames therefore costs the reader one recv and at
/// most one wake-up. The buffered bytes belong to the Socket and move with
/// it, so a first frame read during a handshake loses nothing that
/// followed it. Sending and receiving may still run on two threads at once:
/// only the receiving thread touches the read buffer.
///
/// Throw contract (see common/error.hpp): syscall failures surface as
/// std::system_error; environmental failures the layer detects itself
/// (mid-frame EOF, a connect schedule running dry) throw
/// posg::TransportError; a peer violating the framing rules (length
/// prefix past the size bound) throws posg::ProtocolError. Both are
/// posg::Error, itself a std::runtime_error, so pre-hierarchy catch
/// sites keep working.
///
/// Fault-tolerance hardening (see DESIGN.md "Fault model"):
///   - sends never raise SIGPIPE (MSG_NOSIGNAL) — a dead peer surfaces as
///     std::system_error(EPIPE) the caller can turn into a quarantine,
///   - receives accept an optional poll-based deadline so a reader thread
///     can distinguish "peer is silent" from "peer is gone", and the same
///     deadline bounds every wait inside a frame, so a peer that stalls
///     mid-frame cannot pin the reader,
///   - connect retries with exponential backoff + deterministic jitter.
namespace posg::net {

/// Outcome of a deadline-bounded receive.
enum class RecvStatus {
  kFrame,    ///< one complete frame received
  kEof,      ///< orderly peer shutdown at a frame boundary
  kTimeout,  ///< deadline expired before the frame's first byte
};

struct RecvResult {
  RecvStatus status = RecvStatus::kEof;
  std::vector<std::byte> payload;  ///< filled only when status == kFrame
};

/// Owning file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Sends one length-prefixed frame (u32 little-endian length + payload).
  /// Blocks until fully written. A closed/reset peer surfaces as
  /// std::system_error(EPIPE/ECONNRESET), never as SIGPIPE.
  ///
  /// The prefix and the payload leave in one sendmsg(MSG_NOSIGNAL) over a
  /// two-entry iovec, so a reader blocked on this link wakes once per
  /// frame, not once for the prefix and again for the payload. A partial
  /// write (a full socket buffer) resumes where it stopped, even inside the
  /// prefix. Not writev: it takes no flags, so it cannot pass
  /// MSG_NOSIGNAL, and a dead peer would raise SIGPIPE again.
  void send_frame(std::span<const std::byte> payload);

  /// Sends a run of frames already framed back to back, each a u32
  /// little-endian length and its payload as send_frame writes them, in
  /// one sendmsg(MSG_NOSIGNAL) that resumes partial writes as send_frame
  /// does. Same error contract as send_frame. The caller vouches for the
  /// framing: the bytes go out as they are.
  void send_frames(std::span<const std::byte> framed);

  /// Receives one frame. Returns std::nullopt on orderly peer shutdown
  /// (EOF at a frame boundary); throws posg::TransportError on mid-frame
  /// EOF, posg::ProtocolError on an oversized length prefix, and
  /// std::system_error on I/O errors.
  std::optional<std::vector<std::byte>> recv_frame();

  /// Deadline-bounded receive. Waits at most `deadline` for the frame to
  /// *start*, and returns kTimeout with no bytes consumed when the
  /// connection stayed idle — safe to retry. Once the frame has started,
  /// each wait for its remaining bytes is bounded by the same `deadline`: a
  /// peer that stalls mid-frame for longer has broken framing and raises
  /// posg::TransportError. A frame already in the read buffer costs no
  /// syscall, and the wait for a frame's start is skipped when some of it
  /// is buffered: that frame has started. A slow but steady peer (each gap
  /// under `deadline`) completes.
  RecvResult recv_frame(std::chrono::milliseconds deadline);

  void close() noexcept;

  /// Severs the connection (both directions) without releasing the fd:
  /// the peer sees EOF, local sends fail with EPIPE, local receives
  /// return EOF — exactly a crashed peer. Unlike close(), this never
  /// mutates fd_, so it is safe to call while another thread is blocked
  /// in send_frame/recv_frame on the same socket (the kernel resolves
  /// the race; there is no fd reuse hazard). The fault injector's
  /// scripted disconnects use this for that reason.
  void shutdown() noexcept;

  /// Maximum accepted frame size (defensive bound against corrupt length
  /// prefixes).
  static constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

  /// Read-ahead capacity. The bytes of a frame that does not fit (a large
  /// sketch shipment) are read straight into its payload instead.
  static constexpr std::size_t kReadBufferBytes = 64u << 10;

 private:
  /// Next frame: from the read buffer when it holds the whole prefix,
  /// otherwise refilling it first. `stall` bounds each wait as in
  /// recv_frame(deadline); std::nullopt blocks. std::nullopt on EOF at a
  /// frame boundary.
  std::optional<std::vector<std::byte>> read_frame(
      std::optional<std::chrono::milliseconds> stall);
  /// One recv into the free tail of the read buffer (allocated on first
  /// use), after moving the unread bytes to its front. False on EOF.
  bool fill(std::optional<std::chrono::milliseconds> stall);
  std::size_t buffered() const noexcept { return read_end_ - read_begin_; }

  int fd_ = -1;
  std::unique_ptr<std::byte[]> read_buffer_;
  std::size_t read_begin_ = 0;  ///< first unread byte
  std::size_t read_end_ = 0;    ///< one past the last received byte
};

/// Appends one frame in its wire form, the u32 little-endian length and
/// then the payload, to `out`. A run built this way is what
/// Socket::send_frames and FrameTransport::send_frames take, and what
/// Socket::recv_frame splits back into frames. Throws std::invalid_argument
/// past Socket::kMaxFrameBytes, as send_frame does.
void append_frame(std::vector<std::byte>& out, std::span<const std::byte> payload);

/// Listening Unix-domain socket bound to a filesystem path.
class Listener {
 public:
  /// Binds and listens on `path` (unlinking a stale socket file first).
  explicit Listener(const std::string& path);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks until a peer connects.
  Socket accept();

  /// Deadline-bounded accept: waits at most `deadline` for a pending
  /// connection and returns std::nullopt when none arrived. Lets an
  /// acceptor thread (the rejoin listener) poll a stop flag between
  /// waits instead of blocking forever.
  std::optional<Socket> accept(std::chrono::milliseconds deadline);

  const std::string& path() const noexcept { return path_; }

  /// Closes the listening descriptor WITHOUT unlinking the socket path,
  /// and defuses the destructor. For forked children that inherit the
  /// fd: the kernel keeps a listening socket (and its accept backlog)
  /// alive while ANY process holds a descriptor, so a child's stale
  /// copy lets peers dial a listener the parent already closed and
  /// rebound — their connects park in a backlog nobody will accept.
  /// Call in the child right after fork; the parent keeps sole
  /// ownership of both the socket and its filesystem name.
  void close_inherited() noexcept;

 private:
  std::string path_;
  int fd_ = -1;
};

/// Retry schedule for `connect`: exponential backoff with deterministic
/// jitter (SplitMix64 from `jitter_seed`), capped at `max_backoff`.
/// The defaults cover ~6 s of server startup slack — the same budget the
/// old fixed 50 × 20 ms loop gave — while probing aggressively early.
struct ConnectRetryPolicy {
  int max_attempts = 12;
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{1000};
  double multiplier = 2.0;
  /// Seed of the jitter stream; equal seeds reproduce the exact sleep
  /// schedule (each sleep is backoff × uniform[0.5, 1.0)).
  std::uint64_t jitter_seed = 0x9E3779B9ULL;
};

/// Connects to a listening Unix-domain socket, retrying with exponential
/// backoff + jitter so a client may start before its server finishes
/// binding. Throws posg::TransportError once the schedule is exhausted.
Socket connect(const std::string& path, const ConnectRetryPolicy& policy = {});

/// Connected socket pair (in-process tests).
std::pair<Socket, Socket> socket_pair();

}  // namespace posg::net
