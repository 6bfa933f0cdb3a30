#include "net/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"
#include "net/iovec.hpp"

namespace posg::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Waits for the fd to become readable (or EOF/error-readable). Returns
/// false when `deadline` elapsed first.
bool wait_readable(int fd, std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (true) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                       remaining.count(), std::numeric_limits<int>::max())));
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("socket poll");
    }
    if (rc > 0) {
      return true;  // readable, EOF, or a pending error — read() resolves which
    }
  }
}

/// One receive of at most `size` bytes: the count, 0 on EOF. With a
/// `stall` bound it never blocks: when nothing is buffered it waits at
/// most `stall` for the next bytes and then throws posg::TransportError
/// (callers pass one only once a frame has started). Without one it blocks.
std::size_t recv_some(int fd, std::byte* data, std::size_t size,
                      std::optional<std::chrono::milliseconds> stall) {
  const int flags = stall ? MSG_DONTWAIT : 0;
  while (true) {
    const ssize_t n = ::recv(fd, data, size, flags);
    if (n >= 0) {
      return static_cast<std::size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (!stall || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      throw_errno("socket read");
    }
    if (!wait_readable(fd, *stall)) {
      throw TransportError("socket read: peer stalled mid-frame past the deadline");
    }
  }
}

/// Reads exactly `size` bytes of a frame that has started (see recv_some
/// for `stall`); EOF before the last byte throws.
void read_all(int fd, std::byte* data, std::size_t size,
              std::optional<std::chrono::milliseconds> stall) {
  for (std::size_t got = 0; got < size;) {
    const std::size_t n = recv_some(fd, data + got, size - got, stall);
    if (n == 0) {
      throw TransportError("socket read: unexpected EOF mid-frame");
    }
    got += n;
  }
}

/// One sendmsg(MSG_NOSIGNAL) of what is left of `pending`: the bytes
/// written, 0 after an EINTR.
std::size_t send_some(int fd, std::span<iovec> pending) {
  msghdr message{};
  message.msg_iov = pending.data();
  message.msg_iovlen = pending.size();
  // MSG_NOSIGNAL: a peer that died mid-stream must surface as an EPIPE
  // error the scheduler can quarantine, not as a process-killing SIGPIPE.
  const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
  if (n < 0) {
    if (errno == EINTR) {
      return 0;
    }
    throw_errno("socket write");
  }
  return static_cast<std::size_t>(n);
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  common::require(path.size() < sizeof(address.sun_path),
                  "net: socket path too long: " + path);
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

void append_frame(std::vector<std::byte>& out, std::span<const std::byte> payload) {
  common::require(payload.size() <= Socket::kMaxFrameBytes, "net: frame too large");
  const auto length = static_cast<std::uint32_t>(payload.size());
  const auto* prefix = reinterpret_cast<const std::byte*>(&length);
  out.insert(out.end(), prefix, prefix + sizeof(length));
  out.insert(out.end(), payload.begin(), payload.end());
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      read_buffer_(std::move(other.read_buffer_)),
      read_begin_(std::exchange(other.read_begin_, 0)),
      read_end_(std::exchange(other.read_end_, 0)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    read_buffer_ = std::move(other.read_buffer_);
    read_begin_ = std::exchange(other.read_begin_, 0);
    read_end_ = std::exchange(other.read_end_, 0);
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_begin_ = 0;
  read_end_ = 0;
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::send_frame(std::span<const std::byte> payload) {
  common::require(valid(), "net: send on closed socket");
  common::require(payload.size() <= kMaxFrameBytes, "net: frame too large");
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::byte header[sizeof(length)];
  std::memcpy(header, &length, sizeof(length));
  iovec parts[2] = {{header, sizeof(header)},
                    {const_cast<std::byte*>(payload.data()), payload.size()}};
  detail::write_all(parts, [this](std::span<iovec> pending) { return send_some(fd_, pending); });
}

void Socket::send_frames(std::span<const std::byte> framed) {
  common::require(valid(), "net: send on closed socket");
  iovec run[1] = {{const_cast<std::byte*>(framed.data()), framed.size()}};
  detail::write_all(run, [this](std::span<iovec> pending) { return send_some(fd_, pending); });
}

bool Socket::fill(std::optional<std::chrono::milliseconds> stall) {
  if (!read_buffer_) {
    read_buffer_ = std::make_unique<std::byte[]>(kReadBufferBytes);
  }
  if (read_begin_ > 0) {
    std::memmove(read_buffer_.get(), read_buffer_.get() + read_begin_, buffered());
    read_end_ -= read_begin_;
    read_begin_ = 0;
  }
  const std::size_t n =
      recv_some(fd_, read_buffer_.get() + read_end_, kReadBufferBytes - read_end_, stall);
  read_end_ += n;
  return n > 0;
}

std::optional<std::vector<std::byte>> Socket::read_frame(
    std::optional<std::chrono::milliseconds> stall) {
  std::uint32_t length = 0;
  while (buffered() < sizeof(length)) {
    if (!fill(stall)) {
      if (buffered() == 0) {
        return std::nullopt;  // EOF at a frame boundary
      }
      throw TransportError("socket read: unexpected EOF mid-frame");
    }
  }
  std::memcpy(&length, read_buffer_.get() + read_begin_, sizeof(length));
  if (length > kMaxFrameBytes) {
    throw ProtocolError("net: incoming frame exceeds the size bound");
  }
  read_begin_ += sizeof(length);
  std::vector<std::byte> payload(length);
  const std::size_t have = std::min<std::size_t>(buffered(), length);
  if (have > 0) {
    std::memcpy(payload.data(), read_buffer_.get() + read_begin_, have);
    read_begin_ += have;
  }
  if (have < length) {
    // The buffer ran dry inside this frame: the rest goes straight into
    // its payload, which also covers a frame larger than the buffer.
    read_all(fd_, payload.data() + have, length - have, stall);
  }
  return payload;
}

std::optional<std::vector<std::byte>> Socket::recv_frame() {
  common::require(valid(), "net: recv on closed socket");
  return read_frame(std::nullopt);
}

RecvResult Socket::recv_frame(std::chrono::milliseconds deadline) {
  common::require(valid(), "net: recv on closed socket");
  // An idle connection times out with zero bytes consumed (retry-safe).
  // Buffered bytes mean the next frame has started (or is whole): the same
  // deadline then bounds each wait for the rest of it.
  if (buffered() == 0 && !wait_readable(fd_, deadline)) {
    return RecvResult{RecvStatus::kTimeout, {}};
  }
  auto frame = read_frame(deadline);
  if (!frame) {
    return RecvResult{RecvStatus::kEof, {}};
  }
  return RecvResult{RecvStatus::kFrame, std::move(*frame)};
}

Listener::Listener(const std::string& path) : path_(path) {
  ::unlink(path.c_str());
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw_errno("net: socket");
  }
  const sockaddr_un address = make_address(path);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("net: bind");
  }
  if (::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("net: listen");
  }
}

Listener::~Listener() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
  }
}

void Listener::close_inherited() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();  // the parent owns the name; never unlink it here
}

Socket Listener::accept() {
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      return Socket(fd);
    }
    if (errno != EINTR) {
      throw_errno("net: accept");
    }
  }
}

std::optional<Socket> Listener::accept(std::chrono::milliseconds deadline) {
  // A pending connection makes the listening fd readable, so the recv
  // deadline helper doubles as an accept deadline.
  if (!wait_readable(fd_, deadline)) {
    return std::nullopt;
  }
  return accept();
}

Socket connect(const std::string& path, const ConnectRetryPolicy& policy) {
  common::require(policy.max_attempts >= 1, "net: connect needs at least one attempt");
  common::require(policy.multiplier >= 1.0, "net: backoff multiplier must be >= 1");
  const sockaddr_un address = make_address(path);
  common::SplitMix64 jitter(policy.jitter_seed);
  double backoff_ms = static_cast<double>(policy.initial_backoff.count());
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw_errno("net: socket");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0) {
      return Socket(fd);
    }
    ::close(fd);
    if (errno != ENOENT && errno != ECONNREFUSED) {
      throw_errno("net: connect");
    }
    if (attempt + 1 == policy.max_attempts) {
      break;  // no point sleeping after the last refusal
    }
    // Full sleep in [backoff/2, backoff): jitter decorrelates a herd of
    // clients hammering one listener; the SplitMix64 stream keeps the
    // schedule reproducible for a given seed.
    const double uniform =
        0.5 + 0.5 * (static_cast<double>(jitter.next() >> 11) * 0x1.0p-53);
    const auto sleep_ms = static_cast<long long>(backoff_ms * uniform);
    std::this_thread::sleep_for(std::chrono::milliseconds(std::max(1LL, sleep_ms)));
    backoff_ms = std::min(backoff_ms * policy.multiplier,
                          static_cast<double>(policy.max_backoff.count()));
  }
  throw TransportError("net: connect: server at " + path + " never came up");
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("net: socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

void detail::advance_iovec(std::span<iovec>& pending, std::size_t sent) noexcept {
  while (!pending.empty() && sent >= pending.front().iov_len) {
    sent -= pending.front().iov_len;
    pending = pending.subspan(1);
  }
  if (sent > 0) {
    POSG_DCHECK(!pending.empty(), "net: advance_iovec past the end of the gather list");
    iovec& head = pending.front();
    head.iov_base = static_cast<std::byte*>(head.iov_base) + sent;
    head.iov_len -= sent;
  }
}

}  // namespace posg::net
