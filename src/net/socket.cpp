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

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// (when allow_eof), throws on mid-read EOF.
///
/// With a `stall` bound the reads never block: whatever is buffered is
/// taken at once, and only when the span is still incomplete — nothing
/// buffered yet, or a short read — does the reader wait, at most `stall`
/// for the next bytes, before throwing posg::TransportError.
bool read_all(int fd, std::byte* data, std::size_t size, bool allow_eof,
              std::optional<std::chrono::milliseconds> stall) {
  const int flags = stall ? MSG_DONTWAIT : 0;
  std::size_t read_so_far = 0;
  while (read_so_far < size) {
    const ssize_t n = ::recv(fd, data + read_so_far, size - read_so_far, flags);
    if (n > 0) {
      read_so_far += static_cast<std::size_t>(n);
      if (read_so_far == size || !stall) {
        continue;
      }
    } else if (n == 0) {
      if (read_so_far == 0 && allow_eof) {
        return false;
      }
      throw TransportError("socket read: unexpected EOF mid-frame");
    } else if (errno == EINTR) {
      continue;
    } else if (!stall || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      throw_errno("socket read");
    }
    if (!wait_readable(fd, *stall)) {
      throw TransportError("socket read: peer stalled mid-frame past the deadline");
    }
  }
  return true;
}

/// Reads one frame (see read_all for `stall`). std::nullopt on EOF at a
/// frame boundary.
std::optional<std::vector<std::byte>> read_frame(
    int fd, std::optional<std::chrono::milliseconds> stall) {
  std::uint32_t length = 0;
  std::byte header[sizeof(length)];
  if (!read_all(fd, header, sizeof(length), /*allow_eof=*/true, stall)) {
    return std::nullopt;
  }
  std::memcpy(&length, header, sizeof(length));
  if (length > Socket::kMaxFrameBytes) {
    throw ProtocolError("net: incoming frame exceeds the size bound");
  }
  std::vector<std::byte> payload(length);
  if (length > 0) {
    read_all(fd, payload.data(), payload.size(), /*allow_eof=*/false, stall);
  }
  return payload;
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

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
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
  std::span<iovec> pending(parts);
  while (!pending.empty()) {
    msghdr message{};
    message.msg_iov = pending.data();
    message.msg_iovlen = pending.size();
    // MSG_NOSIGNAL: a peer that died mid-stream must surface as an EPIPE
    // error the scheduler can quarantine, not as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("socket write");
    }
    detail::advance_iovec(pending, static_cast<std::size_t>(n));
  }
}

std::optional<std::vector<std::byte>> Socket::recv_frame() {
  common::require(valid(), "net: recv on closed socket");
  return read_frame(fd_, std::nullopt);
}

RecvResult Socket::recv_frame(std::chrono::milliseconds deadline) {
  common::require(valid(), "net: recv on closed socket");
  // An idle connection times out with zero bytes consumed (retry-safe).
  // Once the frame has started, the same deadline bounds each wait for
  // the rest of it.
  if (!wait_readable(fd_, deadline)) {
    return RecvResult{RecvStatus::kTimeout, {}};
  }
  auto frame = read_frame(fd_, deadline);
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
