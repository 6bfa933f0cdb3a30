#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <span>

/// Send-side helpers of net::Socket::send_frame and send_frames, kept out
/// of socket.hpp: only the socket layer and its partial-write tests need
/// them.
namespace posg::net::detail {

/// Consumes the first `sent` bytes of a gather list, as a partial sendmsg
/// leaves it: entries sent in full (and empty ones) leave the front of
/// `pending`, and an entry sent in part is advanced in place. The split may
/// fall anywhere, including inside Socket::send_frame's 4-byte length
/// prefix. `sent` must not exceed the bytes `pending` still holds.
void advance_iovec(std::span<iovec>& pending, std::size_t sent) noexcept;

/// The send loop of both Socket sends: hands what is left of `pending` to
/// `write_some` (one sendmsg: it returns the bytes written and throws on
/// an error) until nothing is left, resuming at the first unsent byte
/// after every partial write.
template <typename WriteSome>
void write_all(std::span<iovec> pending, WriteSome&& write_some) {
  while (!pending.empty()) {
    advance_iovec(pending, write_some(pending));
  }
}

}  // namespace posg::net::detail
