#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <span>

/// Send-side helper of net::Socket::send_frame, kept out of socket.hpp:
/// only the socket layer and its partial-write tests need it.
namespace posg::net::detail {

/// Consumes the first `sent` bytes of a gather list, as a partial sendmsg
/// leaves it: entries sent in full (and empty ones) leave the front of
/// `pending`, and an entry sent in part is advanced in place. The split may
/// fall anywhere, including inside Socket::send_frame's 4-byte length
/// prefix. `sent` must not exceed the bytes `pending` still holds.
void advance_iovec(std::span<iovec>& pending, std::size_t sent) noexcept;

}  // namespace posg::net::detail
