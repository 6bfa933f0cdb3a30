#pragma once

#include <stdexcept>
#include <string>

/// Unified error hierarchy for the public surface.
///
/// Contract (documented per public method, summarized here):
///   * Precondition violations — malformed arguments, out-of-range ids,
///     invalid configuration — throw `std::invalid_argument` (via
///     `common::require`) or a `posg::Error` subclass carrying a code.
///   * Internal invariant violations throw `std::logic_error` (via
///     `common::ensure` / `POSG_CHECK`); catching these is a bug, not a
///     recovery path.
///   * Environmental failures (sockets, peers, registration) throw a
///     `posg::Error` subclass; callers can switch on `code()` instead of
///     string-matching `what()`.
///   * Wire-decode failures keep throwing `std::invalid_argument` from
///     `net::protocol` — the runtimes' frame loops type their catch
///     clauses on it to count and skip corrupt frames.
///   * Methods marked `noexcept` never throw; everything else may
///     propagate `std::bad_alloc`.
namespace posg {

/// Stable machine-readable category for a `posg::Error`.
enum class ErrorCode : std::uint8_t {
  /// Every routable instance is failed/quarantined; no decision possible.
  kNoLiveInstance = 0,
  /// Byte transport failed: EOF mid-frame, oversized frame bound,
  /// connect retries exhausted.
  kTransport = 1,
  /// A peer violated the control protocol (bad hello, wrong frame kind).
  kProtocol = 2,
  /// Instance registration did not complete (exhausted attempts).
  kRegistration = 3,
  /// A command-line flag value was refused: one `CliArgs` cannot parse,
  /// or one a program's own checks reject.
  kConfig = 4,
};

const char* error_code_name(ErrorCode code) noexcept;

/// Base of all posg-thrown environmental errors. Derives from
/// `std::runtime_error` so pre-existing `catch (std::runtime_error&)`
/// sites keep working.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Socket/byte-stream level failure (EOF mid-frame, connect timeout,
/// frame-size bound exceeded on the receive path).
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& message)
      : Error(ErrorCode::kTransport, message) {}
};

/// A well-formed transport delivered semantically invalid control
/// traffic (unexpected frame kind, bad handshake).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& message)
      : Error(ErrorCode::kProtocol, message) {}
};

/// The scheduler runtime could not register the expected instance set.
class RegistrationError : public Error {
 public:
  explicit RegistrationError(const std::string& message)
      : Error(ErrorCode::kRegistration, message) {}
};

inline const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNoLiveInstance:
      return "no_live_instance";
    case ErrorCode::kTransport:
      return "transport";
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kRegistration:
      return "registration";
    case ErrorCode::kConfig:
      return "config";
  }
  return "unknown";
}

}  // namespace posg
