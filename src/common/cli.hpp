#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

/// Tiny `--flag value` command-line parser for the benchmark harnesses and
/// examples. Not a general-purpose CLI library: just enough to override
/// sweep parameters (seed counts, stream sizes, output paths) without
/// recompiling.
namespace posg::common {

class CliArgs {
 public:
  /// Parses `--name value` pairs and bare `--name` booleans.
  /// Throws std::invalid_argument on a malformed argument list (an option
  /// that does not start with `--`).
  CliArgs(int argc, const char* const* argv);

  /// True when `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// Typed getters: `fallback` when `--name` is absent. A number must
  /// parse whole — an empty value, trailing characters or an out-of-range
  /// number is an error, as is a boolean outside true/false, 1/0, yes/no,
  /// on/off (a bare flag reads true). Errors throw posg::Error
  /// (ErrorCode::kConfig) naming the flag and the value.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name, const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// The executable name (argv[0]).
  const std::string& program() const noexcept { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace posg::common
