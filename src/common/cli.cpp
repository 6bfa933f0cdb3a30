#include "common/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/error.hpp"

namespace posg::common {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value, const char* what) {
  throw Error(ErrorCode::kConfig,
              "CliArgs: --" + name + " expects " + what + ", got '" + value + "'");
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      throw std::invalid_argument("CliArgs: expected --name [value], got '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    // A following token that does not itself start with `--` is the value;
    // otherwise this is a bare boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[i + 1];
      ++i;
    } else {
      values_[name] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) != 0; }

std::optional<std::string> CliArgs::raw(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value) {
    return fallback;
  }
  std::int64_t out = 0;
  const char* end = value->data() + value->size();
  const auto [stop, error] = std::from_chars(value->data(), end, out);
  if (error != std::errc{} || stop != end) {  // also rejects an empty value
    bad_value(name, *value, "an integer");
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value) {
    return fallback;
  }
  char* stop = nullptr;
  errno = 0;
  const double out = std::strtod(value->c_str(), &stop);
  if (value->empty() || stop != value->c_str() + value->size() || errno == ERANGE ||
      !std::isfinite(out)) {
    bad_value(name, *value, "a finite number");
  }
  return out;
}

std::string CliArgs::get_string(const std::string& name, const std::string& fallback) const {
  auto value = raw(name);
  if (!value || value->empty()) {
    return fallback;
  }
  return *value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto value = raw(name);
  if (!value) {
    return fallback;
  }
  if (value->empty() || *value == "true" || *value == "1" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") {
    return false;
  }
  bad_value(name, *value, "a boolean");
}

}  // namespace posg::common
