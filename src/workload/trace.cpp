#include "workload/trace.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace posg::workload {

namespace {

constexpr std::uint32_t kMagic = 0x50545243;  // 'PTRC'
constexpr std::uint32_t kVersion = 1;

}  // namespace

void save_trace(const std::string& path, const std::vector<common::Item>& stream) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_trace: cannot open " + path);
  }
  const auto put = [&out](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(kMagic);
  put(kVersion);
  put(static_cast<std::uint64_t>(stream.size()));
  out.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size() * sizeof(common::Item)));
  if (!out) {
    throw std::runtime_error("save_trace: write failed for " + path);
  }
}

std::vector<common::Item> load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_trace: cannot open " + path);
  }
  const auto take = [&in, &path](auto& value) {
    in.read(reinterpret_cast<char*>(&value), sizeof(value));
    if (!in) {
      throw std::invalid_argument("load_trace: truncated header in " + path);
    }
  };
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  take(magic);
  if (magic != kMagic) {
    throw std::invalid_argument("load_trace: bad magic in " + path);
  }
  take(version);
  if (version != kVersion) {
    throw std::invalid_argument("load_trace: unsupported version in " + path);
  }
  take(count);
  std::vector<common::Item> stream(count);
  in.read(reinterpret_cast<char*>(stream.data()),
          static_cast<std::streamsize>(count * sizeof(common::Item)));
  if (static_cast<std::uint64_t>(in.gcount()) != count * sizeof(common::Item)) {
    throw std::invalid_argument("load_trace: truncated payload in " + path);
  }
  // Trailing bytes indicate corruption.
  char extra;
  if (in.read(&extra, 1); in.gcount() != 0) {
    throw std::invalid_argument("load_trace: trailing bytes in " + path);
  }
  return stream;
}

}  // namespace posg::workload
