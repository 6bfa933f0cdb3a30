#include "sketch/serialize.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace posg::sketch {

namespace {

constexpr std::uint32_t kMagic = 0x504F5347;  // 'POSG'
constexpr std::uint32_t kVersion = 3;
constexpr std::uint64_t kFlagConservative = 1;

class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto offset = out_.size();
    out_.resize(offset + sizeof(T));
    std::memcpy(out_.data() + offset, &value, sizeof(T));
  }

 private:
  std::vector<std::byte>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > bytes_.size()) {
      throw std::invalid_argument("sketch::deserialize: truncated buffer");
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  bool exhausted() const noexcept { return offset_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace

std::size_t serialized_size(const SketchDims& dims, std::size_t heavy_entries) noexcept {
  // Fixed part + matrices + heavy header (capacity, size) + entries.
  return sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * 5 + sizeof(double) +
         dims.rows * dims.cols * (sizeof(std::uint64_t) + sizeof(double)) +
         2 * sizeof(std::uint64_t) +
         heavy_entries * (4 * sizeof(std::uint64_t) + sizeof(double));
}

std::vector<std::byte> serialize(const DualSketch& sketch) {
  std::vector<std::byte> bytes;
  const SpaceSaving* hh = sketch.heavy_hitters();
  // Exact frame size including the heavy-hitter section: a single
  // allocation instead of log2(size) doubling reallocs per shipped sketch.
  bytes.reserve(serialized_size(sketch.dims(), hh ? hh->size() : 0));
  Writer writer(bytes);
  writer.put(kMagic);
  writer.put(kVersion);
  writer.put(sketch.seed());
  writer.put(static_cast<std::uint64_t>(sketch.dims().rows));
  writer.put(static_cast<std::uint64_t>(sketch.dims().cols));
  writer.put(sketch.update_count());
  writer.put(sketch.total_execution_time());
  writer.put(static_cast<std::uint64_t>(sketch.conservative() ? kFlagConservative : 0));
  // The in-memory layout is fused (F, W) pairs, but the wire keeps the
  // v3 split-block format: the full F matrix row-major, then the full W
  // matrix — shipped frames are byte-identical across the layout change.
  for (const FWCell& cell : sketch.cells()) {
    writer.put(cell.f);
  }
  for (const FWCell& cell : sketch.cells()) {
    writer.put(cell.w);
  }
  // Heavy-hitter section (empty when the hybrid estimator is disabled).
  const SpaceSaving* heavy = sketch.heavy_hitters();
  writer.put(static_cast<std::uint64_t>(sketch.heavy_capacity()));
  writer.put(static_cast<std::uint64_t>(heavy ? heavy->size() : 0));
  if (heavy != nullptr) {
    for (const auto& [item, entry] : heavy->entries()) {
      writer.put(item);
      writer.put(entry.count);
      writer.put(entry.error);
      writer.put(entry.observed);
      writer.put(entry.time_sum);
    }
  }
  return bytes;
}

DualSketch deserialize(std::span<const std::byte> bytes) {
  Reader reader(bytes);
  if (reader.take<std::uint32_t>() != kMagic) {
    throw std::invalid_argument("sketch::deserialize: bad magic");
  }
  if (reader.take<std::uint32_t>() != kVersion) {
    throw std::invalid_argument("sketch::deserialize: unsupported version");
  }
  const auto seed = reader.take<std::uint64_t>();
  const auto rows = static_cast<std::size_t>(reader.take<std::uint64_t>());
  const auto cols = static_cast<std::size_t>(reader.take<std::uint64_t>());
  if (rows == 0 || cols == 0 || rows > 64 || cols > (1u << 24)) {
    throw std::invalid_argument("sketch::deserialize: implausible dims");
  }
  const auto updates = reader.take<std::uint64_t>();
  const auto total_time = reader.take<double>();
  const auto flags = reader.take<std::uint64_t>();
  const bool conservative = (flags & kFlagConservative) != 0;

  DualSketch sketch(SketchDims{rows, cols}, seed, 0, conservative);
  // Rebuild the counters in place; the hash functions are re-derived from
  // the seed, so only the cell contents travel on the wire.
  for (FWCell& cell : sketch.cells_mutable()) {
    cell.f = reader.take<std::uint64_t>();
  }
  for (FWCell& cell : sketch.cells_mutable()) {
    cell.w = reader.take<double>();
  }
  sketch.restore_totals(updates, total_time);

  const auto heavy_capacity = static_cast<std::size_t>(reader.take<std::uint64_t>());
  const auto heavy_size = static_cast<std::size_t>(reader.take<std::uint64_t>());
  if (heavy_size > heavy_capacity) {
    throw std::invalid_argument("sketch::deserialize: heavy size exceeds capacity");
  }
  if (heavy_capacity > 0) {
    DualSketch with_heavy(SketchDims{rows, cols}, seed, heavy_capacity, conservative);
    with_heavy.cells_mutable() = sketch.cells();
    with_heavy.restore_totals(updates, total_time);
    std::unordered_map<common::Item, SpaceSaving::Entry> entries;
    for (std::size_t i = 0; i < heavy_size; ++i) {
      const auto item = reader.take<common::Item>();
      SpaceSaving::Entry entry;
      entry.count = reader.take<std::uint64_t>();
      entry.error = reader.take<std::uint64_t>();
      entry.observed = reader.take<std::uint64_t>();
      entry.time_sum = reader.take<double>();
      entries.emplace(item, entry);
    }
    with_heavy.heavy_hitters_mutable()->restore(entries);
    sketch = std::move(with_heavy);
  }
  if (!reader.exhausted()) {
    throw std::invalid_argument("sketch::deserialize: trailing bytes");
  }
  // Structure alone does not make wire bytes a sketch: a flipped byte in
  // a counter or a cell still parses. Reject anything that breaks the
  // sketch's invariants before a scheduler bills it.
  if (const char* why = sketch.invariant_violation()) {
    throw std::invalid_argument(std::string("sketch::deserialize: ") + why);
  }
  return sketch;
}

}  // namespace posg::sketch
