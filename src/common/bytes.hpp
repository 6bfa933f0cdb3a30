#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

/// The byte codec behind the three binary formats: wire frames
/// (net/protocol.cpp), sketch images (sketch/serialize.cpp) and
/// checkpoints (core/checkpoint.cpp). Values travel as their in-memory
/// bytes, back to back, with no padding and no tags; each format states
/// its own layout and checks its own domains on top of this.
namespace posg::common {

/// Appends values to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) noexcept : out_(out) {}

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto offset = out_.size();
    out_.resize(offset + sizeof(T));
    std::memcpy(out_.data() + offset, &value, sizeof(T));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    const auto offset = out_.size();
    out_.resize(offset + bytes.size());
    std::memcpy(out_.data() + offset, bytes.data(), bytes.size());
  }

 private:
  std::vector<std::byte>& out_;
};

/// Reads what a ByteWriter wrote. A read past the end throws
/// std::invalid_argument with `truncated`, the owning format's message, so
/// a decoder's catch clause sees which format was cut short.
class ByteReader {
 public:
  ByteReader(std::span<const std::byte> bytes, const char* truncated) noexcept
      : bytes_(bytes), truncated_(truncated) {}

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take_bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, as a view into the buffer. `n` may be any wire
  /// value: the bound is checked without overflow.
  std::span<const std::byte> take_bytes(std::size_t n) {
    if (n > bytes_.size() - offset_) {
      throw std::invalid_argument(truncated_);
    }
    const auto view = bytes_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  std::span<const std::byte> rest() const noexcept { return bytes_.subspan(offset_); }
  bool exhausted() const noexcept { return offset_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  const char* truncated_;
  std::size_t offset_ = 0;
};

}  // namespace posg::common
