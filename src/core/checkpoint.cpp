#include "core/checkpoint.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

#include "sketch/serialize.hpp"

namespace posg::core {

namespace {

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

  void put_bytes(std::span<const std::byte> bytes) {
    const auto offset = out_.size();
    out_.resize(offset + bytes.size());
    std::memcpy(out_.data() + offset, bytes.data(), bytes.size());
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
      throw std::invalid_argument("checkpoint::decode: truncated payload");
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> take_bytes(std::size_t n) {
    if (offset_ + n > bytes_.size()) {
      throw std::invalid_argument("checkpoint::decode: truncated payload");
    }
    const auto view = bytes_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  void expect_exhausted() const {
    if (offset_ != bytes_.size()) {
      throw std::invalid_argument("checkpoint::decode: trailing bytes");
    }
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

template <typename T>
void put_vector(Writer& writer, const std::vector<T>& values) {
  writer.put(static_cast<std::uint64_t>(values.size()));
  for (const T& value : values) {
    writer.put(value);
  }
}

template <typename T>
std::vector<T> take_vector(Reader& reader, std::uint64_t expected, const char* what) {
  const auto n = reader.take<std::uint64_t>();
  if (n != expected) {
    throw std::invalid_argument(std::string("checkpoint::decode: ") + what +
                                " does not cover every instance");
  }
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(reader.take<T>());
  }
  return out;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) noexcept {
  // IEEE 802.3 reflected CRC-32 (polynomial 0xEDB88320) — matches
  // zlib.crc32, so ckpt_inspect.py verifies with the standard library
  // alone. Slicing-by-8: table[0] is the byte-at-a-time table, and
  // table[s][i] is the CRC of byte i followed by s zero bytes, so eight
  // lookups fold eight input bytes at once. Words are assembled from bytes
  // (little-endian by construction), so the result does not depend on the
  // host's byte order or on the input's alignment.
  using Table = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Table table = [] {
    Table out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1U) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
      }
      out[0][i] = crc;
    }
    for (std::size_t slice = 1; slice < out.size(); ++slice) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = out[slice - 1][i];
        out[slice][i] = (prev >> 8U) ^ out[0][prev & 0xFFU];
      }
    }
    return out;
  }();
  const auto word = [](const std::byte* p) {
    return std::to_integer<std::uint32_t>(p[0]) | (std::to_integer<std::uint32_t>(p[1]) << 8U) |
           (std::to_integer<std::uint32_t>(p[2]) << 16U) |
           (std::to_integer<std::uint32_t>(p[3]) << 24U);
  };
  std::uint32_t crc = 0xFFFFFFFFU;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = word(p) ^ crc;
    const std::uint32_t hi = word(p + 4);
    crc = table[7][lo & 0xFFU] ^ table[6][(lo >> 8U) & 0xFFU] ^ table[5][(lo >> 16U) & 0xFFU] ^
          table[4][lo >> 24U] ^ table[3][hi & 0xFFU] ^ table[2][(hi >> 8U) & 0xFFU] ^
          table[1][(hi >> 16U) & 0xFFU] ^ table[0][hi >> 24U];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8U) ^ table[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xFFU];
  }
  return crc ^ 0xFFFFFFFFU;
}

std::vector<std::byte> encode(const CheckpointState& state) {
  std::vector<std::byte> payload;
  Writer writer(payload);
  writer.put(state.k);
  writer.put(state.source_id);  // version 2 field
  writer.put(state.scheduler_state);
  writer.put(state.rr_next);
  writer.put(state.epoch);
  writer.put(state.epochs_completed);
  writer.put(state.decisions);
  writer.put(state.rejoin_count);
  writer.put(state.stale_replies);
  writer.put(state.drains_begun);
  writer.put(state.retires);
  writer.put(state.drain_cancels);

  put_vector(writer, state.c_est);
  put_vector(writer, state.latency_hints);
  put_vector(writer, state.failed);
  put_vector(writer, state.draining);
  put_vector(writer, state.marker_pending);
  put_vector(writer, state.reply_received);
  put_vector(writer, state.reply_delta);
  put_vector(writer, state.marker_estimate);
  put_vector(writer, state.derate);
  put_vector(writer, state.ramp_tokens);
  put_vector(writer, state.ramp_left);

  put_vector(writer, state.health.states);
  put_vector(writer, state.health.drift_ewma);
  put_vector(writer, state.health.hot_streak);
  put_vector(writer, state.health.calm_streak);
  put_vector(writer, state.health.queue_ewma);
  writer.put(state.health.suspect_transitions);
  writer.put(state.health.degraded_transitions);
  writer.put(state.health.promotions);

  writer.put(static_cast<std::uint64_t>(state.sketches.size()));
  for (const auto& slot : state.sketches) {
    writer.put(static_cast<std::uint8_t>(slot.has_value() ? 1 : 0));
    if (slot.has_value()) {
      const std::vector<std::byte> blob = sketch::serialize(*slot);
      writer.put(static_cast<std::uint64_t>(blob.size()));
      writer.put_bytes(blob);
    }
  }

  std::vector<std::byte> out;
  out.reserve(kCheckpointHeaderBytes + payload.size());
  Writer header(out);
  header.put(kCheckpointMagic);
  header.put(kCheckpointVersion);
  header.put(static_cast<std::uint64_t>(payload.size()));
  header.put(crc32(payload));
  header.put_bytes(payload);
  return out;
}

CheckpointState decode(std::span<const std::byte> bytes) {
  if (bytes.size() < kCheckpointHeaderBytes) {
    throw std::invalid_argument("checkpoint::decode: shorter than the fixed header");
  }
  Reader header(bytes.subspan(0, kCheckpointHeaderBytes));
  if (header.take<std::uint32_t>() != kCheckpointMagic) {
    throw std::invalid_argument("checkpoint::decode: bad magic (not a checkpoint file)");
  }
  const auto version = header.take<std::uint32_t>();
  if (version < kCheckpointMinVersion || version > kCheckpointVersion) {
    throw std::invalid_argument("checkpoint::decode: unsupported version " +
                                std::to_string(version));
  }
  const auto payload_size = header.take<std::uint64_t>();
  if (payload_size != bytes.size() - kCheckpointHeaderBytes) {
    throw std::invalid_argument("checkpoint::decode: payload size mismatch (torn file)");
  }
  const auto expected_crc = header.take<std::uint32_t>();
  const std::span<const std::byte> payload = bytes.subspan(kCheckpointHeaderBytes);
  if (crc32(payload) != expected_crc) {
    throw std::invalid_argument("checkpoint::decode: payload CRC mismatch (corrupt file)");
  }

  Reader reader(payload);
  CheckpointState state;
  state.k = reader.take<std::uint64_t>();
  if (state.k == 0 || state.k > (std::uint64_t{1} << 20U)) {
    throw std::invalid_argument("checkpoint::decode: implausible instance count");
  }
  // Version 1 predates the multi-source tier: its view belongs to the
  // only source there was, id 0 (the CheckpointState default).
  if (version >= 2) {
    state.source_id = reader.take<common::SourceId>();
  }
  state.scheduler_state = reader.take<std::uint8_t>();
  state.rr_next = reader.take<std::uint64_t>();
  state.epoch = reader.take<common::Epoch>();
  state.epochs_completed = reader.take<std::uint64_t>();
  state.decisions = reader.take<std::uint64_t>();
  state.rejoin_count = reader.take<std::uint64_t>();
  state.stale_replies = reader.take<std::uint64_t>();
  state.drains_begun = reader.take<std::uint64_t>();
  state.retires = reader.take<std::uint64_t>();
  state.drain_cancels = reader.take<std::uint64_t>();

  const std::uint64_t k = state.k;
  state.c_est = take_vector<common::TimeMs>(reader, k, "C_hat");
  {
    // Latency hints are legitimately empty (the latency-oblivious default).
    const auto n = reader.take<std::uint64_t>();
    if (n != 0 && n != k) {
      throw std::invalid_argument(
          "checkpoint::decode: latency hints must be empty or cover every instance");
    }
    state.latency_hints.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      state.latency_hints.push_back(reader.take<common::TimeMs>());
    }
  }
  state.failed = take_vector<std::uint8_t>(reader, k, "failed set");
  state.draining = take_vector<std::uint8_t>(reader, k, "draining set");
  state.marker_pending = take_vector<std::uint8_t>(reader, k, "marker set");
  state.reply_received = take_vector<std::uint8_t>(reader, k, "reply set");
  state.reply_delta = take_vector<common::TimeMs>(reader, k, "reply deltas");
  state.marker_estimate = take_vector<common::TimeMs>(reader, k, "marker estimates");
  state.derate = take_vector<double>(reader, k, "de-rate factors");
  state.ramp_tokens = take_vector<double>(reader, k, "ramp tokens");
  state.ramp_left = take_vector<std::uint64_t>(reader, k, "ramp budgets");

  state.health.states = take_vector<InstanceHealth>(reader, k, "health states");
  state.health.drift_ewma = take_vector<double>(reader, k, "drift EWMAs");
  state.health.hot_streak = take_vector<std::uint64_t>(reader, k, "hot streaks");
  state.health.calm_streak = take_vector<std::uint64_t>(reader, k, "calm streaks");
  state.health.queue_ewma = take_vector<double>(reader, k, "queue EWMAs");
  state.health.suspect_transitions = reader.take<std::uint64_t>();
  state.health.degraded_transitions = reader.take<std::uint64_t>();
  state.health.promotions = reader.take<std::uint64_t>();

  const auto sketch_slots = reader.take<std::uint64_t>();
  if (sketch_slots != k) {
    throw std::invalid_argument("checkpoint::decode: sketch set does not cover every instance");
  }
  state.sketches.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t op = 0; op < k; ++op) {
    const auto present = reader.take<std::uint8_t>();
    if (present == 0) {
      state.sketches.emplace_back(std::nullopt);
      continue;
    }
    if (present != 1) {
      throw std::invalid_argument("checkpoint::decode: bad sketch presence flag");
    }
    const auto blob_size = reader.take<std::uint64_t>();
    // sketch::deserialize checks plausibility and the sketch's invariants,
    // so a corrupt embedded sketch throws here, not later.
    state.sketches.emplace_back(
        sketch::deserialize(reader.take_bytes(static_cast<std::size_t>(blob_size))));
  }
  reader.expect_exhausted();
  return state;
}

void write_checkpoint_file(const std::string& path, std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "checkpoint: cannot open " + tmp + " for writing");
  }
  const bool written =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  // Flush stdio to the kernel, then fsync to the device: the rename below
  // must never publish a name pointing at data still in a volatile cache.
  const bool flushed = written && std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const int saved_errno = errno;
  std::fclose(file);
  if (!flushed) {
    std::remove(tmp.c_str());
    throw std::system_error(saved_errno, std::generic_category(),
                            "checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    std::remove(tmp.c_str());
    throw std::system_error(rename_errno, std::generic_category(),
                            "checkpoint: cannot rename " + tmp + " over " + path);
  }
}

std::optional<std::vector<std::byte>> read_checkpoint_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return std::nullopt;
  }
  std::vector<std::byte> out;
  std::array<std::byte, 1 << 16U> buffer;
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    out.insert(out.end(), buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(got));
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) {
    return std::nullopt;
  }
  return out;
}

}  // namespace posg::core
