#include "net/protocol.hpp"

#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "sketch/serialize.hpp"

namespace posg::net {

namespace {

enum class Tag : std::uint8_t {
  kHello = 1,
  kTuple = 2,
  kShipment = 3,
  kSyncReply = 4,
  kEndOfStream = 5,
  kInstanceFailed = 6,
  kRejoinAck = 7,
  kAdmissionGrant = 8,
  kDrainRequest = 9,
  kDrainComplete = 10,
  kSchedulerHello = 11,
  kReattachAck = 12,
};

static_assert(kMaxTupleFrameBytes == sizeof(Tag) + sizeof(common::SeqNo) + sizeof(common::Item) +
                                         sizeof(std::uint8_t) + sizeof(common::Epoch) +
                                         sizeof(common::TimeMs),
              "TupleFrameBuffer must fit the marker layout exactly");

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
      throw std::invalid_argument("net::decode: truncated message");
    }
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::span<const std::byte> rest() const { return bytes_.subspan(offset_); }

  void expect_exhausted() const {
    if (offset_ != bytes_.size()) {
      throw std::invalid_argument("net::decode: trailing bytes");
    }
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace

std::vector<std::byte> encode(const Message& message) {
  std::vector<std::byte> payload;
  Writer writer(payload);
  std::visit(
      [&](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, Hello>) {
          writer.put(Tag::kHello);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.source);
        } else if constexpr (std::is_same_v<T, TupleMessage>) {
          TupleFrameBuffer buffer{};
          writer.put_bytes(encode_tuple(value, buffer));
        } else if constexpr (std::is_same_v<T, core::SketchShipment>) {
          // Shipments dominate control-bus bytes; size the frame up front
          // so the serialized matrices land in one allocation.
          const auto* hh = value.sketch.heavy_hitters();
          payload.reserve(1 + sizeof(std::uint64_t) + sizeof(common::SourceId) +
                          sketch::serialized_size(value.sketch.dims(), hh ? hh->size() : 0));
          writer.put(Tag::kShipment);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.source);
          writer.put_bytes(sketch::serialize(value.sketch));
        } else if constexpr (std::is_same_v<T, core::SyncReply>) {
          writer.put(Tag::kSyncReply);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.source);
          writer.put(value.epoch);
          writer.put(value.delta);
        } else if constexpr (std::is_same_v<T, EndOfStream>) {
          writer.put(Tag::kEndOfStream);
        } else if constexpr (std::is_same_v<T, InstanceFailed>) {
          writer.put(Tag::kInstanceFailed);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
        } else if constexpr (std::is_same_v<T, RejoinAck>) {
          writer.put(Tag::kRejoinAck);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
          writer.put(value.seeded_cumulated);
        } else if constexpr (std::is_same_v<T, AdmissionGrant>) {
          writer.put(Tag::kAdmissionGrant);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
        } else if constexpr (std::is_same_v<T, DrainRequest>) {
          writer.put(Tag::kDrainRequest);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
          writer.put(value.estimated_cumulated);
        } else if constexpr (std::is_same_v<T, DrainComplete>) {
          writer.put(Tag::kDrainComplete);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
          writer.put(value.delta);
          writer.put(value.executed);
        } else if constexpr (std::is_same_v<T, SchedulerHello>) {
          writer.put(Tag::kSchedulerHello);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.recovery_epoch);
          writer.put(value.source);
        } else if constexpr (std::is_same_v<T, ReattachAck>) {
          writer.put(Tag::kReattachAck);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.epoch);
          writer.put(value.seeded_cut);
        }
      },
      message);
#if POSG_DCHECK_IS_ON
  debug_validate_frame(payload);
#endif
  return payload;
}

std::span<const std::byte> encode_tuple(const TupleMessage& tuple,
                                        TupleFrameBuffer& buffer) noexcept {
  std::size_t size = 0;
  const auto put = [&buffer, &size](const auto& value) {
    static_assert(std::is_trivially_copyable_v<std::decay_t<decltype(value)>>);
    std::memcpy(buffer.data() + size, &value, sizeof(value));
    size += sizeof(value);
  };
  put(Tag::kTuple);
  put(tuple.seq);
  put(tuple.item);
  put(static_cast<std::uint8_t>(tuple.marker.has_value() ? 1 : 0));
  if (tuple.marker) {
    put(tuple.marker->epoch);
    put(tuple.marker->estimated_cumulated);
  }
  const std::span<const std::byte> payload(buffer.data(), size);
#if POSG_DCHECK_IS_ON
  debug_validate_frame(payload);
#endif
  return payload;
}

void debug_validate_frame(std::span<const std::byte> payload) {
  try {
    (void)decode(payload);
  } catch (const std::invalid_argument& error) {
    POSG_CHECK(false, error.what());
  }
}

Message decode(std::span<const std::byte> payload) {
  Reader reader(payload);
  const auto tag = reader.take<Tag>();
  switch (tag) {
    case Tag::kHello: {
      Hello hello;
      hello.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      hello.source = reader.take<common::SourceId>();
      reader.expect_exhausted();
      return hello;
    }
    case Tag::kTuple: {
      TupleMessage tuple;
      tuple.seq = reader.take<common::SeqNo>();
      tuple.item = reader.take<common::Item>();
      const auto has_marker = reader.take<std::uint8_t>();
      if (has_marker == 1) {
        core::SyncRequest marker;
        marker.epoch = reader.take<common::Epoch>();
        marker.estimated_cumulated = reader.take<common::TimeMs>();
        tuple.marker = marker;
      } else if (has_marker != 0) {
        throw std::invalid_argument("net::decode: bad marker flag");
      }
      reader.expect_exhausted();
      return tuple;
    }
    case Tag::kShipment: {
      const auto instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      const auto source = reader.take<common::SourceId>();
      return core::SketchShipment{instance, sketch::deserialize(reader.rest()), source};
    }
    case Tag::kSyncReply: {
      core::SyncReply reply;
      reply.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      reply.source = reader.take<common::SourceId>();
      reply.epoch = reader.take<common::Epoch>();
      reply.delta = reader.take<common::TimeMs>();
      reader.expect_exhausted();
      return reply;
    }
    case Tag::kEndOfStream:
      reader.expect_exhausted();
      return EndOfStream{};
    case Tag::kInstanceFailed: {
      InstanceFailed failed;
      failed.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      failed.epoch = reader.take<common::Epoch>();
      reader.expect_exhausted();
      return failed;
    }
    case Tag::kRejoinAck: {
      RejoinAck ack;
      ack.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      ack.epoch = reader.take<common::Epoch>();
      ack.seeded_cumulated = reader.take<common::TimeMs>();
      reader.expect_exhausted();
      return ack;
    }
    case Tag::kAdmissionGrant: {
      AdmissionGrant grant;
      grant.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      grant.epoch = reader.take<common::Epoch>();
      reader.expect_exhausted();
      return grant;
    }
    case Tag::kDrainRequest: {
      DrainRequest request;
      request.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      request.epoch = reader.take<common::Epoch>();
      request.estimated_cumulated = reader.take<common::TimeMs>();
      reader.expect_exhausted();
      return request;
    }
    case Tag::kDrainComplete: {
      DrainComplete complete;
      complete.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      complete.epoch = reader.take<common::Epoch>();
      complete.delta = reader.take<common::TimeMs>();
      complete.executed = reader.take<std::uint64_t>();
      reader.expect_exhausted();
      return complete;
    }
    case Tag::kSchedulerHello: {
      SchedulerHello hello;
      hello.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      hello.recovery_epoch = reader.take<common::Epoch>();
      hello.source = reader.take<common::SourceId>();
      reader.expect_exhausted();
      return hello;
    }
    case Tag::kReattachAck: {
      ReattachAck ack;
      ack.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      ack.epoch = reader.take<common::Epoch>();
      ack.seeded_cut = reader.take<common::TimeMs>();
      reader.expect_exhausted();
      return ack;
    }
  }
  throw std::invalid_argument("net::decode: unknown tag");
}

}  // namespace posg::net
