#include "net/protocol.hpp"

#include <cstring>
#include <stdexcept>

#include "common/bytes.hpp"
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
  // 6, 7 and 8 are retired: no kind may reuse them, so every other tag
  // keeps its value, and decode() refuses them as unknown.
  kDrainRequest = 9,
  kDrainComplete = 10,
  kSchedulerHello = 11,
  kReattachAck = 12,
};

static_assert(kMaxTupleFrameBytes == sizeof(Tag) + sizeof(common::SeqNo) + sizeof(common::Item) +
                                         sizeof(std::uint8_t) + sizeof(common::Epoch) +
                                         sizeof(common::TimeMs),
              "TupleFrameBuffer must fit the marker layout exactly");

void expect_exhausted(const common::ByteReader& reader) {
  if (!reader.exhausted()) {
    throw std::invalid_argument("net::decode: trailing bytes");
  }
}

}  // namespace

std::vector<std::byte> encode(const Message& message) {
  std::vector<std::byte> payload;
  common::ByteWriter writer(payload);
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
          writer.put(value.source);
        } else if constexpr (std::is_same_v<T, ReattachAck>) {
          writer.put(Tag::kReattachAck);
          writer.put(static_cast<std::uint64_t>(value.instance));
          writer.put(value.seed);
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
  common::ByteReader reader(payload, "net::decode: truncated message");
  const auto tag = reader.take<Tag>();
  switch (tag) {
    case Tag::kHello: {
      Hello hello;
      hello.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      hello.source = reader.take<common::SourceId>();
      expect_exhausted(reader);
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
      expect_exhausted(reader);
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
      expect_exhausted(reader);
      return reply;
    }
    case Tag::kEndOfStream:
      expect_exhausted(reader);
      return EndOfStream{};
    case Tag::kDrainRequest: {
      DrainRequest request;
      request.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      request.epoch = reader.take<common::Epoch>();
      request.estimated_cumulated = reader.take<common::TimeMs>();
      expect_exhausted(reader);
      return request;
    }
    case Tag::kDrainComplete: {
      DrainComplete complete;
      complete.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      complete.epoch = reader.take<common::Epoch>();
      complete.delta = reader.take<common::TimeMs>();
      complete.executed = reader.take<std::uint64_t>();
      expect_exhausted(reader);
      return complete;
    }
    case Tag::kSchedulerHello: {
      SchedulerHello hello;
      hello.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      hello.source = reader.take<common::SourceId>();
      expect_exhausted(reader);
      return hello;
    }
    case Tag::kReattachAck: {
      ReattachAck ack;
      ack.instance = static_cast<common::InstanceId>(reader.take<std::uint64_t>());
      ack.seed = reader.take<common::TimeMs>();
      expect_exhausted(reader);
      return ack;
    }
  }
  throw std::invalid_argument("net::decode: unknown tag");
}

}  // namespace posg::net
