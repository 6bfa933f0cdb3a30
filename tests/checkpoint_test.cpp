// Robustness matrix for the crash-recovery checkpoint (core/checkpoint.hpp,
// DESIGN.md §14): the codec round-trips byte-identically through
// PosgScheduler::restore, every torn/corrupt/foreign image is rejected with
// std::invalid_argument (the runtime's cold-start signal), the atomic file
// helpers survive truncation on disk, a restored scheduler's reattach
// path isolates pre-crash replies from Ĉ (the double-billing argument), and
// the image CRC matches a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"

namespace {

using namespace posg;
using core::CheckpointState;
using core::PosgConfig;
using core::PosgScheduler;

PosgConfig small_config() {
  PosgConfig config;
  config.window = 8;
  config.mu = 0.5;
  config.max_windows_per_epoch = 2;
  config.epsilon = 0.1;  // coarse sketch keeps the checkpoint images compact
  return config;
}

std::vector<core::InstanceTracker> make_trackers(std::size_t k, const PosgConfig& config) {
  std::vector<core::InstanceTracker> trackers;
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  return trackers;
}

/// Drives the full protocol loop (schedule → execute → ship → reply) until
/// `target` epochs completed, so the captured state carries real Ĉ values,
/// shipped sketches, and epoch history rather than cold-start zeros.
void drive_epochs(PosgScheduler& scheduler, std::vector<core::InstanceTracker>& trackers,
                  std::uint64_t target, common::SeqNo& seq) {
  for (int guard = 0; guard < 200000 && scheduler.epochs_completed() < target; ++guard) {
    const common::Item item = seq % 32;
    const auto decision = scheduler.schedule(item, seq);
    ++seq;
    auto& tracker = trackers[decision.instance];
    if (auto shipment = tracker.on_executed(item, 1.0 + static_cast<double>(item % 8))) {
      scheduler.on_feedback(*shipment);
    }
    if (decision.sync_request) {
      scheduler.on_feedback(tracker.on_sync_request(*decision.sync_request));
    }
  }
  ASSERT_GE(scheduler.epochs_completed(), target) << "driver never completed the target epochs";
}

std::vector<std::byte> warm_image(std::size_t k) {
  PosgScheduler scheduler(k, small_config());
  auto trackers = make_trackers(k, small_config());
  common::SeqNo seq = 0;
  drive_epochs(scheduler, trackers, 2, seq);
  return core::encode(scheduler.checkpoint_state());
}

/// Bit-at-a-time reflected CRC-32 (0xEDB88320), independent of the
/// table-driven production code.
std::uint32_t reference_crc32(std::span<const std::byte> bytes) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const std::byte b : bytes) {
    crc ^= std::to_integer<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1U) ^ ((crc & 1U) != 0 ? 0xEDB88320U : 0U);
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(CheckpointCrc, KnownAnswer) {
  // The CRC-32 check value: the same number zlib.crc32(b"123456789") gives.
  const char* text = "123456789";
  const std::span<const std::byte> bytes(reinterpret_cast<const std::byte*>(text), 9);
  EXPECT_EQ(core::crc32(bytes), 0xCBF43926U);
  EXPECT_EQ(core::crc32({}), 0U);
}

TEST(CheckpointCrc, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..17 cover an empty input, a tail alone, one and two 8-byte
  // blocks with every tail; starts 0..7 cover every misalignment.
  std::vector<std::byte> buffer(64);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::byte>((i * 151U + 7U) & 0xFFU);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 17; ++length) {
      const std::span<const std::byte> bytes(buffer.data() + start, length);
      EXPECT_EQ(core::crc32(bytes), reference_crc32(bytes))
          << "start " << start << " length " << length;
    }
  }
  const auto image = warm_image(3);
  EXPECT_EQ(core::crc32(image), reference_crc32(image));
}

TEST(Checkpoint, RoundTripThroughRestoreIsByteIdentical) {
  const std::size_t k = 3;
  PosgScheduler scheduler(k, small_config());
  auto trackers = make_trackers(k, small_config());
  common::SeqNo seq = 0;
  drive_epochs(scheduler, trackers, 2, seq);

  const CheckpointState state = scheduler.checkpoint_state();
  const auto image = core::encode(state);

  PosgScheduler restored(k, small_config());
  restored.restore(core::decode(image));

  // The restored scheduler is indistinguishable from the original...
  EXPECT_EQ(restored.state(), scheduler.state());
  EXPECT_EQ(restored.epoch(), scheduler.epoch());
  EXPECT_EQ(restored.epochs_completed(), scheduler.epochs_completed());
  EXPECT_EQ(restored.estimated_loads(), scheduler.estimated_loads());
  // ...down to the byte: re-capturing and re-encoding reproduces the image.
  EXPECT_EQ(core::encode(restored.checkpoint_state()), image);
}

TEST(Checkpoint, EveryTruncationOfTheImageIsRejected) {
  const auto image = warm_image(3);
  ASSERT_NO_THROW(core::decode(image));
  for (std::size_t length = 0; length < image.size(); ++length) {
    const std::span<const std::byte> prefix(image.data(), length);
    EXPECT_THROW(core::decode(prefix), std::invalid_argument)
        << "prefix of " << length << "/" << image.size() << " bytes decoded";
  }
}

TEST(Checkpoint, AppendedTrailingBytesAreRejected) {
  auto image = warm_image(2);
  image.push_back(std::byte{0});
  EXPECT_THROW(core::decode(image), std::invalid_argument);
}

TEST(Checkpoint, EveryByteFlipIsCaught) {
  // Payload flips must fail the CRC; header flips must fail the magic,
  // version, size, or stored-CRC check. Either way: every single-byte
  // corruption of the image is rejected.
  const auto image = warm_image(2);
  for (std::size_t i = 0; i < image.size(); ++i) {
    auto corrupt = image;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_THROW(core::decode(corrupt), std::invalid_argument)
        << "flip at byte " << i << " decoded";
  }
}

TEST(Checkpoint, VersionBumpIsRejected) {
  auto image = warm_image(2);
  const std::uint32_t future = core::kCheckpointVersion + 1;
  std::memcpy(image.data() + 4, &future, sizeof(future));
  EXPECT_THROW(core::decode(image), std::invalid_argument);
}

TEST(Checkpoint, BadMagicIsRejected) {
  auto image = warm_image(2);
  const std::uint32_t wrong = 0xDEADBEEF;
  std::memcpy(image.data(), &wrong, sizeof(wrong));
  EXPECT_THROW(core::decode(image), std::invalid_argument);
}

TEST(Checkpoint, RestoreRejectsInstanceCountMismatchAndLeavesColdStartIntact) {
  const auto state = core::decode(warm_image(3));
  PosgScheduler other(4, small_config());
  EXPECT_THROW(other.restore(state), std::invalid_argument);
  // The rejected image left the scheduler exactly as constructed — a cold
  // start is still possible (the runtime's degradation path).
  EXPECT_EQ(other.state(), PosgScheduler::State::kRoundRobin);
  EXPECT_EQ(other.epoch(), 0u);
  EXPECT_NO_THROW(other.schedule(1, 0));
}

TEST(Checkpoint, RestoreRejectsInvariantViolatingContent) {
  const auto valid = core::decode(warm_image(3));

  {
    auto tampered = valid;
    tampered.c_est[0] = -5.0;  // Ĉ must be non-negative
    PosgScheduler scheduler(3, small_config());
    EXPECT_THROW(scheduler.restore(tampered), std::invalid_argument);
  }
  {
    auto tampered = valid;
    // Quarantine exclusivity: a failed instance holding a Ĉ share (and a
    // sketch) is an internally inconsistent image.
    tampered.failed[1] = 1;
    PosgScheduler scheduler(3, small_config());
    EXPECT_THROW(scheduler.restore(tampered), std::invalid_argument);
  }
  {
    auto tampered = valid;
    tampered.epochs_completed = tampered.epoch + 1;  // non-monotone epoch
    PosgScheduler scheduler(3, small_config());
    EXPECT_THROW(scheduler.restore(tampered), std::invalid_argument);
  }
}

TEST(Checkpoint, FileHelpersRoundTripReplaceAndSignalMissing) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "posg_checkpoint_test.ckpt").string();
  std::filesystem::remove(path);

  EXPECT_FALSE(core::read_checkpoint_file(path).has_value());  // missing → cold start

  const auto first = warm_image(2);
  core::write_checkpoint_file(path, first);
  auto read_back = core::read_checkpoint_file(path);
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, first);

  // Atomic replace: a second write supersedes, never appends or tears.
  const auto second = warm_image(3);
  core::write_checkpoint_file(path, second);
  read_back = core::read_checkpoint_file(path);
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::filesystem::remove(path);
}

TEST(Checkpoint, TruncatedFileOnDiskIsReadButRejectedByDecode) {
  // Division of labor: read_checkpoint_file returns whatever bytes exist
  // (only *missing* is its signal); decode is the integrity gate.
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "posg_checkpoint_torn_test.ckpt").string();
  const auto image = warm_image(2);
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, image.size() / 2, file), image.size() / 2);
    std::fclose(file);
  }
  const auto torn = core::read_checkpoint_file(path);
  ASSERT_TRUE(torn.has_value());
  EXPECT_THROW(core::decode(*torn), std::invalid_argument);
  std::filesystem::remove(path);
}

/// The double-billing isolation argument, at the scheduler level: a crash
/// cuts an epoch mid-WAIT_ALL (markers out, replies withheld). After
/// restore + reattach, the pre-crash replies may still arrive (the
/// instances buffered them); they must land on the counted-stale path and
/// leave Ĉ untouched — the checkpointed cut already billed that history.
TEST(Checkpoint, ReattachIsolatesPreCrashRepliesFromBilling) {
  const std::size_t k = 2;
  PosgScheduler scheduler(k, small_config());
  auto trackers = make_trackers(k, small_config());
  common::SeqNo seq = 0;
  drive_epochs(scheduler, trackers, 1, seq);

  // Drive into WAIT_ALL, withholding every reply (markers piggyback on
  // scheduled tuples; execute them but do not answer).
  std::vector<std::pair<common::InstanceId, core::SyncRequest>> held;
  for (int guard = 0;
       guard < 200000 && scheduler.state() != PosgScheduler::State::kWaitAll; ++guard) {
    const common::Item item = seq % 32;
    const auto decision = scheduler.schedule(item, seq);
    ++seq;
    auto& tracker = trackers[decision.instance];
    if (auto shipment = tracker.on_executed(item, 1.0 + static_cast<double>(item % 8))) {
      if (scheduler.state() == PosgScheduler::State::kRun) {
        scheduler.on_feedback(*shipment);  // reopen the next epoch
      }
    }
    if (decision.sync_request) {
      held.emplace_back(decision.instance, *decision.sync_request);
    }
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  ASSERT_FALSE(held.empty());

  // "Crash" here: the checkpoint is the only thing that survives.
  const auto image = core::encode(scheduler.checkpoint_state());
  PosgScheduler restarted(k, small_config());
  restarted.restore(core::decode(image));
  const auto epochs_at_restore = restarted.epochs_completed();

  // Every survivor re-attaches; the seeded cut is exactly the restored Ĉ.
  for (common::InstanceId op = 0; op < k; ++op) {
    const auto expected = restarted.estimated_loads()[op];
    EXPECT_DOUBLE_EQ(restarted.reattach(op), expected);
  }
  // Re-attaching pre-satisfied every reply slot: the cut epoch completed
  // without a single Δ folding in.
  EXPECT_EQ(restarted.state(), PosgScheduler::State::kRun);
  EXPECT_EQ(restarted.epochs_completed(), epochs_at_restore + 1);

  const auto loads_after_reattach = restarted.estimated_loads();
  const auto stale_before = restarted.stale_reply_count();

  // The withheld pre-crash replies finally arrive (an instance replaying
  // its buffered frames). Counted stale, never billed.
  for (const auto& [op, marker] : held) {
    restarted.on_feedback(trackers[op].on_sync_request(marker));
  }
  EXPECT_EQ(restarted.estimated_loads(), loads_after_reattach);
  EXPECT_EQ(restarted.stale_reply_count(), stale_before + held.size());
}

}  // namespace
