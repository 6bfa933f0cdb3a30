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
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
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

/// One image per invariant PosgScheduler::invariant_violation states, each
/// a single tampering of a valid warm RUN image (k = 3). `expected` is a
/// substring of the message restore() must throw.
struct Tampering {
  const char* expected;
  std::function<void(CheckpointState&)> tamper;
  bool sync_enabled = true;
};

/// Makes instance `op` a consistently quarantined slot.
void quarantine(CheckpointState& state, std::size_t op) {
  state.failed[op] = 1;
  state.c_est[op] = 0.0;
  state.sketches[op].reset();
  state.marker_pending[op] = 0;
  state.marker_estimate[op] = -1.0;
  state.derate[op] = 1.0;
  state.ramp_left[op] = 0;
  state.draining[op] = 0;
  state.health.states[op] = core::InstanceHealth::kQuarantined;
}

/// Turns the RUN image into SEND_ALL with instance 0's marker outstanding.
void to_send_all(CheckpointState& state) {
  state.scheduler_state = static_cast<std::uint8_t>(PosgScheduler::State::kSendAll);
  state.marker_pending[0] = 1;
  state.reply_received[0] = 0;
}

void to_wait_all(CheckpointState& state) {
  state.scheduler_state = static_cast<std::uint8_t>(PosgScheduler::State::kWaitAll);
}

void drop_sketches(CheckpointState& state) {
  for (auto& sketch : state.sketches) {
    sketch.reset();
  }
}

TEST(Checkpoint, RestoreRejectsEachInvariantAndLeavesColdStartIntact) {
  const auto valid = core::decode(warm_image(3));
  ASSERT_EQ(valid.scheduler_state, static_cast<std::uint8_t>(PosgScheduler::State::kRun));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  using Health = core::InstanceHealth;
  const std::vector<Tampering> table = {
      {"instance count mismatch", [](auto& s) { s.k = 4; }},
      {"source id mismatch", [](auto& s) { s.source_id = 1; }},
      {"state machine value out of range", [](auto& s) { s.scheduler_state = 4; }},
      {"round-robin cursor out of range", [](auto& s) { s.rr_next = 3; }},
      {"non-monotone epoch", [](auto& s) { s.epochs_completed = s.epoch + 1; }},
      {"tables do not cover every instance", [](auto& s) { s.derate.pop_back(); }},
      {"latency hints do not cover every instance", [](auto& s) { s.latency_hints = {1.0}; }},
      {"HealthMonitor: per-instance tables", [](auto& s) { s.health.queue_ewma.pop_back(); }},
      {"HealthMonitor: state out of range",
       [](auto& s) { s.health.states[0] = static_cast<Health>(7); }},
      {"HealthMonitor: drift EWMA", [](auto& s) { s.health.drift_ewma[0] = kNaN; }},
      {"HealthMonitor: queue EWMA", [](auto& s) { s.health.queue_ewma[0] = -0.5; }},
      {"HealthMonitor: hot and calm streaks",
       [](auto& s) { s.health.hot_streak[0] = s.health.calm_streak[0] = 1; }},
      {"flag is not 0/1", [](auto& s) { s.draining[0] = 2; }},
      {"C_hat is not finite", [](auto& s) { s.c_est[0] = kInf; }},
      {"C_hat went negative", [](auto& s) { s.c_est[0] = -5.0; }},
      {"de-rate factor", [](auto& s) { s.derate[0] = 0.5; }},
      {"reply delta must be finite", [](auto& s) { s.reply_delta[0] = kNaN; }},
      {"marker estimate", [](auto& s) { s.marker_estimate[0] = -0.5; }},
      {"ramp tokens", [](auto& s) { s.ramp_tokens[0] = -1.0; }},
      {"latency hints must be finite", [](auto& s) { s.latency_hints = {0.0, -1.0, 0.0}; }},
      {"quarantined instance still holds C_hat",
       [](auto& s) { quarantine(s, 1), s.c_est[1] = 5.0; }},
      {"quarantined instance still bills a sketch",
       [](auto& s) { quarantine(s, 1), s.sketches[1] = s.sketches[0]; }},
      {"quarantined instance still owes a marker",
       [](auto& s) { quarantine(s, 1), s.marker_pending[1] = 1; }},
      {"quarantined instance still holds a marker estimate",
       [](auto& s) { quarantine(s, 1), s.marker_estimate[1] = 3.0; }},
      {"quarantined instance still de-rated", [](auto& s) { quarantine(s, 1), s.derate[1] = 2.0; }},
      {"quarantined instance still ramping", [](auto& s) { quarantine(s, 1), s.ramp_left[1] = 5; }},
      {"quarantined instance still marked draining",
       [](auto& s) { quarantine(s, 1), s.draining[1] = 1; }},
      {"draining instance still owes a marker",
       [](auto& s) { s.draining[1] = 1, s.marker_pending[1] = 1; }},
      {"draining instance still ramping", [](auto& s) { s.draining[1] = 1, s.ramp_left[1] = 3; }},
      {"health FSM disagrees with the quarantine set",
       [](auto& s) { s.health.states[1] = Health::kQuarantined; }},
      {"reply received before its marker was sent",
       [](auto& s) { to_send_all(s), s.reply_received[0] = 1; }},
      {"sketch layout does not match",
       [](auto& s) { s.sketches[0] = sketch::DualSketch(sketch::SketchDims{2, 4}, 1); }},
      {"DualSketch: W cell went negative",
       [](auto& s) { s.sketches[0]->cells_mutable()[0].w = -1.0; }},
      {"live cluster with an empty serving set",
       [](auto& s) { s.draining = {1, 1, 1}; }},
      {"zero live instances outside ROUND_ROBIN",
       [](auto& s) { quarantine(s, 0), quarantine(s, 1), quarantine(s, 2); }},
      {"markers pending in ROUND_ROBIN",
       [](auto& s) { s.scheduler_state = 0, s.marker_pending[0] = 1, s.reply_received[0] = 0; }},
      {"SEND_ALL with synchronization disabled", [](auto& s) { to_send_all(s); }, false},
      {"SEND_ALL before the first epoch",
       [](auto& s) { to_send_all(s), s.epoch = 0, s.epochs_completed = 0; }},
      {"SEND_ALL with no marker left to send",
       [](auto& s) { to_send_all(s), s.marker_pending[0] = 0; }},
      {"SEND_ALL without any billed sketch", [](auto& s) { to_send_all(s), drop_sketches(s); }},
      {"WAIT_ALL with synchronization disabled", [](auto& s) { to_wait_all(s); }, false},
      {"WAIT_ALL before the first epoch",
       [](auto& s) { to_wait_all(s), s.epoch = 0, s.epochs_completed = 0; }},
      {"WAIT_ALL with markers still pending",
       [](auto& s) { to_wait_all(s), s.marker_pending[0] = 1, s.reply_received[0] = 0; }},
      {"WAIT_ALL without any billed sketch", [](auto& s) { to_wait_all(s), drop_sketches(s); }},
      {"markers pending in RUN", [](auto& s) { s.marker_pending[0] = 1, s.reply_received[0] = 0; }},
      {"RUN without any billed sketch", [](auto& s) { drop_sketches(s); }},
  };

  // The building blocks alone keep the image valid, so each row breaks
  // exactly the invariant it names.
  for (const auto& base : std::vector<std::function<void(CheckpointState&)>>{
           [](auto&) {}, [](auto& s) { quarantine(s, 1); }, [](auto& s) { s.draining[1] = 1; },
           to_send_all, to_wait_all}) {
    auto image = valid;
    base(image);
    PosgScheduler scheduler(3, small_config());
    EXPECT_NO_THROW(scheduler.restore(image));
  }

  for (const auto& row : table) {
    auto tampered = valid;
    row.tamper(tampered);
    PosgConfig config = small_config();
    config.sync_enabled = row.sync_enabled;
    PosgScheduler scheduler(3, config);
    try {
      scheduler.restore(tampered);
      ADD_FAILURE() << "restored an image that breaks: " << row.expected;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(row.expected), std::string::npos)
          << "expected \"" << row.expected << "\", got \"" << error.what() << "\"";
    }
    EXPECT_EQ(scheduler.state(), PosgScheduler::State::kRoundRobin) << row.expected;
    EXPECT_EQ(scheduler.epoch(), 0u) << row.expected;
    EXPECT_NO_THROW(scheduler.schedule(1, 0)) << row.expected;
  }
}

/// Asserts capture → restore → capture reproduces `scheduler`'s image.
void expect_round_trip(const PosgScheduler& scheduler, const PosgConfig& config) {
  const auto image = core::encode(scheduler.checkpoint_state());
  PosgScheduler restored(scheduler.instances(), config);
  restored.restore(core::decode(image));
  EXPECT_EQ(restored.state(), scheduler.state());
  EXPECT_EQ(core::encode(restored.checkpoint_state()), image);
}

TEST(Checkpoint, RoundTripIsByteIdenticalInEveryState) {
  const PosgConfig config = small_config();
  const std::size_t k = 3;
  PosgScheduler scheduler(k, config);
  auto trackers = make_trackers(k, config);
  common::SeqNo seq = 0;
  drive_epochs(scheduler, trackers, 2, seq);

  // SEND_ALL with markers outstanding: a re-ship opens the next epoch, and
  // one tuple carries the first marker out.
  core::SketchShipment reship{0, *scheduler.checkpoint_state().sketches[0]};
  scheduler.on_feedback(std::move(reship));
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  auto decision = scheduler.schedule(1, seq++);
  ASSERT_TRUE(decision.sync_request.has_value());
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kSendAll);
  expect_round_trip(scheduler, config);

  // WAIT_ALL with one reply in.
  std::vector<std::pair<common::InstanceId, core::SyncRequest>> markers{
      {decision.instance, *decision.sync_request}};
  while (scheduler.state() == PosgScheduler::State::kSendAll) {
    decision = scheduler.schedule(1, seq++);
    if (decision.sync_request) {
      markers.emplace_back(decision.instance, *decision.sync_request);
    }
  }
  ASSERT_EQ(scheduler.state(), PosgScheduler::State::kWaitAll);
  scheduler.on_feedback(core::SyncReply{markers[0].first, markers[0].second.epoch, 0.25});
  ASSERT_EQ(scheduler.pending_replies().size(), k - 1);
  expect_round_trip(scheduler, config);

  // RUN with one quarantined, one draining and one ramping instance.
  const std::size_t k4 = 4;
  PosgScheduler membership(k4, config);
  auto trackers4 = make_trackers(k4, config);
  seq = 0;
  drive_epochs(membership, trackers4, 2, seq);
  ASSERT_EQ(membership.state(), PosgScheduler::State::kRun);
  membership.mark_failed(3);
  membership.rejoin(3);
  membership.mark_failed(0);
  membership.begin_drain(1);
  ASSERT_EQ(membership.state(), PosgScheduler::State::kRun);
  ASSERT_TRUE(membership.is_failed(0));
  ASSERT_TRUE(membership.is_draining(1));
  ASSERT_GT(membership.ramp_remaining(3), 0u);
  expect_round_trip(membership, config);
}

/// The smallest legal layout: epsilon 1 and delta 0.5 give a 1 x 3 sketch.
PosgConfig fixture_config() {
  PosgConfig config = small_config();
  config.epsilon = 1.0;
  config.delta = 0.5;
  return config;
}

/// A version-2 image written by the encoder of commit 677e8fc: k = 2,
/// fixture_config(), captured in RUN after drive_epochs completed two
/// epochs. Fixed bytes, so an encoder change that breaks old images fails
/// here rather than on a restarted scheduler.
std::vector<std::byte> v2_fixture() {
  std::ifstream in(std::string(POSG_TEST_DATA_DIR) + "/checkpoint_v2_k2.bin", std::ios::binary);
  const std::vector<char> raw{std::istreambuf_iterator<char>(in), {}};
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

TEST(Checkpoint, FixedVersion2ImageDecodesRestoresAndReencodes) {
  const auto fixture = v2_fixture();
  ASSERT_EQ(fixture.size(), 693u);
  const auto state = core::decode(fixture);
  EXPECT_EQ(state.k, 2u);
  EXPECT_EQ(state.epochs_completed, 2u);
  EXPECT_EQ(core::encode(state), fixture);

  PosgScheduler restored(2, fixture_config());
  restored.restore(state);
  EXPECT_EQ(restored.state(), PosgScheduler::State::kRun);
  EXPECT_EQ(core::encode(restored.checkpoint_state()), fixture);
}

TEST(Checkpoint, Version1ImageRestoresAsSourceZero) {
  // Version 1 is version 2 without the u32 source id after k.
  const auto fixture = v2_fixture();
  ASSERT_EQ(fixture.size(), 693u);
  const std::size_t header = core::kCheckpointHeaderBytes;
  auto v1 = fixture;
  v1.erase(v1.begin() + static_cast<std::ptrdiff_t>(header + 8),
           v1.begin() + static_cast<std::ptrdiff_t>(header + 12));
  const std::uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof(version));
  std::uint64_t payload = 0;
  std::memcpy(&payload, v1.data() + 8, sizeof(payload));
  payload -= 4;
  std::memcpy(v1.data() + 8, &payload, sizeof(payload));
  const std::uint32_t crc = core::crc32(std::span<const std::byte>(v1).subspan(header));
  std::memcpy(v1.data() + 16, &crc, sizeof(crc));

  const auto state = core::decode(v1);
  EXPECT_EQ(state.source_id, 0u);
  PosgScheduler restored(2, fixture_config());
  restored.restore(state);
  EXPECT_EQ(core::encode(restored.checkpoint_state()), fixture);
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
