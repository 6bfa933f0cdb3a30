// Tests for stream trace record/replay and its Experiment integration.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "sim/experiment.hpp"
#include "workload/distributions.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace {

using namespace posg;
namespace fs = std::filesystem;

class TraceTest : public ::testing::Test {
 protected:
  std::string path(const char* name) { return (dir_ / name).string(); }
  void SetUp() override {
    // Suffix with the pid: under `ctest -j`, concurrent test processes
    // sharing one directory race against each other's TearDown.
    dir_ = fs::temp_directory_path() /
           ("posg_trace_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(TraceTest, BinaryRoundTrip) {
  const std::vector<common::Item> stream{0, 7, 42, 7, 4095, 1};
  workload::save_trace(path("a.trace"), stream);
  EXPECT_EQ(workload::load_trace(path("a.trace")), stream);
}

TEST_F(TraceTest, BinaryRoundTripEmptyAndLarge) {
  workload::save_trace(path("empty.trace"), {});
  EXPECT_TRUE(workload::load_trace(path("empty.trace")).empty());

  workload::ZipfItems zipf(1000, 1.0);
  const auto large = workload::StreamGenerator::generate(zipf, 50'000, 3);
  workload::save_trace(path("large.trace"), large);
  EXPECT_EQ(workload::load_trace(path("large.trace")), large);
}

TEST_F(TraceTest, BinaryRejectsCorruption) {
  workload::save_trace(path("x.trace"), {1, 2, 3});
  // Truncate.
  fs::resize_file(path("x.trace"), fs::file_size(path("x.trace")) - 4);
  EXPECT_THROW(workload::load_trace(path("x.trace")), std::invalid_argument);
  // Bad magic.
  {
    std::ofstream out(path("bad.trace"), std::ios::binary);
    out << "NOTATRACE.......................";
  }
  EXPECT_THROW(workload::load_trace(path("bad.trace")), std::invalid_argument);
  // Missing file.
  EXPECT_THROW(workload::load_trace(path("ghost.trace")), std::runtime_error);
}

TEST_F(TraceTest, BinaryRejectsTrailingBytes) {
  workload::save_trace(path("t.trace"), {1, 2});
  {
    std::ofstream out(path("t.trace"), std::ios::binary | std::ios::app);
    out << "x";
  }
  EXPECT_THROW(workload::load_trace(path("t.trace")), std::invalid_argument);
}

TEST_F(TraceTest, ExperimentReplaysTrace) {
  // Capture a synthetic draw, replay it: the experiment must use exactly
  // the captured stream and derive the provisioning from its empirical
  // mean.
  workload::ZipfItems zipf(256, 1.0);
  const auto captured = workload::StreamGenerator::generate(zipf, 4000, 11);
  workload::save_trace(path("replay.trace"), captured);

  sim::ExperimentConfig config;
  config.trace_path = path("replay.trace");
  config.n = 256;
  config.wn = 16;
  config.wmax = 16.0;
  config.k = 3;
  config.posg.window = 64;
  sim::Experiment experiment(config);
  EXPECT_EQ(experiment.stream(), captured);
  EXPECT_GT(experiment.mean_execution_time(), 0.0);

  const auto result = experiment.run(sim::Policy::kRoundRobin);
  EXPECT_EQ(result.raw.completions.size(), captured.size());
}

TEST_F(TraceTest, ExperimentRaisesUniverseToCoverTrace) {
  workload::save_trace(path("wide.trace"), {0, 5000, 3});
  sim::ExperimentConfig config;
  config.trace_path = path("wide.trace");
  config.n = 256;  // too small for item 5000 — must be raised
  config.wn = 4;
  config.wmax = 4.0;
  sim::Experiment experiment(config);
  EXPECT_NO_THROW(experiment.run(sim::Policy::kRoundRobin));
  EXPECT_EQ(experiment.config().n, 5001u);
  EXPECT_EQ(experiment.config().m, 3u);
}

}  // namespace
