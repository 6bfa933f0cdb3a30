// Unit tests for the common substrate: PRNGs, CSV emission, CLI parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"

namespace {

using namespace posg::common;

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next();
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, IsDeterministic) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256StarStar rng(123);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro, NextDoubleMeanNearHalf) {
  Xoshiro256StarStar rng(9);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.next_double();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256StarStar rng(55);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowZeroBoundIsZero) {
  Xoshiro256StarStar rng(55);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
  Xoshiro256StarStar rng(321);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.next_below(bound)];
  }
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / static_cast<int>(bound), n / 100);
  }
}

TEST(Ensure, ThrowsLogicError) {
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "boom"), std::logic_error);
}

TEST(Require, ThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad input"), std::invalid_argument);
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs each case as its own
  // process, concurrently under -j, so a shared name would collide.
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::temp_directory_path() /
             ("posg_csv_test_" + name + "_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;

  std::string slurp() {
    std::ifstream in(path_);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.row({"1", "2"});
    csv.row_values(3.5, "x");
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(), "a,b\n1,2\n3.5,x\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"a"});
    csv.row({"has,comma"});
    csv.row({"has\"quote"});
  }
  EXPECT_EQ(slurp(), "a\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvWriterTest, RejectsWidthMismatch) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

TEST(CliArgs, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--m", "1000", "--verbose", "--rate", "2.5", "--name", "x"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_int("m", 0), 1000);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_string("name", ""), "x");
  EXPECT_EQ(args.program(), "prog");
}

TEST(CliArgs, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("m", 7), 7);
  EXPECT_FALSE(args.has("m"));
  EXPECT_FALSE(args.get_bool("verbose", false));
}

TEST(CliArgs, RejectsMalformedOption) {
  const char* argv[] = {"prog", "loose-token"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

/// The error a bad numeric value must raise: typed as a config error,
/// naming both the flag and the offending token.
void expect_config_error(const std::function<void()>& read, const std::string& flag,
                         const std::string& value) {
  try {
    read();
    ADD_FAILURE() << "--" << flag << " '" << value << "' was accepted";
  } catch (const posg::Error& error) {
    EXPECT_EQ(error.code(), posg::ErrorCode::kConfig);
    const std::string message = error.what();
    EXPECT_NE(message.find("--" + flag), std::string::npos) << message;
    EXPECT_NE(message.find("'" + value + "'"), std::string::npos) << message;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "untyped error for --" << flag << ": " << error.what();
  }
}

TEST(CliArgs, RejectsTrailingGarbageInNumbers) {
  const char* argv[] = {"prog", "--m", "12abc", "--rate", "2.5x", "--kill", "-1"};
  CliArgs args(7, argv);
  expect_config_error([&] { (void)args.get_int("m", 0); }, "m", "12abc");
  expect_config_error([&] { (void)args.get_double("rate", 0.0); }, "rate", "2.5x");
  EXPECT_EQ(args.get_int("kill", 0), -1);  // a sign is part of the number
}

TEST(CliArgs, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--m", "abc", "--rate", "fast", "--seeds", "1.5"};
  CliArgs args(7, argv);
  expect_config_error([&] { (void)args.get_int("m", 0); }, "m", "abc");
  expect_config_error([&] { (void)args.get_double("rate", 0.0); }, "rate", "fast");
  expect_config_error([&] { (void)args.get_int("seeds", 0); }, "seeds", "1.5");
}

TEST(CliArgs, RejectsOutOfRangeValues) {
  const char* argv[] = {"prog", "--m", "99999999999999999999", "--rate", "1e999"};
  CliArgs args(5, argv);
  expect_config_error([&] { (void)args.get_int("m", 0); }, "m", "99999999999999999999");
  expect_config_error([&] { (void)args.get_double("rate", 0.0); }, "rate", "1e999");
}

TEST(CliArgs, RejectsEmptyNumericValue) {
  // A numeric flag given bare (next token is another flag) has no value.
  const char* argv[] = {"prog", "--m", "--rate", "--x", "2.5e-3"};
  CliArgs args(5, argv);
  expect_config_error([&] { (void)args.get_int("m", 7); }, "m", "");
  expect_config_error([&] { (void)args.get_double("rate", 1.0); }, "rate", "");
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5e-3);
}

TEST(CliArgs, BooleanSpellings) {
  const char* argv[] = {"prog", "--a", "true", "--b", "0", "--c", "yes", "--d", "off"};
  CliArgs args(9, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

}  // namespace
