// Self-tests of the benchmark's own helpers: the percentile rule, the
// open-loop schedule and lateness accounting, span self-time subtraction,
// per-window values, segment minima and the least-disturbed selection.
// Checks stay active in Release.
#include <cmath>
#include <cstdio>
#include <vector>

#include "support.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  expect(percentile_supported(1000, 0.99), "1000 samples support p99 (10 beyond)");
  expect(!percentile_supported(999, 0.99), "999 samples do not support p99");
  expect(near(highest_supported_percentile(1000), 0.99), "highest for 1000 is p99");
  expect(near(highest_supported_percentile(9999), 0.99), "highest for 9999 is p99");
  expect(near(highest_supported_percentile(10000), 0.999), "highest for 10000 is p99.9");
  expect(near(highest_supported_percentile(100), 0.9), "highest for 100 is p90");
  expect(highest_supported_percentile(99) == 0.0, "99 samples support no tail");
}

void test_open_loop_schedule() {
  const OpenLoopSchedule schedule{1000, 100};
  expect(schedule.due(0) == 1000 && schedule.due(5) == 1500, "due = start + seq * interval");
  expect(schedule.due_by(999) == 0, "nothing is due before the start");
  expect(schedule.due_by(1000) == 1, "tuple 0 is due at the start");
  expect(schedule.due_by(1099) == 1 && schedule.due_by(1100) == 2, "due_by counts whole slots");
  // A wake-up at 1350 emits tuples 0..3; each is late against its own due
  // time, so a stall is charged to every tuple it delayed.
  expect(schedule.due_by(1350) == 4, "wake-up at 1350 finds four tuples due");
  expect(schedule.lateness_ns(0, 1350) == 350, "tuple 0 is 350 ns late");
  expect(schedule.lateness_ns(3, 1350) == 50, "tuple 3 is 50 ns late");
  expect(schedule.lateness_ns(4, 1350) == 0, "an early emission is not late");
}

std::int64_t fake_now = 0;
std::int64_t fake_clock() { return fake_now; }

void test_self_time() {
  // parent [0, 100] encloses A [10, 30] and B [40, 50]; A encloses
  // a grandchild G [15, 20]. Self: parent 100 - 20 - 10 = 70, A 20 - 5 =
  // 15, B 10, G 5. A child's own children are not subtracted twice.
  Tracer tracer(&fake_clock);
  const auto at = [](std::int64_t t) { fake_now = t; };
  at(0);
  tracer.begin(Layer::kSimRun);
  at(10);
  tracer.begin(Layer::kCoreSchedule, 7);
  at(15);
  tracer.begin(Layer::kCoreFeedback);
  at(20);
  tracer.end();
  at(30);
  tracer.end();
  at(40);
  tracer.begin(Layer::kNetSend);
  at(50);
  tracer.end();
  at(100);
  tracer.end();
  const auto table = tracer.summary();
  const auto stats = [&](Layer layer) { return table[static_cast<std::size_t>(layer)]; };
  expect(stats(Layer::kSimRun).total_ns == 100 && stats(Layer::kSimRun).self_ns == 70,
         "parent self time subtracts its direct children");
  expect(stats(Layer::kCoreSchedule).total_ns == 20 && stats(Layer::kCoreSchedule).self_ns == 15,
         "child self time subtracts the grandchild");
  expect(stats(Layer::kCoreFeedback).self_ns == 5 && stats(Layer::kNetSend).self_ns == 10,
         "leaf self time is its duration");
  std::int64_t self_sum = 0;
  for (const LayerStats& layer : table) {
    self_sum += layer.self_ns;
  }
  expect(self_sum == 100, "self times of a span tree sum to the root's duration");
  expect(stats(Layer::kCoreSchedule).p50_ns == 20.0, "p50 comes from kept spans");
  // With one span in kSampleEvery kept, the first of a layer always is.
  at(200);
  tracer.begin(Layer::kSimRun);
  at(230);
  tracer.end();
  expect(tracer.summary()[static_cast<std::size_t>(Layer::kSimRun)].p50_ns == 100.0,
         "the second span of a layer is counted but not kept");
}

void test_windows_and_minima() {
  // Windows of 4, the short tail {1, 1} dropped; a spike moves one window.
  const std::vector<double> values = {1, 1, 1, 2, 1, 1, 1, 3, 1, 1, 1, 500, 1, 1};
  expect(per_window(values, 4, 100.0) == std::vector<double>({2, 3, 500}), "window maxima");
  expect(per_window(values, 4, -1.0) == std::vector<double>({1.25, 1.5, 125.75}), "window means");
  expect(per_window({4, 2}, 4, -1.0) == std::vector<double>({3}), "a lone short window is kept");
  const std::vector<std::vector<double>> reps = {{1.0, 5.0, 2.0}, {3.0, 1.0, 2.5}};
  expect(segment_minima(reps) == std::vector<double>({1.0, 1.0, 2.0}), "per-segment minima");
  // Preemption counts of five windows: two undisturbed, then 1, 3, 7.
  const std::vector<std::int64_t> preempted = {3, 0, 1, 0, 7};
  expect(least_disturbed_threshold(preempted, 2) == 0, "enough undisturbed windows: only those");
  expect(least_disturbed_threshold(preempted, 3) == 1, "too few: the least disturbed");
  expect(least_disturbed_threshold(preempted, 10) == 7, "fewer samples than wanted: all");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_percentile_rule();
  test_open_loop_schedule();
  test_self_time();
  test_windows_and_minima();
  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "all helper checks passed" : "FAILED");
  return failures;
}

}  // namespace perfbench
