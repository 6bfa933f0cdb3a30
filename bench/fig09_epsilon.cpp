// Figure 9: completion-time speedup vs the sketch precision parameter
// epsilon (which fixes the number of Count-Min columns).
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "sketch/dual_sketch.hpp"

using namespace posg;

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto seeds = static_cast<std::size_t>(args.get_int("seeds", 8));
  const auto m = static_cast<std::size_t>(args.get_int("m", 32'768));

  bench::print_header(
      "Figure 9 — speedup vs precision parameter epsilon",
      "speedup grows as epsilon shrinks (paper: ~+30% per 10x memory); large epsilon "
      "underperforms round-robin");

  common::CsvWriter csv(bench::output_dir(args) + "/fig09_epsilon.csv",
                        {"epsilon", "columns", "speedup_mean", "speedup_min", "speedup_max"});

  const std::vector<double> epsilons{1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001};
  std::vector<bench::Summary> summaries;
  std::printf("%8s %8s | %8s %8s %8s\n", "epsilon", "columns", "min", "mean", "max");
  for (double epsilon : epsilons) {
    sim::ExperimentConfig config;
    config.m = m;
    config.posg.epsilon = epsilon;
    const auto dims = sketch::SketchDims::from_accuracy(epsilon, config.posg.delta);
    const auto summary = bench::seeded_speedup(config, seeds);
    summaries.push_back(summary);
    std::printf("%8.3f %8zu | %8.3f %8.3f %8.3f\n", epsilon, dims.cols, summary.min,
                summary.mean, summary.max);
    csv.row_values(epsilon, dims.cols, summary.mean, summary.min, summary.max);
  }

  bench::ShapeChecks checks;
  checks.check("finest epsilon beats coarsest", summaries.back().mean > summaries.front().mean,
               "eps=1.0 -> " + std::to_string(summaries.front().mean) + ", eps=0.001 -> " +
                   std::to_string(summaries.back().mean));
  checks.check("fine epsilon provides real gain", summaries.back().mean >= 1.2,
               "mean@0.001=" + std::to_string(summaries.back().mean));
  // Deviation note (EXPERIMENTS.md): the paper reports epsilon = 1.0
  // *below* parity; our shared-billing + liveness-cap extensions keep even
  // a 3-column sketch above round-robin, so the check asserts only that
  // memory buys a materially larger gain.
  checks.check("memory buys gain (>= +0.15 from eps=1.0 to 0.001)",
               summaries.back().mean >= summaries.front().mean + 0.15,
               "mean@1.0=" + std::to_string(summaries.front().mean) +
                   " mean@0.001=" + std::to_string(summaries.back().mean));
  return checks.exit_code();
}
