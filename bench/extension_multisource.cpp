// Extension E4 — multi-source schedule quality (DESIGN.md §15).
//
// S sources split one stream round-robin (tuple seq belongs to source
// seq % S), and each routes its share through its own POSG view of one
// shared instance pool. A view bills only the tuples it routed; before
// each decision it reads its siblings' Ĉ and adds their sum to its greedy
// score (core::sibling_loads). This harness measures what the split
// costs in the paper's metric L (mean completion time), on identical
// streams, against round-robin and a single POSG scheduler (S = 1).
//
// Sweep: k = 5, m = 65 536, overprovisioning 1.00 / 1.05 / 1.10, 10
// seeds drawn by the sim::run_seeded rule. Knobs: --seeds N, --m N.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "core/multi_source.hpp"
#include "core/posg_scheduler.hpp"
#include "core/round_robin.hpp"

using namespace posg;

namespace {

struct Policy {
  std::string name;
  std::size_t sources;  // 0 = round-robin
};

/// L of one policy on one experiment's stream and cost model.
common::TimeMs mean_completion(const sim::Experiment& experiment, const Policy& policy) {
  const sim::ExperimentConfig& config = experiment.config();
  sim::Simulator::Config sim_config;
  sim_config.instances = config.k;
  sim_config.inter_arrival = experiment.inter_arrival();
  sim_config.control_latency = config.control_latency;
  sim_config.posg = config.posg;
  sim::Simulator simulator(sim_config,
                           [&experiment](common::Item item, common::InstanceId op,
                                         common::SeqNo seq) {
                             return experiment.model().execution_time(item, op, seq);
                           });
  if (policy.sources == 0) {
    core::RoundRobinScheduler scheduler(config.k);
    return simulator.run(experiment.stream(), scheduler).completions.average();
  }
  if (policy.sources == 1) {
    core::PosgScheduler scheduler(config.k, config.posg);
    return simulator.run(experiment.stream(), scheduler).completions.average();
  }
  core::MultiSourceScheduler scheduler(config.k, config.posg, policy.sources);
  return simulator.run_multi(experiment.stream(), scheduler).completions.average();
}

/// Seeds on which `a` has the lower L than `b`.
std::size_t wins(const std::vector<double>& a, const std::vector<double>& b) {
  std::size_t count = 0;
  for (std::size_t s = 0; s < a.size(); ++s) {
    count += a[s] < b[s] ? 1 : 0;
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto seeds = static_cast<std::size_t>(args.get_int("seeds", 10));
  const auto m = static_cast<std::size_t>(args.get_int("m", 65'536));

  bench::print_header(
      "Extension E4 — multi-source schedule quality (S views over one pool)",
      "splitting the stream over S views costs L against one scheduler; with each view "
      "reading its siblings' Ĉ, S = 2 still beats round-robin at every load");

  const std::vector<Policy> policies{
      {"round-robin", 0},
      {"posg S=1", 1},
      {"S=2", 2},
      {"S=4", 4},
  };
  enum : std::size_t { kRr, kS1, kS2, kS4 };
  const std::vector<double> loads{1.00, 1.05, 1.10};

  common::CsvWriter csv(bench::output_dir(args) + "/extension_multisource.csv",
                        {"overprovisioning", "policy", "sources", "l_mean_ms", "l_min_ms",
                         "l_max_ms", "seeds_beating_rr"});

  // l[load][policy][seed]
  std::vector<std::vector<std::vector<double>>> l(
      loads.size(), std::vector<std::vector<double>>(policies.size()));
  for (std::size_t load = 0; load < loads.size(); ++load) {
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      sim::ExperimentConfig config;
      config.m = m;
      config.overprovisioning = loads[load];
      // The sim::run_seeded rule: vary the stream draw and the item ->
      // execution-time association together.
      config.stream_seed += 1000 * seed + 17;
      config.assignment_seed += 1000 * seed + 71;
      const sim::Experiment experiment(config);
      for (std::size_t p = 0; p < policies.size(); ++p) {
        l[load][p].push_back(mean_completion(experiment, policies[p]));
      }
    }
    std::printf("\noverprovisioning %.2f — L (ms) over %zu seeds\n", loads[load], seeds);
    std::printf("%-16s | %9s %9s %9s | %s\n", "policy", "min", "mean", "max", "beats RR");
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const Policy& policy = policies[p];
      const auto summary = bench::summarize(l[load][p]);
      const std::size_t beats_rr = wins(l[load][p], l[load][kRr]);
      std::printf("%-16s | %9.1f %9.1f %9.1f | %zu/%zu\n", policy.name.c_str(), summary.min,
                  summary.mean, summary.max, beats_rr, seeds);
      csv.row_values(loads[load], policy.name, policy.sources, summary.mean, summary.min,
                     summary.max, beats_rr);
    }
  }

  // The checks assert DESIGN.md §15's claims as seed counts, with
  // thresholds looser than the counts observed, so no margin is thinner
  // than the seed spread.
  const std::size_t nearly_all = seeds - seeds / 10;  // 9 of 10
  const std::size_t most = (7 * seeds + 9) / 10;      // 7 of 10
  bench::ShapeChecks checks;
  const auto check_wins = [&](std::size_t load, std::size_t a, std::size_t b, std::size_t bound) {
    const std::size_t count = wins(l[load][a], l[load][b]);
    checks.check(policies[a].name + " beats " + policies[b].name + " at " +
                     std::to_string(static_cast<int>(loads[load] * 100 + 0.5)) + "%",
                 count >= bound, std::to_string(count) + "/" + std::to_string(seeds) + " seeds");
  };
  for (std::size_t load = 0; load < loads.size(); ++load) {
    // One scheduler sees the whole load; a split view decides on its
    // siblings' billing, which lags their queues, and does not win that
    // back.
    check_wins(load, kS1, kRr, nearly_all);
    for (const std::size_t split : {kS2, kS4}) {
      check_wins(load, kS1, split, most);
    }
    // Two views that read each other keep most of POSG's gain.
    check_wins(load, kS2, kRr, most);
  }
  // At capacity, where round-robin's L is worst, four views still win.
  check_wins(0, kS4, kRr, most);
  return checks.exit_code();
}
