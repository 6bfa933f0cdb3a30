#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/simulator.hpp"
#include "workload/exec_time.hpp"

/// Turn-key experiment runner: builds the paper's synthetic setups
/// (Sec. V-A) and runs any of the scheduling policies on identical
/// streams, which is how every figure compares algorithms.
namespace posg::sim {

/// Which scheduling policy to run.
enum class Policy {
  kRoundRobin,
  kPosg,
  kFullKnowledge,
  kBacklogOracle,
  /// Reactive join-shortest-queue with periodic, stale queue reports
  /// (the Sec. I strawman; requires load_report_period > 0).
  kReactiveJsq,
  /// Power-of-two-choices with an exact cost oracle.
  kTwoChoices,
};

std::string policy_name(Policy policy);

/// Full description of one synthetic experiment; defaults are the paper's
/// (Sec. V-A).
struct ExperimentConfig {
  // Stream shape.
  std::size_t n = 4096;
  std::size_t m = 32'768;
  std::string distribution = "zipf-1.0";
  std::uint64_t stream_seed = 1;
  /// When non-empty, replay this binary trace (see workload/trace.hpp)
  /// instead of drawing from `distribution`; `n` is raised to cover the
  /// trace's largest item if needed.
  std::string trace_path;

  // Execution-time model.
  std::size_t wn = 64;
  common::TimeMs wmin = 1.0;
  common::TimeMs wmax = 64.0;
  workload::ValueSpacing spacing = workload::ValueSpacing::kLinear;
  std::uint64_t assignment_seed = 1;
  /// Per-instance multiplier phases (empty = uniform instances).
  std::vector<workload::InstanceLoadModel::Phase> phases;

  // Deployment shape.
  std::size_t k = 5;
  /// Ratio max-theoretical-throughput / actual-throughput; 1.0 = exactly
  /// provisioned, < 1 undersized, > 1 oversized. The source inter-arrival
  /// delay is overprovisioning * W̄ / k.
  double overprovisioning = 1.0;
  common::TimeMs data_latency = 0.0;
  /// Heterogeneous data-path latencies (empty = uniform `data_latency`).
  std::vector<common::TimeMs> instance_latencies;
  common::TimeMs control_latency = 1.0;
  /// Queue-state report period for reactive policies (0 = off).
  common::TimeMs load_report_period = 0.0;
  /// Extension (paper Sec. VII future work): when true and
  /// `instance_latencies` is set, POSG's greedy pick becomes
  /// latency-aware (Ĉ[op] + latency[op]).
  bool posg_latency_hints = false;

  // Algorithm.
  core::PosgConfig posg;

  // Observability (not owned; must outlive run()). Threaded into
  // Simulator::Config — see the field doc there.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One policy's outcome on one experiment.
struct ExperimentResult {
  Policy policy;
  common::TimeMs average_completion = 0.0;
  Simulator::Result raw;
};

/// Materializes the workload once (stream + cost model) so that several
/// policies can be compared on identical inputs.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  ExperimentResult run(Policy policy) const;

  /// Analytic mean execution time W̄ of the stream's items.
  common::TimeMs mean_execution_time() const noexcept { return mean_execution_; }

  /// The source inter-arrival delay derived from the over-provisioning.
  common::TimeMs inter_arrival() const noexcept { return inter_arrival_; }

  const std::vector<common::Item>& stream() const noexcept { return stream_; }
  const workload::ExecutionTimeModel& model() const noexcept { return *model_; }
  const ExperimentConfig& config() const noexcept { return config_; }

 private:
  std::unique_ptr<core::Scheduler> make_scheduler(Policy policy) const;

  ExperimentConfig config_;
  std::vector<common::Item> stream_;
  std::optional<workload::ExecutionTimeModel> model_;
  common::TimeMs mean_execution_ = 0.0;
  common::TimeMs inter_arrival_ = 0.0;
};

/// Convenience for the figure benches: run `policy` over `seeds` stream
/// randomizations of `base` (stream and assignment seeds are both varied,
/// as in the paper's 100-stream campaigns) and return the per-seed average
/// completion times.
std::vector<common::TimeMs> run_seeded(const ExperimentConfig& base, Policy policy,
                                       std::size_t seeds);

}  // namespace posg::sim
