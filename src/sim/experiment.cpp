#include "sim/experiment.hpp"

#include <algorithm>

#include "core/backlog_oracle.hpp"
#include "core/reactive_jsq.hpp"
#include "core/two_choices.hpp"
#include "core/full_knowledge.hpp"
#include "core/posg_scheduler.hpp"
#include "core/round_robin.hpp"
#include "workload/distributions.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace posg::sim {

std::string policy_name(Policy policy) {
  switch (policy) {
    case Policy::kRoundRobin:
      return "round-robin";
    case Policy::kPosg:
      return "posg";
    case Policy::kFullKnowledge:
      return "full-knowledge";
    case Policy::kBacklogOracle:
      return "backlog-oracle";
    case Policy::kReactiveJsq:
      return "reactive-jsq";
    case Policy::kTwoChoices:
      return "two-choices";
  }
  return "unknown";
}

namespace {

workload::ExecutionTimeModel make_model(const ExperimentConfig& config) {
  workload::ExecutionTimeAssignment assignment(config.n, config.wn, config.wmin, config.wmax,
                                               config.spacing, config.assignment_seed);
  workload::InstanceLoadModel load_model =
      config.phases.empty() ? workload::InstanceLoadModel(config.k)
                            : workload::InstanceLoadModel(config.k, config.phases);
  return workload::ExecutionTimeModel(std::move(assignment), std::move(load_model));
}

}  // namespace

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  common::require(config.overprovisioning > 0.0,
                  "Experiment: overprovisioning must be positive");

  if (!config_.trace_path.empty()) {
    // Replay mode: the stream comes from a captured trace and the item
    // frequencies are whatever the trace contains.
    stream_ = workload::load_trace(config_.trace_path);
    common::require(!stream_.empty(), "Experiment: trace is empty");
    config_.m = stream_.size();
    common::Item max_item = 0;
    for (common::Item item : stream_) {
      max_item = std::max(max_item, item);
    }
    config_.n = std::max<std::size_t>(config_.n, max_item + 1);
    model_.emplace(make_model(config_));
    // Empirical mean execution time over the trace.
    const auto frequencies = workload::item_frequencies(stream_, config_.n);
    common::TimeMs total = 0.0;
    for (common::Item item = 0; item < config_.n; ++item) {
      total += static_cast<double>(frequencies[item]) *
               model_->assignment().base_time(item);
    }
    mean_execution_ = total / static_cast<double>(stream_.size());
  } else {
    const auto distribution = workload::make_distribution(config_.distribution, config_.n);
    stream_ = workload::StreamGenerator::generate(*distribution, config_.m, config_.stream_seed);
    model_.emplace(make_model(config_));
    mean_execution_ = model_->assignment().mean_under(*distribution);
  }
  // Maximum sustainable throughput is k / W̄ (Sec. V-A); an
  // over-provisioning ratio of p means the source emits at (k / W̄) / p,
  // i.e. one tuple every p * W̄ / k.
  inter_arrival_ = config_.overprovisioning * mean_execution_ / static_cast<double>(config_.k);
}

std::unique_ptr<core::Scheduler> Experiment::make_scheduler(Policy policy) const {
  switch (policy) {
    case Policy::kRoundRobin:
      return std::make_unique<core::RoundRobinScheduler>(config_.k);
    case Policy::kPosg: {
      auto scheduler = std::make_unique<core::PosgScheduler>(config_.k, config_.posg);
      if (config_.posg_latency_hints && !config_.instance_latencies.empty()) {
        scheduler->set_latency_hints(config_.instance_latencies);
      }
      return scheduler;
    }
    case Policy::kFullKnowledge:
      return std::make_unique<core::FullKnowledgeScheduler>(
          config_.k, [this](common::Item item, common::InstanceId op, common::SeqNo seq) {
            return model_->execution_time(item, op, seq);
          });
    case Policy::kBacklogOracle:
      return std::make_unique<core::BacklogOracleScheduler>(
          config_.k, [this](common::Item item, common::InstanceId op, common::SeqNo seq) {
            return model_->execution_time(item, op, seq);
          });
    case Policy::kReactiveJsq:
      common::require(config_.load_report_period > 0.0,
                      "Experiment: reactive-jsq needs load_report_period > 0");
      return std::make_unique<core::ReactiveJsqScheduler>(config_.k);
    case Policy::kTwoChoices:
      return std::make_unique<core::TwoChoicesScheduler>(
          config_.k, [this](common::Item item, common::InstanceId op, common::SeqNo seq) {
            return model_->execution_time(item, op, seq);
          });
  }
  throw std::invalid_argument("Experiment: unknown policy");
}

ExperimentResult Experiment::run(Policy policy) const {
  Simulator::Config sim_config;
  sim_config.instances = config_.k;
  sim_config.inter_arrival = inter_arrival_;
  sim_config.data_latency = config_.data_latency;
  sim_config.per_instance_data_latency = config_.instance_latencies;
  sim_config.control_latency = config_.control_latency;
  sim_config.load_report_period = config_.load_report_period;
  sim_config.posg = config_.posg;
  sim_config.metrics = config_.metrics;

  Simulator simulator(sim_config,
                      [this](common::Item item, common::InstanceId op, common::SeqNo seq) {
                        return model_->execution_time(item, op, seq);
                      });

  const auto scheduler = make_scheduler(policy);
  ExperimentResult result;
  result.policy = policy;
  result.raw = simulator.run(stream_, *scheduler);
  result.average_completion = result.raw.completions.average();
  return result;
}

std::vector<common::TimeMs> run_seeded(const ExperimentConfig& base, Policy policy,
                                       std::size_t seeds) {
  std::vector<common::TimeMs> averages;
  averages.reserve(seeds);
  for (std::size_t s = 0; s < seeds; ++s) {
    ExperimentConfig config = base;
    // Vary both the stream draw and the item -> execution-time
    // association, as the paper's 100-stream campaigns do (Sec. V-A).
    config.stream_seed = base.stream_seed + 1000 * s + 17;
    config.assignment_seed = base.assignment_seed + 1000 * s + 71;
    Experiment experiment(config);
    averages.push_back(experiment.run(policy).average_completion);
  }
  return averages;
}

}  // namespace posg::sim
