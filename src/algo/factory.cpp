#include "algo/factory.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "algo/bouabdallah_laforest.hpp"
#include "algo/incremental.hpp"
#include "algo/lass/node.hpp"
#include "algo/maddi.hpp"

namespace mra::algo {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kIncremental: return "Incremental";
    case Algorithm::kBouabdallahLaforest: return "Bouabdallah-Laforest";
    case Algorithm::kLassWithoutLoan: return "Without loan";
    case Algorithm::kLassWithLoan: return "With loan";
    case Algorithm::kCentralSharedMemory: return "in shared memory";
    case Algorithm::kMaddi: return "Maddi";
  }
  return "?";
}

std::vector<Algorithm> all_algorithms() {
  return {Algorithm::kIncremental,       Algorithm::kBouabdallahLaforest,
          Algorithm::kLassWithoutLoan,   Algorithm::kLassWithLoan,
          Algorithm::kCentralSharedMemory, Algorithm::kMaddi};
}

const char* cli_name(Algorithm a) {
  switch (a) {
    case Algorithm::kIncremental: return "incremental";
    case Algorithm::kBouabdallahLaforest: return "bl";
    case Algorithm::kLassWithoutLoan: return "lass";
    case Algorithm::kLassWithLoan: return "lass-loan";
    case Algorithm::kCentralSharedMemory: return "central";
    case Algorithm::kMaddi: return "maddi";
  }
  return "?";
}

Algorithm algorithm_from_name(const std::string& name) {
  for (Algorithm a : all_algorithms()) {
    if (name == cli_name(a) || name == to_string(a)) return a;
  }
  std::string valid;
  for (Algorithm a : all_algorithms()) {
    if (!valid.empty()) valid += " | ";
    valid += cli_name(a);
  }
  throw std::invalid_argument("unknown algorithm \"" + name +
                              "\" (valid: " + valid + ")");
}

namespace {

template <typename T>
[[noreturn]] void reject(const char* field, const char* want, T value) {
  std::ostringstream os;
  os << "SystemConfig: " << field << " must be " << want << ", got " << value;
  throw std::invalid_argument(os.str());
}

/// Every latency model must return non-negative samples: the network's
/// FIFO watermarks rely on each delivery landing at or after its send
/// instant (net::Network::sparse_watermark).
void validate_latencies(const SystemConfig& c) {
  if (c.network_latency < 0) {
    reject("network_latency", ">= 0 ns", c.network_latency);
  }
  if (c.hierarchical_remote_latency < 0) {
    reject("hierarchical_remote_latency", ">= 0 ns",
           c.hierarchical_remote_latency);
  }
  // base * U[1 - jitter, 1 + jitter] stays non-negative only up to 1.
  if (!std::isfinite(c.latency_jitter) || c.latency_jitter < 0.0 ||
      c.latency_jitter > 1.0) {
    reject("latency_jitter", "finite and in [0, 1]", c.latency_jitter);
  }
  if (c.latency_delay_bound < 0) {
    reject("latency_delay_bound", ">= 0 ns", c.latency_delay_bound);
  }
  if (c.latency_quantum < 0) {
    reject("latency_quantum", ">= 0 ns", c.latency_quantum);
  }
}

}  // namespace

AllocationSystem::AllocationSystem(const SystemConfig& config) : cfg_(config) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument(
        "SystemConfig: num_sites and num_resources must be positive");
  }
  validate_latencies(config);
  sim_ = std::make_unique<sim::Simulator>();
  std::unique_ptr<net::LatencyModel> latency;
  if (config.hierarchical_clusters > 1) {
    const int cluster_size =
        (config.num_sites + config.hierarchical_clusters - 1) /
        config.hierarchical_clusters;
    latency = net::make_hierarchical_latency(
        cluster_size, config.network_latency,
        config.hierarchical_remote_latency);
  } else if (config.latency_delay_bound > 0) {
    latency = net::make_bounded_delay_latency(config.network_latency,
                                              config.latency_delay_bound);
  } else if (config.latency_jitter > 0.0) {
    latency = net::make_uniform_jitter_latency(config.network_latency,
                                               config.latency_jitter);
  } else {
    latency = net::make_fixed_latency(config.network_latency);
  }
  if (config.latency_quantum > 0) {
    latency =
        net::make_quantized_latency(std::move(latency), config.latency_quantum);
  }
  net_ = std::make_unique<net::Network>(*sim_, std::move(latency), config.seed);

  switch (config.algorithm) {
    case Algorithm::kIncremental: {
      IncrementalConfig c;
      c.num_sites = config.num_sites;
      c.num_resources = config.num_resources;
      for (int i = 0; i < config.num_sites; ++i) {
        nodes_.push_back(std::make_unique<IncrementalNode>(c));
      }
      break;
    }
    case Algorithm::kBouabdallahLaforest: {
      BouabdallahLaforestConfig c;
      c.num_sites = config.num_sites;
      c.num_resources = config.num_resources;
      c.release_control_token_early = config.bl_release_control_token_early;
      for (int i = 0; i < config.num_sites; ++i) {
        nodes_.push_back(std::make_unique<BouabdallahLaforestNode>(c));
      }
      break;
    }
    case Algorithm::kLassWithoutLoan:
    case Algorithm::kLassWithLoan: {
      lass::LassConfig c;
      c.num_sites = config.num_sites;
      c.num_resources = config.num_resources;
      c.mark_policy = config.mark_policy;
      c.enable_loan = config.algorithm == Algorithm::kLassWithLoan;
      c.loan_threshold = config.loan_threshold;
      c.opt_single_resource = config.opt_single_resource;
      c.opt_stop_forwarding = config.opt_stop_forwarding;
      for (int i = 0; i < config.num_sites; ++i) {
        nodes_.push_back(std::make_unique<lass::LassNode>(c));
      }
      break;
    }
    case Algorithm::kCentralSharedMemory: {
      CentralConfig c;
      c.num_sites = config.num_sites;
      c.num_resources = config.num_resources;
      c.strict_fifo = config.central_strict_fifo;
      coordinator_ = std::make_unique<CentralCoordinator>(c, *sim_);
      for (int i = 0; i < config.num_sites; ++i) {
        nodes_.push_back(std::make_unique<CentralNode>(c, *coordinator_));
      }
      break;
    }
    case Algorithm::kMaddi: {
      MaddiConfig c;
      c.num_sites = config.num_sites;
      c.num_resources = config.num_resources;
      for (int i = 0; i < config.num_sites; ++i) {
        nodes_.push_back(std::make_unique<MaddiNode>(c));
      }
      break;
    }
  }
}

std::unique_ptr<AllocationSystem> AllocationSystem::create(
    const SystemConfig& config) {
  return std::unique_ptr<AllocationSystem>(new AllocationSystem(config));
}

void AllocationSystem::start() {
  if (started_) throw std::logic_error("AllocationSystem: started twice");
  started_ = true;
  for (auto& node : nodes_) net_->add_node(*node);
  net_->start();
}

}  // namespace mra::algo
