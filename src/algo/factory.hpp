// One-stop construction of a complete simulated system: simulator, network,
// and N allocator nodes running the chosen algorithm.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algo/central.hpp"
#include "core/allocator.hpp"
#include "core/mark.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mra::algo {

namespace lass {
class LassContext;
}  // namespace lass

/// The algorithms of the paper's evaluation plus the extensions.
enum class Algorithm {
  kIncremental,           ///< M Naimi-Tréhel locks, ordered acquisition (§5)
  kBouabdallahLaforest,   ///< control-token baseline (§2.2, §5)
  kLassWithoutLoan,       ///< the paper's algorithm, loan disabled
  kLassWithLoan,          ///< the paper's algorithm, loan enabled (thr. 1)
  kCentralSharedMemory,   ///< idealised zero-cost scheduler ("in shared memory")
  kMaddi,                 ///< broadcast baseline (extension)
};

[[nodiscard]] const char* to_string(Algorithm a);
[[nodiscard]] std::vector<Algorithm> all_algorithms();

/// Short command-line name ("incremental", "bl", "lass", "lass-loan",
/// "central", "maddi") — the inverse of algorithm_from_name.
[[nodiscard]] const char* cli_name(Algorithm a);

/// Parses a CLI algorithm name; accepts both cli_name() and to_string()
/// spellings. Throws std::invalid_argument listing the valid names.
[[nodiscard]] Algorithm algorithm_from_name(const std::string& name);

struct SystemConfig {
  Algorithm algorithm = Algorithm::kLassWithLoan;
  int num_sites = 32;       ///< the paper's N
  int num_resources = 80;   ///< the paper's M
  std::uint64_t seed = 1;

  /// Network latency (the paper's γ ≈ 0.6 ms on 10 GbE) and optional jitter.
  sim::SimDuration network_latency = sim::from_ms(0.6);
  double latency_jitter = 0.0;  ///< fraction, e.g. 0.1 = ±10%

  /// Adversarial perturbation (src/check/explore.*): when > 0, every message
  /// gets an extra uniform delay in [0, bound] on top of network_latency —
  /// delay-bounded cross-link reordering within the FIFO-per-link contract.
  /// Takes precedence over latency_jitter; ignored on hierarchical
  /// topologies.
  sim::SimDuration latency_delay_bound = 0;

  /// Model-checking aid (src/check/dpor.*): when > 0, latency samples are
  /// rounded *up* to a multiple of this quantum, aligning deliveries onto a
  /// shared grid so independent messages collide at the same instant and the
  /// exhaustive explorer can enumerate their commutations. Applied on top of
  /// whichever model the knobs above selected.
  sim::SimDuration latency_quantum = 0;

  /// Two-level topology (the paper's §6 future-work target). When
  /// hierarchical_clusters > 1, sites are split into equal clusters;
  /// intra-cluster messages cost network_latency, inter-cluster messages
  /// cost hierarchical_remote_latency (jitter is ignored in this mode).
  int hierarchical_clusters = 1;
  sim::SimDuration hierarchical_remote_latency = sim::from_ms(10.0);

  // LASS knobs ---------------------------------------------------------------
  MarkPolicy mark_policy = MarkPolicy::kAverageNonZero;
  int loan_threshold = 1;
  bool opt_single_resource = true;
  bool opt_stop_forwarding = true;

  // Central scheduler knob ----------------------------------------------------
  bool central_strict_fifo = false;

  // Bouabdallah-Laforest variant (see BouabdallahLaforestConfig) --------------
  bool bl_release_control_token_early = false;
};

/// Owns every moving part of one simulation.
class AllocationSystem {
 public:
  /// Builds (but does not start) a system. Throws std::invalid_argument
  /// on invalid config: non-positive sizes, or a latency field that could
  /// yield a negative delay (each named with its value).
  static std::unique_ptr<AllocationSystem> create(const SystemConfig& config);
  ~AllocationSystem();

  /// Registers nodes with the network and runs every on_start().
  void start();

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] net::Network& network() { return *net_; }
  [[nodiscard]] AllocatorNode& node(SiteId i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int num_sites() const { return cfg_.num_sites; }
  [[nodiscard]] int num_resources() const { return cfg_.num_resources; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  /// The context every LASS site shares; null for the other algorithms.
  [[nodiscard]] const lass::LassContext* lass_context() const {
    return lass_.get();
  }

 private:
  explicit AllocationSystem(const SystemConfig& config);

  SystemConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<CentralCoordinator> coordinator_;  // central only
  std::unique_ptr<lass::LassContext> lass_;          // LASS only
  std::vector<std::unique_ptr<AllocatorNode>> nodes_;
  bool started_ = false;
};

}  // namespace mra::algo
