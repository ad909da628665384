// The "in shared memory" reference of the paper's evaluation (§5.2): a
// scheduling algorithm with a global waiting queue and *no* communication
// cost. It upper-bounds every distributed algorithm and is used to read off
// their pure synchronization overhead.
//
// Requests join a global queue in arrival order; whenever resources free up,
// the scheduler scans the queue in order and grants every request whose
// resources are all available (in-order backfill). `strict_fifo` restricts
// grants to the queue prefix instead, which serializes behind the head —
// useful as an ablation of the scheduling policy itself.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/allocator.hpp"
#include "sim/simulator.hpp"

namespace mra::algo {

class CentralNode;

struct CentralConfig {
  int num_sites = 0;
  int num_resources = 0;
  /// Grant only from the head of the queue (no backfill).
  bool strict_fifo = false;
};

/// The shared-memory scheduler state. Not a network node: nodes call it
/// directly (zero latency, zero messages), mirroring the paper's "no
/// synchronization" curve.
class CentralCoordinator {
 public:
  CentralCoordinator(const CentralConfig& config, sim::Simulator& simulator);

  void submit(CentralNode& node, const ResourceSet& resources);
  void release(CentralNode& node, const ResourceSet& resources);

  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }
  [[nodiscard]] const ResourceSet& busy() const { return busy_; }

 private:
  void try_grant();

  CentralConfig cfg_;
  sim::Simulator& sim_;
  ResourceSet busy_;
  struct Waiting {
    CentralNode* node;
    ResourceSet resources;
  };
  std::deque<Waiting> queue_;
};

/// Per-site facade over the coordinator.
class CentralNode final : public AllocatorNode {
 public:
  CentralNode(const CentralConfig& config, CentralCoordinator& coordinator);

  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_message(SiteId from, const net::Message& msg) override;

 private:
  friend class CentralCoordinator;
  void granted();

  CentralCoordinator& coordinator_;
  ProcessState state_ = ProcessState::kIdle;
};

}  // namespace mra::algo
