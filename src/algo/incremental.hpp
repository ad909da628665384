// The Incremental baseline (§5): M independent Naimi-Tréhel locks, acquired
// one by one in increasing resource-id order.
//
// The global total order on resources prevents deadlock (the classic ordered
// locking argument), but the strategy suffers the domino effect the paper
// describes (§2.1): a process holds already-acquired resources idle while it
// waits for the next one in order.
#pragma once

#include <memory>
#include <vector>

#include "core/allocator.hpp"
#include "mutex/naimi_trehel.hpp"

namespace mra::algo {

struct IncrementalConfig {
  int num_sites = 0;
  int num_resources = 0;
  /// Initial holder of every lock's token.
  SiteId elected_node = 0;
};

class IncrementalNode final : public AllocatorNode {
 public:
  explicit IncrementalNode(const IncrementalConfig& config);

  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  /// Resources whose lock this site currently holds in CS-acquisition order.
  [[nodiscard]] const std::vector<ResourceId>& acquired() const {
    return acquired_;
  }

 private:
  void acquire_next();
  void on_lock_granted(ResourceId r);

  IncrementalConfig cfg_;
  std::vector<std::unique_ptr<mutex::NaimiTrehelEngine<>>> locks_;
  ProcessState state_ = ProcessState::kIdle;
  std::vector<ResourceId> plan_;      // resources to acquire, ascending
  std::size_t next_index_ = 0;        // next entry of plan_ to acquire
  std::vector<ResourceId> acquired_;  // locks currently held
};

}  // namespace mra::algo
