// The Maddi broadcast algorithm (SAC 1997; §2.2 of the paper).
//
// Every resource is represented by a single token; every request is stamped
// with a Lamport clock and broadcast to all sites, which keep per-resource
// queues ordered by (timestamp, site id). The paper characterises it as
// "multiple instances of Suzuki-Kasami" with the correspondingly high O(N)
// message complexity — implemented here as an extension baseline so the
// message-complexity bench can contrast broadcast vs tree routing.
//
// Deadlock freedom: the (timestamp, site) order is total and identical at
// every queue, so the union of the waiting queues is acyclic (same argument
// as the paper's lemma 5). A token holder that is still waiting for other
// tokens yields to an earlier request; a holder in CS finishes first.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/allocator.hpp"

namespace mra::algo {

namespace maddi_detail {

struct ReqMsg final : net::Message {
  std::int64_t timestamp = 0;
  RequestId seq = 0;  ///< per-site request number (for pruning)
  ResourceSet resources;

  static constexpr std::string_view kKind = "Maddi.Req";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + (static_cast<std::size_t>(resources.universe_size()) + 7) / 8;
  }
};

struct TokenMsg final : net::Message {
  ResourceId r = kNoResource;
  std::vector<RequestId> last_done;  ///< per site: last satisfied request

  static constexpr std::string_view kKind = "Maddi.Token";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 4 + last_done.size() * 8;
  }
};

/// A pending request as seen by a queue.
struct Pending {
  std::int64_t timestamp = 0;
  SiteId site = kNoSite;
  RequestId seq = 0;

  [[nodiscard]] bool precedes(const Pending& o) const {
    if (timestamp != o.timestamp) return timestamp < o.timestamp;
    return site < o.site;
  }
};

}  // namespace maddi_detail

struct MaddiConfig {
  int num_sites = 0;
  int num_resources = 0;
  SiteId elected_node = 0;  ///< initially holds every token
};

class MaddiNode final : public AllocatorNode {
 public:
  explicit MaddiNode(const MaddiConfig& config);

  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  [[nodiscard]] const ResourceSet& owned_tokens() const { return owned_; }

 private:
  struct TokenState {
    bool held = false;
    std::vector<RequestId> last_done;
    std::vector<maddi_detail::Pending> pending;  // kept sorted
  };

  void consider_grant(ResourceId r);
  void maybe_enter_cs();
  void insert_pending(ResourceId r, maddi_detail::Pending p);

  MaddiConfig cfg_;
  ProcessState state_ = ProcessState::kIdle;
  std::int64_t clock_ = 0;
  std::int64_t my_timestamp_ = 0;
  ResourceSet owned_;
  std::vector<TokenState> tokens_;
};

}  // namespace mra::algo
