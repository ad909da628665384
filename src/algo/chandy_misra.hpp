// Chandy-Misra drinking philosophers (TOPLAS 1984; §2.2 of the paper).
//
// The classic conflict-graph-based algorithm, included as an extension: it
// is the representative of the family the paper contrasts itself against —
// it *requires the conflict graph a priori* (each resource/bottle is shared
// by exactly two sites; each edge additionally carries one fork).
//
// Protocol, as summarised by the paper: a thirsty process first acquires all
// forks shared with its neighbours (hygienic dining layer: clean/dirty forks
// and request tokens, initial orientation by site id = acyclic); holding all
// forks it requests its missing bottles, which neighbours must hand over
// since they cannot be in their own fork-complete phase; once every needed
// bottle is held the forks are released (dirtied) and the drink (CS) starts.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/flat_map.hpp"

namespace mra::algo {

namespace cm_detail {

struct ForkTokenMsg final : net::Message {  // "please send me our fork"
  static constexpr std::string_view kKind = "CM.ForkReq";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 4; }
};

struct ForkMsg final : net::Message {  // the fork itself (arrives clean)
  static constexpr std::string_view kKind = "CM.Fork";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 4; }
};

struct BottleReqMsg final : net::Message {
  ResourceId r = kNoResource;
  static constexpr std::string_view kKind = "CM.BottleReq";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

struct BottleMsg final : net::Message {
  ResourceId r = kNoResource;
  static constexpr std::string_view kKind = "CM.Bottle";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

}  // namespace cm_detail

struct ChandyMisraConfig {
  int num_sites = 0;
  /// resource r is shared by exactly the pair sharers[r] (the conflict
  /// graph, known a priori — the assumption the paper's algorithm removes).
  std::vector<std::pair<SiteId, SiteId>> sharers;
};

class ChandyMisraNode final : public AllocatorNode {
 public:
  explicit ChandyMisraNode(const ChandyMisraConfig& config);

  /// `resources` must all be incident to this site.
  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  [[nodiscard]] bool holds_bottle(ResourceId r) const;

 private:
  enum class Phase { kIdle, kForks, kBottles, kDrinking };

  struct ForkState {
    bool held = false;
    bool dirty = true;
    bool token_here = false;     ///< request token currently at this site
    bool request_deferred = false;
  };

  struct BottleState {
    SiteId peer = kNoSite;  ///< the other sharer (kNoSite: not incident)
    bool held = false;
    bool request_deferred = false;
  };

  void request_missing_forks();
  void enter_bottle_phase();
  void complete_bottle_phase();
  void on_fork_token(SiteId from);
  void send_fork(SiteId to);
  void send_bottle(ResourceId r);

  [[nodiscard]] bool all_forks_held() const;
  [[nodiscard]] bool all_bottles_held() const;

  ChandyMisraConfig cfg_;
  ProcessState state_ = ProcessState::kIdle;
  Phase phase_ = Phase::kIdle;

  /// One per neighbour; sorted flat storage (iteration order matches the
  /// std::map it replaced — DESIGN.md §13). Degree is the site's conflict
  /// fan-out, not N.
  core::FlatMap<SiteId, ForkState, 4> forks_;
  std::vector<BottleState> bottles_;      ///< per resource
};

}  // namespace mra::algo
