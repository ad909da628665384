// The Bouabdallah-Laforest algorithm (Operating Systems Review 2000; §2.2 of
// the paper) — the closest competitor, used as the main baseline.
//
// One *control token*, managed by a Naimi-Tréhel instance, serializes the
// registration of requests. The control token stores, for every resource,
// either the resource token itself (resource idle) or the identity of its
// latest requester. A requester holding the control token grabs the inlined
// tokens and sends an INQUIRE to the latest requester of each missing one;
// that site forwards the resource token once it has finished with it.
// Scheduling is static (control-token acquisition order) — exactly the
// limitation the paper's algorithm removes.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/allocator.hpp"
#include "mutex/naimi_trehel.hpp"

namespace mra::algo {

namespace bl_detail {

/// Per-resource entry of the control token.
struct ControlEntry {
  bool holds_token = true;          ///< resource token inlined in the CT
  SiteId last_requester = kNoSite;  ///< valid when !holds_token
};

/// Payload carried by the Naimi-Tréhel-managed control token.
struct ControlToken {
  std::vector<ControlEntry> entries;

  [[nodiscard]] std::size_t wire_size() const { return entries.size() * 5; }
};

/// INQUIRE: "send me the token of resource r once you are done with it".
struct InquireMsg final : net::Message {
  ResourceId r = kNoResource;
  SiteId requester = kNoSite;

  static constexpr std::string_view kKind = "BL.Inquire";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

/// A resource token in flight.
struct ResourceTokenMsg final : net::Message {
  ResourceId r = kNoResource;

  static constexpr std::string_view kKind = "BL.ResToken";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 4; }
};

}  // namespace bl_detail

struct BouabdallahLaforestConfig {
  int num_sites = 0;
  int num_resources = 0;
  SiteId elected_node = 0;  ///< initially holds the control token + all tokens

  /// When false (default), the control token is held until the requester has
  /// gathered *all* its resource tokens (released on CS entry). This matches
  /// the global-lock behaviour the paper measures (Fig. 1(a), Fig. 5: BL use
  /// rate ≈ 5% at small φ under high load — acquisition fully serialized).
  /// When true, the control token is released right after registration
  /// (the literal reading of Bouabdallah-Laforest 2000), which overlaps
  /// acquisitions and makes BL markedly faster than the paper reports.
  /// bench/ablation_bl_variant quantifies the difference.
  bool release_control_token_early = false;
};

class BouabdallahLaforestNode final : public AllocatorNode {
 public:
  explicit BouabdallahLaforestNode(const BouabdallahLaforestConfig& config);

  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  // Introspection for tests.
  [[nodiscard]] const ResourceSet& owned_tokens() const { return owned_; }
  [[nodiscard]] bool holds_control_token() const {
    return control_ && control_->has_token();
  }

 private:
  void on_control_token_granted();
  void maybe_enter_cs();
  void send_resource_token(SiteId dst, ResourceId r);

  BouabdallahLaforestConfig cfg_;
  std::unique_ptr<mutex::NaimiTrehelEngine<bl_detail::ControlToken>> control_;

  ProcessState state_ = ProcessState::kIdle;
  /// True between control-token registration and release: only then does our
  /// claim on `using_` exist in the distributed queues. Before registration
  /// every INQUIRE must be honoured — the inquirer registered first.
  bool registered_ = false;
  ResourceSet owned_;              ///< resource tokens held by this site
  ResourceSet using_;              ///< resources of the active CS request
  std::vector<SiteId> inquired_;   ///< per resource: site whose INQUIRE we owe
};

}  // namespace mra::algo
