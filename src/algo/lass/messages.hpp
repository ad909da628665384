// Message types of the paper's algorithm (Annex A, Figure 8).
//
// The five logical message types (ReqCnt, ReqRes, ReqLoan, Counter, Token)
// are carried inside three aggregated bundles, implementing the paper's
// aggregation mechanism (§4.2.2): same-type messages to the same destination
// produced while handling one event are combined into a single network
// message. Request bundles additionally carry the set of already-visited
// sites (§4.2.1, cycle suppression).
//
// Bundle contents live in inline SmallVector storage sized for the common
// bundle (a few items, a short visited path), so a bundle is one pooled
// message block and no heap allocation; larger bundles spill through the
// container pool.
#pragma once

#include <string_view>

#include "algo/lass/token.hpp"
#include "core/small_vector.hpp"
#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::algo::lass {

/// Sites already traversed by a request bundle.
using VisitedSites = core::SmallVector<SiteId, 6>;

/// Request messages: forwarded hop-by-hop along the resource tree.
struct RequestBundleMsg final : net::Message {
  VisitedSites visited;  ///< sites already traversed by this bundle
  core::SmallVector<ReqItem, 2> items;

  static constexpr std::string_view kKind = "Lass.Req";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = 4 + visited.size() * 4;
    for (const auto& it : items) s += it.wire_size();
    return s;
  }
};

/// One counter value (reply to a ReqCnt).
struct CounterItem {
  ResourceId r = kNoResource;
  CounterValue value = 0;
};

/// Counter replies: sent directly to the requester.
struct CounterBundleMsg final : net::Message {
  core::SmallVector<CounterItem, 2> items;

  static constexpr std::string_view kKind = "Lass.Counter";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 4 + items.size() * 12;
  }
};

/// Tokens: sent directly to their next holder.
struct TokenBundleMsg final : net::Message {
  /// Mutable because the receiver consumes it: LassNode::on_message() moves
  /// the tokens out of the delivered (const) message. The network computes
  /// the message's bytes before delivery and destroys it right after
  /// on_message() returns, so nothing reads the moved-from items.
  mutable core::SmallVector<LassToken, 1> items;

  static constexpr std::string_view kKind = "Lass.Token";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = 4;
    for (const auto& t : items) s += t.wire_size();
    return s;
  }
};

}  // namespace mra::algo::lass
