// The per-resource token of the paper's algorithm (Annex A, Figure 8, Token)
// and the request records stored in its queues.
//
// Memory layout (DESIGN.md §13): the paper's token carries two per-site id
// vectors (last ReqCnt served, last CS satisfied). Stored densely that is
// 16 bytes x N sites x M resources per site — the ~1.3 MB/site blocker at
// N = 1024. Both vectors start all-zero and only the handful of sites that
// ever touched this token get non-zero entries, so they are stored as one
// sparse sorted map from site to both ids: an absent site reads as 0 for
// each, exactly the dense initial value (request ids start at 1, so
// obsolescence tests on absent sites are always false), and one lookup
// answers both. `wire_size()` still charges the dense encoding — the
// simulated message-byte accounting must not depend on the in-memory
// representation.
#pragma once

#include <cstdint>

#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/resource_set.hpp"
#include "core/small_vector.hpp"
#include "core/types.hpp"

namespace mra::algo::lass {

/// One site's entries of the token's two id vectors.
struct SiteIds {
  RequestId req_cnt = 0;  ///< last ReqCnt id served
  RequestId cs = 0;       ///< last satisfied CS id
};

/// Sparse per-site request-id map; sites never recorded read as ids 0,
/// matching the dense vectors' initial state.
using SiteRequestIds = core::FlatMap<SiteId, SiteIds, 2>;

[[nodiscard]] inline SiteIds ids_of(const SiteRequestIds& ids, SiteId site) {
  auto it = ids.find(site);
  return it == ids.end() ? SiteIds{} : it->second;
}

/// The three request message types (§4.2).
enum class ReqType : std::uint8_t {
  kCnt,   ///< ReqCnt: ask the current counter value
  kRes,   ///< ReqRes: ask the right to access the resource
  kLoan,  ///< ReqLoan: ask to borrow the missing resources
};

[[nodiscard]] constexpr const char* to_string(ReqType t) {
  switch (t) {
    case ReqType::kCnt: return "ReqCnt";
    case ReqType::kRes: return "ReqRes";
    case ReqType::kLoan: return "ReqLoan";
  }
  return "?";
}

/// One request record; doubles as the entry type of wQueue/wLoan.
struct ReqItem {
  ResourceId r = kNoResource;
  SiteId sinit = kNoSite;   ///< original requester
  ReqType type = ReqType::kCnt;
  bool single_resource = false;  ///< §4.6.1: ReqCnt doubling as ReqRes
  RequestId id = 0;         ///< requester's CS request number
  double mark = 0.0;        ///< A(counter vector); meaningful for Res/Loan
  ResourceSet missing;      ///< ReqLoan only: resources the requester misses

  /// Total order `/` (§3.3.2): (mark, site id) lexicographic.
  [[nodiscard]] bool precedes(const ReqItem& other) const {
    return request_precedes(mark, sinit, other.mark, other.sinit);
  }

  [[nodiscard]] std::size_t wire_size() const {
    return 26 + (type == ReqType::kLoan ? (missing.universe_size() + 7) / 8 : 0);
  }
};

/// Queue of requests kept sorted by the `/` total order.
///
/// At most one live entry per site (hypothesis 4: one outstanding request per
/// process); insertion replaces an older entry from the same site.
class SortedRequestQueue {
 public:
  using Items = core::SmallVector<ReqItem, 1>;

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const ReqItem& head() const { return items_.front(); }
  [[nodiscard]] const Items& items() const { return items_; }

  /// Inserts keeping `/` order. If an entry from the same site exists:
  /// a newer id replaces it, an older or equal id is ignored.
  /// Returns true when the queue changed.
  bool insert(const ReqItem& item);

  /// Removes and returns the head. Precondition: !empty().
  ReqItem pop_head();

  /// Removes any entry from `site`; returns true if one was removed.
  bool remove_site(SiteId site);

  /// Drops entries already satisfied according to the token's ids (id <=
  /// last CS id of their site). Used to prune stale records when a token is
  /// received.
  void prune_obsolete(const SiteRequestIds& ids);

  [[nodiscard]] bool contains_site(SiteId site) const;

  void clear() { items_.clear(); }

  [[nodiscard]] std::size_t wire_size() const {
    std::size_t s = 4;
    for (const auto& it : items_) s += it.wire_size();
    return s;
  }

 private:
  Items items_;  // sorted by (mark, sinit)
};

/// The token associated with one resource (unique system-wide).
struct LassToken {
  ResourceId r = kNoResource;
  int num_sites = 0;             ///< dense extent, kept for wire accounting
  CounterValue counter = 1;      ///< next value to hand out
  SiteRequestIds ids;            ///< sparse: last ReqCnt / CS ids per site
  SortedRequestQueue wqueue;     ///< pending ReqRes, `/`-ordered
  SortedRequestQueue wloan;      ///< pending ReqLoan, `/`-ordered
  SiteId lender = kNoSite;       ///< set while the token is lent

  LassToken() = default;
  LassToken(ResourceId resource, int sites) : r(resource), num_sites(sites) {}

  [[nodiscard]] RequestId last_req_cnt(SiteId site) const {
    return ids_of(ids, site).req_cnt;
  }
  [[nodiscard]] RequestId last_cs(SiteId site) const {
    return ids_of(ids, site).cs;
  }
  void set_last_req_cnt(SiteId site, RequestId id) { ids[site].req_cnt = id; }
  void set_last_cs(SiteId site, RequestId id) { ids[site].cs = id; }

  /// Wire bytes of the dense encoding (header + two full per-site id
  /// vectors + both queues) — identical to the pre-sparse layout.
  [[nodiscard]] std::size_t wire_size() const {
    return 16 + static_cast<std::size_t>(num_sites) * 16 +
           wqueue.wire_size() + wloan.wire_size();
  }
};

}  // namespace mra::algo::lass
