// The per-resource token of the paper's algorithm (Annex A, Figure 8, Token)
// and the request records stored in its queues.
//
// Memory layout (DESIGN.md §3 and §13): the paper's token carries two
// per-site id vectors (last ReqCnt served, last CS satisfied). Stored densely
// that is 16 bytes x N sites x M resources per site — the ~1.3 MB/site
// blocker at N = 1024. Both vectors start all-zero and only the handful of
// sites that ever touched this token get non-zero entries, so they are
// stored sparsely: an absent site reads as 0 for each, exactly the dense
// initial value (request ids start at 1, so obsolescence tests on absent
// sites are always false), and one lookup answers both. The sparse store is
// an IdLog shared with the read-only views the token leaves at the sites it
// departs from (Annex A's `last_tok`), so a hand-off copies no ids. The
// token itself is one pooled block that sites and bundles pass by an
// 8-byte owning handle (TokenBox), so a hand-off does not move the token
// either. `wire_size()` still charges the dense encoding — the simulated
// message-byte accounting must not depend on the in-memory representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

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

/// The largest site count for which an IdLog keeps a dense site -> position
/// index beside its sorted current ids. Below it the index costs 2 bytes
/// per site per token (160 B per site at M = 80); above it a lookup is a
/// binary search. The cut exists because a 32-bit index at every site
/// count raised bigscale-lass's (N = 50,000) `rss_peak_mb` from 82.5 to
/// 98.6 MB for a `wall_s` ratio of 0.983 that 10 pairs did not resolve
/// (DESIGN.md §13).
inline constexpr int kIdIndexMaxSites = 2048;

/// The per-site ids of one token, with the past versions its departed views
/// still read: a partially persistent map in the "fat node" style
/// (Driscoll, Sarnak, Sleator & Tarjan, "Making Data Structures Persistent",
/// JCSS 1989).
///
/// Every departure of the token opens a view at the current epoch and
/// advances the epoch; every write is stamped with the epoch it happens in.
/// The current ids sit in an array sorted by site. For a token of at most
/// kIdIndexMaxSites sites the log also keeps, per site, the position of its
/// entry, so a read is one index load; above the cut it is one binary
/// search. A write changes a site's ids in place unless a live view can
/// read them; then the old version is appended to a log of past versions,
/// with the span of epochs it was current in, and the site's entry links
/// to it. A view reads a site by following those links back to the newest
/// version stamped at or before its epoch. A view dies when its site gets
/// the token back (or is destroyed). The past versions only it could read
/// are then garbage; the log finds them from its epoch order, and drops
/// all garbage in one pass once it outnumbers the entries that are read.
/// So the log never holds more than twice the entries its token and live
/// views can read (`readable_entries()`).
///
/// The log is shared by its token (TokenIds) and its views (DepartedIds);
/// it frees itself, back to the container pool, once the token and every
/// view are gone. Not thread-safe: one simulation owns it on one thread.
class IdLog {
 public:
  using Epoch = std::uint64_t;

  IdLog(const IdLog&) = delete;
  IdLog& operator=(const IdLog&) = delete;

  /// The token's current ids of `site`.
  [[nodiscard]] SiteIds current(SiteId site) const;
  /// The ids of `site` as they were when the view at `epoch` opened.
  [[nodiscard]] SiteIds at(SiteId site, Epoch epoch) const;

  /// Versions stored, current and past (tests).
  [[nodiscard]] std::size_t size() const {
    return heads_.size() + past_.size();
  }
  /// Versions the token or a live view reads: every current one, and each
  /// past one whose span holds a live view's epoch. O(size log views);
  /// tests.
  [[nodiscard]] std::size_t readable_entries() const;
  /// Past versions counted as read by no live view, kept until the next
  /// compaction (tests: it must equal size() - readable_entries()).
  [[nodiscard]] std::size_t garbage() const { return garbage_; }
  /// True when reads go through the site -> position index (tests).
  [[nodiscard]] bool indexed() const { return index_ != nullptr; }

 private:
  friend class TokenIds;
  friend class DepartedIds;

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr Epoch kLatest = ~Epoch{0};

  /// A site's current ids; `prev` indexes its newest past version.
  struct Head {
    SiteId site;
    std::uint32_t prev;
    Epoch stamp;  ///< epoch of the write that made this version
    SiteIds ids;
  };
  /// A version that was current over the epochs [stamp, until).
  struct Past {
    std::uint32_t prev;
    Epoch stamp;
    Epoch until;
    SiteIds ids;
  };

  IdLog() = default;
  ~IdLog() = default;

  /// A fresh log owned by a token of `num_sites` sites, indexed when
  /// 0 < num_sites <= kIdIndexMaxSites (pooled: DESIGN.md §13).
  static IdLog* create(int num_sites);
  static void destroy(IdLog* log);
  /// A fresh token-owned log, laid out as this one, holding for each site
  /// what a view at `epoch` reads (the current ids for kLatest).
  [[nodiscard]] IdLog* copy_at(Epoch epoch) const;

  /// Index of the first current entry whose site is not below `site`.
  [[nodiscard]] std::size_t lower(SiteId site) const;
  [[nodiscard]] const Head* find(SiteId site) const;
  [[nodiscard]] Head* find(SiteId site) {
    return const_cast<Head*>(std::as_const(*this).find(site));
  }
  /// Inserts site's first entry at its sorted place; renumbers the index
  /// entries of the heads it shifts.
  Head& insert_head(SiteId site);
  /// The version of h's site current at `epoch`; null before its first
  /// write.
  [[nodiscard]] const SiteIds* version_at(const Head& h, Epoch epoch) const;
  template <typename Fn>
  void update(SiteId site, Fn&& write);
  /// Opens a view at the current epoch and advances it.
  Epoch open_view();
  void close_view(Epoch epoch);
  /// The token lets go; the log lives on while a view reads it.
  void drop_token();
  void compact();
  /// True when a live view's epoch falls in [from, until).
  [[nodiscard]] bool viewed(Epoch from, Epoch until) const;

  core::SmallVector<Head, 2> heads_;   // sorted by site
  core::SmallVector<Past, 1> past_;    // in append order, so by `until`
  core::SmallVector<Epoch, 2> views_;  // live view epochs, ascending
  Epoch epoch_ = 0;
  std::size_t garbage_ = 0;  // past versions no live view reads
  // Indexed layout: index_[site] is the position of site's head + 1, or 0
  // when it has none; index_size_ sites. Null (and 0) above the cut.
  std::uint16_t* index_ = nullptr;
  std::uint16_t index_size_ = 0;
  bool token_alive_ = true;
};

/// A departed token's ids as they were when it left a site: an epoch in the
/// token's IdLog. Move-only; destroying it closes the view.
class DepartedIds {
 public:
  DepartedIds() = default;
  DepartedIds(const DepartedIds&) = delete;
  DepartedIds& operator=(const DepartedIds&) = delete;
  DepartedIds(DepartedIds&& other) noexcept
      : log_(std::exchange(other.log_, nullptr)), epoch_(other.epoch_) {}
  DepartedIds& operator=(DepartedIds&& other) noexcept {
    if (this != &other) {
      close();
      log_ = std::exchange(other.log_, nullptr);
      epoch_ = other.epoch_;
    }
    return *this;
  }
  ~DepartedIds() { close(); }

  [[nodiscard]] SiteIds get(SiteId site) const {
    return log_ == nullptr ? SiteIds{} : log_->at(site, epoch_);
  }

 private:
  friend class TokenIds;
  DepartedIds(IdLog* log, IdLog::Epoch epoch) : log_(log), epoch_(epoch) {}
  void close() {
    if (log_ != nullptr) std::exchange(log_, nullptr)->close_view(epoch_);
  }

  IdLog* log_ = nullptr;  // null: the token had no ids when it left
  IdLog::Epoch epoch_ = 0;
};

/// The token's handle on its IdLog, built on the first write and laid out
/// for the `num_sites` that write passes (the token's site count). A copy
/// gets a log of its own, laid out as the source's, holding the current ids
/// and no views, so a copy of a token (LassNode::token_snapshot) never
/// aliases the live token's log.
class TokenIds {
 public:
  TokenIds() = default;
  TokenIds(const TokenIds& other);
  TokenIds& operator=(const TokenIds& other) {
    if (this != &other) *this = TokenIds(other);
    return *this;
  }
  TokenIds(TokenIds&& other) noexcept
      : log_(std::exchange(other.log_, nullptr)) {}
  TokenIds& operator=(TokenIds&& other) noexcept {
    if (this != &other) {
      release();
      log_ = std::exchange(other.log_, nullptr);
    }
    return *this;
  }
  ~TokenIds() { release(); }

  /// The ids a departed view holds, as a token-owned copy.
  [[nodiscard]] static TokenIds copy_of(const DepartedIds& view);

  [[nodiscard]] SiteIds get(SiteId site) const {
    return log_ == nullptr ? SiteIds{} : log_->current(site);
  }
  void set_req_cnt(SiteId site, RequestId id, int num_sites);
  void set_cs(SiteId site, RequestId id, int num_sites);

  /// A view of the ids as they are now, for the site the token leaves.
  [[nodiscard]] DepartedIds depart();

  /// The log; null before the first write (tests).
  [[nodiscard]] const IdLog* log() const { return log_; }

 private:
  explicit TokenIds(IdLog* log) : log_(log) {}
  IdLog& writable_log(int num_sites);
  void release() {
    if (log_ != nullptr) std::exchange(log_, nullptr)->drop_token();
  }

  IdLog* log_ = nullptr;
};

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

/// A ReqItem as a site's request history keeps it (Annex A's local pending
/// requests): without its resource, which keys the history, and without a
/// loan's `missing` set, which the history keeps out of line — only a
/// ReqLoan has one.
struct HistoryEntry {
  SiteId sinit = kNoSite;
  ReqType type = ReqType::kCnt;
  bool single_resource = false;
  RequestId id = 0;
  double mark = 0.0;

  [[nodiscard]] static HistoryEntry of(const ReqItem& req) {
    return {req.sinit, req.type, req.single_resource, req.id, req.mark};
  }
  /// The ReqItem for resource r, with an empty `missing` set.
  [[nodiscard]] ReqItem item(ResourceId r) const {
    ReqItem req;
    req.r = r;
    req.sinit = sinit;
    req.type = type;
    req.single_resource = single_resource;
    req.id = id;
    req.mark = mark;
    return req;
  }
};
static_assert(sizeof(HistoryEntry) == 24);

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
  void prune_obsolete(const TokenIds& ids);

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
  TokenIds ids;                  ///< sparse: last ReqCnt / CS ids per site
  SortedRequestQueue wqueue;     ///< pending ReqRes, `/`-ordered
  SortedRequestQueue wloan;      ///< pending ReqLoan, `/`-ordered
  SiteId lender = kNoSite;       ///< set while the token is lent

  LassToken() = default;
  LassToken(ResourceId resource, int sites) : r(resource), num_sites(sites) {}

  [[nodiscard]] RequestId last_req_cnt(SiteId site) const {
    return ids.get(site).req_cnt;
  }
  [[nodiscard]] RequestId last_cs(SiteId site) const {
    return ids.get(site).cs;
  }
  void set_last_req_cnt(SiteId site, RequestId id) {
    ids.set_req_cnt(site, id, num_sites);
  }
  void set_last_cs(SiteId site, RequestId id) {
    ids.set_cs(site, id, num_sites);
  }

  /// Wire bytes of the dense encoding (header + two full per-site id
  /// vectors + both queues) — identical to the pre-sparse layout.
  [[nodiscard]] std::size_t wire_size() const {
    return 16 + static_cast<std::size_t>(num_sites) * 16 +
           wqueue.wire_size() + wloan.wire_size();
  }
};

/// Returns a token's block to the container pool.
struct TokenDeleter {
  void operator()(LassToken* token) const noexcept;
};

/// An owning handle to a token in one pooled block (DESIGN.md §3, "Token
/// hand-off"). Sites and bundles pass the handle, so the token stays where
/// make_token() built it until it is destroyed.
using TokenBox = std::unique_ptr<LassToken, TokenDeleter>;
static_assert(sizeof(TokenBox) == sizeof(LassToken*));

/// A fresh LassToken(resource, sites) in a block from the container pool.
[[nodiscard]] TokenBox make_token(ResourceId resource, int sites);

}  // namespace mra::algo::lass
