// The paper's algorithm: decentralized multi-resource allocation with
// per-resource counter tokens, the `/` total order, dynamic re-scheduling and
// the loan mechanism (§3, §4, Annex A).
//
// This class is a line-faithful translation of the Annex A pseudo-code; the
// few deviations (all defensive) are marked `// [deviation N]` in node.cpp
// and listed in DESIGN.md §5.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "algo/lass/messages.hpp"
#include "algo/lass/token.hpp"
#include "core/allocator.hpp"
#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/resource_map.hpp"
#include "core/small_vector.hpp"
#include "core/trace.hpp"

namespace mra::algo::lass {

/// Tuning knobs of the algorithm.
struct LassConfig {
  int num_sites = 0;
  int num_resources = 0;

  /// Scheduling policy A (§3.3.2). Paper's evaluation: average of non-zero.
  MarkPolicy mark_policy = MarkPolicy::kAverageNonZero;

  /// Loan mechanism (§3.4, §4.5). The paper's "with loan" variant uses
  /// threshold 1: ask a loan when exactly one resource is missing. We
  /// generalise to "at most loan_threshold missing" for the §6 ablation.
  bool enable_loan = false;
  int loan_threshold = 1;

  /// §4.6.1: single-resource requests skip the counter round-trip.
  bool opt_single_resource = true;

  /// §4.6.2: stop forwarding a ReqRes at a site that is certain to obtain
  /// the token before the requester.
  bool opt_stop_forwarding = true;

  /// Site initially holding every token (the paper's elected_node).
  SiteId elected_node = 0;
};

/// One site running the algorithm.
class LassNode final : public AllocatorNode {
 public:
  LassNode(const LassConfig& config, Trace* trace = nullptr);

  // AllocatorNode interface -------------------------------------------------
  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  // Introspection for tests / invariant checks ------------------------------
  [[nodiscard]] const ResourceSet& owned_tokens() const { return t_owned_; }
  [[nodiscard]] const ResourceSet& lent_resources() const { return t_lent_; }
  /// The site's view of r's token, as a copy: the token itself while held,
  /// else a fresh LassToken(r, N) carrying the ids r last left this site
  /// with (none if it never did) and no queued requests. The copy has an
  /// id log of its own.
  [[nodiscard]] LassToken token_snapshot(ResourceId r) const;
  /// The held token of r itself, or nullptr (tests: its id log's bound).
  /// A hand-off moves the token's handle, not the token, so the next
  /// holder returns the same pointer.
  [[nodiscard]] const LassToken* held_token(ResourceId r) const {
    const TokenBox* t = held_.find(r);
    return t == nullptr ? nullptr : t->get();
  }
  [[nodiscard]] bool loan_asked() const { return loan_asked_; }
  /// Counters of the current request; empty before the site's first one.
  [[nodiscard]] const CounterVector& counter_vector() const { return my_vector_; }
  /// A(counter vector) of the current request (memoised, see mark()).
  [[nodiscard]] double current_mark() const { return mark(); }
  /// Number of CS entries that completed via a loan.
  [[nodiscard]] std::uint64_t loans_used() const { return loans_used_; }
  [[nodiscard]] std::uint64_t loans_failed() const { return loans_failed_; }

 private:
  // -- helpers mirroring the pseudo-code procedures --------------------------
  [[nodiscard]] bool owns(ResourceId r) const { return t_owned_.contains(r); }
  /// The held token of r. Precondition: owns(r). held_ stores handles and
  /// the token never moves, so the reference stays valid while other
  /// tokens arrive or leave; once send_token(r) ships r, it refers to the
  /// next holder's token.
  [[nodiscard]] LassToken& tok(ResourceId r) {
    TokenBox* t = held_.find(r);
    assert(t != nullptr);
    return **t;
  }
  /// Father of r's tree (kNoSite: this site is the root). The table is
  /// built on first use, filled with the Annex A initial value: the elected
  /// node, or kNoSite at the elected node itself (§13).
  [[nodiscard]] SiteId& tok_dir(ResourceId r) {
    if (tok_dir_.empty()) {
      tok_dir_.assign(static_cast<std::size_t>(cfg_.num_resources),
                      id() == cfg_.elected_node ? kNoSite : cfg_.elected_node);
    }
    return tok_dir_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] ReqItem my_res_request(ResourceId r) const;
  [[nodiscard]] bool is_obsolete(const ReqItem& req) const;

  /// A(my_vector_), computed on first use after a change. Every write to
  /// my_vector_ goes through set_my_counter() or reset_my_vector(), which
  /// clear the cache (DESIGN.md §3).
  [[nodiscard]] double mark() const {
    if (!mark_valid_) {
      mark_cache_ = mark_fn_(my_vector_);
      mark_valid_ = true;
    }
    return mark_cache_;
  }
  void set_my_counter(ResourceId r, CounterValue value) {
    my_vector_[static_cast<std::size_t>(r)] = value;
    mark_valid_ = false;
  }
  void reset_my_vector();

  /// Owned token ids at this instant, on the stack: the loops that ship
  /// tokens while walking the owned set iterate this copy.
  using OwnedSnapshot = core::SmallVector<ResourceId, 128>;
  [[nodiscard]] OwnedSnapshot owned_snapshot() const;

  void process_request_item(const ReqItem& req,
                            std::span<const SiteId> visited);
  /// Appends req to r's request history (Annex A's pending requests).
  void remember(const ReqItem& req);
  void handle_res_request_as_owner(const ReqItem& req);
  CounterValue assign_counter(const ReqItem& req);
  void reply_counter(const ReqItem& req);
  void process_req_loan(const ReqItem& req);
  [[nodiscard]] bool can_lend(const ReqItem& req) const;
  void process_update(TokenBox token);
  void process_cnt_needed_empty();
  void serve_queues_after_token();
  void maybe_initiate_loan();
  void enter_cs();
  void send_token(SiteId dst, ResourceId r);

  // -- buffered sends (aggregation mechanism, §4.2.2) ------------------------
  void buffer_request(SiteId dst, ReqItem item);
  void buffer_counter(SiteId dst, ResourceId r, CounterValue value);
  void flush_requests(std::span<const SiteId> visited);
  /// flush_requests() for a bundle that starts here (visited = {self}).
  void flush_own_requests();
  void flush_responses();

  /// True when trace lines are recorded; callers build the text only then.
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled() && network_ != nullptr;
  }
  void trace(const std::string& what);

  // -- configuration ----------------------------------------------------------
  LassConfig cfg_;
  MarkFunction mark_fn_;
  Trace* trace_ = nullptr;

  // -- local variables (Annex A, Figure 9) ------------------------------------
  // Per-site memory budget (DESIGN.md §13): O(1) per site plus the state
  // actually touched. The O(M) tables are built on first use; a site holds
  // 8-byte handles to only the tokens it owns, and of a token that left it
  // keeps just a view of its ids (an epoch in the token's shared id log);
  // the request history and the aggregation buffers hold live entries only.
  ProcessState state_ = ProcessState::kIdle;
  std::vector<SiteId> tok_dir_;        // father per resource, see tok_dir()
  CounterVector my_vector_;            // counters of the current request
  core::ResourceMap<TokenBox> held_;   // exactly the tokens in t_owned_
  core::ResourceMap<DepartedIds> departed_;  // ids each token left with
  ResourceSet t_required_;             // current request (== current_)
  ResourceSet t_owned_;                // owned tokens
  ResourceSet cnt_needed_;             // counters not yet received
  core::ResourceMap<core::SmallVector<HistoryEntry, 1>>
      pending_req_;                    // local request history, sparse
  /// The `missing` sets of the ReqLoans in pending_req_, in history order:
  /// (resource, set). Loans are rare, so they stay out of line.
  std::vector<std::pair<ResourceId, ResourceSet>> pending_loans_;
  ResourceSet t_lent_;                 // resources lent out
  mutable double mark_cache_ = 0.0;    // mark() memo, valid iff mark_valid_
  mutable bool mark_valid_ = false;
  bool loan_asked_ = false;
  bool single_res_registered_ = false;  // §4.6.1 bookkeeping

  // -- aggregation buffers: the bundle under construction per destination,
  // sorted by destination (= std::map send order). Bundles are built in
  // place, so a flush hands them to the network without copying items. -----
  template <typename Msg>
  using Outbox = core::FlatMap<SiteId, std::unique_ptr<Msg>, 2>;
  template <typename Msg>
  static Msg& bundle(Outbox<Msg>& box, SiteId dst) {
    std::unique_ptr<Msg>& slot = box[dst];
    if (slot == nullptr) slot = std::make_unique<Msg>();
    return *slot;
  }
  Outbox<RequestBundleMsg> req_buf_;
  Outbox<CounterBundleMsg> cnt_buf_;
  Outbox<TokenBundleMsg> tok_buf_;

  // -- stats -------------------------------------------------------------------
  std::uint64_t loans_used_ = 0;
  std::uint64_t loans_failed_ = 0;
};

}  // namespace mra::algo::lass
