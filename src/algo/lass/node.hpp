// The paper's algorithm: decentralized multi-resource allocation with
// per-resource counter tokens, the `/` total order, dynamic re-scheduling and
// the loan mechanism (§3, §4, Annex A).
//
// This class is a line-faithful translation of the Annex A pseudo-code; the
// few deviations (all defensive) are marked `// [deviation N]` in node.cpp
// and listed in DESIGN.md §5.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "algo/lass/messages.hpp"
#include "algo/lass/token.hpp"
#include "check/mutant.hpp"
#include "core/allocator.hpp"
#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/resource_map.hpp"
#include "core/small_vector.hpp"

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

/// What every site of one LASS system shares: the configuration (the mark
/// policy A included) and the three §4.2.2 aggregation outboxes, the bundle
/// under construction per destination, sorted by destination (= std::map
/// send order). Bundles are built in place, so a flush hands them to the
/// network without copying items.
///
/// The outboxes are shared because they are empty between entry points:
/// each of on_message(), do_request() and do_release() flushes what it
/// buffered before it returns, and no entry point of a node runs while
/// another node of the same system is inside one (drivers schedule
/// request() and release(), never call them from a grant callback). A
/// system owns one context (algo::AllocationSystem), which must outlive its
/// nodes.
class LassContext {
 public:
  /// Throws std::invalid_argument unless num_sites and num_resources are
  /// positive.
  explicit LassContext(const LassConfig& config);
  LassContext(const LassContext&) = delete;
  LassContext& operator=(const LassContext&) = delete;

  [[nodiscard]] const LassConfig& config() const { return cfg_; }
  /// No bundle is buffered: true whenever no handler is running.
  [[nodiscard]] bool outboxes_empty() const {
    return req_buf_.empty() && cnt_buf_.empty() && tok_buf_.empty();
  }

 private:
  friend class LassNode;
  template <typename Msg>
  using Outbox = core::FlatMap<SiteId, std::unique_ptr<Msg>, 2>;
  template <typename Msg>
  static Msg& bundle(Outbox<Msg>& box, SiteId dst) {
    std::unique_ptr<Msg>& slot = box[dst];
    if (slot == nullptr) slot = std::make_unique<Msg>();
    return *slot;
  }

  LassConfig cfg_;
  Outbox<RequestBundleMsg> req_buf_;
  Outbox<CounterBundleMsg> cnt_buf_;
  Outbox<TokenBundleMsg> tok_buf_;
};

/// One site running the algorithm.
class LassNode final : public AllocatorNode {
 public:
  /// `context` is the system's; it must outlive the node.
  explicit LassNode(LassContext& context);
  ~LassNode() override;
  LassNode(const LassNode&) = delete;
  LassNode& operator=(const LassNode&) = delete;

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
  /// The counter block: the current request's counters in ascending
  /// resource order (0 until known), one per resource of current_request().
  [[nodiscard]] std::span<const CounterValue> request_counters() const {
    return {counters_, current_.size()};
  }
  /// The dense counter vector the block stands for: entry r is r's counter,
  /// 0 where r is not requested; empty before the site's first request.
  [[nodiscard]] CounterVector counter_vector() const;
  /// A(counters) of the current request (memoised, see mark()).
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
  [[nodiscard]] const LassConfig& cfg() const { return ctx_->config(); }
  /// Father of r's tree (kNoSite: this site is the root). The table is
  /// built on first use, filled with the Annex A initial value: the elected
  /// node, or kNoSite at the elected node itself (§13).
  [[nodiscard]] SiteId& tok_dir(ResourceId r) {
    if (tok_dir_ == nullptr) build_tok_dir();
    return tok_dir_[static_cast<std::size_t>(r)];
  }
  void build_tok_dir();
  [[nodiscard]] ReqItem my_res_request(ResourceId r) const;
  [[nodiscard]] bool is_obsolete(const ReqItem& req) const;

  /// A(counters), computed on first use after a change. Every write to the
  /// counter block goes through set_my_counter() or reset_counters(), which
  /// clear the cache, and do_release() clears it with current_ (DESIGN.md
  /// §3).
  [[nodiscard]] double mark() const {
    if (!mark_valid_) {
      mark_cache_ = mark_of(cfg().mark_policy, request_counters());
      mark_valid_ = true;
    }
    return mark_cache_;
  }
  void set_my_counter(ResourceId r, CounterValue value) {
    if (!current_.contains(r)) {
      // Only a premature-entry mutant site can learn a counter after its
      // release; the request it belonged to has no slot any more.
      assert(check::mutant_enabled(check::Mutant::kLassPrematureEntry));
      return;
    }
    counters_[current_.rank(r)] = value;
    mark_valid_ = false;
  }
  /// Zeroes one counter per resource of current_ (a fresh request).
  void reset_counters();

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
  /// Debug check at every exit of an entry point (see LassContext).
  void assert_outboxes_empty() const {
    assert(ctx_->outboxes_empty() && "a handler left a bundle buffered");
  }

  LassContext* ctx_;  // the system's configuration and outboxes

  // -- local variables (Annex A, Figure 9) ------------------------------------
  // Per-site memory budget (DESIGN.md §13): O(1) per site plus the state
  // actually touched. The father table and the counter block are built on
  // first use; a site holds 8-byte handles to only the tokens it owns, and
  // of a token that left it keeps just a view of its ids (an epoch in the
  // token's shared id log); the request history holds live entries only.
  // Annex A's TRequired is current_ (AllocatorNode), the current request.
  ProcessState state_ = ProcessState::kIdle;
  /// Room in counters_: 0 before the first request, then min(M, 16), grown
  /// once to M by the first larger request.
  std::uint32_t counter_capacity_ = 0;
  std::unique_ptr<SiteId[]> tok_dir_;  // father per resource, see tok_dir()
  /// The counter block, a container-pool block of counter_capacity_
  /// entries; the first |current_| are the current request's counters,
  /// indexed by the resource's rank in current_.
  CounterValue* counters_ = nullptr;
  core::ResourceMap<TokenBox> held_;   // exactly the tokens in t_owned_
  core::ResourceMap<DepartedIds> departed_;  // ids each token left with
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

  // -- stats -------------------------------------------------------------------
  std::uint64_t loans_used_ = 0;
  std::uint64_t loans_failed_ = 0;
};

}  // namespace mra::algo::lass
