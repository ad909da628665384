#include "algo/lass/node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo::lass {

namespace {

/// Counters a site's first block holds: a request of up to φ = 16
/// resources fits (every registry scenario but paper-phi80); a larger one
/// moves the site to a block of M.
constexpr std::size_t kCounterBlock = 16;

}  // namespace

LassContext::LassContext(const LassConfig& config) : cfg_(config) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument("LassConfig: num_sites and num_resources must be positive");
  }
}

LassNode::LassNode(LassContext& context)
    : ctx_(&context),
      t_owned_(cfg().num_resources),
      cnt_needed_(cfg().num_resources),
      t_lent_(cfg().num_resources) {
  current_ = ResourceSet(cfg().num_resources);
}

LassNode::~LassNode() {
  if (counters_ != nullptr) {
    core::container_spill_deallocate(counters_,
                                     counter_capacity_ * sizeof(CounterValue));
  }
}

void LassNode::on_start() {
  // Initialization (Annex A, lines 45-67): the elected node owns every
  // token; everyone else points its father at the elected node. Only the
  // elected node holds token state up front. The father table (tok_dir())
  // and the counter block (do_request()) are built on first use with the
  // values eager initialization gives them, so an idle site allocates
  // nothing per resource (§13, "lazy equals eager").
  tok_dir_.reset();
  held_.clear();
  departed_.clear();
  if (id() == cfg().elected_node) {
    for (ResourceId r = 0; r < cfg().num_resources; ++r) {
      (void)held_.try_emplace(r, make_token(r, cfg().num_sites));
      t_owned_.insert(r);
    }
  }
}

void LassNode::build_tok_dir() {
  const auto m = static_cast<std::size_t>(cfg().num_resources);
  tok_dir_ = std::make_unique_for_overwrite<SiteId[]>(m);
  std::fill_n(tok_dir_.get(), m,
              id() == cfg().elected_node ? kNoSite : cfg().elected_node);
}

LassToken LassNode::token_snapshot(ResourceId r) const {
  if (const LassToken* t = held_token(r)) return *t;
  LassToken view(r, cfg().num_sites);
  if (const DepartedIds* ids = departed_.find(r)) {
    view.ids = TokenIds::copy_of(*ids);
  }
  return view;
}

CounterVector LassNode::counter_vector() const {
  if (counters_ == nullptr) return {};
  CounterVector dense(static_cast<std::size_t>(cfg().num_resources), 0);
  const CounterValue* counter = counters_;
  current_.for_each(
      [&](ResourceId r) { dense[static_cast<std::size_t>(r)] = *counter++; });
  return dense;
}

void LassNode::reset_counters() {
  const std::size_t n = current_.size();
  if (n > counter_capacity_) {
    // At most two blocks per site: kCounterBlock counters (M if smaller),
    // then M.
    const auto m = static_cast<std::size_t>(cfg().num_resources);
    const std::size_t small = std::min(m, kCounterBlock);
    const std::size_t capacity = n <= small ? small : m;
    if (counters_ != nullptr) {
      core::container_spill_deallocate(
          counters_, counter_capacity_ * sizeof(CounterValue));
    }
    counters_ = static_cast<CounterValue*>(
        core::container_spill_allocate(capacity * sizeof(CounterValue)));
    counter_capacity_ = static_cast<std::uint32_t>(capacity);
  }
  std::fill_n(counters_, n, CounterValue{0});
  mark_valid_ = false;
}

LassNode::OwnedSnapshot LassNode::owned_snapshot() const {
  OwnedSnapshot ids;
  t_owned_.for_each([&](ResourceId r) { ids.push_back(r); });
  return ids;
}

ReqItem LassNode::my_res_request(ResourceId r) const {
  ReqItem item;
  item.type = ReqType::kRes;
  item.r = r;
  item.sinit = id();
  item.id = request_seq_;
  item.mark = mark();
  return item;
}

bool LassNode::is_obsolete(const ReqItem& req) const {
  // §4.2.1: a request is obsolete when the locally known ids of r's token
  // show it has already been served: the held token's, else the ids it
  // last left this site with. last_cs / last_req_cnt only grow, so departed
  // ids can only under-approximate obsolescence — safe. A token never held
  // here knows no ids, and ids start at 1: never obsolete.
  SiteIds ids;
  if (const LassToken* held = held_token(req.r)) {
    ids = held->ids.get(req.sinit);
  } else if (const DepartedIds* departed = departed_.find(req.r)) {
    ids = departed->get(req.sinit);
  } else {
    return false;
  }
  return req.id <= ids.cs ||
         (req.type == ReqType::kCnt && req.id <= ids.req_cnt);
}

// ---------------------------------------------------------------------------
// Request_CS (Annex A, lines 68-84)
// ---------------------------------------------------------------------------
void LassNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty() && "empty resource request");
  ++request_seq_;
  current_ = resources;
  reset_counters();
  state_ = ProcessState::kWaitS;
  cnt_needed_.clear();
  single_res_registered_ = false;

  const bool single_res_opt =
      cfg().opt_single_resource && resources.size() == 1;

  resources.for_each([&](ResourceId r) {
    if (owns(r)) {
      // We hold the token: reserve and increment the counter locally.
      LassToken& t = tok(r);
      set_my_counter(r, t.counter);
      ++t.counter;
    } else {
      cnt_needed_.insert(r);
      ReqItem item;
      item.type = ReqType::kCnt;
      item.r = r;
      item.sinit = id();
      item.id = request_seq_;
      if (single_res_opt) {
        // §4.6.1: the holder will treat this ReqCnt as a ReqRes as well, so
        // we must not send a separate ReqRes when the counter arrives.
        item.single_resource = true;
        single_res_registered_ = true;
      }
      buffer_request(tok_dir(r), item);
    }
  });
  flush_own_requests();

  if (current_.subset_of(t_owned_)) {
    enter_cs();
  }
  assert_outboxes_empty();
}

// ---------------------------------------------------------------------------
// Release_CS (Annex A, lines 85-101)
// ---------------------------------------------------------------------------
void LassNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  loan_asked_ = false;

  current_.for_each([&](ResourceId r) {
    assert(owns(r) ||
           check::mutant_enabled(check::Mutant::kLassPrematureEntry));
    if (!owns(r)) return;  // premature-entry mutant: r never arrived
    LassToken& t = tok(r);
    t.set_last_cs(id(), request_seq_);
    const SiteId lender = t.lender;
    if (lender != kNoSite && lender != id()) {
      // Borrowed token: return it straight to the lender (line 95-98). Any
      // queued request from the lender is dropped — it gets the token itself.
      t.wqueue.remove_site(lender);
      t.lender = kNoSite;
      send_token(lender, r);
    } else if (!t.wqueue.empty()) {
      if (check::mutant_enabled(check::Mutant::kLassDropRelease)) {
        // Seeded bug: keep the token instead of serving the queue — the
        // queued requester starves (deadlock/starvation oracles).
        return;
      }
      t.lender = kNoSite;
      const ReqItem head = t.wqueue.pop_head();
      send_token(head.sinit, r);
    }
    // else: keep the token (we stay root of r's tree).
  });

  current_.clear();
  mark_valid_ = false;  // no counters now: A of an empty block
  flush_responses();
  assert_outboxes_empty();
}

void LassNode::enter_cs() {
  assert(current_.subset_of(t_owned_) ||
         check::mutant_enabled(check::Mutant::kLassPrematureEntry));
  state_ = ProcessState::kInCS;
  bool via_loan = false;
  current_.for_each([&](ResourceId r) {
    const LassToken* t = held_token(r);
    if (t != nullptr && t->lender != kNoSite && t->lender != id()) {
      via_loan = true;
    }
  });
  if (via_loan) ++loans_used_;
  notify_granted();
}

// ---------------------------------------------------------------------------
// SendToken (Annex A, lines 102-107)
// ---------------------------------------------------------------------------
void LassNode::send_token(SiteId dst, ResourceId r) {
  assert(owns(r));
  assert(dst != id() && "token sent to self");
  // The token's handle moves into the bundle; only a view of its ids stays
  // behind, for is_obsolete() (DESIGN.md §3, "Token hand-off").
  TokenBox& t = *held_.find(r);
  [[maybe_unused]] const bool fresh =
      departed_.try_emplace(r, t->ids.depart()).second;
  assert(fresh && "a held token has no departed ids");
  LassContext::bundle(ctx_->tok_buf_, dst).items.push_back(std::move(t));
  held_.erase(r);
  tok_dir(r) = dst;
  t_owned_.erase(r);
}

// ---------------------------------------------------------------------------
// processCntNeededEmpty (Annex A, lines 108-116)
// ---------------------------------------------------------------------------
void LassNode::process_cnt_needed_empty() {
  assert(state_ == ProcessState::kWaitS && cnt_needed_.empty());
  state_ = ProcessState::kWaitCS;
  current_.for_each([&](ResourceId r) {
    if (!owns(r)) {
      if (single_res_registered_) return;  // §4.6.1: already registered
      buffer_request(tok_dir(r), my_res_request(r));
    }
  });
  flush_own_requests();
}

// ---------------------------------------------------------------------------
// canLend (Annex A, lines 117-132)
// ---------------------------------------------------------------------------
bool LassNode::can_lend(const ReqItem& req) const {
  if (!req.missing.subset_of(t_owned_)) return false;
  // None of our owned tokens may itself be borrowed.
  bool borrowed = false;
  held_.for_each([&](ResourceId, const TokenBox& t) {
    if (t->lender != kNoSite && t->lender != id()) borrowed = true;
  });
  if (borrowed) return false;
  if (!t_lent_.empty()) return false;          // one borrower at a time
  if (state_ == ProcessState::kInCS) return false;
  if (state_ == ProcessState::kWaitCS) {
    if (loan_asked_) {
      // Both want a loan: priority decides.
      ReqItem mine = my_res_request(req.r);
      return req.precedes(mine);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// processReqLoan (Annex A, lines 190-207)
// ---------------------------------------------------------------------------
void LassNode::process_req_loan(const ReqItem& req) {
  assert(owns(req.r));
  if (is_obsolete(req)) return;
  if (req.sinit == id()) return;  // our own loan request came home
  if (can_lend(req)) {
    t_lent_ = req.missing;
    req.missing.for_each([&](ResourceId rp) {
      LassToken& t = tok(rp);
      t.lender = id();
      t.wqueue.remove_site(req.sinit);  // it gets the token directly
      send_token(req.sinit, rp);
    });
  } else {
    if (!current_.contains(req.r) || state_ == ProcessState::kWaitS) {
      send_token(req.sinit, req.r);
    } else {
      tok(req.r).wloan.insert(req);
    }
  }
}

// ---------------------------------------------------------------------------
// processUpdate (Annex A, lines 133-158)
// ---------------------------------------------------------------------------
void LassNode::process_update(TokenBox token) {
  LassToken& mine = *token;
  const ResourceId r = mine.r;
  [[maybe_unused]] const bool fresh =
      held_.try_emplace(r, std::move(token)).second;
  assert(fresh && "token received while held");
  departed_.erase(r);  // the view closes; the token's log may compact
  t_owned_.insert(r);
  tok_dir(r) = kNoSite;

  if (cnt_needed_.contains(r)) {
    set_my_counter(r, mine.counter);
    ++mine.counter;
    cnt_needed_.erase(r);
  }
  if (t_lent_.contains(r)) {
    t_lent_.erase(r);
  }
  if (mine.lender == id()) {
    // Our own lent token came home; it is ordinary property again.
    mine.lender = kNoSite;
  }

  // Drop queue entries that were satisfied in the meantime, including our
  // own: receiving the token satisfies whatever claim we had queued in it
  // (a stale self-entry would otherwise be "served" by sending to self).
  mine.wqueue.prune_obsolete(mine.ids);
  mine.wloan.prune_obsolete(mine.ids);
  mine.wqueue.remove_site(id());
  mine.wloan.remove_site(id());

  // Fold the local request history into the token (lines 145-158).
  core::SmallVector<HistoryEntry, 1> pending;
  if (auto* history = pending_req_.find(r)) {
    pending = std::move(*history);
    pending_req_.erase(r);
  }
  auto loan = pending_loans_.begin();
  for (const HistoryEntry& entry : pending) {
    ReqItem req = entry.item(r);
    if (req.type == ReqType::kLoan) {
      // r's loans sit in pending_loans_ in history order.
      loan = std::find_if(loan, pending_loans_.end(),
                          [r](const auto& l) { return l.first == r; });
      assert(loan != pending_loans_.end());
      req.missing = std::move(loan->second);
      loan = pending_loans_.erase(loan);
    }
    if (is_obsolete(req)) continue;
    if (req.sinit == id()) continue;  // [deviation 2] self-request, satisfied
    switch (req.type) {
      case ReqType::kCnt:
        reply_counter(req);
        break;
      case ReqType::kRes:
        mine.wqueue.insert(req);
        break;
      case ReqType::kLoan:
        mine.wloan.insert(req);
        break;
    }
  }
}

CounterValue LassNode::assign_counter(const ReqItem& req) {
  LassToken& t = tok(req.r);
  t.set_last_req_cnt(req.sinit, req.id);
  if (!check::mutant_enabled(check::Mutant::kLassSkipCounterReply)) {
    // Seeded bug (when skipped): the counter-update reply never leaves, so
    // the requester waits in waitS forever (deadlock/starvation oracles).
    buffer_counter(req.sinit, req.r, t.counter);
  }
  return t.counter++;
}

void LassNode::reply_counter(const ReqItem& req) {
  const CounterValue value = assign_counter(req);
  if (req.single_resource) {
    // §4.6.1: this ReqCnt also acts as the ReqRes; the mark of a
    // single-resource request is A([v]) = v, known right here. The request
    // joins the queue; the caller's serve loop applies the waitS yield rule.
    ReqItem res = req;
    res.type = ReqType::kRes;
    res.mark = static_cast<double>(value);
    tok(req.r).wqueue.insert(res);
  }
}

// ---------------------------------------------------------------------------
// Receive Request (Annex A, lines 159-189)
// ---------------------------------------------------------------------------
void LassNode::process_request_item(const ReqItem& req,
                                    std::span<const SiteId> visited) {
  const ResourceId r = req.r;
  if (is_obsolete(req)) return;

  if (owns(r)) {
    if (req.sinit == id()) return;  // [deviation 2] our own echo; we own r
    if (req.type == ReqType::kLoan) {
      process_req_loan(req);
    } else if (!current_.contains(r) ||
               (state_ == ProcessState::kWaitS && req.type != ReqType::kCnt)) {
      // No conflict (or our own mark is not fixed yet): hand the token over.
      send_token(req.sinit, r);
    } else if (req.type == ReqType::kCnt) {
      const CounterValue value = assign_counter(req);
      if (req.single_resource) {
        // §4.6.1: double as ReqRes. Apply the same rules a plain ReqRes
        // would meet here: in waitS yield the token (our own mark is not
        // fixed yet — queueing instead could create a wait cycle); in
        // waitCS/inCS run the usual priority arbitration.
        ReqItem res = req;
        res.type = ReqType::kRes;
        res.mark = static_cast<double>(value);
        if (state_ == ProcessState::kWaitS) {
          send_token(req.sinit, r);
        } else {
          handle_res_request_as_owner(res);
        }
      }
    } else {  // ReqRes, conflicting
      handle_res_request_as_owner(req);
    }
    return;
  }

  // Not the holder: forward along the tree unless the father was already
  // visited (cycle) — the token is then in transit towards a site that has
  // this request in its history.
  const SiteId father = tok_dir(r);

  // §4.6.2 second bullet: stop forwarding when we are certain to obtain the
  // token before the requester.
  if (cfg().opt_stop_forwarding && req.type == ReqType::kRes) {
    const bool we_precede =
        state_ == ProcessState::kWaitCS && current_.contains(r) &&
        my_res_request(r).precedes(req);
    if (we_precede || t_lent_.contains(r)) {
      remember(req);
      return;
    }
  }

  if (std::find(visited.begin(), visited.end(), father) == visited.end()) {
    remember(req);
    buffer_request(father, req);
  } else {
    // [deviation 1] Forwarding stops here; keep the request in the local
    // history so a future token visit serves it (lemma 6's argument).
    remember(req);
  }
}

void LassNode::remember(const ReqItem& req) {
  pending_req_[req.r].push_back(HistoryEntry::of(req));
  if (req.type == ReqType::kLoan) {
    pending_loans_.emplace_back(req.r, req.missing);
  }
}

void LassNode::handle_res_request_as_owner(const ReqItem& req) {
  // Lines 176-184: we own the token, we require r, and our mark is fixed
  // (state is waitCS or inCS — waitS was handled by the caller).
  LassToken& t = tok(req.r);
  if (t.wqueue.contains_site(req.sinit)) {
    t.wqueue.insert(req);  // refresh (newer id wins); no further action
    return;
  }
  ReqItem mine = my_res_request(req.r);
  if (state_ == ProcessState::kWaitCS && req.precedes(mine)) {
    t.wqueue.insert(mine);
    send_token(req.sinit, req.r);
  } else {
    t.wqueue.insert(req);
  }
}

// ---------------------------------------------------------------------------
// Receive Token (Annex A, lines 208-254)
// ---------------------------------------------------------------------------
void LassNode::serve_queues_after_token() {
  // Lines 226-240: yield owned tokens according to the `/` order.
  for (ResourceId r : owned_snapshot()) {
    if (!owns(r)) continue;  // may have been sent in an earlier iteration
    LassToken& t = tok(r);
    if (t.wqueue.empty()) continue;
    if (state_ == ProcessState::kWaitS || state_ == ProcessState::kIdle ||
        !current_.contains(r)) {
      // waitS: our mark is not fixed, always yield (lines 230-232).
      // Idle / not required: we have no claim on r (e.g. a lent token came
      // home carrying queued requests) — serve the head unconditionally.
      const ReqItem head = t.wqueue.pop_head();
      send_token(head.sinit, r);
    } else if (state_ == ProcessState::kWaitCS) {
      ReqItem mine = my_res_request(r);
      if (t.wqueue.head().precedes(mine)) {
        const ReqItem head = t.wqueue.pop_head();
        t.wqueue.insert(mine);
        send_token(head.sinit, r);
      }
    }
  }

  // Lines 241-247: retry pending loan requests on every owned token.
  for (ResourceId r : owned_snapshot()) {
    if (!owns(r)) continue;
    LassToken& t = tok(r);
    if (t.wloan.empty()) continue;
    SortedRequestQueue::Items copy = t.wloan.items();
    t.wloan.clear();
    for (const ReqItem& req : copy) {
      // Serving one loan request can ship this very token (grant or
      // fallback); later entries then find it gone. Dropping them is safe:
      // loans are opportunistic, the requester's ReqRes guarantees progress.
      if (!owns(req.r)) break;
      process_req_loan(req);
    }
  }
}

void LassNode::maybe_initiate_loan() {
  // Lines 248-252. The paper tests |missing| == threshold with threshold 1;
  // we use 1 <= |missing| <= threshold so the ablation can widen it.
  if (!cfg().enable_loan || state_ != ProcessState::kWaitCS || loan_asked_) {
    return;
  }
  // Count before materializing the set: most calls miss too many tokens.
  std::size_t missing_count = 0;
  current_.for_each([&](ResourceId r) { missing_count += owns(r) ? 0 : 1; });
  if (missing_count == 0 ||
      missing_count > static_cast<std::size_t>(cfg().loan_threshold)) {
    return;
  }
  const ResourceSet missing = current_.set_difference(t_owned_);
  loan_asked_ = true;
  missing.for_each([&](ResourceId r) {
    ReqItem item;
    item.type = ReqType::kLoan;
    item.r = r;
    item.sinit = id();
    item.id = request_seq_;
    item.mark = mark();
    item.missing = missing;
    buffer_request(tok_dir(r), std::move(item));
  });
  flush_own_requests();
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------
void LassNode::on_message(SiteId from, const net::Message& msg) {
  const std::string_view kind = msg.kind();
  if (const auto* reqs = net::message_cast<RequestBundleMsg>(msg, kind)) {
    const std::span<const SiteId> seen(reqs->visited.data(),
                                       reqs->visited.size());
    for (const ReqItem& item : reqs->items) process_request_item(item, seen);
    if (std::find(seen.begin(), seen.end(), id()) == seen.end()) {
      VisitedSites visited = reqs->visited;
      visited.push_back(id());
      flush_requests({visited.data(), visited.size()});
    } else {
      flush_requests(seen);
    }
    flush_responses();
    assert_outboxes_empty();
    return;
  }

  if (const auto* cnts = net::message_cast<CounterBundleMsg>(msg, kind)) {
    // Receive Counter (lines 255-262).
    for (const CounterItem& c : cnts->items) {
      if (!cnt_needed_.contains(c.r)) continue;  // duplicate/stale reply
      set_my_counter(c.r, c.value);
      cnt_needed_.erase(c.r);
      tok_dir(c.r) = from;  // line 260: the replier held the token
    }
    if (state_ == ProcessState::kWaitS && cnt_needed_.empty()) {
      process_cnt_needed_empty();
    }
    flush_responses();
    assert_outboxes_empty();
    return;
  }

  if (const auto* toks = net::message_cast<TokenBundleMsg>(msg, kind)) {
    // The handles move out of the bundle (TokenBundleMsg::items).
    for (TokenBox& t : toks->items) process_update(std::move(t));

    if (state_ == ProcessState::kWaitS || state_ == ProcessState::kWaitCS) {
      const bool premature =
          check::mutant_enabled(check::Mutant::kLassPrematureEntry) &&
          t_owned_.intersects(current_);
      if (current_.subset_of(t_owned_) || premature) {
        // Seeded bug (`premature`): enter the CS as soon as one required
        // token arrived — the mutual-exclusion oracle must flag the overlap.
        enter_cs();
      } else {
        // Failed loan: give borrowed tokens back immediately (lines 216-223).
        for (ResourceId r : owned_snapshot()) {
          LassToken& t = tok(r);
          if (t.lender != kNoSite && t.lender != id()) {
            const SiteId lender = t.lender;
            t.lender = kNoSite;
            // [deviation 3] keep our regular claim on r alive: the lender
            // removed our ReqRes from the queue when granting the loan.
            if (current_.contains(r) && state_ == ProcessState::kWaitCS) {
              t.wqueue.insert(my_res_request(r));
            }
            send_token(lender, r);
            loan_asked_ = false;
            ++loans_failed_;
          }
        }
        if (state_ == ProcessState::kWaitS && cnt_needed_.empty()) {
          process_cnt_needed_empty();
        }
        serve_queues_after_token();
        maybe_initiate_loan();
      }
    } else {
      // Idle lender receiving returned tokens: serve whatever queued up.
      serve_queues_after_token();
    }
    flush_own_requests();
    flush_responses();
    assert_outboxes_empty();
    return;
  }

  assert(false && "LassNode: unknown message type");
}

// ---------------------------------------------------------------------------
// Aggregation buffers (§4.2.2)
// ---------------------------------------------------------------------------
void LassNode::buffer_request(SiteId dst, ReqItem item) {
  assert(dst != kNoSite);
  LassContext::bundle(ctx_->req_buf_, dst).items.push_back(std::move(item));
}

void LassNode::buffer_counter(SiteId dst, ResourceId r, CounterValue value) {
  LassContext::bundle(ctx_->cnt_buf_, dst)
      .items.push_back(CounterItem{r, value});
}

void LassNode::flush_requests(std::span<const SiteId> visited) {
  // Local processing (dst == self) can buffer further requests; drain until
  // a fixed point. Termination: each pass either sends on the network or
  // shortens a forwarding path, and paths are bounded by |visited| <= N.
  // Local processing only buffers (it never sends), so sending every remote
  // bundle of a pass before processing the local one keeps the pass's send
  // order — ascending destination — and what it buffers goes to the next
  // pass, as before.
  auto& req_buf = ctx_->req_buf_;
  while (!req_buf.empty()) {
    std::unique_ptr<RequestBundleMsg> local;
    for (auto& [dst, msg] : req_buf) {
      if (dst == id()) {
        // A father pointer may legitimately point at ourselves transiently;
        // process locally instead of looping through the network.
        local = std::move(msg);
        continue;
      }
      msg->visited.assign(visited.begin(), visited.end());
      network_->send(id(), dst, std::move(msg));
    }
    req_buf.clear();
    if (local != nullptr) {
      for (const ReqItem& item : local->items) {
        process_request_item(item, visited);
      }
    }
  }
}

void LassNode::flush_own_requests() {
  const SiteId self = id();
  flush_requests({&self, 1});
}

void LassNode::flush_responses() {
  // Sending never re-enters a node, so the buffers drain in place.
  for (auto& [dst, msg] : ctx_->cnt_buf_) {
    network_->send(id(), dst, std::move(msg));
  }
  ctx_->cnt_buf_.clear();
  for (auto& [dst, msg] : ctx_->tok_buf_) {
    network_->send(id(), dst, std::move(msg));
  }
  ctx_->tok_buf_.clear();
}

}  // namespace mra::algo::lass
