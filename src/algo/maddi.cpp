#include "algo/maddi.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo {

using maddi_detail::Pending;
using maddi_detail::ReqMsg;
using maddi_detail::TokenMsg;

MaddiNode::MaddiNode(const MaddiConfig& config) : cfg_(config) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument(
        "MaddiConfig: num_sites and num_resources must be positive");
  }
  current_ = ResourceSet(config.num_resources);
  owned_ = ResourceSet(config.num_resources);
}

void MaddiNode::on_start() {
  tokens_.assign(static_cast<std::size_t>(cfg_.num_resources), TokenState{});
  for (auto& t : tokens_) {
    t.last_done.assign(static_cast<std::size_t>(cfg_.num_sites), 0);
  }
  if (id() == cfg_.elected_node) {
    for (ResourceId r = 0; r < cfg_.num_resources; ++r) {
      tokens_[static_cast<std::size_t>(r)].held = true;
      owned_.insert(r);
    }
  }
}

void MaddiNode::insert_pending(ResourceId r, Pending p) {
  auto& pend = tokens_[static_cast<std::size_t>(r)].pending;
  // One live request per site: drop an older entry from the same site.
  auto same = std::find_if(pend.begin(), pend.end(),
                           [&](const Pending& q) { return q.site == p.site; });
  if (same != pend.end()) {
    if (same->seq >= p.seq) return;
    pend.erase(same);
  }
  pend.insert(std::find_if(pend.begin(), pend.end(),
                           [&](const Pending& q) { return p.precedes(q); }),
              p);
}

void MaddiNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty());
  ++request_seq_;
  current_ = resources;
  state_ = ProcessState::kWaitCS;
  ++clock_;
  // Seeded bug: a constant timestamp degenerates the (ts, site) total order
  // into plain site-id priority, starving high-id sites under contention.
  my_timestamp_ =
      check::mutant_enabled(check::Mutant::kMaddiTimestampRegression) ? 1
                                                                      : clock_;
  // Record ourselves in our own queues, then broadcast.
  resources.for_each([&](ResourceId r) {
    insert_pending(r, Pending{my_timestamp_, id(), request_seq_});
  });
  for (SiteId j = 0; j < cfg_.num_sites; ++j) {
    if (j == id()) continue;
    auto msg = std::make_unique<ReqMsg>();
    msg->timestamp = my_timestamp_;
    msg->seq = request_seq_;
    msg->resources = resources;
    network_->send(id(), j, std::move(msg));
  }
  maybe_enter_cs();
}

void MaddiNode::maybe_enter_cs() {
  if (state_ == ProcessState::kWaitCS && current_.subset_of(owned_)) {
    state_ = ProcessState::kInCS;
    notify_granted();
  }
}

void MaddiNode::consider_grant(ResourceId r) {
  auto& tok = tokens_[static_cast<std::size_t>(r)];
  if (!tok.held) return;
  if (state_ == ProcessState::kInCS && current_.contains(r)) return;

  // Prune satisfied requests, then look at the earliest one.
  auto& pend = tok.pending;
  pend.erase(std::remove_if(pend.begin(), pend.end(),
                            [&](const Pending& p) {
                              return p.seq <=
                                     tok.last_done[static_cast<std::size_t>(p.site)];
                            }),
             pend.end());
  if (pend.empty()) return;
  const Pending head = pend.front();
  if (head.site == id()) return;  // our own turn: keep the token

  // Either we do not want r, or the head precedes our own request: yield.
  tok.held = false;
  owned_.erase(r);
  auto msg = std::make_unique<TokenMsg>();
  msg->r = r;
  msg->last_done = tok.last_done;
  network_->send(id(), head.site, std::move(msg));
}

void MaddiNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  current_.for_each([&](ResourceId r) {
    auto& tok = tokens_[static_cast<std::size_t>(r)];
    assert(tok.held);
    tok.last_done[static_cast<std::size_t>(id())] = request_seq_;
  });
  const ResourceSet done = current_;
  current_.clear();
  done.for_each([&](ResourceId r) { consider_grant(r); });
}

void MaddiNode::on_message(SiteId from, const net::Message& msg) {
  const std::string_view kind = msg.kind();
  if (const auto* req = net::message_cast<ReqMsg>(msg, kind)) {
    clock_ = std::max(clock_, req->timestamp) + 1;
    req->resources.for_each([&](ResourceId r) {
      insert_pending(r, Pending{req->timestamp, from, req->seq});
      consider_grant(r);
    });
    return;
  }
  if (const auto* tok = net::message_cast<TokenMsg>(msg, kind)) {
    auto& t = tokens_[static_cast<std::size_t>(tok->r)];
    assert(!t.held);
    t.held = true;
    // Merge satisfaction knowledge (element-wise max keeps both histories).
    for (std::size_t i = 0; i < t.last_done.size(); ++i) {
      t.last_done[i] = std::max(t.last_done[i], tok->last_done[i]);
    }
    owned_.insert(tok->r);
    maybe_enter_cs();
    // A later-arriving broadcast may already have queued someone earlier
    // than us; re-evaluate (no-op if we entered CS with r).
    consider_grant(tok->r);
    return;
  }
  assert(false && "MaddiNode: unknown message type");
}

}  // namespace mra::algo
