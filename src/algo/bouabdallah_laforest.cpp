#include "algo/bouabdallah_laforest.hpp"

#include <cassert>
#include <stdexcept>
#include <string_view>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo {

using bl_detail::ControlToken;
using bl_detail::InquireMsg;
using bl_detail::ResourceTokenMsg;

BouabdallahLaforestNode::BouabdallahLaforestNode(
    const BouabdallahLaforestConfig& config)
    : cfg_(config) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument(
        "BouabdallahLaforestConfig: num_sites and num_resources must be positive");
  }
  current_ = ResourceSet(config.num_resources);
  owned_ = ResourceSet(config.num_resources);
  using_ = ResourceSet(config.num_resources);
  inquired_.assign(static_cast<std::size_t>(config.num_resources), kNoSite);
}

void BouabdallahLaforestNode::on_start() {
  control_ = std::make_unique<mutex::NaimiTrehelEngine<ControlToken>>(
      id(), cfg_.elected_node, /*instance=*/0,
      [this](SiteId dst, std::unique_ptr<net::Message> msg) {
        if (check::mutant_enabled(check::Mutant::kBlControlTokenLoss) &&
            msg->kind() == mutex::NtTokenMsg<ControlToken>::kKind) {
          return;  // seeded bug: the control token vanishes in transit
        }
        network_->send(id(), dst, std::move(msg));
      },
      [this]() { on_control_token_granted(); });
  if (id() == cfg_.elected_node) {
    // All resource tokens start inlined in the control token.
    control_->payload().entries.assign(
        static_cast<std::size_t>(cfg_.num_resources), bl_detail::ControlEntry{});
  }
}

void BouabdallahLaforestNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty());
  ++request_seq_;
  current_ = resources;
  using_ = resources;
  state_ = ProcessState::kWaitCS;
  // Phase 1: acquire the (global) control token.
  control_->request();
}

void BouabdallahLaforestNode::on_control_token_granted() {
  // Phase 2: register atomically in every per-resource distributed queue.
  registered_ = true;
  auto& entries = control_->payload().entries;
  using_.for_each([&](ResourceId r) {
    auto& e = entries[static_cast<std::size_t>(r)];
    if (e.holds_token) {
      // Resource idle: take its token straight out of the control token.
      e.holds_token = false;
      e.last_requester = id();
      owned_.insert(r);
    } else if (e.last_requester == id()) {
      // We were the last user and nobody inquired: the token stayed home.
      assert(owned_.contains(r));
    } else {
      const SiteId prev = e.last_requester;
      e.last_requester = id();
      auto inquire = std::make_unique<InquireMsg>();
      inquire->r = r;
      inquire->requester = id();
      network_->send(id(), prev, std::move(inquire));
    }
  });
  // Phase 3: either release the control token immediately (registration
  // only) or keep it until every resource token arrived (global-lock
  // behaviour; see BouabdallahLaforestConfig::release_control_token_early).
  if (cfg_.release_control_token_early) control_->release();
  maybe_enter_cs();
}

void BouabdallahLaforestNode::maybe_enter_cs() {
  if (state_ == ProcessState::kWaitCS && using_.subset_of(owned_)) {
    if (!cfg_.release_control_token_early) control_->release();
    state_ = ProcessState::kInCS;
    notify_granted();
  }
}

void BouabdallahLaforestNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  registered_ = false;
  // Serve deferred INQUIREs; tokens without a waiter stay with us.
  using_.for_each([&](ResourceId r) {
    const SiteId waiter = inquired_[static_cast<std::size_t>(r)];
    if (waiter != kNoSite) {
      inquired_[static_cast<std::size_t>(r)] = kNoSite;
      send_resource_token(waiter, r);
    }
  });
  using_.clear();
  current_.clear();
}

void BouabdallahLaforestNode::send_resource_token(SiteId dst, ResourceId r) {
  assert(owned_.contains(r));
  owned_.erase(r);
  auto msg = std::make_unique<ResourceTokenMsg>();
  msg->r = r;
  network_->send(id(), dst, std::move(msg));
}

void BouabdallahLaforestNode::on_message(SiteId from, const net::Message& msg) {
  const std::string_view kind = msg.kind();
  if (const auto* req = net::message_cast<mutex::NtRequestMsg>(msg, kind)) {
    control_->on_request(*req);
    return;
  }
  if (const auto* tok =
          net::message_cast<mutex::NtTokenMsg<ControlToken>>(msg, kind)) {
    control_->on_token(*tok);
    return;
  }
  if (const auto* inquire = net::message_cast<InquireMsg>(msg, kind)) {
    const ResourceId r = inquire->r;
    // The control token guarantees at most one outstanding INQUIRE per
    // resource per site (each new requester inquires its predecessor).
    assert(inquired_[static_cast<std::size_t>(r)] == kNoSite &&
           "BL: second INQUIRE for the same resource");
    // Our claim on r exists only once registered; an INQUIRE arriving before
    // that comes from a site that registered *before* us and must win now
    // (deferring it would deadlock the per-resource chain).
    const bool in_use = registered_ && using_.contains(r);
    if (owned_.contains(r) && !in_use) {
      send_resource_token(inquire->requester, r);
    } else {
      // Either still using r, or the token has not reached us yet
      // (we inquired our own predecessor): defer.
      inquired_[static_cast<std::size_t>(r)] = inquire->requester;
    }
    return;
  }
  if (const auto* token = net::message_cast<ResourceTokenMsg>(msg, kind)) {
    (void)from;
    const ResourceId r = token->r;
    assert(!owned_.contains(r));
    owned_.insert(r);
    // A deferred INQUIRE may already be waiting for a token that was still
    // in flight — but only forward it after our own CS completes; if we are
    // waiting for it, we use it first.
    maybe_enter_cs();
    if (state_ == ProcessState::kIdle) {
      const SiteId waiter = inquired_[static_cast<std::size_t>(r)];
      if (waiter != kNoSite) {
        inquired_[static_cast<std::size_t>(r)] = kNoSite;
        send_resource_token(waiter, r);
      }
    }
    return;
  }
  assert(false && "BouabdallahLaforestNode: unknown message type");
}

}  // namespace mra::algo
