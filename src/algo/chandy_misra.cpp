#include "algo/chandy_misra.hpp"

#include <cassert>
#include <stdexcept>
#include <string_view>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo {

using cm_detail::BottleMsg;
using cm_detail::BottleReqMsg;
using cm_detail::ForkMsg;
using cm_detail::ForkTokenMsg;

ChandyMisraNode::ChandyMisraNode(const ChandyMisraConfig& config)
    : cfg_(config) {
  if (config.num_sites <= 0) {
    throw std::invalid_argument("ChandyMisraConfig: num_sites must be positive");
  }
  for (const auto& [a, b] : config.sharers) {
    if (a == b || a < 0 || b < 0 || a >= config.num_sites ||
        b >= config.num_sites) {
      throw std::invalid_argument("ChandyMisraConfig: bad sharer pair");
    }
  }
  current_ = ResourceSet(static_cast<ResourceId>(config.sharers.size()));
}

void ChandyMisraNode::on_start() {
  bottles_.assign(cfg_.sharers.size(), BottleState{});
  forks_.clear();
  for (std::size_t i = 0; i < cfg_.sharers.size(); ++i) {
    const auto [a, b] = cfg_.sharers[i];
    if (a != id() && b != id()) continue;
    const SiteId peer = (a == id()) ? b : a;
    bottles_[i].peer = peer;
    // Initial placement: the lower-id sharer holds bottle and (dirty) fork;
    // the other holds the edge's request token. Orientation by id is acyclic,
    // which the hygienic-dining argument requires.
    bottles_[i].held = id() < peer;
    auto [it, inserted] = forks_.try_emplace(peer);
    if (inserted) {
      it->second.held = id() < peer;
      it->second.dirty = true;
      it->second.token_here = id() > peer;
    }
  }
}

bool ChandyMisraNode::holds_bottle(ResourceId r) const {
  return bottles_[static_cast<std::size_t>(r)].held;
}

bool ChandyMisraNode::all_forks_held() const {
  for (const auto& [peer, f] : forks_) {
    if (!f.held) return false;
  }
  return true;
}

bool ChandyMisraNode::all_bottles_held() const {
  bool all = true;
  current_.for_each([&](ResourceId r) {
    if (!bottles_[static_cast<std::size_t>(r)].held) all = false;
  });
  return all;
}

void ChandyMisraNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty());
  resources.for_each([&](ResourceId r) {
    if (bottles_[static_cast<std::size_t>(r)].peer == kNoSite) {
      throw std::invalid_argument(
          "ChandyMisra: requested resource not incident to this site");
    }
  });
  ++request_seq_;
  current_ = resources;
  state_ = ProcessState::kWaitCS;
  phase_ = Phase::kForks;
  if (all_forks_held()) {
    enter_bottle_phase();
  } else {
    request_missing_forks();
  }
}

void ChandyMisraNode::request_missing_forks() {
  for (auto& [peer, f] : forks_) {
    if (!f.held && f.token_here) {
      f.token_here = false;
      network_->send(id(), peer, std::make_unique<ForkTokenMsg>());
    }
  }
}

void ChandyMisraNode::enter_bottle_phase() {
  assert(phase_ == Phase::kForks && all_forks_held());
  phase_ = Phase::kBottles;
  if (check::mutant_enabled(check::Mutant::kCmForkBottleConfusion)) {
    // Seeded bug: treat the won forks as if they were the bottles and drink
    // immediately — two neighbours can then drink the shared edge at once.
    complete_bottle_phase();
    return;
  }
  if (all_bottles_held()) {
    complete_bottle_phase();
    return;
  }
  current_.for_each([&](ResourceId r) {
    auto& b = bottles_[static_cast<std::size_t>(r)];
    if (!b.held) {
      auto msg = std::make_unique<BottleReqMsg>();
      msg->r = r;
      network_->send(id(), b.peer, std::move(msg));
    }
  });
}

void ChandyMisraNode::complete_bottle_phase() {
  // All needed bottles held: dirty the forks, serve deferred fork requests,
  // then drink. Forks are released *before* the CS (the paper: "forks ...
  // are released when the process has acquired all the requesting bottles").
  phase_ = Phase::kDrinking;
  state_ = ProcessState::kInCS;
  for (auto& [peer, f] : forks_) {
    f.dirty = true;
    if (f.request_deferred) {
      f.request_deferred = false;
      send_fork(peer);
    }
  }
  notify_granted();
}

void ChandyMisraNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  phase_ = Phase::kIdle;
  const ResourceSet done = current_;
  current_.clear();
  done.for_each([&](ResourceId r) {
    auto& b = bottles_[static_cast<std::size_t>(r)];
    if (b.request_deferred) {
      b.request_deferred = false;
      send_bottle(r);
    }
  });
}

void ChandyMisraNode::send_fork(SiteId to) {
  auto& f = forks_.at(to);
  assert(f.held);
  f.held = false;
  f.dirty = false;  // forks travel clean
  network_->send(id(), to, std::make_unique<ForkMsg>());
}

void ChandyMisraNode::send_bottle(ResourceId r) {
  auto& b = bottles_[static_cast<std::size_t>(r)];
  assert(b.held);
  b.held = false;
  auto msg = std::make_unique<BottleMsg>();
  msg->r = r;
  network_->send(id(), b.peer, std::move(msg));
}

void ChandyMisraNode::on_fork_token(SiteId from) {
  auto& f = forks_.at(from);
  assert(f.held && "CM: fork request while fork not here");
  f.token_here = true;
  const bool hungry = phase_ == Phase::kForks;
  if (phase_ == Phase::kBottles) {
    // We are between "all forks" and "all bottles": this is exactly the
    // window the dining layer protects — defer.
    f.request_deferred = true;
  } else if (f.dirty) {
    // Dirty forks must be yielded; if we are hungry, re-request immediately.
    send_fork(from);
    if (hungry) {
      f.token_here = false;
      network_->send(id(), from, std::make_unique<ForkTokenMsg>());
    }
  } else {
    // Clean fork: we acquired it for the current attempt and keep it.
    assert(hungry && "CM: clean fork held while not hungry");
    f.request_deferred = true;
  }
}

void ChandyMisraNode::on_message(SiteId from, const net::Message& msg) {
  const std::string_view kind = msg.kind();
  if (net::message_cast<ForkTokenMsg>(msg, kind) != nullptr) {
    on_fork_token(from);
    return;
  }
  if (net::message_cast<ForkMsg>(msg, kind) != nullptr) {
    auto& f = forks_.at(from);
    assert(!f.held);
    f.held = true;
    f.dirty = false;
    if (phase_ == Phase::kForks && all_forks_held()) enter_bottle_phase();
    return;
  }
  if (const auto* breq = net::message_cast<BottleReqMsg>(msg, kind)) {
    auto& b = bottles_[static_cast<std::size_t>(breq->r)];
    if (!b.held) return;  // bottle already in flight to the requester
    const bool drinking_with_it =
        phase_ == Phase::kDrinking && current_.contains(breq->r);
    const bool acquiring_it =
        phase_ == Phase::kBottles && current_.contains(breq->r);
    if (drinking_with_it || acquiring_it) {
      b.request_deferred = true;
    } else {
      send_bottle(breq->r);
    }
    return;
  }
  if (const auto* bot = net::message_cast<BottleMsg>(msg, kind)) {
    auto& b = bottles_[static_cast<std::size_t>(bot->r)];
    assert(!b.held);
    b.held = true;
    if (phase_ == Phase::kBottles && all_bottles_held()) {
      complete_bottle_phase();
    }
    return;
  }
  assert(false && "ChandyMisraNode: unknown message type");
}

}  // namespace mra::algo
