#include "algo/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "check/mutant.hpp"
#include "net/network.hpp"

namespace mra::algo {

IncrementalNode::IncrementalNode(const IncrementalConfig& config)
    : cfg_(config) {
  if (config.num_sites <= 0 || config.num_resources <= 0) {
    throw std::invalid_argument(
        "IncrementalConfig: num_sites and num_resources must be positive");
  }
  current_ = ResourceSet(config.num_resources);
}

void IncrementalNode::on_start() {
  locks_.clear();
  locks_.reserve(static_cast<std::size_t>(cfg_.num_resources));
  for (ResourceId r = 0; r < cfg_.num_resources; ++r) {
    locks_.push_back(std::make_unique<mutex::NaimiTrehelEngine<>>(
        id(), cfg_.elected_node, r,
        [this](SiteId dst, std::unique_ptr<net::Message> msg) {
          network_->send(id(), dst, std::move(msg));
        },
        [this, r]() { on_lock_granted(r); }));
  }
}

void IncrementalNode::do_request(const ResourceSet& resources) {
  assert(state_ == ProcessState::kIdle && "request while not idle");
  assert(!resources.empty());
  ++request_seq_;
  current_ = resources;
  state_ = ProcessState::kWaitCS;
  plan_ = resources.to_vector();  // ascending ids = the global total order
  if (check::mutant_enabled(check::Mutant::kIncrementalReversedAcquire) &&
      (id() & 1) != 0) {
    // Seeded bug: odd sites acquire in descending order, breaking the global
    // total order -> a genuine AB/BA wait-for cycle the deadlock oracle must
    // detect online.
    std::reverse(plan_.begin(), plan_.end());
  }
  next_index_ = 0;
  acquired_.clear();
  acquire_next();
}

void IncrementalNode::acquire_next() {
  // Engine grants can be synchronous (token already local), so this is a
  // loop rather than recursion through the callback.
  assert(next_index_ < plan_.size());
  const ResourceId r = plan_[next_index_];
  locks_[static_cast<std::size_t>(r)]->request();
}

void IncrementalNode::on_lock_granted(ResourceId r) {
  assert(state_ == ProcessState::kWaitCS);
  assert(next_index_ < plan_.size() && plan_[next_index_] == r);
  // Per-resource custody is exclusive from here until do_release(): surface
  // it to the conformance observer so hold-and-wait states are checkable.
  observe_hold(r);
  acquired_.push_back(r);
  ++next_index_;
  if (next_index_ < plan_.size()) {
    acquire_next();
  } else {
    state_ = ProcessState::kInCS;
    notify_granted();
  }
}

void IncrementalNode::do_release() {
  assert(state_ == ProcessState::kInCS && "release outside CS");
  state_ = ProcessState::kIdle;
  for (ResourceId r : acquired_) {
    locks_[static_cast<std::size_t>(r)]->release();
  }
  acquired_.clear();
  plan_.clear();
  current_.clear();
}

void IncrementalNode::on_message(SiteId /*from*/, const net::Message& msg) {
  const std::string_view kind = msg.kind();
  if (const auto* req = net::message_cast<mutex::NtRequestMsg>(msg, kind)) {
    locks_[static_cast<std::size_t>(req->instance)]->on_request(*req);
    return;
  }
  if (const auto* tok =
          net::message_cast<mutex::NtTokenMsg<mutex::NoPayload>>(msg, kind)) {
    locks_[static_cast<std::size_t>(tok->instance)]->on_token(*tok);
    return;
  }
  assert(false && "IncrementalNode: unknown message type");
}

}  // namespace mra::algo
