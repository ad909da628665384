#include "net/network.hpp"

#include <cassert>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "check/event.hpp"
#include "check/mutant.hpp"

namespace mra::net {

Network::Network(sim::Simulator& simulator,
                 std::unique_ptr<LatencyModel> latency, std::uint64_t seed)
    : sim_(simulator), latency_(std::move(latency)), rng_(seed) {
  if (!latency_) throw std::invalid_argument("Network: null latency model");
}

SiteId Network::add_node(Node& node) {
  if (started_) throw std::logic_error("Network: add_node after start()");
  const SiteId id = static_cast<SiteId>(nodes_.size());
  node.id_ = id;
  node.network_ = this;
  nodes_.push_back(&node);
  return id;
}

void Network::start() {
  started_ = true;
  const std::size_t n = nodes_.size();
  if (n <= kDenseFifoMaxSites) {
    last_delivery_dense_.assign(n * n, sim::kTimeZero);
    last_delivery_sparse_.clear();
  } else {
    last_delivery_dense_.clear();
    last_delivery_sparse_.assign(n, {});
  }
  for (Node* node : nodes_) node->on_start();
}

void Network::send(SiteId src, SiteId dst, std::unique_ptr<Message> msg) {
  deliver(src, dst, std::move(msg), latency_->sample(src, dst, rng_));
}

MessageStats& Network::kind_stats(std::string_view kind) {
  // Each message type returns one static label, so comparing the view's
  // pointer finds the entry without reading its bytes; the byte compare
  // merges a label that two types return from different storage.
  for (auto& [label, stats] : stats_) {
    if (label.data() == kind.data() && label.size() == kind.size()) {
      return stats;
    }
  }
  for (auto& [label, stats] : stats_) {
    if (label == kind) return stats;
  }
  return stats_.emplace_back(kind, MessageStats{}).second;
}

sim::SimTime& Network::sparse_watermark(SiteId src, SiteId dst) {
  auto& links = last_delivery_sparse_[static_cast<std::size_t>(src)];
  const auto it = links.find(dst);
  if (it != links.end()) return it->second;
  // A delivery lands at now + latency >= now, and the clamp only moves it
  // later, so a watermark before now never clamps again. Forgetting it
  // reads back kTimeZero, which is before now as well (now exceeds the
  // forgotten watermark), so neither value clamps. One equal to now must
  // stay, or a zero-latency send in this instant would skip its clamp to
  // now + 1.
  const sim::SimTime now = sim_.now();
  links.erase_if([now](const auto& link) { return link.second < now; });
  return links[dst];
}

void Network::deliver(SiteId src, SiteId dst, std::unique_ptr<Message> msg,
                      sim::SimDuration latency) {
  assert(msg && "Network: null message");
  assert(dst >= 0 && dst < node_count() && "Network: bad destination");
  assert(src >= 0 && src < node_count() && "Network: bad source");
  assert(latency >= 0 && "Network: negative latency");

  ++total_messages_;
  ++in_flight_;
  const std::uint64_t size = kEnvelopeBytes + msg->wire_size();
  total_bytes_ += size;
  const std::string_view kind = msg->kind();
  MessageStats& stats = kind_stats(kind);
  ++stats.count;
  stats.bytes += size;

  // FIFO per ordered link: never deliver before a previously sent message on
  // the same (src, dst) pair. The mutant skips the clamp (delivery order then
  // follows raw latency), which the FIFO oracle must flag.
  sim::SimTime& watermark = fifo_watermark(src, dst);
  sim::SimTime at = sim_.now() + latency;
  if (!check::mutant_enabled(check::Mutant::kNetFifoViolation)) {
    if (at <= watermark) at = watermark + 1;
  }
  watermark = at;

  if (observer_ != nullptr) {
    // Checking mode: emit kSend now and kDeliver when the message fires,
    // paired by a per-network message id. The send-time byte count travels
    // with the event (the message is not touched in flight), so delivery
    // need not size it again; the kind is re-read from the owned message.
    const std::int64_t msg_id = ++observed_msg_id_;
    const auto bytes = static_cast<std::uint32_t>(size);
    check::Event ev;
    ev.type = check::EventType::kSend;
    ev.at = sim_.now();
    ev.site = src;
    ev.peer = dst;
    ev.seq = msg_id;
    ev.kind = kind;
    ev.bytes = bytes;
    observer_->on_event(ev);

    // Deliveries commute across destination sites (disjoint node state; the
    // per-link FIFO watermark was already advanced above), so tag with dst
    // for the model checker's same-instant commutation analysis.
    Node* target = nodes_[static_cast<std::size_t>(dst)];
    auto fire = [this, target, msg_id, owned = std::move(msg), src, bytes]() {
      --in_flight_;
      if (observer_ != nullptr) {
        check::Event dev;
        dev.type = check::EventType::kDeliver;
        dev.at = sim_.now();
        dev.site = src;
        dev.peer = target->id();
        dev.seq = msg_id;
        dev.kind = owned->kind();
        dev.bytes = bytes;
        observer_->on_event(dev);
      }
      target->on_message(src, *owned);
    };
    static_assert(sizeof(fire) <= sim::Callback::kInlineBytes,
                  "the observed delivery must not heap-allocate its capture");
    sim_.schedule_in_order_at(at, static_cast<int>(dst), std::move(fire));
    return;
  }

  // The event owns the message outright: sim::Callback is move-aware, so
  // the unique_ptr travels through the queue with no shared_ptr control
  // block and no closure heap allocation (the capture fits the callback's
  // inline buffer). Pool recycling in ~Message closes the loop. Deliveries
  // land at now + latency, nearly in time order, so they take the queue's
  // in-order lane instead of the timer heap.
  Node* target = nodes_[static_cast<std::size_t>(dst)];
  sim_.schedule_in_order_at(at, static_cast<int>(dst),
                            [this, target, src, owned = std::move(msg)]() {
                              --in_flight_;
                              target->on_message(src, *owned);
                            });
}

Network::StatsMap Network::stats_by_kind() const {
  StatsMap out;
  for (const auto& [label, stats] : stats_) out.emplace(label, stats);
  return out;
}

void Network::reset_stats() {
  total_messages_ = 0;
  total_bytes_ = 0;
  stats_.clear();
}

}  // namespace mra::net
