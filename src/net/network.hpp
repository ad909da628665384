// The message-passing substrate: a complete graph of reliable FIFO links.
//
// System model from the paper (§3.1): N reliable nodes, reliable FIFO links
// (no loss, no duplication), complete communication graph, no shared memory.
// FIFO is enforced per ordered pair (src, dst): a message never overtakes an
// earlier message on the same link, even when the latency model jitters.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flat_map.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mra::check {
class Observer;
}  // namespace mra::check

namespace mra::net {

/// Per-kind message statistics.
struct MessageStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

class Network {
 public:
  /// Fixed per-message envelope added to Message::wire_size() (addresses,
  /// type tag, transport header).
  static constexpr std::size_t kEnvelopeBytes = 24;

  /// Largest N that keeps the dense FIFO watermark matrix (32 MB at 2048);
  /// above it the watermarks are sparse (fifo_watermark()).
  static constexpr std::size_t kDenseFifoMaxSites = 2048;

  Network(sim::Simulator& simulator, std::unique_ptr<LatencyModel> latency,
          std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; assigns the next dense SiteId (0-based). The network
  /// does not own nodes.
  SiteId add_node(Node& node);

  /// Calls on_start() on every node (in id order).
  void start();

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(SiteId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Sends `msg` from `src` to `dst`. Self-sends are delivered through the
  /// same path, with latency.
  void send(SiteId src, SiteId dst, std::unique_ptr<Message> msg);

  /// Total messages sent so far.
  [[nodiscard]] std::uint64_t total_messages() const { return total_messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Messages sent but not yet delivered — the obs-layer in-flight gauge.
  /// Lifetime accounting, deliberately not cleared by reset_stats(): a
  /// warm-up reset must not make in-flight go negative.
  [[nodiscard]] std::uint64_t in_flight_messages() const { return in_flight_; }

  /// Per-kind statistics, keyed by Message::kind() and built when read:
  /// the send path counts in a short first-seen list (kind_stats()), and a
  /// label returned by two message types is one entry.
  using StatsMap = std::map<std::string, MessageStats, std::less<>>;
  [[nodiscard]] StatsMap stats_by_kind() const;

  /// Resets statistics (e.g. after a warm-up phase). Kinds are forgotten,
  /// not zeroed: a kind sent only before the reset is absent afterwards.
  void reset_stats();

  /// Attaches a conformance observer (src/check/): every send emits a kSend
  /// event and every delivery a kDeliver event carrying the same message id,
  /// so oracles can pair them (FIFO/causality checking). Null detaches. The
  /// no-observer delivery path is byte-identical to the unhooked one — one
  /// predictable branch per message.
  void set_observer(check::Observer* observer) { observer_ = observer; }
  [[nodiscard]] check::Observer* observer() const { return observer_; }

 private:
  void deliver(SiteId src, SiteId dst, std::unique_ptr<Message> msg,
               sim::SimDuration latency);

  /// The counters of `kind`, found by a linear scan of the kinds seen so
  /// far (a protocol sends a handful), added on first sight.
  MessageStats& kind_stats(std::string_view kind);

  /// Per-link FIFO watermark. A dense [src * N + dst] matrix is the fastest
  /// lookup but is N^2 (8 TB at N = 10^6), so above kDenseFifoMaxSites the
  /// watermarks switch to one sorted sparse map per source site, which
  /// forgets links whose watermark can no longer clamp a delivery
  /// (sparse_watermark()). An absent entry reads as SimTime{} == kTimeZero,
  /// the dense initial value, so the two representations clamp identically
  /// (DESIGN.md §13).
  [[nodiscard]] sim::SimTime& fifo_watermark(SiteId src, SiteId dst) {
    if (!last_delivery_dense_.empty()) {
      return last_delivery_dense_[static_cast<std::size_t>(src) *
                                      nodes_.size() +
                                  static_cast<std::size_t>(dst)];
    }
    return sparse_watermark(src, dst);
  }

  /// The sparse watermark of (src, dst). A miss first forgets src's links
  /// whose watermark is before now: every delivery lands at or after now,
  /// so such a watermark can never clamp again, and neither can the
  /// kTimeZero its absence reads as.
  [[nodiscard]] sim::SimTime& sparse_watermark(SiteId src, SiteId dst);

  sim::Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  sim::Rng rng_;
  std::vector<Node*> nodes_;
  std::vector<sim::SimTime> last_delivery_dense_;
  std::vector<core::FlatMap<SiteId, sim::SimTime, 2>> last_delivery_sparse_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t in_flight_ = 0;
  /// (label, counters) in first-seen order; the labels are static
  /// (Message::kind()), so keeping the views is safe.
  std::vector<std::pair<std::string_view, MessageStats>> stats_;
  check::Observer* observer_ = nullptr;
  std::int64_t observed_msg_id_ = 0;  ///< message ids handed to the observer
  bool started_ = false;
};

}  // namespace mra::net
