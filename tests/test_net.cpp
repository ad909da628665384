// Network substrate tests: FIFO links, latency models, statistics, and the
// pooled message allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/event.hpp"
#include "net/message_pool.hpp"
#include "net/network.hpp"

namespace mra::net {
namespace {

struct TestMsg final : Message {
  int payload = 0;
  explicit TestMsg(int p) : payload(p) {}
  [[nodiscard]] std::string_view kind() const override { return "Test"; }
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
};

class RecorderNode final : public Node {
 public:
  struct Received {
    SiteId from;
    int payload;
    sim::SimTime at;
  };
  std::vector<Received> log;
  void on_message(SiteId from, const Message& msg) override {
    log.push_back({from, static_cast<const TestMsg&>(msg).payload,
                   network_->simulator().now()});
  }
};

struct Fixture {
  sim::Simulator sim;
  Network net;
  RecorderNode a, b, c;
  explicit Fixture(std::unique_ptr<LatencyModel> latency)
      : net(sim, std::move(latency), 1) {
    net.add_node(a);
    net.add_node(b);
    net.add_node(c);
    net.start();
  }
};

TEST(Network, DeliversWithFixedLatency) {
  Fixture f(make_fixed_latency(sim::from_ms(0.6)));
  f.net.send(0, 1, std::make_unique<TestMsg>(42));
  f.sim.run();
  ASSERT_EQ(f.b.log.size(), 1u);
  EXPECT_EQ(f.b.log[0].payload, 42);
  EXPECT_EQ(f.b.log[0].from, 0);
  EXPECT_EQ(f.b.log[0].at, sim::from_ms(0.6));
}

TEST(Network, FifoPerLinkEvenWithJitter) {
  // Heavy jitter would reorder messages; the network must prevent that on a
  // single ordered link (the paper's FIFO-channel assumption).
  Fixture f(make_uniform_jitter_latency(sim::from_ms(1.0), 0.9));
  for (int i = 0; i < 200; ++i) {
    f.sim.schedule_in(i * 10, [&f, i]() {
      f.net.send(0, 1, std::make_unique<TestMsg>(i));
    });
  }
  f.sim.run();
  ASSERT_EQ(f.b.log.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.b.log[static_cast<std::size_t>(i)].payload, i);
  }
  for (std::size_t i = 1; i < f.b.log.size(); ++i) {
    EXPECT_GT(f.b.log[i].at, f.b.log[i - 1].at);
  }
}

TEST(Network, IndependentLinksMayReorder) {
  // FIFO is per ordered pair only: a later message on a faster link may
  // arrive first. (Different-source messages to one destination.)
  struct StepLatency final : LatencyModel {
    sim::SimDuration sample(int src, int /*dst*/, sim::Rng&) override {
      return src == 0 ? sim::from_ms(5.0) : sim::from_ms(1.0);
    }
  };
  sim::Simulator sim;
  Network net(sim, std::make_unique<StepLatency>(), 1);
  RecorderNode a, b, c;
  net.add_node(a);
  net.add_node(b);
  net.add_node(c);
  net.start();
  net.send(0, 2, std::make_unique<TestMsg>(1));  // slow
  net.send(1, 2, std::make_unique<TestMsg>(2));  // fast, sent "later"
  sim.run();
  ASSERT_EQ(c.log.size(), 2u);
  EXPECT_EQ(c.log[0].payload, 2);
  EXPECT_EQ(c.log[1].payload, 1);
}

TEST(Network, SelfSendGoesThroughLatency) {
  Fixture f(make_fixed_latency(sim::from_ms(0.5)));
  f.net.send(0, 0, std::make_unique<TestMsg>(9));
  f.sim.run();
  ASSERT_EQ(f.a.log.size(), 1u);
  EXPECT_EQ(f.a.log[0].at, sim::from_ms(0.5));
}

TEST(Network, CountsMessagesAndBytesByKind) {
  Fixture f(make_fixed_latency(1));
  f.net.send(0, 1, std::make_unique<TestMsg>(1));
  f.net.send(1, 2, std::make_unique<TestMsg>(2));
  f.sim.run();
  EXPECT_EQ(f.net.total_messages(), 2u);
  EXPECT_EQ(f.net.total_bytes(), 2 * (100 + Network::kEnvelopeBytes));
  const auto& stats = f.net.stats_by_kind();
  ASSERT_TRUE(stats.contains("Test"));
  EXPECT_EQ(stats.at("Test").count, 2u);
  f.net.reset_stats();
  EXPECT_EQ(f.net.total_messages(), 0u);
  EXPECT_TRUE(f.net.stats_by_kind().empty());
}

TEST(Network, HierarchicalLatencyDistinguishesClusters) {
  sim::Rng rng(1);
  HierarchicalLatency lat(/*cluster_size=*/4, sim::from_ms(0.1),
                          sim::from_ms(10.0));
  EXPECT_EQ(lat.sample(0, 3, rng), sim::from_ms(0.1));   // same cluster
  EXPECT_EQ(lat.sample(0, 4, rng), sim::from_ms(10.0));  // cross cluster
  EXPECT_EQ(lat.sample(5, 7, rng), sim::from_ms(0.1));
}

TEST(Network, AddNodeAfterStartThrows) {
  sim::Simulator sim;
  Network net(sim, make_fixed_latency(1), 1);
  RecorderNode a;
  net.add_node(a);
  net.start();
  RecorderNode b;
  EXPECT_THROW(net.add_node(b), std::logic_error);
}

TEST(Network, NullLatencyModelThrows) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, nullptr, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Firing-order pin. Deliveries, FIFO-clamped second sends and site timers
// share instants; every fired event appends "time label" to one log whose
// FNV-1a is pinned, so any change to the order the engine fires them in
// moves the hash. Values captured before deliveries had their own queue
// lane (DESIGN.md §9); they must never need re-pinning.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr sim::SimDuration kPinLatency = sim::from_ms(0.6);

struct HopMsg final : Message {
  int hops;
  int tag;
  HopMsg(int h, int t) : hops(h), tag(t) {}
  [[nodiscard]] std::string_view kind() const override { return "Hop"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// Forwards each message twice on one link in one instant (the second send
/// is FIFO-clamped one nanosecond behind the first) and arms a site timer
/// due at the first copy's nominal arrival. Periodic start-up timers launch
/// fresh chains at multiples of the latency, where deliveries also land.
class PinNode final : public Node {
 public:
  PinNode(std::string& log, int& next_tag) : log_(log), next_tag_(next_tag) {}

  void on_start() override {
    for (int k = 0; k < 4; ++k) {
      network_->simulator().schedule_in(k * kPinLatency, [this, k]() {
        record('s', id_, k);
        forward(6);
      });
    }
  }

  void on_message(SiteId from, const Message& msg) override {
    const auto& hop = static_cast<const HopMsg&>(msg);
    record('m', from, hop.tag);
    if (hop.hops > 0) forward(hop.hops - 1);
  }

 private:
  void forward(int hops) {
    const SiteId peer = (id_ + 1 + next_tag_ % 2) % network_->node_count();
    network_->send(id_, peer, std::make_unique<HopMsg>(hops, next_tag_++));
    network_->send(id_, peer, std::make_unique<HopMsg>(0, next_tag_++));
    const int tag = next_tag_++;
    network_->simulator().schedule_in(kPinLatency,
                                      [this, tag]() { record('t', id_, tag); });
  }

  void record(char what, SiteId who, int tag) {
    log_ += std::to_string(network_->simulator().now()) + ' ' + what +
            std::to_string(id_) + '.' + std::to_string(who) + '.' +
            std::to_string(tag) + '\n';
  }

  std::string& log_;
  int& next_tag_;
};

/// Counts the observed path's events; attaching it must not move the pin.
struct CountingObserver final : check::Observer {
  std::size_t events = 0;
  void on_event(const check::Event& /*event*/) override { ++events; }
};

struct PinRun {
  std::uint64_t hash;
  std::size_t lines;
  std::uint64_t fired;
};

PinRun run_pin(std::unique_ptr<LatencyModel> latency,
               check::Observer* observer = nullptr) {
  sim::Simulator sim;
  Network net(sim, std::move(latency), 5);
  net.set_observer(observer);
  std::string log;
  int next_tag = 0;
  std::vector<std::unique_ptr<PinNode>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<PinNode>(log, next_tag));
    net.add_node(*nodes.back());
  }
  net.start();
  const std::uint64_t fired = sim.run();
  const auto lines = std::count(log.begin(), log.end(), '\n');
  return PinRun{fnv1a(log), static_cast<std::size_t>(lines), fired};
}

TEST(Network, FiringOrderPinFixedLatency) {
  const PinRun run = run_pin(make_fixed_latency(kPinLatency));
  EXPECT_EQ(run.lines, 352u);
  EXPECT_EQ(run.fired, run.lines);
  EXPECT_EQ(run.hash, 6877275268854748367ULL);

  CountingObserver observer;
  const PinRun observed = run_pin(make_fixed_latency(kPinLatency), &observer);
  EXPECT_EQ(observed.hash, run.hash);
  EXPECT_EQ(observer.events, 448u);  // a kSend and a kDeliver per message
}

TEST(Network, FiringOrderPinJitteredLatency) {
  const PinRun run = run_pin(make_uniform_jitter_latency(kPinLatency, 0.5));
  EXPECT_EQ(run.lines, 352u);
  EXPECT_EQ(run.fired, run.lines);
  EXPECT_EQ(run.hash, 10762813226836774632ULL);
}

// The pool recycles message storage in LIFO order: allocating after a free
// of the same size class must reuse the freed block instead of touching the
// system allocator. (Disabled under sanitizers, where the pool forwards to
// the system allocator so ASan keeps seeing message lifetimes.)
TEST(MessagePool, RecyclesFreedBlocksOfSameSizeClass) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  auto first = std::make_unique<TestMsg>(1);
  void* first_addr = first.get();
  first.reset();
  auto second = std::make_unique<TestMsg>(2);
  EXPECT_EQ(static_cast<void*>(second.get()), first_addr);
}

TEST(MessagePool, CountsAllocationsAndReleases) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  const MessagePoolStats before = message_pool_stats();
  {
    auto a = std::make_unique<TestMsg>(1);
    auto b = std::make_unique<TestMsg>(2);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocations, before.allocations + 2);
  EXPECT_EQ(after.deallocations, before.deallocations + 2);
  EXPECT_GT(after.bytes_reserved, 0u);
}

// End to end: a full simulated exchange must leave no message block behind
// (every operator new paired with an operator delete through the pool).
TEST(MessagePool, SimulationReturnsEveryMessageToThePool) {
  if (!message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  const MessagePoolStats before = message_pool_stats();
  {
    Fixture f(make_fixed_latency(sim::from_ms(0.6)));
    for (int i = 0; i < 50; ++i) {
      f.net.send(0, 1, std::make_unique<TestMsg>(i));
    }
    f.sim.run();
    EXPECT_EQ(f.b.log.size(), 50u);
  }
  const MessagePoolStats after = message_pool_stats();
  EXPECT_EQ(after.allocations - before.allocations,
            after.deallocations - before.deallocations);
}

}  // namespace
}  // namespace mra::net
