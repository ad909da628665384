// Network substrate tests: FIFO links and the sparse watermarks' forgetting,
// latency models, statistics, every protocol's dispatch contract, and the
// pooled message allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/bouabdallah_laforest.hpp"
#include "algo/chandy_misra.hpp"
#include "algo/factory.hpp"
#include "algo/lass/messages.hpp"
#include "algo/maddi.hpp"
#include "check/event.hpp"
#include "mutex/naimi_trehel.hpp"
#include "mutex/ricart_agrawala.hpp"
#include "mutex/suzuki_kasami.hpp"
#include "net/message_pool.hpp"
#include "net/network.hpp"
#include "scenario/runner.hpp"
#include "sim/random.hpp"

namespace mra::net {
namespace {

struct TestMsg final : Message {
  int payload = 0;
  explicit TestMsg(int p) : payload(p) {}
  static constexpr std::string_view kKind = "Test";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
};

/// Logs every delivery; a message other than a TestMsg logs payload -1.
class RecorderNode final : public Node {
 public:
  struct Received {
    SiteId from;
    int payload;
    sim::SimTime at;
  };
  std::vector<Received> log;
  void on_message(SiteId from, const Message& msg) override {
    const auto* test = message_cast<TestMsg>(msg, msg.kind());
    log.push_back({from, test != nullptr ? test->payload : -1,
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

// One label from two message types, each from its own storage: the
// network's pointer compare misses the second type, and its byte compare
// must merge the two into one kind.
constexpr char kDupLabelA[] = "Dup";
constexpr char kDupLabelB[] = "Dup";

struct DupAMsg final : Message {
  static constexpr std::string_view kKind{kDupLabelA};
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 10; }
};

struct DupBMsg final : Message {
  static constexpr std::string_view kKind{kDupLabelB};
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 20; }
};

TEST(Network, StatsByKindMergesOneLabelSentFromTwoTypes) {
  ASSERT_NE(DupAMsg::kKind.data(), DupBMsg::kKind.data());
  Fixture f(make_fixed_latency(1));
  f.net.send(0, 1, std::make_unique<DupAMsg>());
  f.net.send(1, 2, std::make_unique<DupBMsg>());
  f.net.send(2, 0, std::make_unique<TestMsg>(3));
  f.net.send(0, 2, std::make_unique<DupBMsg>());
  f.sim.run();
  const Network::StatsMap stats = f.net.stats_by_kind();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("Dup").count, 3u);
  EXPECT_EQ(stats.at("Dup").bytes, 10 + 2 * 20 + 3 * Network::kEnvelopeBytes);
  EXPECT_EQ(stats.at("Test").count, 1u);
  EXPECT_EQ(f.net.total_messages(), 4u);
}

TEST(Network, ResetStatsForgetsKinds) {
  // A warm-up reset forgets the kinds it saw instead of zeroing them, so a
  // kind sent only before the reset is absent from the results.
  Fixture f(make_fixed_latency(1));
  f.net.send(0, 1, std::make_unique<TestMsg>(1));
  f.sim.run();
  f.net.reset_stats();
  EXPECT_TRUE(f.net.stats_by_kind().empty());
  f.net.send(1, 2, std::make_unique<DupAMsg>());
  f.sim.run();
  const Network::StatsMap stats = f.net.stats_by_kind();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats.contains("Test"));
  EXPECT_EQ(stats.at("Dup").count, 1u);
  EXPECT_EQ(stats.at("Dup").bytes, 10 + Network::kEnvelopeBytes);
}

// ---------------------------------------------------------------------------
// Sparse FIFO watermarks forget dead links. Above kDenseFifoMaxSites, a
// send that misses its link first erases its source's watermarks that lie
// before now. That must move no delivery: a reference that never forgets
// predicts every one, in time, link and order.
// ---------------------------------------------------------------------------

struct SeqMsg final : Message {
  std::uint32_t seq;
  explicit SeqMsg(std::uint32_t s) : seq(s) {}
  static constexpr std::string_view kKind = "Seq";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
};

struct Delivery {
  sim::SimTime at;
  SiteId src;
  SiteId dst;
  std::uint32_t seq;
  bool operator==(const Delivery&) const = default;
};

class DeliveryLogNode final : public Node {
 public:
  explicit DeliveryLogNode(std::vector<Delivery>& log) : log_(&log) {}
  void on_message(SiteId from, const Message& msg) override {
    log_->push_back({network_->simulator().now(), from, id(),
                     message_cast<SeqMsg>(msg, msg.kind())->seq});
  }

 private:
  std::vector<Delivery>* log_;
};

struct PlannedSend {
  sim::SimTime at;
  SiteId src;
  SiteId dst;
  sim::SimDuration latency;
};

/// Returns the plan's latencies in send order.
class ScriptedLatency final : public LatencyModel {
 public:
  explicit ScriptedLatency(const std::vector<PlannedSend>& plan)
      : plan_(plan) {}
  sim::SimDuration sample(int /*src*/, int /*dst*/,
                          sim::Rng& /*rng*/) override {
    return plan_[next_++].latency;
  }

 private:
  const std::vector<PlannedSend>& plan_;
  std::size_t next_ = 0;
};

/// A seeded send stream over few sources and many peers. Instants are
/// mostly closer together than a latency, so links overlap in flight, with
/// long gaps that leave links idle past their watermark. A third of the
/// latencies are zero, some sends repeat a link in the same instant, and
/// some instants send on a link, then on another link from the same source
/// (a likely miss), then on the first link again with zero latency: the
/// watermark equal to now must still clamp that last send to now + 1.
std::vector<PlannedSend> forgetting_plan(int sites, std::uint64_t seed) {
  constexpr int kSources = 4;
  constexpr int kPeers = 48;
  sim::Rng rng(seed);
  auto peer = [&] {
    return static_cast<SiteId>(
        1 + rng.uniform_int(0, kPeers - 1) * ((sites - 2) / kPeers));
  };
  auto latency = [&] {
    return rng.uniform_int(0, 2) == 0 ? sim::SimDuration{0}
                                      : rng.uniform_int(1, 2000);
  };
  std::vector<PlannedSend> plan;
  sim::SimTime now = 0;
  for (int instant = 0; instant < 1500; ++instant) {
    const int sends = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < sends; ++k) {
      const auto src = static_cast<SiteId>(rng.uniform_int(0, kSources - 1));
      const SiteId dst = peer();
      plan.push_back({now, src, dst, latency()});
      if (rng.uniform_int(0, 3) == 0) {
        plan.push_back({now, src, dst, latency()});
      }
    }
    if (rng.uniform_int(0, 4) == 0) {
      const auto src = static_cast<SiteId>(rng.uniform_int(0, kSources - 1));
      const SiteId dst = peer();
      plan.push_back({now, src, dst, 0});
      plan.push_back({now, src, peer(), latency()});
      plan.push_back({now, src, dst, 0});
    }
    now += rng.uniform_int(0, 9) == 0 ? rng.uniform_int(3000, 9000)
                                      : rng.uniform_int(1, 400);
  }
  return plan;
}

TEST(Network, ForgettingSparseWatermarksMovesNoDelivery) {
  const int sites = static_cast<int>(Network::kDenseFifoMaxSites) + 1;
  const std::vector<PlannedSend> plan = forgetting_plan(sites, 20261019);

  // Reference: FIFO per link with watermarks that are never forgotten;
  // equal delivery times fire in send order (the engine's (time, seq)).
  std::map<std::pair<SiteId, SiteId>, sim::SimTime> watermark;
  std::vector<Delivery> expected;
  std::size_t idle_sends = 0;        // link used before, idle at this send
  std::size_t clamped_to_next = 0;   // zero latency behind a same-instant send
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedSend& p = plan[i];
    const auto [it, fresh] = watermark.try_emplace({p.src, p.dst}, 0);
    if (!fresh && it->second < p.at) ++idle_sends;
    sim::SimTime at = p.at + p.latency;
    if (at <= it->second) {
      if (p.latency == 0 && it->second == p.at) ++clamped_to_next;
      at = it->second + 1;
    }
    it->second = at;
    expected.push_back({at, p.src, p.dst, static_cast<std::uint32_t>(i)});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.at < b.at;
                   });
  ASSERT_GT(idle_sends, 1000u) << "the stream must leave links idle";
  ASSERT_GT(clamped_to_next, 100u) << "the stream must clamp at now + 1";

  sim::Simulator sim;
  Network net(sim, std::make_unique<ScriptedLatency>(plan), 1);
  std::vector<Delivery> log;
  std::vector<DeliveryLogNode> nodes(static_cast<std::size_t>(sites),
                                     DeliveryLogNode(log));
  for (DeliveryLogNode& n : nodes) net.add_node(n);
  net.start();
  for (std::size_t begin = 0; begin < plan.size();) {
    std::size_t end = begin;
    while (end < plan.size() && plan[end].at == plan[begin].at) ++end;
    sim.schedule_at(plan[begin].at, [&net, &plan, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        net.send(plan[i].src, plan[i].dst,
                 std::make_unique<SeqMsg>(static_cast<std::uint32_t>(i)));
      }
    });
    begin = end;
  }
  sim.run();

  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i], expected[i])
        << "delivery " << i << ": got seq " << log[i].seq << " at "
        << log[i].at << ", want seq " << expected[i].seq << " at "
        << expected[i].at;
  }
}

// ---------------------------------------------------------------------------
// The dispatch contract (Message::kind()): among the messages one
// protocol's nodes exchange, labels are pairwise distinct, each type
// returns its own kKind, and message_cast<T> accepts exactly the T.
// ---------------------------------------------------------------------------

template <typename M>
void expect_own_label(const M& m) {
  EXPECT_EQ(m.kind(), M::kKind);
}

template <typename T, typename M>
void expect_cast_of(const M& m) {
  EXPECT_EQ(message_cast<T>(m, m.kind()) != nullptr, (std::is_same_v<M, T>))
      << "message_cast<" << T::kKind << "> of a " << m.kind();
}

template <typename T, typename... Msgs>
void expect_cast_accepts_only(const std::tuple<Msgs...>& msgs) {
  std::apply([](const auto&... m) { (expect_cast_of<T>(m), ...); }, msgs);
}

/// Checks the contract over one protocol's message types; returns their
/// labels.
template <typename... Msgs>
std::set<std::string_view> expect_dispatch_contract() {
  const std::tuple<Msgs...> msgs{};
  const std::set<std::string_view> labels{Msgs::kKind...};
  EXPECT_EQ(labels.size(), sizeof...(Msgs)) << "a label is reused";
  std::apply([](const auto&... m) { (expect_own_label(m), ...); }, msgs);
  (expect_cast_accepts_only<Msgs>(msgs), ...);
  return labels;
}

TEST(MessageCast, EveryProtocolsLabelsAreDistinctAndCastExactlyTheirType) {
  using mutex::NoPayload;
  using mutex::NtRequestMsg;
  using mutex::NtTokenMsg;
  std::map<algo::Algorithm, std::set<std::string_view>> sent_by;
  {
    SCOPED_TRACE("LASS");
    const auto labels = expect_dispatch_contract<
        algo::lass::RequestBundleMsg, algo::lass::CounterBundleMsg,
        algo::lass::TokenBundleMsg>();
    sent_by[algo::Algorithm::kLassWithoutLoan] = labels;
    sent_by[algo::Algorithm::kLassWithLoan] = labels;
  }
  {
    SCOPED_TRACE("Bouabdallah-Laforest");
    sent_by[algo::Algorithm::kBouabdallahLaforest] = expect_dispatch_contract<
        NtRequestMsg, NtTokenMsg<algo::bl_detail::ControlToken>,
        algo::bl_detail::InquireMsg, algo::bl_detail::ResourceTokenMsg>();
  }
  {
    SCOPED_TRACE("Incremental");
    sent_by[algo::Algorithm::kIncremental] =
        expect_dispatch_contract<NtRequestMsg, NtTokenMsg<NoPayload>>();
  }
  {
    SCOPED_TRACE("Maddi");
    sent_by[algo::Algorithm::kMaddi] =
        expect_dispatch_contract<algo::maddi_detail::ReqMsg,
                                 algo::maddi_detail::TokenMsg>();
  }
  sent_by[algo::Algorithm::kCentralSharedMemory] = {};
  {
    SCOPED_TRACE("Chandy-Misra");
    expect_dispatch_contract<
        algo::cm_detail::ForkTokenMsg, algo::cm_detail::ForkMsg,
        algo::cm_detail::BottleReqMsg, algo::cm_detail::BottleMsg>();
  }
  {
    SCOPED_TRACE("Naimi-Trehel substrate");
    expect_dispatch_contract<NtRequestMsg, NtTokenMsg<NoPayload>>();
  }
  {
    SCOPED_TRACE("Suzuki-Kasami substrate");
    expect_dispatch_contract<mutex::SkRequestMsg, mutex::SkTokenMsg>();
  }
  {
    SCOPED_TRACE("Ricart-Agrawala substrate");
    expect_dispatch_contract<mutex::RaRequestMsg, mutex::RaReplyMsg>();
  }

  // The lists above are each factory algorithm's whole vocabulary: a run
  // sends no label outside its list.
  ASSERT_EQ(sent_by.size(), algo::all_algorithms().size());
  for (algo::Algorithm a : algo::all_algorithms()) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = a;
    spec.system.num_sites = 6;
    spec.system.num_resources = 6;
    spec.system.seed = 3;
    spec.workload = workload::high_load(3, 6);
    spec.warmup = 0;
    spec.measure = sim::from_ms(300);
    const auto result = scenario::run_scenario(spec, a);
    EXPECT_GT(result.requests_completed, 0u) << algo::to_string(a);
    for (const auto& [kind, count] : result.messages_by_kind) {
      EXPECT_TRUE(sent_by[a].contains(kind))
          << algo::to_string(a) << " sends " << kind;
    }
  }
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
