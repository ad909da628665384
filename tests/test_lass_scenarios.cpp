// Message-level LASS scenarios: pre-emption by priority, waitS yield rule,
// obsolete-request filtering, token-tree shortcuts, and quiescence hygiene.
// These pin down the Annex A behaviours that the statistical stress tests
// cannot distinguish.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>

#include "algo/lass/node.hpp"
#include "net/network.hpp"

namespace mra::algo::lass {
namespace {

struct Fixture {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.5)), 2};
  LassConfig cfg;
  std::optional<LassContext> context;  // outlives the nodes
  std::vector<std::unique_ptr<LassNode>> nodes;
  std::vector<int> grants;

  Fixture(int n, int m, std::function<void(LassConfig&)> tweak = nullptr) {
    cfg.num_sites = n;
    cfg.num_resources = m;
    cfg.enable_loan = true;
    if (tweak) tweak(cfg);
    context.emplace(cfg);
    grants.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<LassNode>(*context));
      net.add_node(*nodes.back());
      nodes.back()->set_grant_callback(
          [this, i](RequestId) { ++grants[static_cast<std::size_t>(i)]; });
    }
    net.start();
  }
  LassNode& node(SiteId s) { return *nodes[static_cast<std::size_t>(s)]; }
};

TEST(LassScenario, HolderGrantsImmediatelyWhenNotRequesting) {
  // Idle holder receiving any request type hands over the token: a ReqCnt
  // from a counter-collecting site is answered with the token itself
  // (lines 170-171), saving the Counter/ReqRes round.
  Fixture f(2, 2);
  const ResourceSet both(2, {0, 1});
  f.sim.schedule_in(0, [&]() { f.node(1).request(both); });
  f.sim.run();
  EXPECT_EQ(f.grants[1], 1);
  EXPECT_TRUE(f.node(1).owned_tokens().contains(0));
  EXPECT_TRUE(f.node(1).owned_tokens().contains(1));
  // One aggregated request bundle + one aggregated token bundle.
  EXPECT_EQ(f.net.total_messages(), 2u);
}

TEST(LassScenario, AggregationBundlesPerDestination) {
  // A request for many resources held by one site must travel as a single
  // network message (§4.2.2), regardless of the set size.
  Fixture f(2, 16);
  ResourceSet all(16);
  for (ResourceId r = 0; r < 16; ++r) all.insert(r);
  f.sim.schedule_in(0, [&]() { f.node(1).request(all); });
  f.sim.run();
  EXPECT_EQ(f.grants[1], 1);
  EXPECT_EQ(f.net.total_messages(), 2u)
      << "16 ReqCnt and 16 tokens must aggregate into one message each way";
}

TEST(LassScenario, PriorityPreemptsWaitingHolder) {
  // s1 (earlier request, smaller counters => smaller mark) must obtain a
  // token held by s2 when s2 is still in waitCS with a larger mark.
  Fixture f(3, 2);
  const ResourceSet r0(2, {0});
  const ResourceSet r01(2, {0, 1});

  // s2 asks both resources first (counters 1,1 -> mark 1). It gets tokens
  // and enters CS. Then s1 asks r0 (counter 2 -> mark 2): must wait.
  f.sim.schedule_in(0, [&]() { f.node(2).request(r01); });
  f.sim.run();
  ASSERT_EQ(f.grants[2], 1);
  f.sim.schedule_in(0, [&]() { f.node(1).request(r0); });
  f.sim.run();
  EXPECT_EQ(f.grants[1], 0) << "s2 is in CS: s1 must wait";

  // s2 releases; the token flows to s1 (head of wQueue).
  f.node(2).release();
  f.sim.run();
  EXPECT_EQ(f.grants[1], 1);
}

TEST(LassScenario, WaitSHolderYieldsToken) {
  // A site in waitS (counters not yet gathered) must yield owned tokens to
  // any ReqRes (lines 170-171) since its own mark is not fixed yet.
  // Construct: node0 owns everything and is idle; node1 requests {0,1}
  // (gets both). node1 then releases; node0 requests {0,1} (tokens at
  // node1). While node0 is in waitS, node1 re-requests {0}: since node1
  // still holds the tokens (queues were empty), node1 serves itself; node0's
  // ReqCnt for r0 reaches node1, which answers with a counter while keeping
  // r0 (it now requires it)... The observable contract: both eventually
  // enter CS, no deadlock.
  Fixture f(2, 2);
  const ResourceSet both(2, {0, 1});
  const ResourceSet r0(2, {0});
  f.sim.schedule_in(0, [&]() { f.node(1).request(both); });
  f.sim.run();
  f.node(1).release();
  f.sim.schedule_in(0, [&]() { f.node(0).request(both); });
  f.sim.schedule_in(100, [&]() { f.node(1).request(r0); });
  f.sim.run_until([&]() {
    return f.grants[0] >= 1 || f.grants[1] >= 2;
  });
  // Let whoever won finish; the other must follow.
  if (f.node(0).state() == ProcessState::kInCS) {
    f.node(0).release();
  } else {
    f.node(1).release();
  }
  f.sim.run();
  if (f.node(0).state() == ProcessState::kInCS) f.node(0).release();
  if (f.node(1).state() == ProcessState::kInCS) f.node(1).release();
  f.sim.run();
  EXPECT_EQ(f.grants[0], 1);
  EXPECT_EQ(f.grants[1], 2);
  EXPECT_EQ(f.node(0).state(), ProcessState::kIdle);
  EXPECT_EQ(f.node(1).state(), ProcessState::kIdle);
}

TEST(LassScenario, StaleReRequestIsNotServedTwice) {
  // After a CS completes, replayed/pending copies of its requests must be
  // filtered by the lastCS obsolescence check: a site cycling on the same
  // resource gets exactly one grant per request() — never a double grant
  // from a stale queue entry.
  Fixture f(3, 1);
  const ResourceSet r0(1, {0});
  std::vector<int> remaining = {0, 4, 4};
  for (SiteId s : {1, 2}) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      ++f.grants[static_cast<std::size_t>(s)];
      f.sim.schedule_in(sim::from_ms(1), [&, s]() {
        f.node(s).release();
        if (--remaining[static_cast<std::size_t>(s)] > 0) {
          f.sim.schedule_in(100, [&, s]() { f.node(s).request(r0); });
        }
      });
    });
  }
  f.sim.schedule_in(0, [&]() { f.node(1).request(r0); });
  f.sim.schedule_in(1000, [&]() { f.node(2).request(r0); });
  f.sim.run();
  EXPECT_EQ(f.grants[1], 4);
  EXPECT_EQ(f.grants[2], 4);
  EXPECT_EQ(f.node(1).state(), ProcessState::kIdle);
  EXPECT_EQ(f.node(2).state(), ProcessState::kIdle);
}

TEST(LassScenario, CounterShortcutUpdatesFather) {
  // After receiving a Counter from the holder, the requester's next message
  // for that resource goes directly to the holder (line 260), not through
  // the stale father chain. Observable: message count stays flat when the
  // same pair keeps conflicting.
  Fixture f(4, 1);
  const ResourceSet r0(1, {0});
  // Prime: make node3 the holder via one CS.
  f.sim.schedule_in(0, [&]() { f.node(3).request(r0); });
  f.sim.run();
  f.node(3).release();
  f.sim.run();

  // Now node1 requests while node3 holds: ReqCnt travels node1 -> node0
  // (initial father) -> node3 = 2 hops the first time.
  f.sim.schedule_in(0, [&]() { f.node(3).request(r0); });
  f.sim.run();
  const auto before = f.net.total_messages();
  f.sim.schedule_in(0, [&]() { f.node(1).request(r0); });
  f.sim.run();
  f.node(3).release();
  f.sim.run();
  f.node(1).release();
  f.sim.run();
  const auto first_conflict_cost = f.net.total_messages() - before;

  // Repeat the same conflict: tok_dir pointers now point at real holders,
  // so the second round must not use more messages than the first.
  f.sim.schedule_in(0, [&]() { f.node(3).request(r0); });
  f.sim.run();
  const auto before2 = f.net.total_messages();
  f.sim.schedule_in(0, [&]() { f.node(1).request(r0); });
  f.sim.run();
  f.node(3).release();
  f.sim.run();
  f.node(1).release();
  f.sim.run();
  const auto second_conflict_cost = f.net.total_messages() - before2;
  EXPECT_LE(second_conflict_cost, first_conflict_cost);
}

TEST(LassScenario, LoanDisabledNeverLends) {
  Fixture f(4, 3, [](LassConfig& c) { c.enable_loan = false; });
  const ResourceSet a(3, {0, 1});
  const ResourceSet b(3, {1, 2});
  int completed = 0;
  for (SiteId s : {1, 2}) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      f.sim.schedule_in(sim::from_ms(1), [&, s]() {
        ++completed;
        f.node(s).release();
      });
    });
  }
  f.sim.schedule_in(0, [&]() { f.node(1).request(a); });
  f.sim.schedule_in(10, [&]() { f.node(2).request(b); });
  f.sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(f.node(1).loans_used() + f.node(2).loans_used(), 0u);
  EXPECT_FALSE(f.node(1).loan_asked());
}

TEST(LassScenario, TokensConservedUnderChurn) {
  // Random conflicting churn, then quiescence: every token has exactly one
  // owner and all queues refer to no pending site.
  Fixture f(5, 4);
  sim::Rng rng(3);
  std::vector<int> remaining(5, 15);
  std::function<void(SiteId)> issue = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    ResourceSet rs(4);
    const int size = static_cast<int>(rng.uniform_int(1, 3));
    while (static_cast<int>(rs.size()) < size) {
      rs.insert(static_cast<ResourceId>(rng.uniform_int(0, 3)));
    }
    f.node(s).request(rs);
  };
  for (SiteId s = 0; s < 5; ++s) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      f.sim.schedule_in(sim::from_ms(1), [&, s]() {
        f.node(s).release();
        f.sim.schedule_in(
            static_cast<sim::SimDuration>(rng.uniform_int(0, 500'000)),
            [&, s]() { issue(s); });
      });
    });
    f.sim.schedule_in(s * 100, [&, s]() { issue(s); });
  }
  f.sim.run();
  ASSERT_TRUE(f.sim.idle());
  for (ResourceId r = 0; r < 4; ++r) {
    int holders = 0;
    for (SiteId s = 0; s < 5; ++s) {
      if (f.node(s).owned_tokens().contains(r)) {
        ++holders;
        // At quiescence the authoritative queue must be empty.
        EXPECT_TRUE(f.node(s).token_snapshot(r).wqueue.empty())
            << "r" << r << " at s" << s;
        EXPECT_TRUE(f.node(s).token_snapshot(r).wloan.empty());
        EXPECT_EQ(f.node(s).token_snapshot(r).lender, kNoSite);
      }
    }
    EXPECT_EQ(holders, 1) << "token multiplicity for r" << r;
  }
  for (SiteId s = 0; s < 5; ++s) {
    EXPECT_EQ(f.node(s).state(), ProcessState::kIdle);
    EXPECT_TRUE(f.node(s).lent_resources().empty());
  }
}

TEST(LassScenario, RequestWhileOwningAllIsSynchronous) {
  Fixture f(2, 3);
  ResourceSet all(3, {0, 1, 2});
  f.node(0).request(all);  // elected node owns everything
  EXPECT_EQ(f.grants[0], 1);
  EXPECT_EQ(f.node(0).state(), ProcessState::kInCS);
  EXPECT_EQ(f.net.total_messages(), 0u);
  f.node(0).release();
  EXPECT_EQ(f.node(0).state(), ProcessState::kIdle);
}

}  // namespace
}  // namespace mra::algo::lass
