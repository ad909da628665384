// LASS-specific tests: the sorted request queue, the token's shared id log,
// the `/` total order, the counter mechanism, the Figure 3 walkthrough, the
// loan mechanism, token-conservation invariants, the token hand-off, the
// per-site memory footprint, the mark memo and the bundle kind labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "algo/factory.hpp"
#include "algo/lass/messages.hpp"
#include "algo/lass/node.hpp"
#include "check/event.hpp"
#include "core/flat_map.hpp"
#include "counting_new.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/random.hpp"

namespace mra::algo::lass {
namespace {

ReqItem res_item(ResourceId r, SiteId s, RequestId id, double mark) {
  ReqItem item;
  item.type = ReqType::kRes;
  item.r = r;
  item.sinit = s;
  item.id = id;
  item.mark = mark;
  return item;
}

TEST(SortedRequestQueue, OrdersByMarkThenSite) {
  SortedRequestQueue q;
  q.insert(res_item(0, 3, 1, 5.0));
  q.insert(res_item(0, 1, 1, 7.0));
  q.insert(res_item(0, 2, 1, 5.0));  // same mark as site 3: site id breaks tie
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.head().sinit, 2);
  EXPECT_EQ(q.pop_head().sinit, 2);
  EXPECT_EQ(q.pop_head().sinit, 3);
  EXPECT_EQ(q.pop_head().sinit, 1);
}

TEST(SortedRequestQueue, OneEntryPerSiteNewerIdWins) {
  SortedRequestQueue q;
  EXPECT_TRUE(q.insert(res_item(0, 1, 1, 5.0)));
  EXPECT_FALSE(q.insert(res_item(0, 1, 1, 9.0)));  // same id ignored
  EXPECT_EQ(q.head().mark, 5.0);
  EXPECT_TRUE(q.insert(res_item(0, 1, 2, 9.0)));  // newer id replaces
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head().mark, 9.0);
  EXPECT_FALSE(q.insert(res_item(0, 1, 1, 1.0)));  // older id ignored
  EXPECT_EQ(q.head().id, 2);
}

TEST(SortedRequestQueue, RemoveSiteAndPrune) {
  SortedRequestQueue q;
  q.insert(res_item(0, 0, 3, 1.0));
  q.insert(res_item(0, 1, 5, 2.0));
  q.insert(res_item(0, 2, 1, 3.0));
  EXPECT_TRUE(q.remove_site(1));
  EXPECT_FALSE(q.remove_site(1));
  EXPECT_EQ(q.size(), 2u);
  // last_cs: site 0 satisfied up to id 3 -> its entry (id 3) is obsolete.
  // Sparse ids: unlisted sites read as 0.
  TokenIds ids;
  ids.set_cs(0, 3);
  q.prune_obsolete(ids);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head().sinit, 2);
}

// --- the token's shared id log (DESIGN.md §3, "Token hand-off") -----------

/// What a departed view read before the log: a copy of the token's whole
/// per-site map, taken at departure.
using IdCopy = core::FlatMap<SiteId, SiteIds, 2>;

SiteIds ids_in(const IdCopy& copy, SiteId site) {
  const auto it = copy.find(site);
  return it == copy.end() ? SiteIds{} : it->second;
}

::testing::AssertionResult same_ids(SiteIds got, SiteIds want) {
  if (got.req_cnt == want.req_cnt && got.cs == want.cs) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got (" << got.req_cnt << ", " << got.cs << "), want ("
         << want.req_cnt << ", " << want.cs << ")";
}

/// The log holds at most twice the entries its token and live views read,
/// and it knows exactly how many it holds that nothing reads.
::testing::AssertionResult within_bound(const IdLog* log) {
  if (log == nullptr) return ::testing::AssertionSuccess();
  const std::size_t readable = log->readable_entries();
  if (log->size() <= 2 * readable &&
      log->garbage() == log->size() - readable) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << log->size() << " entries, " << readable << " readable, "
         << log->garbage() << " counted as garbage";
}

TEST(IdLog, MatchesPerDepartureCopiesUnderRandomOperations) {
  // Differential test: seeded writes, departures, returns and lookups on one
  // token's ids, against a FlatMap the token writes and a copy of it taken
  // at each departure. As in the protocol, a site holds at most one view of
  // the token, and its view dies when the token returns there. Every lookup
  // must match, and the log must stay within its bound after every step.
  for (const int sites : {3, 12, 40}) {
    SCOPED_TRACE(sites);
    sim::Rng rng(20261018 + static_cast<std::uint64_t>(sites));
    struct View {
      DepartedIds ids;
      IdCopy copy;
    };
    std::vector<std::optional<View>> views(static_cast<std::size_t>(sites));
    TokenIds token;
    IdCopy ref;
    RequestId next_id = 0;
    std::size_t max_size = 0;
    auto site_of = [&]() {
      return static_cast<SiteId>(rng.uniform_int(0, sites - 1));
    };
    for (int step = 0; step < 20000; ++step) {
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2: {  // the token serves a ReqCnt or records a CS
          const SiteId s = site_of();
          if (rng.uniform_int(0, 1) == 0) {
            token.set_req_cnt(s, ++next_id);
            ref[s].req_cnt = next_id;
          } else {
            token.set_cs(s, ++next_id);
            ref[s].cs = next_id;
          }
          break;
        }
        case 3:
        case 4: {  // the token leaves a site
          auto& view = views[static_cast<std::size_t>(site_of())];
          if (!view) view.emplace(View{token.depart(), ref});
          break;
        }
        case 5: {  // the token comes back to a site: its view dies
          views[static_cast<std::size_t>(site_of())].reset();
          break;
        }
        case 6: {  // copies own their logs
          TokenIds copy = token;
          const SiteId s = site_of();
          ASSERT_TRUE(same_ids(copy.get(s), ids_in(ref, s))) << step;
          copy.set_cs(s, next_id + 1);
          ASSERT_TRUE(same_ids(token.get(s), ids_in(ref, s))) << step;
          for (const auto& view : views) {
            if (!view) continue;
            const TokenIds held = TokenIds::copy_of(view->ids);
            ASSERT_TRUE(same_ids(held.get(s), ids_in(view->copy, s))) << step;
          }
          break;
        }
        default: {  // lookups
          const SiteId s = site_of();
          ASSERT_TRUE(same_ids(token.get(s), ids_in(ref, s))) << step;
          for (const auto& view : views) {
            if (!view) continue;
            ASSERT_TRUE(same_ids(view->ids.get(s), ids_in(view->copy, s)))
                << step;
          }
          break;
        }
      }
      ASSERT_TRUE(within_bound(token.log())) << step;
      if (token.log() != nullptr) {
        max_size = std::max(max_size, token.log()->size());
      }
    }
    // The log's size is set by the live views, not by the run's length: a
    // view reads one version per site, and so does the token.
    EXPECT_LE(max_size, static_cast<std::size_t>(2 * sites * (sites + 1)));

    // A token that goes away leaves its views readable.
    token = TokenIds();
    for (const auto& view : views) {
      if (!view) continue;
      for (SiteId s = 0; s < sites; ++s) {
        ASSERT_TRUE(same_ids(view->ids.get(s), ids_in(view->copy, s)));
      }
    }
  }
}

TEST(TotalOrder, PrecedesIsStrictTotalOrder) {
  const ReqItem a = res_item(0, 1, 1, 2.0);
  const ReqItem b = res_item(0, 2, 1, 2.0);
  const ReqItem c = res_item(0, 1, 1, 3.0);
  EXPECT_TRUE(a.precedes(b));   // tie on mark: site order
  EXPECT_FALSE(b.precedes(a));
  EXPECT_TRUE(a.precedes(c));
  EXPECT_FALSE(a.precedes(a));  // irreflexive
}

// --- full-node scenario fixtures -------------------------------------------

struct LassFixture {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.6)), 9};
  std::vector<std::unique_ptr<LassNode>> nodes;
  LassConfig cfg;

  LassFixture(int n, int m, bool loan = true,
              MarkPolicy policy = MarkPolicy::kAverageNonZero) {
    cfg.num_sites = n;
    cfg.num_resources = m;
    cfg.enable_loan = loan;
    cfg.mark_policy = policy;
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<LassNode>(cfg));
      net.add_node(*nodes.back());
    }
    net.start();
  }

  LassNode& node(SiteId s) { return *nodes[static_cast<std::size_t>(s)]; }

  /// Sum of owned tokens across sites plus tokens in transit must equal M.
  void expect_token_conservation_at_quiescence() {
    ASSERT_TRUE(sim.idle());
    std::vector<int> holders(static_cast<std::size_t>(cfg.num_resources), 0);
    for (auto& n : nodes) {
      n->owned_tokens().for_each([&](ResourceId r) {
        ++holders[static_cast<std::size_t>(r)];
      });
    }
    for (ResourceId r = 0; r < cfg.num_resources; ++r) {
      EXPECT_EQ(holders[static_cast<std::size_t>(r)], 1)
          << "token multiplicity violated for r" << r;
    }
  }
};

TEST(LassNode, ElectedNodeStartsWithAllTokens) {
  LassFixture f(3, 2);
  EXPECT_EQ(f.node(0).owned_tokens().size(), 2u);
  EXPECT_EQ(f.node(1).owned_tokens().size(), 0u);
  EXPECT_EQ(f.node(0).state(), ProcessState::kIdle);
}

TEST(LassNode, Figure3Walkthrough) {
  // s1(=0) in CS on r_red(=0), s3(=2) in CS on r_blue(=1); s2(=1) asks both.
  LassFixture f(3, 2);
  const ResourceSet red(2, {0});
  const ResourceSet blue(2, {1});
  const ResourceSet both(2, {0, 1});

  int s1_granted = 0;
  int s2_granted = 0;
  int s3_granted = 0;
  f.node(0).set_grant_callback([&](RequestId) { ++s1_granted; });
  f.node(1).set_grant_callback([&](RequestId) { ++s2_granted; });
  f.node(2).set_grant_callback([&](RequestId) { ++s3_granted; });

  // Move r_blue's token to s3 first (s3 requests and enters CS).
  f.sim.schedule_in(0, [&]() { f.node(0).request(red); });
  f.sim.schedule_in(0, [&]() { f.node(2).request(blue); });
  f.sim.run();
  EXPECT_EQ(s1_granted, 1);  // held the token: synchronous grant
  EXPECT_EQ(s3_granted, 1);

  // s2 requests both while the others are in CS.
  f.sim.schedule_in(0, [&]() { f.node(1).request(both); });
  f.sim.run();
  EXPECT_EQ(s2_granted, 0) << "s2 must wait: both resources are in use";
  EXPECT_EQ(f.node(1).state(), ProcessState::kWaitCS);
  // s2 has collected both counter values by now.
  EXPECT_NE(f.node(1).counter_vector()[0], 0);
  EXPECT_NE(f.node(1).counter_vector()[1], 0);

  // Releases let s2 in; afterwards s2 is root of both trees (owns tokens).
  f.node(0).release();
  f.node(2).release();
  f.sim.run();
  EXPECT_EQ(s2_granted, 1);
  EXPECT_EQ(f.node(1).state(), ProcessState::kInCS);
  EXPECT_TRUE(f.node(1).owned_tokens().contains(0));
  EXPECT_TRUE(f.node(1).owned_tokens().contains(1));

  f.node(1).release();
  f.sim.run();
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, CounterValuesAreUniquePerResource) {
  // Issue staggered requests from every site on one resource and check that
  // the counter values they observe never repeat (the core of the paper's
  // deadlock-freedom argument).
  LassFixture f(6, 1, /*loan=*/false);
  const ResourceSet r0(1, {0});
  std::vector<CounterValue> seen;
  int completed = 0;
  for (SiteId s = 0; s < 6; ++s) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      f.sim.schedule_in(sim::from_ms(1), [&, s]() {
        ++completed;
        f.node(s).release();
      });
    });
    f.sim.schedule_in(sim::from_ms(s / 2), [&, s]() {
      f.node(s).request(r0);
      // The counter value lands in MyVector once known; sample it later.
    });
    f.sim.schedule_in(sim::from_ms(20 + s), [&, s]() {
      // After everything settled the value is gone (reset on release), so
      // sample during the run instead via token snapshot below.
    });
  }
  f.sim.run();
  EXPECT_EQ(completed, 6);
  // The token's counter ends at 1 (initial) + 6 assignments.
  SiteId holder = kNoSite;
  for (SiteId s = 0; s < 6; ++s) {
    if (f.node(s).owned_tokens().contains(0)) holder = s;
  }
  ASSERT_NE(holder, kNoSite);
  EXPECT_EQ(f.node(holder).token_snapshot(0).counter, 7);
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, DepartedTokenLeavesOnlyItsIds) {
  // s0 is in CS on r0 while s1 and s2 queue in its token; its release ships
  // the token to the queue head with the other request still queued. s0
  // keeps only the ids the token left with, and CSs recorded later by the
  // new holders do not change that view.
  LassFixture f(3, 1, /*loan=*/false);
  const ResourceSet r0(1, {0});
  int grants = 0;
  f.node(0).set_grant_callback([&](RequestId) { ++grants; });
  for (SiteId s : {1, 2}) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      ++grants;
      f.sim.schedule_in(sim::from_ms(1), [&, s]() { f.node(s).release(); });
    });
  }
  f.sim.schedule_in(0, [&]() { f.node(0).request(r0); });
  f.sim.schedule_in(sim::from_ms(0.1), [&]() {
    f.node(1).request(r0);
    f.node(2).request(r0);
  });
  f.sim.run();
  ASSERT_EQ(f.node(0).state(), ProcessState::kInCS);
  ASSERT_EQ(f.node(0).token_snapshot(0).wqueue.size(), 2u);

  f.node(0).release();
  ASSERT_FALSE(f.node(0).owned_tokens().contains(0));
  const LassToken left = f.node(0).token_snapshot(0);
  EXPECT_EQ(left.last_cs(0), 1);
  EXPECT_EQ(left.last_req_cnt(1), 1);
  EXPECT_EQ(left.last_req_cnt(2), 1);
  EXPECT_EQ(left.last_cs(1), 0);
  EXPECT_EQ(left.last_cs(2), 0);
  EXPECT_TRUE(left.wqueue.empty());
  EXPECT_TRUE(left.wloan.empty());

  f.sim.run();
  EXPECT_EQ(grants, 3);
  const LassToken later = f.node(0).token_snapshot(0);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(later.last_cs(s), left.last_cs(s)) << "s" << s;
    EXPECT_EQ(later.last_req_cnt(s), left.last_req_cnt(s)) << "s" << s;
  }
  SiteId holder = kNoSite;
  for (SiteId s = 0; s < 3; ++s) {
    if (f.node(s).owned_tokens().contains(0)) holder = s;
  }
  ASSERT_NE(holder, kNoSite);
  EXPECT_NE(holder, 0);
  const LassToken held = f.node(holder).token_snapshot(0);
  EXPECT_EQ(held.last_cs(1), 1);
  EXPECT_EQ(held.last_cs(2), 1);

  // The departed ids are what is_obsolete() reads: a late copy of s1's
  // served ReqCnt reaching s0 is dropped there, not forwarded to the holder.
  ReqItem late = res_item(0, 1, 1, 0.0);
  late.type = ReqType::kCnt;
  auto bundle = std::make_unique<RequestBundleMsg>();
  bundle->visited.push_back(2);
  bundle->items.push_back(late);
  const std::uint64_t sent = f.net.total_messages();
  f.net.send(2, 0, std::move(bundle));
  f.sim.run();
  EXPECT_EQ(f.net.total_messages(), sent + 1) << "s0 forwarded it";
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, IdleSiteAllocatesNothingPerResource) {
  // At the paper's M = 80 a site that holds no token allocates nothing when
  // it is constructed and started: request sets fit inline, and the father
  // table and the counter vector are built on first use.
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.6)), 9};
  LassConfig cfg;
  cfg.num_sites = 2;
  cfg.num_resources = 80;
  cfg.enable_loan = true;
  LassNode elected(cfg);
  std::optional<LassNode> idle;
  EXPECT_EQ(test::allocations_during([&]() { idle.emplace(cfg); }), 0u);
  net.add_node(elected);
  net.add_node(*idle);
  EXPECT_EQ(test::allocations_during([&]() { idle->on_start(); }), 0u);
  net.start();
  EXPECT_TRUE(idle->counter_vector().empty());
  EXPECT_TRUE(idle->owned_tokens().empty());

  bool granted = false;
  idle->set_grant_callback([&](RequestId) { granted = true; });
  sim.schedule_in(0, [&]() { idle->request(ResourceSet(80, {3, 41})); });
  sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(idle->counter_vector().size(), 80u);
  EXPECT_NE(idle->counter_vector()[3], 0);
  EXPECT_NE(idle->counter_vector()[41], 0);
}

/// Global allocations made by the release that ships r0's token, when the
/// token's ids cover `queued` + 1 sites: s0 holds the token in its CS while
/// `queued` other sites ask for r0 (their ReqCnts write the token's ids and
/// queue them), and s0's release hands the token to the queue head.
std::uint64_t hand_off_allocations(int queued) {
  LassFixture f(queued + 1, 1, /*loan=*/false);
  const ResourceSet r0(1, {0});
  // A first CS at s0 records its own id, as every later one will.
  f.node(0).request(r0);
  f.node(0).release();
  f.node(0).request(r0);
  for (SiteId s = 1; s <= queued; ++s) f.node(s).request(r0);
  f.sim.run();
  EXPECT_EQ(f.node(0).token_snapshot(0).wqueue.size(),
            static_cast<std::size_t>(queued));
  const std::uint64_t allocations =
      test::allocations_during([&]() { f.node(0).release(); });
  EXPECT_FALSE(f.node(0).owned_tokens().contains(0));
  EXPECT_EQ(f.node(0).token_snapshot(0).last_req_cnt(queued), 1);
  return allocations;
}

TEST(LassNode, HandOffAllocationDoesNotGrowWithTheTokensIds) {
  // The token leaves only a view of its ids behind, not a copy: shipping it
  // allocates as often when its ids cover 65 sites as when they cover 5.
  // Each size runs once first, so the pools are warm for both.
  (void)hand_off_allocations(4);
  (void)hand_off_allocations(64);
  EXPECT_EQ(hand_off_allocations(64), hand_off_allocations(4));
}

TEST(LassNode, IdLogsStayWithinTheirBoundOverALongRun) {
  // LASS with loan on the paper's φ = 4 setup for 120 simulated seconds:
  // tokens visit every site many times and views keep dying, so a log that
  // never compacted would keep growing. Every token's log holds at most
  // twice what its token and live views read, and the logs hold about as
  // much after 120 s as after 30 s.
  scenario::ScenarioSpec spec = scenario::find_scenario("paper-phi4");
  algo::SystemConfig sys = spec.system;
  sys.algorithm = algo::Algorithm::kLassWithLoan;
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  scenario::ScenarioRunner runner(*system, spec, sys.seed);
  runner.start();
  // Entries in the logs of the held tokens (all of them once quiescent).
  auto held_log_entries = [&](int& tokens) {
    std::size_t total = 0;
    tokens = 0;
    for (SiteId s = 0; s < sys.num_sites; ++s) {
      const auto& node = dynamic_cast<const LassNode&>(system->node(s));
      for (ResourceId r = 0; r < sys.num_resources; ++r) {
        const LassToken* t = node.held_token(r);
        if (t == nullptr) continue;
        ++tokens;
        EXPECT_TRUE(within_bound(t->ids.log())) << "s" << s << " r" << r;
        if (t->ids.log() != nullptr) total += t->ids.log()->size();
      }
    }
    return total;
  };
  int tokens = 0;
  system->simulator().run(sim::from_ms(30'000));
  const std::size_t early = held_log_entries(tokens);
  system->simulator().run(sim::from_ms(120'000));
  runner.stop_issuing();
  system->simulator().run();
  const std::size_t late = held_log_entries(tokens);
  EXPECT_EQ(tokens, sys.num_resources) << "every token is held at the end";
  EXPECT_GT(runner.collector().completed(), 20'000u);
  EXPECT_GT(early, 0u);
  EXPECT_LE(2 * late, 3 * early) << "early " << early << ", late " << late;
}

TEST(LassNode, LoanCompletesStarvedRequest) {
  // s0 owns everything. s1 asks {0,1}; s2 asks {1,2}. After s1 enters CS
  // holding 0 and 1, s2 misses only 1 -> it may borrow from s1's successor
  // chain. Regardless of the exact path, liveness must hold and loans must
  // be returned (lender recovers its tokens).
  LassFixture f(4, 3, /*loan=*/true);
  const ResourceSet a(3, {0, 1});
  const ResourceSet b(3, {1, 2});

  int grants = 0;
  for (SiteId s : {1, 2}) {
    f.node(s).set_grant_callback([&, s](RequestId) {
      ++grants;
      f.sim.schedule_in(sim::from_ms(2), [&, s]() { f.node(s).release(); });
    });
  }
  f.sim.schedule_in(0, [&]() { f.node(1).request(a); });
  f.sim.schedule_in(sim::from_ms(0.1), [&]() { f.node(2).request(b); });
  f.sim.run();
  EXPECT_EQ(grants, 2);
  EXPECT_TRUE(f.node(1).lent_resources().empty());
  EXPECT_TRUE(f.node(2).lent_resources().empty());
  f.expect_token_conservation_at_quiescence();
}

TEST(LassNode, LoanMechanismActuallyFires) {
  // Statistical check: under sustained contention with threshold 1, at least
  // one loan completes a CS (the Fig. 5/6 "with loan" improvement exists).
  test::StressOptions opt;
  opt.algorithm = algo::Algorithm::kLassWithLoan;
  opt.num_sites = 10;
  opt.num_resources = 8;
  opt.phi = 5;
  opt.requests_per_site = 60;
  opt.max_think = 0;
  opt.seed = 5;
  const test::StressOutcome out = test::run_stress(opt);
  EXPECT_EQ(out.completed, 600u);
  // Loans-used counter lives on the nodes, which run_stress hides; instead
  // run a direct experiment and read the aggregated stats.
  scenario::ScenarioSpec spec;
  spec.system.algorithm = algo::Algorithm::kLassWithLoan;
  spec.system.num_sites = 10;
  spec.system.num_resources = 8;
  spec.system.seed = 5;
  spec.workload = workload::high_load(5, 8);
  spec.warmup = sim::from_ms(100);
  spec.measure = sim::from_ms(3000);
  const auto result = scenario::run_scenario(spec, spec.system.algorithm);
  EXPECT_GT(result.loans_used, 0u);
}

TEST(LassNode, SingleResourceOptimizationSavesMessages) {
  // With only single-resource requests, the optimized variant must use
  // strictly fewer messages for the same schedule.
  auto run = [](bool opt) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = algo::Algorithm::kLassWithoutLoan;
    spec.system.num_sites = 8;
    spec.system.num_resources = 6;
    spec.system.seed = 9;
    spec.system.opt_single_resource = opt;
    spec.workload = workload::high_load(1, 6);  // phi = 1: all single-resource
    spec.warmup = sim::from_ms(100);
    spec.measure = sim::from_ms(2000);
    return scenario::run_scenario(spec, spec.system.algorithm);
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_GT(with.requests_completed, 100u);
  EXPECT_LT(with.messages_per_cs, without.messages_per_cs);
}

TEST(LassNode, MarkPolicyChangesSchedule) {
  auto run = [](MarkPolicy p) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = algo::Algorithm::kLassWithoutLoan;
    spec.system.num_sites = 8;
    spec.system.num_resources = 6;
    spec.system.seed = 12;
    spec.system.mark_policy = p;
    spec.workload = workload::high_load(4, 6);
    spec.warmup = sim::from_ms(100);
    spec.measure = sim::from_ms(2000);
    return scenario::run_scenario(spec, spec.system.algorithm);
  };
  const auto avg = run(MarkPolicy::kAverageNonZero);
  const auto sum = run(MarkPolicy::kSumNonZero);
  // Both live; schedules differ (different completion counts or waits).
  EXPECT_GT(avg.requests_completed, 50u);
  EXPECT_GT(sum.requests_completed, 50u);
  EXPECT_TRUE(avg.requests_completed != sum.requests_completed ||
              avg.waiting_mean_ms != sum.waiting_mean_ms);
}

/// Checks that a site's memoised mark equals A(counter vector) evaluated
/// afresh, bit for bit: at every CS entry and exit, and — so that a cache
/// filled mid-request and then left stale is caught too — at every send
/// and delivery touching the site.
struct MarkProbe final : check::Observer {
  LassFixture& f;
  MarkFunction fresh;
  int cs_checks = 0;  ///< kAcquire + kRelease checks
  int mismatches = 0;

  MarkProbe(LassFixture& fixture, MarkFunction fn)
      : f(fixture), fresh(std::move(fn)) {}

  void check(SiteId s) {
    const LassNode& n = f.node(s);
    if (std::bit_cast<std::uint64_t>(n.current_mark()) !=
        std::bit_cast<std::uint64_t>(fresh(n.counter_vector()))) {
      ++mismatches;
    }
  }

  void on_event(const check::Event& ev) override {
    switch (ev.type) {
      case check::EventType::kAcquire:
      case check::EventType::kRelease:
        ++cs_checks;
        check(ev.site);
        break;
      case check::EventType::kSend:
      case check::EventType::kDeliver:
        check(ev.site);
        check(ev.peer);
        break;
      default:
        break;
    }
  }
};

TEST(LassNode, MemoisedMarkMatchesFreshEvaluation) {
  // Every write to the counter vector clears the mark cache; a missed
  // invalidation shows up as a stale mark at the next CS entry or exit.
  std::uint64_t loans = 0;
  for (MarkPolicy p : {MarkPolicy::kAverageNonZero, MarkPolicy::kMaxValue,
                       MarkPolicy::kSumNonZero, MarkPolicy::kMinNonZero}) {
    constexpr int kSites = 6;
    constexpr int kResources = 6;
    constexpr int kRounds = 12;
    LassFixture f(kSites, kResources, /*loan=*/true, p);
    MarkProbe probe(f, make_mark_function(p));
    f.net.set_observer(&probe);
    std::vector<int> issued(kSites, 0);
    int completed = 0;
    std::function<void(SiteId)> issue = [&](SiteId s) {
      const int k = issued[static_cast<std::size_t>(s)]++;
      ResourceSet want(kResources);
      want.insert((s + k) % kResources);
      want.insert((s * 5 + 2 * k + 1) % kResources);
      if ((s + k) % 2 == 0) want.insert((s * 3 + k + 2) % kResources);
      f.node(s).request(want);
    };
    for (SiteId s = 0; s < kSites; ++s) {
      f.node(s).set_observer(&probe);
      f.node(s).set_grant_callback([&, s](RequestId) {
        f.sim.schedule_in(sim::from_ms(2.5), [&, s]() {
          ++completed;
          f.node(s).release();
          if (issued[static_cast<std::size_t>(s)] < kRounds) {
            f.sim.schedule_in(sim::from_ms(0.05 * (s + 1)),
                              [&, s]() { issue(s); });
          }
        });
      });
      f.sim.schedule_in(sim::from_ms(0.1 * s), [&, s]() { issue(s); });
    }
    f.sim.run();
    EXPECT_EQ(completed, kSites * kRounds) << to_string(p);
    EXPECT_EQ(probe.cs_checks, 2 * kSites * kRounds) << to_string(p);
    EXPECT_EQ(probe.mismatches, 0) << to_string(p);
    for (auto& n : f.nodes) loans += n->loans_used();
  }
  EXPECT_GT(loans, 0u) << "the scenario must exercise the loan path";
}

TEST(LassMessages, BundleKindsAreDistinctAndOnlyLassSendsThem) {
  // LASS dispatches on the kind label and then static_casts
  // (net::message_cast), so each bundle label must belong to exactly one
  // message type.
  const RequestBundleMsg req{};
  const CounterBundleMsg cnt{};
  const TokenBundleMsg tok{};
  const std::set<std::string_view> bundle_kinds{
      RequestBundleMsg::kKind, CounterBundleMsg::kKind, TokenBundleMsg::kKind};
  EXPECT_EQ(bundle_kinds.size(), 3u);
  for (const net::Message* m :
       {static_cast<const net::Message*>(&req),
        static_cast<const net::Message*>(&cnt),
        static_cast<const net::Message*>(&tok)}) {
    EXPECT_EQ(net::message_cast<RequestBundleMsg>(*m, m->kind()) != nullptr,
              m == &req);
    EXPECT_EQ(net::message_cast<CounterBundleMsg>(*m, m->kind()) != nullptr,
              m == &cnt);
    EXPECT_EQ(net::message_cast<TokenBundleMsg>(*m, m->kind()) != nullptr,
              m == &tok);
  }

  // Every other algorithm's traffic carries none of the bundle labels, and
  // LASS sends nothing but bundles.
  for (algo::Algorithm a : algo::all_algorithms()) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = a;
    spec.system.num_sites = 6;
    spec.system.num_resources = 6;
    spec.system.seed = 3;
    spec.workload = workload::high_load(3, 6);
    spec.warmup = 0;
    spec.measure = sim::from_ms(300);
    const auto result = scenario::run_scenario(spec, spec.system.algorithm);
    const bool lass = a == algo::Algorithm::kLassWithoutLoan ||
                      a == algo::Algorithm::kLassWithLoan;
    EXPECT_GT(result.requests_completed, 0u) << algo::to_string(a);
    if (lass) {
      EXPECT_TRUE(result.messages_by_kind.contains(
          std::string(TokenBundleMsg::kKind)));
    }
    for (const auto& [kind, count] : result.messages_by_kind) {
      EXPECT_EQ(bundle_kinds.contains(kind), lass)
          << algo::to_string(a) << " sends " << kind;
    }
  }
}

TEST(LassNode, InvalidConfigThrows) {
  LassConfig cfg;
  EXPECT_THROW(LassNode{cfg}, std::invalid_argument);
  cfg.num_sites = 2;
  EXPECT_THROW(LassNode{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace mra::algo::lass
