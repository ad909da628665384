// The conformance subsystem (src/check/): oracle unit behavior on hand-fed
// event streams, violation-report JSON round-trips, monitor bookkeeping, and
// the headline acceptance property — every registry scenario under every
// algorithm, with the full oracle set attached, completes with zero
// violations (online checking included, not just end-state assertions).
#include <gtest/gtest.h>

#include <sstream>

#include "check/explore.hpp"
#include "check/monitor.hpp"
#include "check/oracles.hpp"
#include "check/violation.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mra::check {
namespace {

struct TestSink final : ViolationSink {
  std::vector<Violation> violations;
  void report(Violation v) override { violations.push_back(std::move(v)); }
};

Event cs_event(EventType type, sim::SimTime at, SiteId site,
               const ResourceSet* rs, std::int64_t seq = 1) {
  Event e;
  e.type = type;
  e.at = at;
  e.site = site;
  e.seq = seq;
  e.resources = rs;
  return e;
}

Event msg_event(EventType type, sim::SimTime at, SiteId src, SiteId dst,
                std::int64_t id) {
  Event e;
  e.type = type;
  e.at = at;
  e.site = src;
  e.peer = dst;
  e.seq = id;
  e.kind = "Test";
  return e;
}

// ---------------------------------------------------------------------------
// Oracle units
// ---------------------------------------------------------------------------

TEST(MutualExclusionOracleTest, FlagsOverlappingGrantAndRecovers) {
  MutualExclusionOracle oracle(4);
  TestSink sink;
  const ResourceSet a(4, {0, 1});
  const ResourceSet b(4, {1, 2});

  oracle.on_event(cs_event(EventType::kAcquire, 10, 0, &a), sink);
  EXPECT_TRUE(sink.violations.empty());
  oracle.on_event(cs_event(EventType::kAcquire, 20, 1, &b), sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "mutual-exclusion");
  EXPECT_EQ(sink.violations[0].resources, std::vector<ResourceId>{1});
  EXPECT_EQ(sink.violations[0].sites, (std::vector<SiteId>{0, 1}));

  // After both release, a fresh grant is clean again.
  oracle.on_event(cs_event(EventType::kRelease, 30, 1, &b), sink);
  oracle.on_event(cs_event(EventType::kRelease, 30, 0, &a), sink);
  oracle.on_event(cs_event(EventType::kAcquire, 40, 1, &a), sink);
  EXPECT_EQ(sink.violations.size(), 1u);
}

TEST(MutualExclusionOracleTest, CleanHandoffIsSilent) {
  MutualExclusionOracle oracle(2);
  TestSink sink;
  const ResourceSet rs(2, {0, 1});
  for (SiteId s = 0; s < 4; ++s) {
    oracle.on_event(cs_event(EventType::kAcquire, 10 * s, s, &rs), sink);
    oracle.on_event(cs_event(EventType::kRelease, 10 * s + 5, s, &rs), sink);
  }
  EXPECT_TRUE(sink.violations.empty());
}

TEST(DeadlockOracleTest, DetectsAbBaCycleOnline) {
  DeadlockOracle oracle(3, 2);
  TestSink sink;
  const ResourceSet both(2, {0, 1});

  // s0 requests {0,1} and holds r0; s1 requests {0,1} and holds r1.
  oracle.on_event(cs_event(EventType::kRequest, 1, 0, &both), sink);
  Event h0 = cs_event(EventType::kHold, 2, 0, nullptr);
  h0.resource = 0;
  oracle.on_event(h0, sink);
  oracle.on_event(cs_event(EventType::kRequest, 3, 1, &both), sink);
  EXPECT_TRUE(sink.violations.empty());

  Event h1 = cs_event(EventType::kHold, 4, 1, nullptr);
  h1.resource = 1;
  oracle.on_event(h1, sink);  // closes the cycle s0 -> s1 -> s0
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "deadlock");
  EXPECT_EQ(sink.violations[0].sites, (std::vector<SiteId>{0, 1}));
  EXPECT_NE(sink.violations[0].detail.find("wait-for cycle"),
            std::string::npos);

  // The same cycle is not re-reported on every later event.
  Event h1b = h1;
  h1b.at = 5;
  oracle.on_event(h1b, sink);
  EXPECT_EQ(sink.violations.size(), 1u);
}

TEST(DeadlockOracleTest, OrderedAcquisitionIsSilent) {
  DeadlockOracle oracle(2, 2);
  TestSink sink;
  const ResourceSet both(2, {0, 1});
  oracle.on_event(cs_event(EventType::kRequest, 1, 0, &both), sink);
  oracle.on_event(cs_event(EventType::kRequest, 1, 1, &both), sink);
  Event h = cs_event(EventType::kHold, 2, 0, nullptr);
  h.resource = 0;
  oracle.on_event(h, sink);
  h.resource = 1;
  h.at = 3;
  oracle.on_event(h, sink);
  oracle.on_event(cs_event(EventType::kAcquire, 4, 0, &both), sink);
  oracle.on_event(cs_event(EventType::kRelease, 5, 0, &both), sink);
  oracle.finalize(6, /*quiescent=*/false, sink);
  EXPECT_TRUE(sink.violations.empty());
}

TEST(DeadlockOracleTest, StuckWaitersAtQuiescence) {
  DeadlockOracle oracle(2, 1);
  TestSink sink;
  const ResourceSet r0(1, {0});
  oracle.on_event(cs_event(EventType::kRequest, 1, 1, &r0), sink);

  // Not quiescent: waiting is normal, nothing to report.
  oracle.finalize(100, /*quiescent=*/false, sink);
  EXPECT_TRUE(sink.violations.empty());

  oracle.finalize(100, /*quiescent=*/true, sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].sites, std::vector<SiteId>{1});
  EXPECT_NE(sink.violations[0].detail.find("still waiting"),
            std::string::npos);
}

TEST(StarvationOracleTest, FiresWhenHorizonPassesAndNotBefore) {
  StarvationOracle oracle(2, /*horizon=*/sim::from_ms(10));
  TestSink sink;
  const ResourceSet r0(1, {0});

  oracle.on_event(cs_event(EventType::kRequest, 0, 0, &r0, 7), sink);
  oracle.on_advance(sim::from_ms(9), sink);
  EXPECT_TRUE(sink.violations.empty());
  oracle.on_advance(sim::from_ms(11), sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "starvation");
  EXPECT_EQ(sink.violations[0].sites, std::vector<SiteId>{0});
  // One report per request, not one per instant.
  oracle.on_advance(sim::from_ms(20), sink);
  EXPECT_EQ(sink.violations.size(), 1u);
}

TEST(StarvationOracleTest, GrantBeforeDeadlineIsSilent) {
  StarvationOracle oracle(1, sim::from_ms(10));
  TestSink sink;
  const ResourceSet r0(1, {0});
  oracle.on_event(cs_event(EventType::kRequest, 0, 0, &r0, 3), sink);
  oracle.on_event(cs_event(EventType::kAcquire, sim::from_ms(5), 0, &r0, 3),
                  sink);
  oracle.on_advance(sim::from_ms(50), sink);
  oracle.finalize(sim::from_ms(50), true, sink);
  EXPECT_TRUE(sink.violations.empty());
}

TEST(StarvationOracleTest, FinalizeCatchesEndOfRunDeadline) {
  StarvationOracle oracle(1, sim::from_ms(10));
  TestSink sink;
  const ResourceSet r0(1, {0});
  oracle.on_event(cs_event(EventType::kRequest, 0, 0, &r0, 1), sink);
  oracle.finalize(sim::from_ms(30), /*quiescent=*/true, sink);
  EXPECT_EQ(sink.violations.size(), 1u);
}

TEST(FifoOracleTest, FlagsOvertakingOnALink) {
  FifoOracle oracle(2);
  TestSink sink;
  oracle.on_event(msg_event(EventType::kSend, 0, 0, 1, 100), sink);
  oracle.on_event(msg_event(EventType::kSend, 1, 0, 1, 101), sink);
  // #101 arrives before #100: FIFO broken.
  oracle.on_event(msg_event(EventType::kDeliver, 5, 0, 1, 101), sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "fifo");
  oracle.on_event(msg_event(EventType::kDeliver, 6, 0, 1, 100), sink);
  // The late #100 is also out of order relative to the delivered #101.
  EXPECT_EQ(sink.violations.size(), 2u);
}

TEST(FifoOracleTest, InOrderDeliveryAndDistinctLinksAreSilent) {
  FifoOracle oracle(3);
  TestSink sink;
  oracle.on_event(msg_event(EventType::kSend, 0, 0, 1, 1), sink);
  oracle.on_event(msg_event(EventType::kSend, 0, 0, 2, 2), sink);
  oracle.on_event(msg_event(EventType::kSend, 1, 0, 1, 3), sink);
  // Cross-link reordering is allowed; per-link order is kept.
  oracle.on_event(msg_event(EventType::kDeliver, 4, 0, 2, 2), sink);
  oracle.on_event(msg_event(EventType::kDeliver, 5, 0, 1, 1), sink);
  oracle.on_event(msg_event(EventType::kDeliver, 6, 0, 1, 3), sink);
  EXPECT_TRUE(sink.violations.empty());
}

TEST(ComplexityOracleTest, AccountsAndEnforcesBound) {
  ComplexityOracle oracle(/*max_messages_per_cs=*/5.0);
  TestSink sink;
  const ResourceSet r0(1, {0});
  for (int i = 0; i < 12; ++i) {
    oracle.on_event(msg_event(EventType::kSend, i, 0, 1, i), sink);
  }
  oracle.on_event(cs_event(EventType::kAcquire, 20, 1, &r0), sink);
  EXPECT_EQ(oracle.messages(), 12u);
  EXPECT_EQ(oracle.cs_entries(), 1u);
  oracle.finalize(30, true, sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "message-complexity");

  ComplexityOracle lenient(20.0);
  TestSink sink2;
  for (int i = 0; i < 12; ++i) {
    lenient.on_event(msg_event(EventType::kSend, i, 0, 1, i), sink2);
  }
  lenient.on_event(cs_event(EventType::kAcquire, 20, 1, &r0), sink2);
  lenient.finalize(30, true, sink2);
  EXPECT_TRUE(sink2.violations.empty());
}

// ---------------------------------------------------------------------------
// Violation JSON round-trip
// ---------------------------------------------------------------------------

TEST(ViolationJson, RoundTripsExactly) {
  std::vector<Violation> in;
  Violation a;
  a.oracle = "mutual-exclusion";
  a.at = (1LL << 53) + 1;  // above double's exact-integer range
  a.sites = {2, 7};
  a.resources = {0, 31};
  a.detail = "resource r31 granted to s7 while held by s2";
  a.recent_events = {"[1.2ms] s2 acquire {0,31} seq=4",
                     "quote \" backslash \\ newline \n tab \t done"};
  in.push_back(a);
  Violation b;
  b.oracle = "deadlock";
  b.detail = "empty lists work too";
  in.push_back(b);

  std::ostringstream os;
  write_violations_json(os, in);
  const std::vector<Violation> out = read_violations_json(os.str());
  EXPECT_EQ(in, out);
}

TEST(ViolationJson, EmptyListAndErrors) {
  std::ostringstream os;
  write_violations_json(os, {});
  EXPECT_TRUE(read_violations_json(os.str()).empty());
  EXPECT_THROW((void)read_violations_json("{not json"), std::runtime_error);
  EXPECT_THROW((void)read_violations_json("[{\"oracle\": }]"),
               std::runtime_error);
  // Number-shaped garbage must surface as the documented runtime_error, not
  // leak std::stod/stoi's invalid_argument.
  EXPECT_THROW((void)read_violations_json("[{\"at_ns\": e}]"),
               std::runtime_error);
  EXPECT_THROW((void)read_violations_json("[{\"detail\": \"\\uZZZZ\"}]"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Monitor bookkeeping
// ---------------------------------------------------------------------------

TEST(MonitorTest, RecentEventsAreOldestFirstAndBounded) {
  MonitorConfig cfg;
  cfg.num_sites = 2;
  cfg.num_resources = 1;
  cfg.event_window = 4;
  Monitor monitor(cfg);
  const ResourceSet r0(1, {0});
  for (int i = 0; i < 10; ++i) {
    monitor.on_event(cs_event(EventType::kRequest, i, 0, &r0, i));
  }
  const std::vector<std::string> recent = monitor.recent_events();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_NE(recent.front().find("seq=6"), std::string::npos);
  EXPECT_NE(recent.back().find("seq=9"), std::string::npos);
  EXPECT_EQ(monitor.events_seen(), 10u);
}

TEST(MonitorTest, ViolationCarriesRecentWindow) {
  MonitorConfig cfg;
  cfg.num_sites = 2;
  cfg.num_resources = 1;
  Monitor monitor(cfg);
  const ResourceSet r0(1, {0});
  monitor.on_event(cs_event(EventType::kAcquire, 1, 0, &r0));
  monitor.on_event(cs_event(EventType::kAcquire, 2, 1, &r0));
  ASSERT_FALSE(monitor.ok());
  EXPECT_FALSE(monitor.violations()[0].recent_events.empty());
}

// ---------------------------------------------------------------------------
// The headline property: every registry scenario, every algorithm, full
// oracle set, zero violations (quick windows keep this test fast).
// ---------------------------------------------------------------------------

TEST(ConformanceSweep, AllScenariosAllAlgorithmsZeroViolations) {
  for (const scenario::ScenarioSpec& registered : scenario::registry()) {
    scenario::ScenarioSpec spec = registered;
    spec.warmup = sim::from_ms(200);
    spec.measure = sim::from_ms(800);
    for (algo::Algorithm alg : algo::all_algorithms()) {
      const CheckedRun run = run_checked_scenario(spec, alg);
      EXPECT_TRUE(run.violations.empty())
          << spec.name << " / " << algo::to_string(alg) << ": "
          << (run.violations.empty() ? ""
                                     : run.violations.front().oracle + ": " +
                                           run.violations.front().detail);
      EXPECT_TRUE(run.quiescent) << spec.name << " / " << algo::to_string(alg);
      EXPECT_GT(run.events, 0u);
    }
  }
}

TEST(ConformanceSweep, CheckedReplayOfRecordedTraceIsClean) {
  scenario::ScenarioSpec spec = scenario::find_scenario("zipf-hot");
  spec.warmup = sim::from_ms(200);
  spec.measure = sim::from_ms(600);
  const scenario::RequestTrace trace =
      scenario::record_scenario(spec, algo::Algorithm::kLassWithLoan);
  ASSERT_FALSE(trace.events.empty());
  const std::vector<Violation> violations =
      check_replay(trace, algo::Algorithm::kLassWithLoan, MonitorConfig{},
                   /*seed=*/1, /*delay_bound=*/sim::from_ms(1));
  EXPECT_TRUE(violations.empty());
}

// ---------------------------------------------------------------------------
// Explorer smoke: deterministic, clean on healthy code, exact run counts.
// ---------------------------------------------------------------------------

TEST(ExplorerTest, CleanSweepCountsRunsAndFindsNothing) {
  ExploreConfig cfg;
  cfg.scenarios = {scenario::find_scenario("paper-phi4")};
  cfg.scenarios[0].warmup = sim::from_ms(100);
  cfg.scenarios[0].measure = sim::from_ms(400);
  cfg.algorithms = {algo::Algorithm::kLassWithLoan,
                    algo::Algorithm::kIncremental};
  cfg.seeds_per_case = 2;
  const ExploreReport report = explore(cfg);
  EXPECT_EQ(report.runs, 4u);
  EXPECT_EQ(report.violating_runs, 0u);
  EXPECT_TRUE(report.found.empty());

  // Determinism: the same sweep gives the same (empty) answer.
  const ExploreReport again = explore(cfg);
  EXPECT_EQ(again.runs, report.runs);
  EXPECT_EQ(again.violating_runs, 0u);
}

TEST(ExplorerTest, MutexSweepAllProtocolsClean) {
  MutexExploreConfig cfg;
  cfg.protocols = all_mutex_protocols();
  cfg.num_sites = 6;
  cfg.requests_per_site = 15;
  cfg.seeds_per_case = 2;
  const ExploreReport report = explore_mutex(cfg);
  EXPECT_EQ(report.runs, 6u);
  EXPECT_EQ(report.violating_runs, 0u);
}

}  // namespace
}  // namespace mra::check
