// The schedule explorer: DPOR enumeration (exact golden schedule counts,
// canonical-first ordering, forced-prefix replay), substrate replay
// validation, sweep thread-invariance, and — in MRA_CHECK_MUTANTS builds —
// a seeded bug found in every run mode with a self-contained v2 repro, plus
// each family's pinned first find.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/dpor.hpp"
#include "check/explore.hpp"
#include "check/mutant.hpp"
#include "scenario/registry.hpp"
#include "scenario/trace.hpp"

namespace mra::check {
namespace {

bool has_oracle(const std::vector<Violation>& violations,
                const std::string& oracle) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// A fresh repro directory of this test binary's own, so concurrently
/// running suites never overwrite each other's repro files.
std::string fresh_trace_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("test_explore_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// DporScheduler unit semantics
// ---------------------------------------------------------------------------

TEST(DporScheduler, FirstScheduleIsCanonicalAndEnumerationIsExact) {
  DporScheduler s{DporConfig{}};
  s.begin_run();
  // A batch of three same-instant events: two at site 0, one at site 1.
  const std::vector<int> tags = {0, 0, 1};
  std::vector<std::size_t> order = {0, 1, 2};
  s.on_round(0, tags, order);
  // Schedule #1 is always the canonical (time, seq) order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(s.stats().choice_points, 1u);
  // The same-tag pair has 2 orderings; the cross-tag interleaving commutes
  // and is never enumerated: 3! = 6 total, 2 kept, 4 pruned.
  EXPECT_EQ(s.stats().orderings_pruned, 4u);

  ASSERT_TRUE(s.advance());
  s.begin_run();
  order = {0, 1, 2};
  s.on_round(0, tags, order);
  // Schedule #2 swaps the same-tag pair; the other event stays put.
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0, 2}));

  EXPECT_FALSE(s.advance());
  EXPECT_TRUE(s.stats().complete);
  EXPECT_FALSE(s.stats().truncated);
  EXPECT_EQ(s.stats().schedules_executed, 2u);
}

TEST(DporScheduler, NoCommuteTagPinsEventsToCanonicalOrder) {
  DporScheduler s{DporConfig{}};
  s.begin_run();
  const std::vector<int> tags = {sim::Simulator::kNoCommuteTag,
                                 sim::Simulator::kNoCommuteTag};
  std::vector<std::size_t> order = {0, 1};
  s.on_round(0, tags, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.stats().choice_points, 0u);
  EXPECT_FALSE(s.advance());  // nothing to explore
  EXPECT_TRUE(s.stats().complete);
}

TEST(DporScheduler, ForcedPrefixReplaysTheRecordedSchedule) {
  DporConfig cfg;
  cfg.forced_prefix = {1};
  cfg.max_schedules = 1;
  DporScheduler s(cfg);
  s.begin_run();
  const std::vector<int> tags = {2, 2};
  std::vector<std::size_t> order = {0, 1};
  s.on_round(5, tags, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));  // choice 1 = swapped
  EXPECT_EQ(s.choices(), (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(s.advance());  // budget of one schedule spent
}

/// The std::invalid_argument message of `f()` ("" when none is thrown).
template <typename F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(DporScheduler, ForcedChoiceBeyondTheAlternativesIsRejected) {
  DporConfig cfg;
  cfg.forced_prefix = {0, 7};
  DporScheduler s(cfg);
  s.begin_run();
  std::vector<std::size_t> order = {0, 1};
  s.on_round(0, {3, 3}, order);  // depth 0: choice 0 of 2, fine
  order = {0, 1, 2};
  // Depth 1 has 3! = 6 alternatives: choice 7 names none of them.
  const std::string error =
      invalid_argument_of([&] { s.on_round(1, {4, 4, 4}, order); });
  EXPECT_NE(error.find("choice 7"), std::string::npos) << error;
  EXPECT_NE(error.find("depth 1"), std::string::npos) << error;
  EXPECT_NE(error.find("6 alternatives"), std::string::npos) << error;
}

TEST(DporScheduler, ForcedPrefixLongerThanTheRunIsRejected) {
  DporConfig cfg;
  cfg.forced_prefix = {1, 0, 0};
  DporScheduler s(cfg);
  s.begin_run();
  std::vector<std::size_t> order = {0, 1};
  s.on_round(0, {2, 2}, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));
  const std::string error = invalid_argument_of([&] { (void)s.advance(); });
  EXPECT_NE(error.find("has 3 entries"), std::string::npos) << error;
  EXPECT_NE(error.find("met only 1 choice point"), std::string::npos)
      << error;
}

// End to end on the tiny LASS walk (4 schedules, 3 choice points, at most
// 2 per schedule): a prefix that does not fit is an error, not a silent
// replay of some other schedule.
TEST(ExhaustiveScenario, ForcedPrefixThatDoesNotFitIsAnError) {
  const scenario::ScenarioSpec spec = tiny_exhaustive_spec();
  const algo::Algorithm lass = algo::Algorithm::kLassWithoutLoan;
  auto explore_with = [&](std::vector<std::uint64_t> prefix) {
    DporConfig dpor;
    dpor.forced_prefix = std::move(prefix);
    dpor.max_schedules = 1;
    return invalid_argument_of([&] {
      (void)explore_scenario_exhaustive(spec, lass, MonitorConfig{}, dpor);
    });
  };
  EXPECT_EQ(explore_with({}), "");
  EXPECT_EQ(explore_with({1}), "");
  const std::string too_big = explore_with({999999});
  EXPECT_NE(too_big.find("choice 999999 at depth 0"), std::string::npos)
      << too_big;
  const std::string too_long = explore_with(std::vector<std::uint64_t>(50));
  EXPECT_NE(too_long.find("has 50 entries"), std::string::npos) << too_long;
}

TEST(DporDriver, ExploreSchedulesStopsWhenTheBodyAsks) {
  int runs = 0;
  const DporStats stats =
      explore_schedules(DporConfig{}, [&](DporScheduler&) {
        ++runs;
        return true;  // "violation found"
      });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(stats.schedules_executed, 1u);
  EXPECT_FALSE(stats.complete);
}

// ---------------------------------------------------------------------------
// Golden exhaustive enumeration on the tiny configurations. These counts are
// the explorer's contract: a change in the simulator's instant batching, the
// commute tagging, or the reduction shows up here as a count shift.
// ---------------------------------------------------------------------------

TEST(ExhaustiveMutex, GoldenTinyNtConfigEnumeratesExactScheduleCount) {
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  const ExploreReport a = explore_mutex_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(a.runs, 6u);
  EXPECT_EQ(a.schedules_executed, 6u);
  EXPECT_EQ(a.choice_points, 1u);
  EXPECT_EQ(a.orderings_pruned, 0u);
  EXPECT_TRUE(a.exhaustive_complete);
  EXPECT_FALSE(a.exhaustive_truncated);
  EXPECT_TRUE(a.found.empty());
  EXPECT_EQ(a.violating_runs, 0u);

  // Pure function of (config, dpor): bit-identical coverage on a re-run.
  const ExploreReport b = explore_mutex_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(b.runs, a.runs);
  EXPECT_EQ(b.choice_points, a.choice_points);
  EXPECT_EQ(b.orderings_pruned, a.orderings_pruned);
}

TEST(ExhaustiveCmRing, GoldenRingEnumeratesCompletelyAndStaysClean) {
  CmRingExploreConfig cfg;
  cfg.num_sites = 4;
  cfg.requests_per_site = 2;
  const ExploreReport r = explore_cm_ring_exhaustive(cfg, DporConfig{});
  EXPECT_EQ(r.runs, 4u);
  EXPECT_EQ(r.choice_points, 3u);
  EXPECT_EQ(r.orderings_pruned, 66u);
  EXPECT_TRUE(r.exhaustive_complete);
  EXPECT_TRUE(r.found.empty());
}

TEST(ExhaustiveScenario, TinySpecCompletesDeterministically) {
  const scenario::ScenarioSpec spec = tiny_exhaustive_spec();
  const ExploreReport a = explore_scenario_exhaustive(
      spec, algo::Algorithm::kLassWithLoan, MonitorConfig{}, DporConfig{});
  EXPECT_EQ(a.schedules_executed, 16u);
  EXPECT_EQ(a.choice_points, 15u);
  EXPECT_EQ(a.orderings_pruned, 0u);
  EXPECT_TRUE(a.exhaustive_complete);
  EXPECT_TRUE(a.found.empty());

  const ExploreReport b = explore_scenario_exhaustive(
      spec, algo::Algorithm::kLassWithLoan, MonitorConfig{}, DporConfig{});
  EXPECT_EQ(b.schedules_executed, a.schedules_executed);
  EXPECT_EQ(b.choice_points, a.choice_points);
  EXPECT_EQ(b.orderings_pruned, a.orderings_pruned);
}

// Every schedule of the tiny-spec walk is identified by its choice stack
// alone: forcing that stack as the prefix of a one-schedule exploration
// replays it to the same event count and the same recorded request trace.
TEST(ExhaustiveScenario, EveryTinySpecScheduleReplaysFromItsChoiceStack) {
  const scenario::ScenarioSpec spec = tiny_exhaustive_spec();
  struct Schedule {
    std::vector<std::uint64_t> choices;
    std::uint64_t events = 0;
    std::string trace;
  };
  const algo::Algorithm lass_loan = algo::Algorithm::kLassWithLoan;
  auto run = [&](DporScheduler& scheduler) {
    CheckOptions options;
    options.commutation = &scheduler;
    const CheckedRun r = run_checked_scenario(spec, lass_loan, options);
    EXPECT_TRUE(r.violations.empty());
    std::ostringstream trace;
    scenario::write_trace(trace, r.trace);
    return Schedule{scheduler.choices(), r.events, trace.str()};
  };
  auto explore_all = [&](const DporConfig& dpor, std::vector<Schedule>& out) {
    return explore_schedules(dpor, [&](DporScheduler& scheduler) {
      out.push_back(run(scheduler));
      return false;
    });
  };

  std::vector<Schedule> walk;
  const DporStats stats = explore_all(DporConfig{}, walk);
  ASSERT_TRUE(stats.complete);
  ASSERT_EQ(walk.size(), 16u);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    DporConfig replay;
    replay.forced_prefix = walk[i].choices;
    replay.max_schedules = 1;
    std::vector<Schedule> again;
    const DporStats one = explore_all(replay, again);
    EXPECT_EQ(one.schedules_executed, 1u) << "schedule " << i;
    ASSERT_EQ(again.size(), 1u) << "schedule " << i;
    EXPECT_EQ(again[0].choices, walk[i].choices) << "schedule " << i;
    EXPECT_EQ(again[0].events, walk[i].events) << "schedule " << i;
    EXPECT_EQ(again[0].trace, walk[i].trace) << "schedule " << i;
  }
  // The walk is not 16 copies of one run: the schedules differ.
  EXPECT_NE(walk.front().choices, walk.back().choices);
}

TEST(ExhaustiveMutex, AllThreeProtocolsCleanUnderEnumeration) {
  // The full reduced schedule space of each substrate at 3 sites x 2
  // requests: schedules / choice points / orderings pruned.
  struct Golden {
    MutexProtocol protocol;
    std::uint64_t schedules, choice_points, pruned;
  };
  for (const Golden& g : {Golden{MutexProtocol::kNaimiTrehel, 6, 1, 0},
                          Golden{MutexProtocol::kSuzukiKasami, 6, 1, 114},
                          Golden{MutexProtocol::kRicartAgrawala, 16, 9, 744}}) {
    MutexExploreConfig cfg;
    cfg.protocols = {g.protocol};
    cfg.num_sites = 3;
    cfg.requests_per_site = 2;
    const ExploreReport r = explore_mutex_exhaustive(cfg, DporConfig{});
    const char* name = to_string(g.protocol);
    EXPECT_TRUE(r.found.empty()) << name;
    EXPECT_EQ(r.runs, g.schedules) << name;
    EXPECT_EQ(r.schedules_executed, g.schedules) << name;
    EXPECT_EQ(r.choice_points, g.choice_points) << name;
    EXPECT_EQ(r.orderings_pruned, g.pruned) << name;
    EXPECT_TRUE(r.exhaustive_complete) << name;
  }
}

TEST(ExhaustiveMutex, ExploresExactlyOneProtocolPerRun) {
  MutexExploreConfig cfg;
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.protocols = all_mutex_protocols();
  EXPECT_THROW((void)explore_mutex_exhaustive(cfg, DporConfig{}),
               std::invalid_argument);
  cfg.protocols.clear();
  EXPECT_THROW((void)explore_mutex_exhaustive(cfg, DporConfig{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Substrate replays validate the trace before running it: a mutex trace has
// one resource, a ring trace one edge per site, every substrate request
// names exactly one resource, and the system fits in memory.
// ---------------------------------------------------------------------------

scenario::RequestTrace substrate_trace(const std::string& algorithm,
                                       int sites, int resources) {
  scenario::RequestTrace t;
  t.algorithm = algorithm;
  t.num_sites = sites;
  t.num_resources = resources;
  t.seed = 1;
  return t;
}

/// The std::invalid_argument message of a replay ("" when none is thrown).
std::string replay_error(const scenario::RequestTrace& trace) {
  try {
    (void)check_replay(trace);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SubstrateReplay, MalformedTracesThrowNamingTheField) {
  scenario::RequestTrace outside = substrate_trace("nt", 3, 1);
  outside.events.push_back({0, 5, sim::from_ms(1), {0}});
  EXPECT_NE(replay_error(outside).find("site 5"), std::string::npos);

  // Each Ricart-Agrawala site keeps a flag per site: 10^6 sites would ask
  // for 10^12 of them.
  scenario::RequestTrace huge = substrate_trace("ra", 1'000'000, 1);
  huge.events.push_back({0, 0, sim::from_ms(1), {0}});
  EXPECT_NE(replay_error(huge).find("sites=1000000"), std::string::npos);

  for (const char* mutex : {"nt", "sk", "ra"}) {
    scenario::RequestTrace wide = substrate_trace(mutex, 3, 4);
    wide.events.push_back({0, 1, sim::from_ms(1), {2, 3}});
    EXPECT_NE(replay_error(wide).find("resources 1"), std::string::npos)
        << mutex;
  }

  scenario::RequestTrace short_ring = substrate_trace("cm-ring", 4, 3);
  short_ring.events.push_back({0, 1, sim::from_ms(1), {1}});
  EXPECT_NE(replay_error(short_ring).find("resources 4"), std::string::npos);

  scenario::RequestTrace two_edges = substrate_trace("cm-ring", 4, 4);
  two_edges.events.push_back({0, 0, sim::from_ms(1), {0}});
  two_edges.events.push_back({0, 0, sim::from_ms(1), {0, 3}});
  const std::string error = replay_error(two_edges);
  EXPECT_NE(error.find("trace event 1"), std::string::npos) << error;
  EXPECT_NE(error.find("0,3"), std::string::npos) << error;
}

TEST(SubstrateReplay, WellFormedTracesReplayClean) {
  for (const char* mutex : {"nt", "sk", "ra"}) {
    scenario::RequestTrace t = substrate_trace(mutex, 3, 1);
    for (SiteId s = 0; s < 3; ++s) {
      t.events.push_back({0, s, sim::from_ms(1), {0}});
    }
    EXPECT_TRUE(check_replay(t).empty()) << mutex;
  }
  scenario::RequestTrace ring = substrate_trace("cm-ring", 4, 4);
  for (SiteId s = 0; s < 4; ++s) {
    ring.events.push_back({0, s, sim::from_ms(2), {s}});
  }
  EXPECT_TRUE(check_replay(ring).empty());
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the sweep is sharded in fixed waves scanned in
// case order, so the report is a pure function of the config.
// ---------------------------------------------------------------------------

TEST(ExplorerThreads, MutexFuzzReportIndependentOfThreadCount) {
  MutexExploreConfig cfg;
  cfg.protocols = all_mutex_protocols();
  cfg.num_sites = 5;
  cfg.requests_per_site = 8;
  cfg.seeds_per_case = 4;  // 12 cases: spans two waves
  cfg.threads = 1;
  const ExploreReport a = explore_mutex(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore_mutex(cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  EXPECT_EQ(a.found.size(), b.found.size());
}

TEST(ExplorerThreads, ScenarioFuzzReportIndependentOfThreadCount) {
  ExploreConfig cfg;
  cfg.scenarios = {tiny_exhaustive_spec()};
  cfg.algorithms = {algo::Algorithm::kLassWithLoan,
                    algo::Algorithm::kIncremental};
  cfg.seeds_per_case = 3;
  cfg.threads = 1;
  const ExploreReport a = explore(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore(cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  EXPECT_EQ(a.found.size(), b.found.size());
}

// ---------------------------------------------------------------------------
// A seeded bug is found in every run mode, with a self-contained repro.
// ---------------------------------------------------------------------------

class ExploreMutantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mutants_compiled_in()) {
      GTEST_SKIP() << "build without MRA_CHECK_MUTANTS";
    }
  }
  void TearDown() override { set_active_mutant(Mutant::kNone); }
};

TEST_F(ExploreMutantTest, NtDropTokenFoundInEveryModeWithSelfContainedRepro) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.seeds_per_case = 4;
  cfg.trace_dir = ::testing::TempDir();

  // Fuzz mode.
  const ExploreReport fuzz = explore_mutex(cfg);
  ASSERT_FALSE(fuzz.found.empty()) << "fuzz mode missed the dropped token";
  EXPECT_TRUE(has_oracle(fuzz.found.front().violations, "deadlock"));

  // Exhaustive mode: the canonical schedule already deadlocks, so the bug
  // is found in run #1 — deterministically.
  const ExploreReport ex = explore_mutex_exhaustive(cfg, DporConfig{});
  ASSERT_FALSE(ex.found.empty()) << "exhaustive mode missed it";
  EXPECT_EQ(ex.runs, 1u);
  const FoundViolation& f = ex.found.front();
  EXPECT_TRUE(has_oracle(f.violations, "deadlock"));

  // The saved trace is a *self-contained* v2 repro: algorithm and mutant in
  // the header, and the replay activates the mutant itself — deactivate the
  // global one to prove it.
  ASSERT_FALSE(f.trace_path.empty());
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  EXPECT_EQ(repro.algorithm, "nt");
  EXPECT_EQ(repro.mutant, "mutex-nt-drop-token");
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(repro), "deadlock"))
      << "v2 repro trace alone did not re-trigger the deadlock";
}

TEST_F(ExploreMutantTest, FuzzThreadInvarianceHoldsOnViolatingSweeps) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 3;
  cfg.requests_per_site = 2;
  cfg.seeds_per_case = 4;
  cfg.stop_on_first = true;
  cfg.threads = 1;
  const ExploreReport a = explore_mutex(cfg);
  cfg.threads = 4;
  const ExploreReport b = explore_mutex(cfg);
  ASSERT_FALSE(a.found.empty());
  ASSERT_FALSE(b.found.empty());
  // Same first violation: seed, drawn bound, oracle — regardless of which
  // worker thread happened to execute the violating run.
  EXPECT_EQ(a.found.front().seed, b.found.front().seed);
  EXPECT_EQ(a.found.front().delay_bound, b.found.front().delay_bound);
  EXPECT_EQ(a.runs, b.runs);
}

// ---------------------------------------------------------------------------
// Golden first finds: the first fuzz violation of each explorer family under
// its seeded bug (4 seeds each), and the exact text of two substrate repros.
// Together with the coverage counts above they are the drivers' behaviour
// spec: the case order, the perturbation draw, triage, ddmin and the v2
// header must not move.
// ---------------------------------------------------------------------------

TEST_F(ExploreMutantTest, NtFuzzFirstFindAndReproArePinned) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.seeds_per_case = 4;
  cfg.trace_dir = fresh_trace_dir("nt_fuzz");
  const ExploreReport r = explore_mutex(cfg);
  ASSERT_EQ(r.found.size(), 1u);
  const FoundViolation& f = r.found.front();
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.delay_bound, 908'453);
  EXPECT_EQ(f.violations.front().oracle, "deadlock");
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(f.trace_events, 9u);
  EXPECT_EQ(f.minimized_events, 3u);
  EXPECT_EQ(read_file(f.trace_path),
            "# mra-trace v2\n"
            "scenario mutex:nt\n"
            "sites 8\n"
            "resources 1\n"
            "seed 1\n"
            "latency_ns 600000\n"
            "algorithm nt\n"
            "delay_bound_ns 908453\n"
            "mutant mutex-nt-drop-token\n"
            "1703239 3 1000000 0\n"
            "1797060 7 1000000 0\n"
            "1939510 1 1000000 0\n");
}

TEST_F(ExploreMutantTest, CmRingFuzzFirstFindIsPinned) {
  set_active_mutant(Mutant::kCmForkBottleConfusion);
  CmRingExploreConfig cfg;
  cfg.seeds_per_case = 4;
  const ExploreReport r = explore_cm_ring(cfg);
  ASSERT_EQ(r.found.size(), 1u);
  const FoundViolation& f = r.found.front();
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.delay_bound, 1'943'671);
  EXPECT_EQ(f.violations.front().oracle, "mutual-exclusion");
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(f.trace_events, 18u);
  EXPECT_EQ(f.minimized_events, 4u);
}

TEST_F(ExploreMutantTest, CmRingExhaustiveReproIsPinned) {
  set_active_mutant(Mutant::kCmForkBottleConfusion);
  CmRingExploreConfig cfg;
  cfg.trace_dir = fresh_trace_dir("cm_exhaustive");
  const ExploreReport r = explore_cm_ring_exhaustive(cfg, DporConfig{});
  ASSERT_EQ(r.found.size(), 1u);
  const FoundViolation& f = r.found.front();
  EXPECT_EQ(f.violations.front().oracle, "mutual-exclusion");
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(read_file(f.trace_path),
            "# mra-trace v2\n"
            "scenario cm-ring\n"
            "sites 4\n"
            "resources 4\n"
            "seed 1\n"
            "latency_ns 600000\n"
            "algorithm cm-ring\n"
            "mutant cm-fork-bottle-confusion\n"
            "0 0 2000000 0\n"
            "0 1 2000000 0\n"
            "0 2 2000000 2\n"
            "0 3 2000000 2\n");
}

TEST_F(ExploreMutantTest, ScenarioFuzzFirstFindIsPinned) {
  set_active_mutant(Mutant::kLassPrematureEntry);
  scenario::ScenarioSpec spec = scenario::find_scenario("paper-phi4");
  spec.warmup = sim::from_ms(200);
  spec.measure = sim::from_ms(800);
  ExploreConfig cfg;
  cfg.scenarios = {spec};
  cfg.algorithms = {algo::Algorithm::kLassWithoutLoan};
  cfg.seeds_per_case = 4;
  const ExploreReport r = explore(cfg);
  ASSERT_EQ(r.found.size(), 1u);
  const FoundViolation& f = r.found.front();
  // The drawn bound is not pinned: std::hash of the case name seeds it.
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.violations.front().oracle, "mutual-exclusion");
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_EQ(f.trace_events, 8u);
  EXPECT_EQ(f.minimized_events, 2u);
}

}  // namespace
}  // namespace mra::check
