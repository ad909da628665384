// Oracle sensitivity: each MRA_CHECK_MUTANTS seeded bug must be detected by
// the oracle it targets, deterministically, and must leave a replayable
// repro trace (the recorded request trace re-triggers the same oracle under
// checked replay). In builds without -DMRA_CHECK_MUTANTS=ON every test
// SKIPs — the hooks compile to constant-false and cannot be activated.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "check/explore.hpp"
#include "check/fanout.hpp"
#include "check/mutant.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mra::check {
namespace {

class MutantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mutants_compiled_in()) {
      GTEST_SKIP() << "build without MRA_CHECK_MUTANTS";
    }
  }
  void TearDown() override { set_active_mutant(Mutant::kNone); }

  /// The standard seeded-bug hunt: paper-phi4 with quick windows and a
  /// fixed 1 ms perturbation, seed 1 — deterministic by construction.
  static scenario::ScenarioSpec hunt_spec() {
    scenario::ScenarioSpec spec = scenario::find_scenario("paper-phi4");
    spec.warmup = sim::from_ms(200);
    spec.measure = sim::from_ms(800);
    spec.system.seed = 1;
    spec.system.latency_delay_bound = sim::from_ms(1);
    return spec;
  }

  static bool has_oracle(const std::vector<Violation>& violations,
                         const std::string& oracle) {
    return std::any_of(
        violations.begin(), violations.end(),
        [&](const Violation& v) { return v.oracle == oracle; });
  }

  /// Runs the hunt under `algorithm`, expects `oracle` to fire, and proves
  /// the recorded trace is a working repro: checked replay (mutant still
  /// active) re-triggers the same oracle on the same trace.
  void expect_caught(algo::Algorithm algorithm, const std::string& oracle) {
    const scenario::ScenarioSpec spec = hunt_spec();
    CheckOptions opt;
    const CheckedRun run = run_checked_scenario(spec, algorithm, opt);
    ASSERT_FALSE(run.violations.empty())
        << to_string(active_mutant()) << " was not detected";
    EXPECT_TRUE(has_oracle(run.violations, oracle))
        << "expected oracle \"" << oracle << "\", got \""
        << run.violations.front().oracle << "\": "
        << run.violations.front().detail;
    EXPECT_FALSE(run.violations.front().recent_events.empty());

    ASSERT_FALSE(run.trace.events.empty());
    const std::vector<Violation> replayed =
        check_replay(run.trace, algorithm, MonitorConfig{}, spec.system.seed,
                     spec.system.latency_delay_bound);
    EXPECT_TRUE(has_oracle(replayed, oracle))
        << "repro trace did not re-trigger the " << oracle << " oracle";

    // The same trace is also a *self-contained* v2 repro: algorithm,
    // perturbation seed, delay bound and the active mutant all ride in the
    // header, so the single-argument replay needs no knowledge of this test.
    EXPECT_TRUE(run.trace.has_v2_fields());
    EXPECT_EQ(run.trace.mutant, to_string(active_mutant()));
    EXPECT_TRUE(has_oracle(check_replay(run.trace), oracle))
        << "self-contained v2 replay did not re-trigger " << oracle;
  }
};

TEST_F(MutantTest, LassPrematureEntryCaughtByMutualExclusion) {
  set_active_mutant(Mutant::kLassPrematureEntry);
  expect_caught(algo::Algorithm::kLassWithoutLoan, "mutual-exclusion");
}

TEST_F(MutantTest, LassDropReleaseCaughtByDeadlock) {
  set_active_mutant(Mutant::kLassDropRelease);
  expect_caught(algo::Algorithm::kLassWithoutLoan, "deadlock");
}

TEST_F(MutantTest, LassSkipCounterReplyCaughtByDeadlock) {
  set_active_mutant(Mutant::kLassSkipCounterReply);
  expect_caught(algo::Algorithm::kLassWithoutLoan, "deadlock");
}

TEST_F(MutantTest, IncrementalReversedAcquireCaughtAsWaitForCycle) {
  set_active_mutant(Mutant::kIncrementalReversedAcquire);
  const scenario::ScenarioSpec spec = hunt_spec();
  CheckOptions opt;
  const CheckedRun run =
      run_checked_scenario(spec, algo::Algorithm::kIncremental, opt);
  ASSERT_FALSE(run.violations.empty());
  ASSERT_EQ(run.violations.front().oracle, "deadlock");
  // The cycle is observed *online* from kHold events — before quiescence —
  // not merely inferred from stuck waiters at the end.
  EXPECT_NE(run.violations.front().detail.find("wait-for cycle"),
            std::string::npos)
      << run.violations.front().detail;
}

TEST_F(MutantTest, NetFifoViolationCaughtByFifoOracle) {
  set_active_mutant(Mutant::kNetFifoViolation);
  // Any message-heavy algorithm works; Incremental floods the tree links.
  const scenario::ScenarioSpec spec = hunt_spec();
  const CheckedRun run =
      run_checked_scenario(spec, algo::Algorithm::kIncremental);
  ASSERT_FALSE(run.violations.empty());
  EXPECT_TRUE(has_oracle(run.violations, "fifo"))
      << run.violations.front().oracle << ": "
      << run.violations.front().detail;
}

TEST_F(MutantTest, MutexNtDropTokenCaughtByDeadlock) {
  set_active_mutant(Mutant::kMutexNtDropToken);
  MutexExploreConfig cfg;
  cfg.protocols = {MutexProtocol::kNaimiTrehel};
  cfg.num_sites = 6;
  cfg.requests_per_site = 10;
  cfg.seeds_per_case = 2;
  const ExploreReport report = explore_mutex(cfg);
  ASSERT_FALSE(report.found.empty()) << "dropped token was not detected";
  EXPECT_TRUE(has_oracle(report.found.front().violations, "deadlock"));
}

TEST_F(MutantTest, ExplorerMinimizesAndSavesReplayableRepro) {
  set_active_mutant(Mutant::kLassPrematureEntry);
  ExploreConfig cfg;
  cfg.scenarios = {hunt_spec()};
  cfg.algorithms = {algo::Algorithm::kLassWithoutLoan};
  cfg.seeds_per_case = 4;
  cfg.trace_dir = ::testing::TempDir();
  const ExploreReport report = explore(cfg);
  ASSERT_FALSE(report.found.empty());
  const FoundViolation& f = report.found.front();
  EXPECT_TRUE(f.replay_reproduces);
  EXPECT_LE(f.minimized_events, f.trace_events);
  ASSERT_FALSE(f.trace_path.empty());

  // The saved minimized trace is a self-contained repro.
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  EXPECT_EQ(repro.events.size(), f.minimized_events);
  const std::vector<Violation> replayed =
      check_replay(repro, algo::Algorithm::kLassWithoutLoan, MonitorConfig{},
                   f.seed, f.delay_bound);
  EXPECT_TRUE(has_oracle(replayed, "mutual-exclusion"));
}

TEST_F(MutantTest, BlControlTokenLossCaughtByDeadlock) {
  set_active_mutant(Mutant::kBlControlTokenLoss);
  expect_caught(algo::Algorithm::kBouabdallahLaforest, "deadlock");
}

TEST_F(MutantTest, MaddiTimestampRegressionCaughtByStarvation) {
  // The regression (every request stamped ts = 1) only shows under
  // *sustained* contention on one resource: pending queues order by
  // (ts, site), so low-id sites jump the queue forever and a high-id site
  // starves. On the registry scenarios queues drain between bursts and the
  // mutant stays latent — hence this dedicated single-hot-resource spec.
  scenario::ScenarioSpec spec;
  spec.name = "maddi-contention";
  spec.system.num_sites = 8;
  spec.system.num_resources = 1;
  spec.system.seed = 1;
  spec.workload.num_resources = 1;
  spec.workload.phi = 1;
  spec.workload.alpha_min = sim::from_ms(5);
  spec.workload.alpha_max = sim::from_ms(10);
  spec.workload.cs_jitter = 0.0;
  spec.workload.rho = 0.5;  // heavy closed-loop load: the queue never drains
  spec.warmup = sim::from_ms(100);
  spec.measure = sim::from_ms(2900);

  CheckOptions opt;
  // Honest worst-case wait is ~N * (cs + latency) ~ 100 ms; give 10x slack.
  opt.monitor.starvation_horizon = sim::from_ms(1000);

  // Healthy baseline: Lamport timestamps keep the queue fair.
  set_active_mutant(Mutant::kNone);
  const CheckedRun healthy =
      run_checked_scenario(spec, algo::Algorithm::kMaddi, opt);
  ASSERT_TRUE(healthy.violations.empty())
      << "healthy Maddi trips the dedicated spec: "
      << healthy.violations.front().oracle << ": "
      << healthy.violations.front().detail;

  set_active_mutant(Mutant::kMaddiTimestampRegression);
  const CheckedRun run =
      run_checked_scenario(spec, algo::Algorithm::kMaddi, opt);
  ASSERT_FALSE(run.violations.empty()) << "timestamp regression not detected";
  EXPECT_TRUE(has_oracle(run.violations, "starvation"))
      << run.violations.front().oracle << ": "
      << run.violations.front().detail;

  // The recorded trace is a working repro.
  ASSERT_FALSE(run.trace.events.empty());
  const std::vector<Violation> replayed =
      check_replay(run.trace, algo::Algorithm::kMaddi, opt.monitor,
                   spec.system.seed, spec.system.latency_delay_bound);
  EXPECT_TRUE(has_oracle(replayed, "starvation"))
      << "repro trace did not re-trigger the starvation oracle";

  // Self-contained: the v2 header re-activates the mutant by itself.
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(run.trace, opt.monitor), "starvation"))
      << "v2 repro trace alone did not re-trigger the starvation oracle";
}

TEST_F(MutantTest, CmForkBottleConfusionCaughtByMutualExclusion) {
  set_active_mutant(Mutant::kCmForkBottleConfusion);
  CmRingExploreConfig cfg;
  cfg.trace_dir = ::testing::TempDir();
  const ExploreReport report = explore_cm_ring(cfg);
  ASSERT_FALSE(report.found.empty()) << "bottle-phase skip was not detected";
  const FoundViolation& f = report.found.front();
  EXPECT_TRUE(has_oracle(f.violations, "mutual-exclusion"));
  EXPECT_TRUE(f.replay_reproduces);

  // The saved trace is a self-contained v2 repro: algorithm "cm-ring" and
  // the mutant ride in the header, so a bare check_replay(trace) — with the
  // global mutant cleared — re-triggers the violation.
  ASSERT_FALSE(f.trace_path.empty());
  const scenario::RequestTrace repro = scenario::load_trace(f.trace_path);
  EXPECT_EQ(repro.algorithm, "cm-ring");
  EXPECT_EQ(repro.mutant, "cm-fork-bottle-confusion");
  set_active_mutant(Mutant::kNone);
  EXPECT_TRUE(has_oracle(check_replay(repro), "mutual-exclusion"))
      << "v2 repro trace alone did not re-trigger the violation";
}

// Forensics contract: with a Monitor and an obs::FlightRecorder composed
// through one ObserverMux, the span timeline pinpoints the violating
// acquire — the recorder holds a span whose acquire stamp is exactly the
// instant and site the mutual-exclusion oracle flagged, and the exported
// Chrome trace carries the violation marker next to it.
TEST_F(MutantTest, RecorderSpanPinpointsViolatingAcquire) {
  set_active_mutant(Mutant::kLassPrematureEntry);
  const scenario::ScenarioSpec spec = hunt_spec();

  MonitorConfig mc;
  mc.num_sites = spec.system.num_sites;
  mc.num_resources = spec.system.num_resources;
  Monitor monitor(mc);
  obs::FlightRecorder recorder;
  ObserverMux mux;
  mux.add(monitor);
  mux.add(recorder);
  (void)scenario::run_scenario(
      spec, algo::Algorithm::kLassWithoutLoan, &mux,
      [&monitor](algo::AllocationSystem& system) {
        monitor.bind_simulator(system.simulator());
      });

  ASSERT_FALSE(monitor.violations().empty())
      << "premature entry was not detected";
  const Violation* flagged = nullptr;
  for (const Violation& v : monitor.violations()) {
    if (v.oracle == "mutual-exclusion") {
      flagged = &v;
      break;
    }
  }
  ASSERT_NE(flagged, nullptr);

  bool span_found = false;
  for (const obs::RequestSpan& span : recorder.spans()) {
    if (span.acquire_at == flagged->at &&
        std::find(flagged->sites.begin(), flagged->sites.end(), span.site) !=
            flagged->sites.end()) {
      span_found = true;
      break;
    }
  }
  EXPECT_TRUE(span_found)
      << "no recorded span acquires at the flagged instant";

  std::ostringstream trace;
  obs::ChromeTraceOptions options;
  options.violations = &monitor.violations();
  obs::write_chrome_trace(recorder, trace, options);
  EXPECT_NE(trace.str().find("violation: mutual-exclusion"),
            std::string::npos);
}

// Clean builds: activation is impossible, so the hooks are inert by
// construction. This test runs in *both* build flavours.
TEST(MutantGate, InactiveByDefault) {
  EXPECT_EQ(active_mutant(), Mutant::kNone);
  EXPECT_FALSE(mutant_enabled(Mutant::kLassDropRelease));
}

}  // namespace
}  // namespace mra::check
