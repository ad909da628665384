// Scenario subsystem tests: generator determinism and distribution shape,
// spec validation, registry completeness, bit-identical reruns, and trace
// record/replay round trips (including safety/liveness across every
// algorithm in the factory).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/monitor.hpp"
#include "mutants.hpp"
#include "scenario/generator.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "sim/random.hpp"

namespace mra::scenario {
namespace {

/// Shrinks a spec so one run takes milliseconds, preserving its character.
ScenarioSpec shrink(ScenarioSpec s) {
  s.system.num_sites = 8;
  s.system.num_resources = 16;
  s.workload.num_resources = 16;
  s.workload.phi = std::min(s.workload.phi, 4);
  s.popularity.hot_k = std::min(s.popularity.hot_k, 4);
  s.warmup = sim::from_ms(100);
  s.measure = sim::from_ms(600);
  return s;
}

// --- pickers ---------------------------------------------------------------

TEST(Picker, EveryKindIsDeterministicAndDrawsDistinctSets) {
  for (Popularity kind :
       {Popularity::kUniform, Popularity::kZipf, Popularity::kHotspot}) {
    PopularitySpec spec;
    spec.kind = kind;
    auto a = make_picker(spec, 20);
    auto b = make_picker(spec, 20);
    sim::Rng ra(42), rb(42);
    for (int i = 0; i < 200; ++i) {
      const int size = 1 + i % 8;
      const ResourceSet sa = a->draw(size, ra);
      const ResourceSet sb = b->draw(size, rb);
      ASSERT_EQ(sa.to_vector(), sb.to_vector()) << to_string(kind);
      ASSERT_EQ(sa.size(), static_cast<std::size_t>(size)) << to_string(kind);
      sa.for_each([](ResourceId r) {
        ASSERT_GE(r, 0);
        ASSERT_LT(r, 20);
      });
    }
  }
}

TEST(Picker, ZipfRankOneFrequencyDominates) {
  PopularitySpec spec;
  spec.kind = Popularity::kZipf;
  spec.zipf_exponent = 1.2;
  auto picker = make_picker(spec, 20);
  sim::Rng rng(7);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 6000; ++i) {
    picker->draw(1, rng).for_each(
        [&](ResourceId r) { ++counts[static_cast<std::size_t>(r)]; });
  }
  // Rank 1 beats rank 2 (expected ratio 2^1.2 ≈ 2.3) and crushes the tail.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 3 * counts[10]);
  for (int c : counts) EXPECT_GT(c, 0);  // but nothing starves
}

TEST(Picker, HotspotConcentratesConfiguredMass) {
  PopularitySpec spec;
  spec.kind = Popularity::kHotspot;
  spec.hot_k = 4;
  spec.hot_mass = 0.8;
  auto picker = make_picker(spec, 20);
  sim::Rng rng(11);
  int hot = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    picker->draw(1, rng).for_each([&](ResourceId r) {
      if (r < 4) ++hot;
    });
  }
  const double hot_share = static_cast<double>(hot) / n;
  EXPECT_GE(hot_share, 0.75);  // configured mass 0.8 ± sampling noise
  EXPECT_LE(hot_share, 0.85);
}

// --- arrival processes -----------------------------------------------------

TEST(Arrival, AllKindsDeterministicAndPositive) {
  workload::WorkloadConfig wl;
  for (Arrival kind : {Arrival::kClosedExponential, Arrival::kOpenPoisson,
                       Arrival::kOnOffBursty}) {
    ArrivalSpec spec;
    spec.kind = kind;
    auto a = make_arrival(spec, wl);
    auto b = make_arrival(spec, wl);
    sim::Rng ra(5), rb(5);
    sim::SimTime now = 0;
    for (int i = 0; i < 300; ++i) {
      const auto da = a.next_delay(now, ra);
      const auto db = b.next_delay(now, rb);
      ASSERT_EQ(da, db) << to_string(kind);
      ASSERT_GT(da, 0) << to_string(kind);
      now += da;
    }
  }
}

TEST(Arrival, ClosedExponentialMeanTracksBeta) {
  // The paper's think time: Exp(β) between a release and the next request.
  const workload::WorkloadConfig cfg = workload::medium_load(4);
  ArrivalProcess think = make_arrival(ArrivalSpec{}, cfg);
  sim::Rng rng(8);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(think.next_delay(0, rng));
  }
  const double mean = sum / n;
  const double beta = static_cast<double>(cfg.beta());
  EXPECT_NEAR(mean / beta, 1.0, 0.05);
}

TEST(Arrival, OnlyOpenPoissonIsOpenLoop) {
  workload::WorkloadConfig wl;
  ArrivalSpec spec;
  EXPECT_FALSE(make_arrival(spec, wl).open_loop());
  spec.kind = Arrival::kOpenPoisson;
  EXPECT_TRUE(make_arrival(spec, wl).open_loop());
  spec.kind = Arrival::kOnOffBursty;
  EXPECT_FALSE(make_arrival(spec, wl).open_loop());
}

// --- heterogeneity ---------------------------------------------------------

TEST(Heterogeneity, HeavySitesGetScaledWorkload) {
  ScenarioSpec s = find_scenario("heterogeneous");
  ASSERT_EQ(num_heavy_sites(s), 8);  // 25% of 32
  const auto heavy = effective_site_workload(s, 0);
  const auto light = effective_site_workload(s, 8);
  EXPECT_EQ(light.phi, s.workload.phi);
  EXPECT_EQ(heavy.phi, 16);  // 4 * 4, under M = 80
  EXPECT_EQ(heavy.alpha_max, 2 * light.alpha_max);
  EXPECT_NO_THROW(heavy.validate());
}

TEST(Heterogeneity, HeavyPhiIsCappedAtM) {
  ScenarioSpec s = find_scenario("heterogeneous");
  s.heterogeneity.heavy_phi_scale = 1000.0;
  EXPECT_EQ(effective_site_workload(s, 0).phi, s.workload.num_resources);
}

// --- spec validation -------------------------------------------------------

TEST(Spec, ValidationNamesTheOffendingField) {
  auto message_of = [](const ScenarioSpec& s) -> std::string {
    try {
      s.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  ScenarioSpec s = find_scenario("zipf-hot");
  s.popularity.zipf_exponent = -1.0;
  EXPECT_NE(message_of(s).find("zipf_exponent"), std::string::npos);

  s = find_scenario("hotspot-k4");
  s.popularity.hot_k = 0;
  EXPECT_NE(message_of(s).find("hot_k"), std::string::npos);
  s = find_scenario("hotspot-k4");
  s.popularity.hot_mass = 1.5;
  EXPECT_NE(message_of(s).find("hot_mass"), std::string::npos);

  s = find_scenario("heterogeneous");
  s.heterogeneity.heavy_fraction = 2.0;
  EXPECT_NE(message_of(s).find("heavy_fraction"), std::string::npos);

  s = find_scenario("bursty");
  s.arrival.burst_think_scale = 0.0;
  EXPECT_NE(message_of(s).find("burst_think_scale"), std::string::npos);

  s = find_scenario("paper-phi4");
  s.system.num_resources = 40;  // now disagrees with workload
  EXPECT_NE(message_of(s).find("num_resources"), std::string::npos);
}

// --- registry --------------------------------------------------------------

TEST(Registry, HasAtLeastSixDocumentedValidScenarios) {
  const auto& all = registry();
  EXPECT_GE(all.size(), 6u);
  std::map<std::string, int> seen;
  for (const ScenarioSpec& s : all) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.summary.empty()) << s.name;
    EXPECT_NO_THROW(s.validate()) << s.name;
    ++seen[s.name];
  }
  for (const auto& [name, count] : seen) EXPECT_EQ(count, 1) << name;
  for (const char* required :
       {"paper-phi4", "paper-phi80", "zipf-hot", "bursty", "heterogeneous",
        "clouds-hierarchical"}) {
    EXPECT_NO_THROW((void)find_scenario(required)) << required;
  }
  EXPECT_THROW((void)find_scenario("no-such-scenario"),
               std::invalid_argument);
}

// --- end-to-end determinism ------------------------------------------------

TEST(RunScenario, BitIdenticalMetricsAcrossRunsForEveryScenario) {
  for (const ScenarioSpec& registered : registry()) {
    const ScenarioSpec spec = shrink(registered);
    const auto a = run_scenario(spec, algo::Algorithm::kLassWithLoan);
    const auto b = run_scenario(spec, algo::Algorithm::kLassWithLoan);
    EXPECT_EQ(a.use_rate, b.use_rate) << spec.name;  // bitwise
    EXPECT_EQ(a.waiting_mean_ms, b.waiting_mean_ms) << spec.name;
    EXPECT_EQ(a.requests_completed, b.requests_completed) << spec.name;
    EXPECT_EQ(a.messages, b.messages) << spec.name;
    EXPECT_EQ(a.bytes, b.bytes) << spec.name;
    EXPECT_GT(a.requests_completed, 0u) << spec.name;
  }
}

TEST(RunScenario, OpenLoopCompletesQueuedArrivals) {
  const ScenarioSpec spec = shrink(find_scenario("open-loop"));
  const auto r = run_scenario(spec, algo::Algorithm::kLassWithLoan);
  EXPECT_GT(r.requests_completed, 0u);
  EXPECT_GT(r.use_rate, 0.0);
}

// --- trace record / replay -------------------------------------------------

TEST(TraceFormat, RoundTripsThroughStream) {
  // clouds-hierarchical also exercises the optional topology header keys.
  for (const char* name : {"hotspot-k4", "clouds-hierarchical"}) {
    const ScenarioSpec spec = shrink(find_scenario(name));
    const RequestTrace trace =
        record_scenario(spec, algo::Algorithm::kLassWithLoan);
    ASSERT_FALSE(trace.events.empty()) << name;

    std::stringstream ss;
    write_trace(ss, trace);
    const RequestTrace back = read_trace(ss);

    EXPECT_EQ(back.scenario, trace.scenario);
    EXPECT_EQ(back.num_sites, trace.num_sites);
    EXPECT_EQ(back.num_resources, trace.num_resources);
    EXPECT_EQ(back.seed, trace.seed);
    EXPECT_EQ(back.network_latency, trace.network_latency);
    EXPECT_EQ(back.hierarchical_clusters, trace.hierarchical_clusters);
    EXPECT_EQ(back.hierarchical_remote_latency,
              trace.hierarchical_remote_latency);
    ASSERT_EQ(back.events.size(), trace.events.size()) << name;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      EXPECT_EQ(back.events[i], trace.events[i]) << name << " event " << i;
    }
  }
}

TEST(TraceFormat, RejectsMalformedInput) {
  std::stringstream no_magic("sites 4\nresources 8\nseed 1\n");
  EXPECT_THROW((void)read_trace(no_magic), std::runtime_error);

  std::stringstream bad_key("# mra-trace v1\nbogus 12\n");
  EXPECT_THROW((void)read_trace(bad_key), std::runtime_error);

  std::stringstream bad_site(
      "# mra-trace v1\nsites 4\nresources 8\nseed 1\n100 9 50 0,1\n");
  EXPECT_THROW((void)read_trace(bad_site), std::invalid_argument);

  std::stringstream bad_resource(
      "# mra-trace v1\nsites 4\nresources 8\nseed 1\n100 0 50 0,99\n");
  EXPECT_THROW((void)read_trace(bad_resource), std::invalid_argument);
}

TEST(TraceFormat, UnknownMutantIsANamedError) {
  // An unresolved name would replay with no mutant active and report a
  // clean run. "none" is not a seeded bug either.
  const std::string head = "# mra-trace v2\nsites 4\nresources 8\n";
  for (const std::string name : {"no-such-mutant", "none"}) {
    std::stringstream in(head + "mutant " + name + "\n");
    try {
      (void)read_trace(in);
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "trace: mutant=" + name + " names no seeded bug");
    }
  }
  std::stringstream known(head + "mutant lass-drop-release\n");
  EXPECT_EQ(read_trace(known).mutant, "lass-drop-release");

  RequestTrace trace;
  trace.num_sites = 4;
  trace.num_resources = 8;
  trace.mutant = "lass-premature-entri";
  EXPECT_THROW((void)replay_trace(trace, algo::Algorithm::kLassWithoutLoan),
               std::invalid_argument);
}

TEST(TraceFormat, HeaderDimensionsAreBounded) {
  // A two-line header must not be able to request an unbounded system: each
  // bound is rejected by name, with the offending value in the message.
  auto header_error = [](const std::string& sites,
                         const std::string& resources) -> std::string {
    std::stringstream in("# mra-trace v1\nsites " + sites + "\nresources " +
                         resources + "\nseed 1\n");
    try {
      (void)read_trace(in);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const std::string max_sites = std::to_string(RequestTrace::kMaxSites);
  const std::string max_resources =
      std::to_string(RequestTrace::kMaxResources);
  EXPECT_EQ(header_error(max_sites, "80"), "");
  EXPECT_EQ(header_error("32", max_resources), "");

  const std::string too_many_sites =
      std::to_string(RequestTrace::kMaxSites + 1);
  EXPECT_NE(header_error(too_many_sites, "80")
                .find("sites=" + too_many_sites + " exceeds"),
            std::string::npos);
  // A count that does not even fit an int is a malformed header.
  std::stringstream overflow(
      "# mra-trace v1\nsites 99999999999999999999\nresources 80\n");
  EXPECT_THROW((void)read_trace(overflow), std::runtime_error);

  const std::string too_many_resources =
      std::to_string(RequestTrace::kMaxResources + 1);
  EXPECT_NE(header_error("4", too_many_resources)
                .find("resources=" + too_many_resources + " exceeds"),
            std::string::npos);

  // Each dimension within its bound, the product beyond its own.
  EXPECT_NE(header_error(max_sites, "101").find("sites*resources=101000000"),
            std::string::npos);
}

/// The message read_trace throws for `text`, or "" when it parses.
std::string trace_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)read_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceFormat, MalformedNumbersAndFieldCountsAreNamedErrors) {
  // Each of these once parsed: a resource id read modulo 2^32, a token cut
  // at its first non-digit, a trailing comma or an extra field ignored, a
  // negative seed wrapped, an exponent dropped.
  const std::string head = "# mra-trace v1\nsites 4\nresources 8\n";
  EXPECT_EQ(trace_error(head + "100 0 50 4294967297\n"),
            "trace line 4: bad resource id \"4294967297\"");
  EXPECT_EQ(trace_error(head + "100 0 50 -4294967295\n"),
            "trace line 4: bad resource id \"-4294967295\"");
  EXPECT_EQ(trace_error(head + "100 0 50 1x,3\n"),
            "trace line 4: bad resource id \"1x\"");
  EXPECT_EQ(trace_error(head + "100 0 50 1,\n"),
            "trace line 4: bad resource id \"\"");
  EXPECT_EQ(trace_error(head + "100 0 50 1 2\n"),
            "trace line 4: event wants 4 fields: 100 0 50 1 2");
  EXPECT_EQ(trace_error("# mra-trace v1\nsites 2x\n"),
            "trace line 2: bad sites \"2x\"");
  EXPECT_EQ(trace_error(head + "seed -1\n"), "trace line 4: bad seed \"-1\"");
  EXPECT_EQ(trace_error(head + "latency_ns 6e5\n"),
            "trace line 4: bad latency_ns \"6e5\"");
  EXPECT_EQ(trace_error(head + "seed 1 2\n"),
            "trace line 4: seed wants exactly one value");
}

TEST(TraceFormat, MutantsThrowNamedErrorsOrRoundTrip) {
  // Every truncation and a seed-driven set of single-byte substitutions of
  // a recorded v2 trace. Each must be refused with a named error, or parse
  // to a trace whose write_trace output parses back equal.
  ScenarioSpec spec = shrink(find_scenario("hotspot-k4"));
  spec.measure = sim::from_ms(100);
  spec.system.latency_delay_bound = sim::from_ms(1);
  std::stringstream recorded;
  write_trace(recorded, record_scenario(spec, algo::Algorithm::kLassWithLoan));
  const std::string text = recorded.str();
  ASSERT_EQ(text.rfind("# mra-trace v2\n", 0), 0u);

  std::size_t parsed = 0;
  for (const std::string& mutant :
       test::mutants_of(text, "0129-+ ,x#\n\t", 21)) {
    std::stringstream in(mutant);
    RequestTrace trace;
    try {
      trace = read_trace(in);
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind("trace", 0), 0u) << e.what();
      continue;
    }
    ++parsed;
    std::stringstream once;
    write_trace(once, trace);
    std::stringstream twice;
    write_trace(twice, read_trace(once));
    EXPECT_EQ(twice.str(), once.str()) << mutant;
  }
  EXPECT_GT(parsed, 0u);  // line-boundary truncations still parse
}

TEST(Replay, EveryFactoryAlgorithmIsSafeAndLive) {
  const ScenarioSpec spec = shrink(find_scenario("zipf-hot"));
  const RequestTrace trace =
      record_scenario(spec, algo::Algorithm::kLassWithLoan);
  ASSERT_FALSE(trace.events.empty());

  for (algo::Algorithm alg : algo::all_algorithms()) {
    check::Monitor monitor(check::MonitorConfig::safety_only(
        trace.num_sites, trace.num_resources));
    ReplayOptions options;
    options.observer = &monitor;
    const ReplayResult r = replay_trace(trace, alg, options);
    EXPECT_GT(monitor.events_seen(), 0u) << algo::to_string(alg);
    EXPECT_EQ(monitor.violations().size(), 0u) << algo::to_string(alg);
    EXPECT_TRUE(r.completed_all) << algo::to_string(alg);
    EXPECT_EQ(r.metrics.requests_completed, trace.events.size())
        << algo::to_string(alg);
  }
}

TEST(Replay, DeterministicMetrics) {
  const ScenarioSpec spec = shrink(find_scenario("bursty"));
  const RequestTrace trace =
      record_scenario(spec, algo::Algorithm::kLassWithoutLoan);
  const ReplayResult a = replay_trace(trace, algo::Algorithm::kLassWithLoan);
  const ReplayResult b = replay_trace(trace, algo::Algorithm::kLassWithLoan);
  EXPECT_EQ(a.metrics.waiting_mean_ms, b.metrics.waiting_mean_ms);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.use_rate, b.metrics.use_rate);
}

// --- trace v2 --------------------------------------------------------------

TEST(TraceV2, RecordedTracesCarrySelfContainedProvenance) {
  ScenarioSpec spec = shrink(find_scenario("hotspot-k4"));
  spec.system.latency_delay_bound = sim::from_ms(1);
  const RequestTrace trace =
      record_scenario(spec, algo::Algorithm::kLassWithLoan);
  EXPECT_TRUE(trace.has_v2_fields());
  EXPECT_EQ(trace.algorithm, "lass-loan");
  EXPECT_EQ(trace.latency_delay_bound, sim::from_ms(1));

  std::stringstream ss;
  write_trace(ss, trace);
  std::string first;
  std::getline(ss, first);
  EXPECT_EQ(first, "# mra-trace v2");
  ss.seekg(0);
  const RequestTrace back = read_trace(ss);
  EXPECT_EQ(back.algorithm, trace.algorithm);
  EXPECT_EQ(back.latency_delay_bound, trace.latency_delay_bound);
  EXPECT_EQ(back.latency_quantum, trace.latency_quantum);
  EXPECT_EQ(back.mutant, trace.mutant);
  ASSERT_EQ(back.events.size(), trace.events.size());

  // write -> read -> write is byte-stable.
  std::stringstream ss2;
  write_trace(ss2, back);
  EXPECT_EQ(ss2.str(), ss.str());
}

TEST(TraceV2, PureV1TracesStillParseAndStayV1) {
  const std::string v1 =
      "# mra-trace v1\n"
      "scenario hand\n"
      "sites 4\n"
      "resources 8\n"
      "seed 7\n"
      "latency_ns 600000\n"
      "100 0 50 0,1\n"
      "200 1 60 2\n";
  std::stringstream in(v1);
  const RequestTrace t = read_trace(in);
  EXPECT_FALSE(t.has_v2_fields());
  EXPECT_TRUE(t.algorithm.empty());
  ASSERT_EQ(t.events.size(), 2u);

  // A v2-aware writer keeps a pure-v1 trace in the v1 format, byte-stably.
  std::stringstream out;
  write_trace(out, t);
  EXPECT_EQ(out.str().rfind("# mra-trace v1", 0), 0u);
  std::stringstream again(out.str());
  std::stringstream out2;
  write_trace(out2, read_trace(again));
  EXPECT_EQ(out2.str(), out.str());
}

TEST(TraceV2, UnsupportedVersionsAndLeakedV2KeysAreRejected) {
  std::stringstream v3("# mra-trace v3\nsites 4\nresources 8\nseed 1\n");
  try {
    (void)read_trace(v3);
    FAIL() << "a v3 trace was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported trace version"),
              std::string::npos)
        << e.what();
  }

  // v2 keys are only legal under the v2 magic.
  std::stringstream leaked(
      "# mra-trace v1\nsites 4\nresources 8\nseed 1\nalgorithm lass\n");
  EXPECT_THROW((void)read_trace(leaked), std::runtime_error);

  // Negative provenance values fail validation by name.
  std::stringstream negative(
      "# mra-trace v2\nsites 4\nresources 8\nseed 1\ndelay_bound_ns -5\n"
      "100 0 50 0\n");
  EXPECT_THROW((void)read_trace(negative), std::invalid_argument);
}

TEST(TraceV2, ReplayHonorsTheEmbeddedPerturbation) {
  ScenarioSpec spec = shrink(find_scenario("zipf-hot"));
  spec.system.latency_delay_bound = sim::from_ms(2);
  const RequestTrace trace =
      record_scenario(spec, algo::Algorithm::kLassWithLoan);
  ASSERT_GT(trace.latency_delay_bound, 0);

  // The trace alone pins the perturbed network: bit-identical replays.
  ReplayOptions opt;
  opt.seed = trace.seed;
  const ReplayResult a =
      replay_trace(trace, algo::Algorithm::kLassWithLoan, opt);
  const ReplayResult b =
      replay_trace(trace, algo::Algorithm::kLassWithLoan, opt);
  EXPECT_EQ(a.metrics.waiting_mean_ms, b.metrics.waiting_mean_ms);  // bitwise
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.end_time, b.end_time);

  // ... and it matters: stripping the v2 header changes the schedule.
  RequestTrace stripped = trace;
  stripped.latency_delay_bound = 0;
  const ReplayResult c =
      replay_trace(stripped, algo::Algorithm::kLassWithLoan, opt);
  EXPECT_NE(a.end_time, c.end_time);
}

}  // namespace
}  // namespace mra::scenario
