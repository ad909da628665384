// Infrastructure tests: system factory, scenario runner, numeric flag
// parsers, the text codec.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "algo/factory.hpp"
#include "core/cli.hpp"
#include "core/wire.hpp"
#include "mutants.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mra {
namespace {

TEST(Factory, CreatesEveryAlgorithm) {
  for (auto alg : algo::all_algorithms()) {
    algo::SystemConfig cfg;
    cfg.algorithm = alg;
    cfg.num_sites = 4;
    cfg.num_resources = 6;
    auto system = algo::AllocationSystem::create(cfg);
    system->start();
    EXPECT_EQ(system->num_sites(), 4);
    EXPECT_EQ(system->num_resources(), 6);
    for (SiteId s = 0; s < 4; ++s) {
      EXPECT_EQ(system->node(s).state(), ProcessState::kIdle);
      EXPECT_EQ(system->node(s).id(), s);
    }
  }
}

TEST(Factory, RejectsBadConfigAndDoubleStart) {
  algo::SystemConfig cfg;
  cfg.num_sites = 0;
  EXPECT_THROW(algo::AllocationSystem::create(cfg), std::invalid_argument);
  cfg.num_sites = 2;
  cfg.num_resources = 0;
  EXPECT_THROW(algo::AllocationSystem::create(cfg), std::invalid_argument);
  cfg.num_resources = 2;
  auto system = algo::AllocationSystem::create(cfg);
  system->start();
  EXPECT_THROW(system->start(), std::logic_error);
}

/// What AllocationSystem::create(cfg) throws as std::invalid_argument, or
/// "" when it builds.
std::string create_error(const algo::SystemConfig& cfg) {
  try {
    (void)algo::AllocationSystem::create(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Latencies are non-negative by contract (the network's FIFO watermarks
// rely on it), so every field that could yield a negative delay is a named
// error at construction.
TEST(Factory, RejectsNegativeNetworkLatency) {
  algo::SystemConfig cfg;
  cfg.network_latency = -1;
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: network_latency must be >= 0 ns, got -1");
  cfg.network_latency = 0;
  EXPECT_EQ(create_error(cfg), "");
}

TEST(Factory, RejectsNegativeRemoteLatency) {
  algo::SystemConfig cfg;
  cfg.hierarchical_remote_latency = -5;
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: hierarchical_remote_latency must be >= 0 ns, "
            "got -5");
}

TEST(Factory, RejectsJitterOutsideTheUnitInterval) {
  algo::SystemConfig cfg;
  cfg.latency_jitter = 2.0;  // base * U[-1, 3]: negative latencies
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: latency_jitter must be finite and in [0, 1], "
            "got 2");
  cfg.latency_jitter = -0.25;
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: latency_jitter must be finite and in [0, 1], "
            "got -0.25");
  cfg.latency_jitter = 1.0;  // base * U[0, 2]: the widest that stays >= 0
  EXPECT_EQ(create_error(cfg), "");
}

TEST(Factory, RejectsNonFiniteJitter) {
  algo::SystemConfig cfg;
  cfg.latency_jitter = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(create_error(cfg).find("latency_jitter must be finite"),
            std::string::npos);
  cfg.latency_jitter = std::numeric_limits<double>::infinity();
  EXPECT_NE(create_error(cfg).find("latency_jitter must be finite"),
            std::string::npos);
}

TEST(Factory, RejectsNegativeDelayBound) {
  algo::SystemConfig cfg;
  cfg.latency_delay_bound = -3;
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: latency_delay_bound must be >= 0 ns, got -3");
}

TEST(Factory, RejectsNegativeLatencyQuantum) {
  algo::SystemConfig cfg;
  cfg.latency_quantum = -7;
  EXPECT_EQ(create_error(cfg),
            "SystemConfig: latency_quantum must be >= 0 ns, got -7");
}

TEST(Factory, EveryRegistryScenarioBuildsForEveryAlgorithm) {
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    for (auto alg : algo::all_algorithms()) {
      algo::SystemConfig cfg = spec.system;
      cfg.algorithm = alg;
      EXPECT_EQ(create_error(cfg), "") << spec.name << " / "
                                       << algo::to_string(alg);
    }
  }
}

TEST(Factory, AlgorithmNamesAreDistinct) {
  std::set<std::string> names;
  for (auto alg : algo::all_algorithms()) {
    names.insert(algo::to_string(alg));
  }
  EXPECT_EQ(names.size(), algo::all_algorithms().size());
}

TEST(Factory, HierarchicalTopologySlowsCrossClusterTraffic) {
  // Same workload; inter-cluster latency dominates the waiting time when
  // the WAN hop is large.
  auto run = [](int clusters, double wan_ms) {
    algo::SystemConfig cfg;
    cfg.algorithm = algo::Algorithm::kLassWithoutLoan;
    cfg.num_sites = 8;
    cfg.num_resources = 8;
    cfg.hierarchical_clusters = clusters;
    cfg.hierarchical_remote_latency = sim::from_ms(wan_ms);
    auto system = algo::AllocationSystem::create(cfg);
    system->start();
    // One remote round trip: site 7 (cluster 1) fetches everything from
    // site 0 (cluster 0).
    ResourceSet all(8);
    for (ResourceId r = 0; r < 8; ++r) all.insert(r);
    sim::SimTime granted = -1;
    system->node(7).set_grant_callback(
        [&](RequestId) { granted = system->simulator().now(); });
    system->node(7).request(all);
    system->simulator().run();
    return granted;
  };
  const auto flat = run(1, 0.0);
  const auto wan = run(2, 30.0);
  EXPECT_GT(wan, flat);
  EXPECT_GE(wan, sim::from_ms(60.0));  // at least one WAN round trip
}

TEST(ScenarioRunnerTest, DrivesAllNodesAndStops) {
  scenario::ScenarioSpec spec;
  algo::SystemConfig& sys = spec.system;
  sys.algorithm = algo::Algorithm::kLassWithLoan;
  sys.num_sites = 4;
  sys.num_resources = 6;
  auto system = algo::AllocationSystem::create(sys);
  system->start();

  workload::WorkloadConfig& wl = spec.workload;
  wl.num_resources = 6;
  wl.phi = 2;
  scenario::ScenarioRunner runner(*system, spec, /*seed=*/5);
  runner.start();
  system->simulator().run(sim::from_ms(500));
  const auto completed_mid = runner.collector().completed();
  EXPECT_GT(completed_mid, 0u);

  runner.stop_issuing();
  system->simulator().run();  // drain in-flight work
  const auto completed_end = runner.collector().completed();
  EXPECT_GE(completed_end, completed_mid);
  // Fully quiescent: no node stuck in a non-idle state.
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_EQ(system->node(s).state(), ProcessState::kIdle);
  }
}

TEST(ProcessStateTest, Names) {
  EXPECT_STREQ(to_string(ProcessState::kIdle), "Idle");
  EXPECT_STREQ(to_string(ProcessState::kWaitS), "waitS");
  EXPECT_STREQ(to_string(ProcessState::kWaitCS), "waitCS");
  EXPECT_STREQ(to_string(ProcessState::kInCS), "inCS");
}

TEST(CliParse, WholeTokensInRangeParse) {
  constexpr double kMs = cli::kMaxFlagMs;
  EXPECT_EQ(cli::parse_count("--seed", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(cli::parse_count<int>("--seeds", "7", 1), 7);
  EXPECT_EQ(cli::parse_count<unsigned>("--threads", "0"), 0u);
  EXPECT_EQ(cli::parse_count<std::int64_t>("--replay-delay-ns", "6"), 6);
  EXPECT_EQ(cli::parse_number("--horizon-ms", "0.5", 1e-6, kMs), 0.5);
  EXPECT_EQ(cli::parse_number("--delay-bound-ms", "0", 0, kMs), 0.0);
  EXPECT_EQ(cli::parse_number("--poll-interval", "1e300"), 1e300);
}

// The parsers with the bounds the front ends give the flags below.
void seed_flag(const char* flag, const char* v) {
  (void)cli::parse_count(flag, v);
}
void threads_flag(const char* flag, const char* v) {
  (void)cli::parse_count<unsigned>(flag, v);
}
void int_flag(const char* flag, const char* v) {
  (void)cli::parse_count<int>(flag, v);
}
void positive_int_flag(const char* flag, const char* v) {
  (void)cli::parse_count<int>(flag, v, 1);
}
void ms_flag(const char* flag, const char* v) {
  (void)cli::parse_number(flag, v, 0, cli::kMaxFlagMs);
}
void positive_ms_flag(const char* flag, const char* v) {
  (void)cli::parse_number(flag, v, 1e-6, cli::kMaxFlagMs);
}
void non_negative_flag(const char* flag, const char* v) {
  (void)cli::parse_number(flag, v, 0);
}
// The flag reader every front end uses, given "--flag=v" or "--flag v".
std::string joined_flag(const char* flag, const char* v) {
  std::string arg = std::string(flag) + "=" + v;
  char* argv[] = {arg.data()};
  int i = 0;
  std::string out;
  EXPECT_TRUE(cli::flag_value(1, argv, i, flag, out));
  EXPECT_EQ(i, 0);
  return out;
}
std::string spaced_flag(const char* flag, const char* v) {
  std::string name = flag;
  std::string value = v;
  char* argv[] = {name.data(), value.data()};
  int i = 0;
  std::string out;
  EXPECT_TRUE(cli::flag_value(2, argv, i, flag, out));
  EXPECT_EQ(i, 1);
  return out;
}

TEST(CliParse, FlagValueReadsBothSpellings) {
  EXPECT_EQ(joined_flag("--replay", "run.mra"), "run.mra");
  EXPECT_EQ(spaced_flag("--choices", "0,1"), "0,1");
  EXPECT_EQ(joined_flag("--mutant", "a=b"), "a=b");
}

// Each token was once read by atoi, atof or strtoull as some other value: a
// prefix ("2x", "1.9"), 0 ("abc"), NaN, infinity ("1e400") or a value out of
// the flag's range. Each now exits 2 with a message that names the flag and
// quotes the token. An empty value exits 2 in the flag reader, before any
// parser sees it.
TEST(CliParseDeathTest, MalformedValuesExit2NamingTheFlag) {
  struct Case {
    void (*parse)(const char* flag, const char* v);
    const char* flag;
    const char* token;
    const char* message = nullptr;  ///< expected instead of the quoted token
  };
  const auto joined = [](const char* flag, const char* v) {
    (void)joined_flag(flag, v);
  };
  const auto spaced = [](const char* flag, const char* v) {
    (void)spaced_flag(flag, v);
  };
  const Case cases[] = {
      // mra_explore
      {positive_ms_flag, "--horizon-ms", "nan"},
      {positive_ms_flag, "--horizon-ms", "1e400"},
      {positive_int_flag, "--seeds", "2x"},
      {positive_int_flag, "--seeds", "1.9"},
      {positive_int_flag, "--seeds", "0"},
      {non_negative_flag, "--max-msgs-per-cs", "abc"},
      {ms_flag, "--delay-bound-ms", "-5"},
      {int_flag, "--threads", "2x"},
      {int_flag, "--threads", "2147483648"},
      // mra_scenarios
      {seed_flag, "--seed", "abc"},
      {positive_ms_flag, "--gauge-interval-ms", "nan"},
      // the benches (fig6_waiting_phi4)
      {threads_flag, "--threads", "2x"},
      {seed_flag, "--seed", "7y"},
      {seed_flag, "--seed", "-1"},
      {seed_flag, "--seed", ""},
      // every front end's flag reader: an empty value once picked the
      // flag's default mode ("--replay=" ran the sweep, "--choices ''"
      // enumerated every schedule)
      {joined, "--replay", "", "needs a value"},
      {spaced, "--choices", "", "needs a value"},
  };
  for (const Case& c : cases) {
    const std::string regex =
        c.message != nullptr ? std::string(c.flag) + " " + c.message
                             : std::string(c.flag) + ".*'" + c.token + "'";
    EXPECT_EXIT(c.parse(c.flag, c.token), ::testing::ExitedWithCode(2), regex);
  }
}

// ---------------------------------------------------------------------------
// The text codec (core/wire.hpp)
// ---------------------------------------------------------------------------

std::string read_whole_string(const std::string& text) {
  wire::Cursor c(text, "test");
  std::string s = c.read_string();
  c.expect_end();
  return s;
}

TEST(Wire, EveryByteRoundTripsThroughTheEscaper) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    std::string text;
    wire::append_string(text, one);
    EXPECT_EQ(text, '"' + wire::escape(one) + '"') << "byte " << b;
    EXPECT_EQ(read_whole_string(text), one) << "byte " << b;
    all += one;
  }
  std::string text;
  wire::append_string(text, all);
  EXPECT_EQ(read_whole_string(text), all);
}

TEST(Wire, ExtremeDoublesRoundTripBitForBit) {
  using Limits = std::numeric_limits<double>;
  for (const double v : {-0.0, Limits::denorm_min(), Limits::max(),
                         Limits::infinity(), -Limits::infinity(),
                         Limits::quiet_NaN()}) {
    std::string text;
    wire::append_double(text, v);
    wire::Cursor c(text, "test");
    const double back = c.read_double();
    c.expect_end();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(Wire, ReadStringRefusesEscapesTheEscaperNeverWrites) {
  // JSON's \/, \b and \f; bytes the escaper writes as themselves (A,
  // \u0080) or by name (\u000a is \n); uppercase hex; a short \u escape.
  for (const char* escape : {"\\/", "\\b", "\\f", "\\u0080", "\\u0041",
                             "\\u000a", "\\u001F", "\\u01"}) {
    const std::string text = std::string("\"a") + escape + "b\"";
    try {
      (void)read_whole_string(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("test: ", 0), 0u) << e.what();
      EXPECT_NE(std::string(e.what()).find(" at offset "), std::string::npos)
          << e.what();
    }
  }
}

/// parse_whole's reference: -?[0-9]+ (no '-' for an unsigned T), digits
/// accumulated in __int128, and the value must fit in T.
template <typename T>
std::optional<T> whole_reference(std::string_view token) {
  const bool negative =
      std::is_signed_v<T> && !token.empty() && token.front() == '-';
  if (negative) token.remove_prefix(1);
  if (token.empty()) return std::nullopt;
  constexpr __int128 kNoTFits = static_cast<__int128>(1) << 65;
  __int128 v = 0;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return std::nullopt;
    v = v * 10 + (ch - '0');
    if (v > kNoTFits) return std::nullopt;
  }
  if (negative) v = -v;
  if (v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max()) {
    return std::nullopt;
  }
  return static_cast<T>(v);
}

/// Every mutant of tokens at and around T's limits parses exactly as the
/// reference says. CLI flags, trace fields and violation ids all parse
/// through parse_whole.
template <typename T>
void expect_parse_whole_matches_reference(std::uint64_t seed) {
  using Limits = std::numeric_limits<T>;
  const std::vector<std::string> tokens = {
      std::to_string(Limits::min()), std::to_string(Limits::max()),
      "-0", "0", "-1", "007", "4294967296", "18446744073709551616"};
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (const std::string& token : tokens) {
    for (const std::string& mutant :
         test::mutants_of(token, "0189-+ .eEx", seed++, 400)) {
      const std::optional<T> got = wire::parse_whole<T>(mutant);
      EXPECT_EQ(got, whole_reference<T>(mutant)) << '"' << mutant << '"';
      ++(got ? accepted : refused);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(Wire, ParseWholeMutantsMatchAnInt128Reference) {
  expect_parse_whole_matches_reference<std::int32_t>(41);
  expect_parse_whole_matches_reference<std::int64_t>(43);
  expect_parse_whole_matches_reference<std::uint64_t>(47);
}

}  // namespace
}  // namespace mra
