// Distributed sweep fabric: wire/result serialization exactness, grid and
// manifest validation, spool and checkpoint crash-safety, lease
// claiming/stealing, and the headline invariant — merged sharded output
// byte-identical to the single-process run, for any worker count, chunking,
// or worker death.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiment/experiment.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/grid.hpp"
#include "fabric/merge.hpp"
#include "fabric/result.hpp"
#include "fabric/spool.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "mutants.hpp"

namespace mra::fabric {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test spool directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mra_fabric_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

GridSpec tiny_sweep_grid() {
  GridSpec grid;
  grid.kind = GridKind::kSweep;
  grid.scenarios = {"paper-phi4"};
  grid.algorithms = {"lass", "lass-loan"};
  grid.quick = true;
  return grid;
}

Manifest manifest_for(const GridSpec& grid, std::uint64_t chunk) {
  Manifest m;
  m.grid = grid;
  m.chunk = chunk;
  m.jobs = grid.job_count();
  return m;
}

/// An ExperimentResult with awkward doubles and populated accumulators —
/// synthetic, so serde tests don't depend on the simulator.
experiment::ExperimentResult synthetic_result() {
  experiment::ExperimentResult r;
  r.algorithm = "test \"quoted\"\nname";
  r.phi = 4;
  r.rho = 1.0 / 3.0;
  r.use_rate = 0.1 + 0.2;  // 0.30000000000000004
  r.waiting_mean_ms = 17.000000000000004;
  r.waiting_stddev_ms = std::numeric_limits<double>::quiet_NaN();
  r.waiting_p50_ms = 6.25e-12;
  r.waiting_p95_ms = 1e300;
  r.waiting_p99_ms = -0.0;
  r.requests_completed = 327;
  r.messages = 4675;
  r.bytes = 729142;
  r.messages_per_cs = 14.296636085626911;
  r.loans_used = 3;
  r.loans_failed = 1;
  for (double x : {0.5, 1.0 / 7.0, 42.0, 1e-9, 250.75}) {
    r.waiting_stats.add(x);
    r.waiting_sketch.add(x);
  }
  return r;
}

TEST(FabricGrid, SpecSerializeParseRoundTrip) {
  GridSpec g;
  g.kind = GridKind::kReplicated;
  g.scenarios = {"paper-phi4", "zipf-hot"};
  g.algorithms = {"lass", "bl"};
  g.replications = 7;
  g.quick = true;
  g.seed_set = true;
  g.seed = 99;
  const std::string text = g.serialize();
  const GridSpec back = GridSpec::parse(text);
  EXPECT_EQ(back.serialize(), text);
  EXPECT_EQ(back.kind, GridKind::kReplicated);
  EXPECT_EQ(back.scenarios, g.scenarios);
  EXPECT_EQ(back.algorithms, g.algorithms);
  EXPECT_EQ(back.replications, 7u);
  EXPECT_TRUE(back.quick);
  EXPECT_TRUE(back.seed_set);
  EXPECT_EQ(back.seed, 99u);
}

TEST(FabricGrid, ManifestRoundTripAndChunkValidation) {
  Manifest m;
  m.grid = tiny_sweep_grid();
  m.chunk = 4;
  m.jobs = m.grid.job_count();
  const std::string text = m.serialize();
  const Manifest back = Manifest::parse(text);
  EXPECT_EQ(back.serialize(), text);
  EXPECT_EQ(back.jobs, 2u);

  std::string zero_chunk = text;
  const std::size_t pos = zero_chunk.find("\"chunk\":4");
  zero_chunk.replace(pos, 9, "\"chunk\":0");
  EXPECT_THROW((void)Manifest::parse(zero_chunk), std::invalid_argument);
}

TEST(FabricGrid, ManifestAndGridRefuseTrailingBytes) {
  // Both used to stop at their closing brace and ignore what followed.
  Manifest m;
  m.grid = tiny_sweep_grid();
  m.jobs = m.grid.job_count();
  const std::string manifest = m.serialize();
  const std::string grid = m.grid.serialize();
  for (const std::string tail : {"garbage", "}\n{\"x\":1}", "\n}"}) {
    EXPECT_THROW((void)Manifest::parse(manifest + tail), std::invalid_argument)
        << tail;
    EXPECT_THROW((void)GridSpec::parse(grid + tail), std::invalid_argument)
        << tail;
  }
  // serialize() ends a manifest's line, so whitespace may follow it; a grid
  // is embedded in place and nothing may follow it.
  EXPECT_EQ(Manifest::parse(manifest + " \n").serialize(), manifest);
  EXPECT_THROW((void)GridSpec::parse(grid + "\n"), std::invalid_argument);
  EXPECT_EQ(GridSpec::parse(grid).serialize(), grid);
}

TEST(FabricGrid, ValidateRejectsUnknownNamesAndBadCounts) {
  GridSpec g = tiny_sweep_grid();
  EXPECT_NO_THROW(g.validate());
  g.scenarios = {"no-such-scenario"};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = tiny_sweep_grid();
  g.algorithms = {"no-such-algo"};
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = tiny_sweep_grid();
  g.kind = GridKind::kReplicated;
  g.replications = 0;
  EXPECT_THROW(g.validate(), std::invalid_argument);
  EXPECT_THROW((void)grid_kind_from_name("mesh"), std::invalid_argument);
}

/// Expects `fn` to throw std::invalid_argument whose message names every
/// string in `names` (a field and its flag).
template <typename Fn>
void expect_refusal_naming(Fn&& fn,
                           std::initializer_list<std::string_view> names) {
  try {
    fn();
    ADD_FAILURE() << "accepted; wanted a refusal naming " << *names.begin();
  } catch (const std::invalid_argument& e) {
    for (const std::string_view name : names) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

/// 3 scenarios x 1 algorithm x 6148914691236517206 replications: the job
/// count wraps to 2 in 64 bits, while the grid names ~1.8e19 jobs.
GridSpec wrapping_grid() {
  GridSpec g = tiny_sweep_grid();
  g.kind = GridKind::kReplicated;
  g.scenarios = {"paper-phi4", "zipf-hot", "paper-phi80"};
  g.algorithms = {"lass"};
  g.replications = 6148914691236517206u;
  return g;
}

TEST(FabricGrid, ValidateBoundsEachCountAndTheJobCount) {
  const GridSpec wraps = wrapping_grid();
  ASSERT_EQ(wraps.job_count(), 2u);
  expect_refusal_naming([&] { wraps.validate(); }, {"replications", "--reps"});

  // Every count is bounded, whatever the kind; the bound itself passes.
  GridSpec g = tiny_sweep_grid();
  g.kind = GridKind::kReplicated;
  g.algorithms = {"lass"};
  g.replications = GridSpec::kMaxCount;
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.job_count(), GridSpec::kMaxCount);
  g.replications += 1;
  expect_refusal_naming([&] { g.validate(); }, {"replications", "--reps"});
  g = tiny_sweep_grid();
  g.seeds_per_job = GridSpec::kMaxCount + 1;
  expect_refusal_naming([&] { g.validate(); }, {"seeds_per_job", "--seeds"});
  g = tiny_sweep_grid();
  g.kind = GridKind::kExplore;
  g.explore_jobs = GridSpec::kMaxCount + 1;
  expect_refusal_naming([&] { g.validate(); }, {"explore_jobs", "--jobs"});
  g.explore_jobs = 0;
  expect_refusal_naming([&] { g.validate(); }, {"explore_jobs", "--jobs"});
  g = tiny_sweep_grid();
  g.scenarios.clear();
  expect_refusal_naming([&] { g.validate(); }, {"scenarios", "--scenario"});
  g = tiny_sweep_grid();
  g.algorithms.clear();
  expect_refusal_naming([&] { g.validate(); }, {"algorithms", "--algo"});

  // Counts each within the bound whose product is not.
  g = tiny_sweep_grid();
  g.scenarios.assign(1000, "paper-phi4");
  g.algorithms.assign(1001, "lass");
  expect_refusal_naming([&] { g.validate(); },
                        {"job count", "--scenario", "--algo"});
  g.kind = GridKind::kReplicated;
  g.algorithms.assign(1000, "lass");
  g.replications = 2;
  expect_refusal_naming([&] { g.validate(); }, {"job count", "--reps"});
  g.replications = 1;
  EXPECT_NO_THROW(g.validate());
}

TEST(FabricGrid, ManifestJobsMustMatchTheGrid) {
  const Manifest good = manifest_for(tiny_sweep_grid(), 1);
  const std::uint64_t bad_jobs[] = {0, 3, 1'000'000'000'000};
  for (const std::uint64_t jobs : bad_jobs) {
    Manifest bad = good;
    bad.jobs = jobs;
    const std::string text = bad.serialize();
    expect_refusal_naming([&] { (void)Manifest::parse(text); }, {"jobs"});
  }
  // A wrapped job count cannot vouch for a grid validate() refuses.
  const std::string wrapped_text = manifest_for(wrapping_grid(), 1).serialize();
  expect_refusal_naming([&] { (void)Manifest::parse(wrapped_text); },
                        {"replications", "--reps"});

  // A worker refuses such a spool before partitioning 10^12 jobs.
  const SpoolPaths paths{fresh_dir("bad_manifest")};
  ensure_spool_dirs(paths);
  Manifest huge = good;
  huge.jobs = 1'000'000'000'000;
  write_file_atomic(paths.manifest(), huge.serialize(), "test");
  WorkerOptions wopts;
  wopts.spool = paths.root;
  wopts.poll_interval_sec = 0.01;
  EXPECT_THROW((void)run_worker(wopts), std::invalid_argument);
}

TEST(FabricGrid, ManifestMutantsThrowOrRoundTrip) {
  // Every truncation and a fixed set of single-byte substitutions of a
  // 12-job manifest. Each must be refused, or parse to a manifest that
  // validates, agrees with its grid's job count and round-trips.
  GridSpec grid = tiny_sweep_grid();
  grid.kind = GridKind::kReplicated;
  grid.scenarios = {"paper-phi4", "zipf-hot"};
  grid.replications = 3;
  const std::string text = manifest_for(grid, 4).serialize();
  ASSERT_EQ(Manifest::parse(text).jobs, 12u);

  std::vector<std::string> mutants;
  for (std::size_t len = 0; len < text.size(); ++len) {
    mutants.push_back(text.substr(0, len));
  }
  const std::string_view bytes = "0129\",:{}[]a\\";
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char b : bytes) {
      if (text[i] == b) continue;
      mutants.push_back(text);
      mutants.back()[i] = b;
    }
  }
  std::size_t parsed = 0;
  for (const std::string& mutant : mutants) {
    Manifest m;
    try {
      m = Manifest::parse(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    EXPECT_NO_THROW(m.grid.validate()) << mutant;
    EXPECT_EQ(m.jobs, m.grid.job_count()) << mutant;
    const std::string again = m.serialize();
    EXPECT_EQ(Manifest::parse(again).serialize(), again) << mutant;
  }
  EXPECT_GT(mutants.size(), 2500u);
  EXPECT_GT(parsed, 0u);  // seeds and chunk sizes still parse
}

TEST(FabricGrid, JobCountAndLabels) {
  GridSpec g = tiny_sweep_grid();
  g.scenarios = {"paper-phi4", "zipf-hot"};
  EXPECT_EQ(g.job_count(), 4u);
  EXPECT_EQ(g.job_label(0), "paper-phi4");
  EXPECT_EQ(g.job_label(1), "paper-phi4");
  EXPECT_EQ(g.job_label(2), "zipf-hot");

  g.kind = GridKind::kReplicated;
  g.replications = 3;
  EXPECT_EQ(g.job_count(), 12u);
  EXPECT_EQ(g.job_label(5), "paper-phi4");  // pair 1, rep 2
  EXPECT_EQ(g.job_label(6), "zipf-hot");

  g.kind = GridKind::kExplore;
  g.explore_jobs = 5;
  EXPECT_EQ(g.job_count(), 5u);
  EXPECT_EQ(g.job_label(2), "explore:2");
  EXPECT_THROW((void)g.run_job(5), std::out_of_range);
}

TEST(FabricResult, SerializeParseIsExact) {
  const experiment::ExperimentResult r = synthetic_result();
  const std::string line = serialize_result(r);
  const experiment::ExperimentResult back = parse_result(line);
  // String equality is the strong form: every double re-serializes to the
  // same %.17g token, so shipping a result through the wire twice is a
  // fixed point — the property the byte-identical merge rests on.
  EXPECT_EQ(serialize_result(back), line);
  EXPECT_EQ(back.algorithm, r.algorithm);
  EXPECT_EQ(back.phi, r.phi);
  EXPECT_DOUBLE_EQ(back.use_rate, r.use_rate);
  EXPECT_TRUE(std::isnan(back.waiting_stddev_ms));
  EXPECT_DOUBLE_EQ(back.waiting_p95_ms, 1e300);
  EXPECT_TRUE(std::signbit(back.waiting_p99_ms));
  EXPECT_EQ(back.requests_completed, 327u);
  EXPECT_EQ(back.waiting_stats.count(), 5u);
  EXPECT_DOUBLE_EQ(back.waiting_stats.mean(), r.waiting_stats.mean());
  EXPECT_DOUBLE_EQ(back.waiting_sketch.percentile(95),
                   r.waiting_sketch.percentile(95));
}

TEST(FabricResult, ErrorPayloadRoundTrip) {
  const std::string line = error_payload("scenario \"x\" exploded\nbadly");
  const auto message = parse_error(line);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(*message, "scenario \"x\" exploded\nbadly");
  EXPECT_FALSE(parse_error(serialize_result(synthetic_result())).has_value());
  EXPECT_THROW((void)parse_result(line), std::invalid_argument);
}

TEST(FabricResult, ParseResultRefusesTrailingBytes) {
  const std::string line = serialize_result(synthetic_result());
  for (const std::string tail : {"garbage", "}", " ", "\n"}) {
    EXPECT_THROW((void)parse_result(line + tail), std::invalid_argument)
        << tail;
  }
}

TEST(FabricResult, ParseResultRefusesPhiOutsideInt) {
  const std::string line = serialize_result(synthetic_result());
  const std::string phi = "\"phi\":4,";
  const std::size_t at = line.find(phi);
  ASSERT_NE(at, std::string::npos);
  const auto with_phi = [&](const std::string& value) {
    std::string out = line;
    out.replace(at, phi.size(), "\"phi\":" + value + ",");
    return out;
  };
  // 2^32 + 4 used to read back as phi 4.
  EXPECT_THROW((void)parse_result(with_phi("4294967300")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_result(with_phi("-2147483649")),
               std::invalid_argument);
  EXPECT_EQ(parse_result(with_phi("2147483647")).phi, 2147483647);
  EXPECT_EQ(parse_result(with_phi("-2147483648")).phi, -2147483647 - 1);
}

TEST(FabricResult, ParseErrorRefusesTrailingBytes) {
  const std::string line = error_payload("boom");
  EXPECT_EQ(parse_error(line), "boom");
  EXPECT_THROW((void)parse_error(line + "garbage"), std::invalid_argument);
  // The closing brace is required too.
  EXPECT_THROW((void)parse_error(line.substr(0, line.size() - 1)),
               std::invalid_argument);
}

TEST(FabricResult, MutantsThrowOrRoundTrip) {
  // A payload from a real run (a non-empty sketch and running statistics
  // inside the envelope): every truncation, seed-driven single-byte
  // substitutions and appended bytes. Each mutant is refused with
  // invalid_argument, or parses to a result whose serialization reads back
  // to the same bytes.
  const std::string payload = tiny_sweep_grid().run_job(0);
  const experiment::ExperimentResult real = parse_result(payload);
  ASSERT_GT(real.waiting_sketch.count(), 0u);
  ASSERT_EQ(serialize_result(real), payload);

  constexpr std::string_view kPayloadBytes = "0159-+.e,:[]{}\"nx\\";
  std::size_t parsed = 0;
  for (const std::string& mutant :
       test::mutants_of(payload, kPayloadBytes, 41)) {
    experiment::ExperimentResult once;
    try {
      once = parse_result(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    const std::string wire = serialize_result(once);
    EXPECT_EQ(serialize_result(parse_result(wire)), wire) << mutant;
  }
  EXPECT_GT(parsed, 0u);
  for (const char b : kPayloadBytes) {
    EXPECT_THROW((void)parse_result(payload + b), std::invalid_argument) << b;
  }
  EXPECT_THROW((void)parse_result(payload + payload), std::invalid_argument);
}

TEST(FabricSpool, PartitionLeases) {
  const std::vector<Lease> leases = partition_leases(10, 4);
  ASSERT_EQ(leases.size(), 3u);
  EXPECT_EQ(leases[0].first, 0u);
  EXPECT_EQ(leases[0].count, 4u);
  EXPECT_EQ(leases[2].id, 2u);
  EXPECT_EQ(leases[2].first, 8u);
  EXPECT_EQ(leases[2].count, 2u);  // tail lease is short
  EXPECT_TRUE(partition_leases(0, 4).empty());
  EXPECT_THROW((void)partition_leases(10, 0), std::invalid_argument);
}

TEST(FabricSpool, CheckpointAppendLoadAndPartialTrailingLine) {
  const SpoolPaths paths{fresh_dir("checkpoint")};
  ensure_spool_dirs(paths);
  EXPECT_TRUE(load_checkpoint(paths, 4).empty());

  append_checkpoint(paths, Lease{0, 0, 4, 0});
  append_checkpoint(paths, Lease{2, 8, 2, 1});
  EXPECT_EQ(load_checkpoint(paths, 4), (std::vector<std::uint64_t>{0, 2}));

  // A crash mid-append leaves a partial trailing line; it must be ignored,
  // not rejected.
  {
    std::ofstream out(paths.checkpoint(), std::ios::app | std::ios::binary);
    out << "done 4 ";
  }
  EXPECT_EQ(load_checkpoint(paths, 4), (std::vector<std::uint64_t>{0, 2}));

  // A malformed COMPLETE line is corruption, not a crash artifact.
  {
    std::ofstream out(paths.checkpoint(), std::ios::trunc | std::ios::binary);
    out << "done x y\n";
  }
  EXPECT_THROW((void)load_checkpoint(paths, 4), std::invalid_argument);
}

TEST(FabricSpool, ResultFileRoundTripAndTornFile) {
  const SpoolPaths paths{fresh_dir("results")};
  ensure_spool_dirs(paths);
  LeaseResult result;
  result.lease = Lease{1, 4, 2, 3};
  result.payloads = {serialize_result(synthetic_result()),
                     error_payload("boom")};
  write_result_file(paths, result, "test");

  const auto back = read_result_file(paths, 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lease.first, 4u);
  EXPECT_EQ(back->lease.fence, 3u);
  EXPECT_EQ(back->payloads, result.payloads);

  EXPECT_FALSE(read_result_file(paths, 7).has_value());

  // Payload-count mismatch is rejected at write time...
  result.payloads.pop_back();
  EXPECT_THROW(write_result_file(paths, result, "test"),
               std::invalid_argument);
  // ...and a torn file (no trailing newline) reads as absent.
  {
    std::ofstream out(paths.result(2), std::ios::binary);
    out << "{\"lease\":2,\"first\":8,\"count\":1,\"fence\":0}\n{\"trunc";
  }
  EXPECT_FALSE(read_result_file(paths, 2).has_value());
}

TEST(FabricSpool, ReadFileRacingRenamesSeesAbsentOrWholeFile) {
  // One thread renames complete files into a path and unlinks them again;
  // the other polls that path. A poll that finds the path absent at open
  // time must read as absent even when the rename lands a moment later —
  // never throw, never see a partial file.
  const std::string dir = fresh_dir("read_race");
  fs::create_directories(dir);
  const std::string path = dir + "/polled.json";
  const std::string content(4096, 'x');
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(); ++i) {
      write_file_atomic(path, content, std::to_string(i % 2));
      std::error_code ec;
      fs::remove(path, ec);
    }
  });
  for (int i = 0; i < 20000 && !HasFailure(); ++i) {
    std::optional<std::string> text;
    EXPECT_NO_THROW(text = read_file(path)) << "poll " << i;
    if (text) {
      EXPECT_EQ(*text, content) << "poll " << i;
    }
  }
  stop = true;
  writer.join();
}

// The timing knobs reach float-to-int casts, sleep_for's nanosecond
// conversion and the lease-staleness comparison, none of which survives
// NaN, an infinity or 1e300; they are refused up front, naming the field.
const double kBadSeconds[] = {0.0,
                              -1.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              1e300,
                              TransportTiming::kMaxSec * 1.5};

TEST(FabricTransport, TimingValidationNamesTheField) {
  for (const double good : {1e-3, 0.2, 30.0, TransportTiming::kMaxSec}) {
    EXPECT_NO_THROW((TransportTiming{good, good}.validate())) << good;
  }
  for (const double bad : kBadSeconds) {
    try {
      TransportTiming{bad, 0.2}.validate();
      ADD_FAILURE() << "lease timeout " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lease_timeout_sec"),
                std::string::npos)
          << e.what();
    }
    try {
      TransportTiming{30.0, bad}.validate();
      ADD_FAILURE() << "poll interval " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("poll_interval_sec"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FabricTransport, WorkerAndCoordinatorRefuseBadTimingFirst) {
  // No spool: without the timing check first, the worker would return 1
  // and the coordinator 2 instead of throwing.
  for (const double bad : kBadSeconds) {
    WorkerOptions wopts;
    wopts.poll_interval_sec = bad;
    EXPECT_THROW((void)run_worker(wopts), std::invalid_argument) << bad;
    wopts = WorkerOptions{};
    wopts.lease_timeout_sec = bad;
    EXPECT_THROW((void)run_worker(wopts), std::invalid_argument) << bad;

    CoordinatorOptions copts;
    copts.poll_interval_sec = bad;
    EXPECT_THROW((void)run_coordinator(tiny_sweep_grid(), copts),
                 std::invalid_argument)
        << bad;
  }
}

TransportTiming short_lease_timing() {
  TransportTiming timing;
  timing.lease_timeout_sec = 0.2;
  timing.poll_interval_sec = 0.01;
  return timing;
}

TEST(FabricTransport, FileClaimStealAndKeepaliveLost) {
  const SpoolPaths paths{fresh_dir("steal")};
  ensure_spool_dirs(paths);
  const Manifest m = manifest_for(tiny_sweep_grid(), 1);
  const TransportTiming timing = short_lease_timing();
  SpoolClaimer first(paths, "first", m, timing);
  const auto lease = first.acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->fence, 0u);
  EXPECT_TRUE(first.keepalive(*lease));

  // Let the claim go stale, then a second worker must steal it with the
  // fence bumped — and the original holder must see its lease as lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  SpoolClaimer thief(paths, "thief", m, timing);
  std::optional<Lease> stolen;
  for (int i = 0; i < 100 && !stolen; ++i) stolen = thief.acquire();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->fence, lease->fence + 1);
  EXPECT_FALSE(first.keepalive(*lease));
  EXPECT_TRUE(thief.keepalive(*stolen));
}

/// Runs the full fabric in-process: coordinator on one thread, `workers`
/// worker threads. Returns the merged output bytes.
std::string run_fabric(const GridSpec& grid, const std::string& spool,
                       std::uint64_t chunk, int workers) {
  CoordinatorOptions copts;
  copts.spool = spool;
  copts.chunk = chunk;
  copts.poll_interval_sec = 0.01;
  copts.out_path = spool + "/merged.json";

  std::vector<std::thread> threads;
  std::atomic<int> coordinator_code{-1};
  threads.emplace_back(
      [&] { coordinator_code = run_coordinator(grid, copts); });
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerOptions wopts;
      wopts.spool = spool;
      wopts.name = "w" + std::to_string(w);
      wopts.poll_interval_sec = 0.01;
      EXPECT_EQ(run_worker(wopts), 0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(coordinator_code.load(), 0);
  return read_all(copts.out_path);
}

std::string local_reference(const GridSpec& grid) {
  std::ostringstream os;
  EXPECT_EQ(run_local(grid, 0, os, ""), 0);
  return os.str();
}

/// Runs every job of `lease`, as a worker would before submitting.
LeaseResult run_lease(const GridSpec& grid, const Lease& lease) {
  LeaseResult result;
  result.lease = lease;
  for (std::uint64_t j = 0; j < lease.count; ++j) {
    result.payloads.push_back(grid.run_job(lease.first + j));
  }
  return result;
}

TEST(FabricTransport, LateSubmitUnderSupersededFenceIsRecordedOnce) {
  // Worker A's claim goes stale and B steals the lease (fence + 1), yet A
  // finishes it and submits under fence 0. Payloads are deterministic, so
  // the coordinator records A's copy, once, and B's later submit of the
  // same lease changes nothing.
  const GridSpec grid = tiny_sweep_grid();
  const std::string ref = local_reference(grid);
  const SpoolPaths paths{fresh_dir("late_submit")};
  ensure_spool_dirs(paths);
  CoordinatorOptions copts;
  copts.spool = paths.root;
  copts.poll_interval_sec = 0.01;
  copts.out_path = paths.root + "/merged.json";
  std::atomic<int> coordinator_code{-1};
  std::thread coordinator(
      [&] { coordinator_code = run_coordinator(grid, copts); });

  const Manifest m = manifest_for(grid, 1);
  const TransportTiming timing = short_lease_timing();
  SpoolClaimer a(paths, "A", m, timing);
  const std::optional<Lease> held = a.acquire();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  SpoolClaimer b(paths, "B", m, timing);
  std::optional<Lease> stolen;
  for (int i = 0; i < 100 && held && !stolen; ++i) {
    const std::optional<Lease> lease = b.acquire();
    if (lease && lease->id == held->id) stolen = lease;
  }
  EXPECT_TRUE(held && stolen);
  if (held && stolen) {
    EXPECT_EQ(held->fence, 0u);
    EXPECT_EQ(stolen->fence, 1u);
    EXPECT_FALSE(a.keepalive(*held));
    const LeaseResult late = run_lease(grid, *held);
    a.submit(late);
    bool recorded = false;
    for (int i = 0; i < 500 && !recorded; ++i) {
      const std::vector<std::uint64_t> done = load_checkpoint(paths, 1);
      recorded = std::find(done.begin(), done.end(), held->id) != done.end();
      if (!recorded) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(recorded);
    b.submit(run_lease(grid, *stolen));
    const std::optional<LeaseResult> now = read_result_file(paths, held->id);
    EXPECT_TRUE(now && now->lease.fence == 1u);
    EXPECT_TRUE(now && now->payloads == late.payloads);
  }
  // B finishes whatever is left, so the coordinator always completes.
  while (!b.finished()) {
    const std::optional<Lease> lease = b.acquire();
    if (lease) b.submit(run_lease(grid, *lease));
  }
  coordinator.join();
  EXPECT_EQ(coordinator_code.load(), 0);
  EXPECT_EQ(read_all(copts.out_path), ref);
  std::vector<std::uint64_t> done = load_checkpoint(paths, 1);
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, (std::vector<std::uint64_t>{0, 1}));
}

TEST(FabricEndToEnd, FileBackendMatchesLocalForAnyWorkerCount) {
  const GridSpec grid = tiny_sweep_grid();
  const std::string ref = local_reference(grid);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_w1"), 1, 1), ref);
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_w3"), 1, 3), ref);
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_c2"), 2, 2), ref);
}

TEST(FabricEndToEnd, ReplicatedGridMatchesLocal) {
  GridSpec grid = tiny_sweep_grid();
  grid.kind = GridKind::kReplicated;
  grid.algorithms = {"lass-loan"};
  grid.replications = 3;
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_rep"), 2, 2),
            local_reference(grid));
}

TEST(FabricEndToEnd, ExploreGridMatchesLocal) {
  GridSpec grid;
  grid.kind = GridKind::kExplore;
  grid.scenarios = {"paper-phi4"};
  grid.algorithms = {"lass"};
  grid.seeds_per_job = 1;
  grid.explore_jobs = 4;
  grid.quick = true;
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_explore"), 2, 2),
            local_reference(grid));
}

TEST(FabricEndToEnd, ResumeSkipsCheckpointedLeasesAndMatchesLocal) {
  const GridSpec grid = tiny_sweep_grid();
  const std::string ref = local_reference(grid);
  const std::string spool = fresh_dir("resume");
  EXPECT_EQ(run_fabric(grid, spool, 1, 2), ref);

  // Simulate a crash that lost lease 1's result but kept its checkpoint
  // line: resume must demote it to pending and re-run it, because a
  // checkpoint entry is only trusted as far as its result file.
  const SpoolPaths paths{spool};
  fs::remove(paths.result(1));
  CoordinatorOptions copts;
  copts.spool = spool;
  copts.chunk = 1;
  copts.resume = true;
  copts.poll_interval_sec = 0.01;
  copts.out_path = spool + "/merged2.json";
  std::thread worker([&] {
    WorkerOptions wopts;
    wopts.spool = spool;
    wopts.poll_interval_sec = 0.01;
    // The dead run's claim file for lease 1 is still in the spool; a short
    // lease timeout lets the restarted worker steal it promptly.
    wopts.lease_timeout_sec = 0.2;
    EXPECT_EQ(run_worker(wopts), 0);
  });
  EXPECT_EQ(run_coordinator(grid, copts), 0);
  worker.join();
  EXPECT_EQ(read_all(copts.out_path), ref);
}

TEST(FabricEndToEnd, CheckpointWithoutResumeIsRefused) {
  const GridSpec grid = tiny_sweep_grid();
  const std::string spool = fresh_dir("no_resume");
  EXPECT_EQ(run_fabric(grid, spool, 1, 1), local_reference(grid));
  CoordinatorOptions copts;
  copts.spool = spool;
  copts.chunk = 1;
  EXPECT_EQ(run_coordinator(grid, copts), 2);  // checkpoint, no --resume
  GridSpec other = grid;
  other.algorithms = {"lass"};
  copts.resume = true;
  EXPECT_EQ(run_coordinator(other, copts), 2);  // different grid
}

TEST(FabricEndToEnd, FailingJobReportsLowestIndexAndNoOutput) {
  GridSpec grid = tiny_sweep_grid();
  grid.kind = GridKind::kExplore;
  grid.explore_jobs = 3;
  grid.seeds_per_job = 1;
  std::vector<std::string> payloads = {grid.run_job(0),
                                       error_payload("job 1 exploded"),
                                       error_payload("job 2 exploded")};
  std::ostringstream os;
  const auto error = write_merged_output(os, grid, payloads);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->job, 1u);
  EXPECT_EQ(error->message, "job 1 exploded");
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace mra::fabric
