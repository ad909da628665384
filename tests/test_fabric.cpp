// Distributed sweep fabric: wire/result serialization exactness, spool and
// checkpoint crash-safety, lease claiming/stealing, and the headline
// invariant — merged sharded output byte-identical to the single-process
// run, for any worker count, chunking, backend, or worker death.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
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
  // No spool and no connect string: without the timing check first, the
  // worker would return 1 and the coordinator 2 instead of throwing.
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
    copts = CoordinatorOptions{};
    copts.lease_timeout_sec = bad;
    EXPECT_THROW((void)run_coordinator(tiny_sweep_grid(), copts),
                 std::invalid_argument)
        << bad;
  }
}

TEST(FabricTransport, FileClaimStealAndKeepaliveLost) {
  const std::string spool = fresh_dir("steal");
  const SpoolPaths paths{spool};
  ensure_spool_dirs(paths);
  Manifest m;
  m.grid = tiny_sweep_grid();
  m.chunk = 1;
  m.jobs = m.grid.job_count();
  write_file_atomic(paths.manifest(), m.serialize(), "test");

  TransportTiming timing;
  timing.lease_timeout_sec = 0.2;
  timing.poll_interval_sec = 0.01;
  const auto first = make_file_worker(spool, "first", timing);
  ASSERT_TRUE(first->manifest().has_value());
  const auto lease = first->acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->fence, 0u);
  EXPECT_TRUE(first->keepalive(*lease));

  // Let the claim go stale, then a second worker must steal it with the
  // fence bumped — and the original holder must see its lease as lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto thief = make_file_worker(spool, "thief", timing);
  ASSERT_TRUE(thief->manifest().has_value());
  std::optional<Lease> stolen;
  for (int i = 0; i < 100 && !stolen; ++i) stolen = thief->acquire();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->fence, lease->fence + 1);
  EXPECT_FALSE(first->keepalive(*lease));
  EXPECT_TRUE(thief->keepalive(*stolen));
}

TEST(FabricTransport, TcpLeaseReissueAfterTimeout) {
  TransportTiming timing;
  timing.lease_timeout_sec = 0.15;
  timing.poll_interval_sec = 0.01;
  const auto coordinator = make_tcp_coordinator(0, timing);
  ASSERT_GT(coordinator->port(), 0);
  Manifest m;
  m.grid = tiny_sweep_grid();
  m.chunk = 2;
  m.jobs = m.grid.job_count();
  const std::vector<Lease> leases = partition_leases(m.jobs, m.chunk);
  coordinator->publish(m.serialize(), leases, std::vector<bool>(1, false));

  // The coordinator endpoint only serves inside poll(); pump it from a
  // background thread like run_coordinator's loop does.
  std::atomic<bool> stop{false};
  std::vector<LeaseResult> collected;
  std::thread pump([&] {
    while (!stop.load()) {
      for (LeaseResult& r : coordinator->poll()) {
        collected.push_back(std::move(r));
      }
    }
  });

  const auto dying = make_tcp_worker("127.0.0.1", coordinator->port(),
                                     "dying", timing);
  ASSERT_TRUE(dying->manifest().has_value());
  const auto lease = dying->acquire();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->fence, 0u);

  // "dying" never submits and never keeps alive: after the timeout the
  // lease must be reissued to the next worker with the fence bumped.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const auto heir = make_tcp_worker("127.0.0.1", coordinator->port(), "heir",
                                    timing);
  std::optional<Lease> reissued;
  for (int i = 0; i < 100 && !reissued; ++i) reissued = heir->acquire();
  ASSERT_TRUE(reissued.has_value());
  EXPECT_EQ(reissued->id, lease->id);
  EXPECT_EQ(reissued->fence, lease->fence + 1);
  EXPECT_FALSE(dying->keepalive(*lease));
  EXPECT_TRUE(heir->keepalive(*reissued));

  // A submit under the ORIGINAL (superseded) fence must still complete the
  // lease: payloads are deterministic, first complete copy wins.
  LeaseResult result;
  result.lease = *lease;
  result.payloads = {"{\"error\":\"a\"}", "{\"error\":\"b\"}"};
  dying->submit(result);
  for (int i = 0; i < 100 && collected.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  pump.join();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].payloads.size(), 2u);
}

/// Runs the full fabric in-process: coordinator on this thread, `workers`
/// worker threads, file or TCP backend. Returns the merged output bytes.
std::string run_fabric(const GridSpec& grid, const std::string& spool,
                       std::uint64_t chunk, int workers, bool tcp) {
  CoordinatorOptions copts;
  copts.spool = spool;
  copts.chunk = chunk;
  copts.poll_interval_sec = 0.01;
  copts.out_path = spool + "/merged.json";
  int port = -1;
  if (tcp) {
    copts.listen_port = 0;
    copts.bound_port_out = &port;
  }

  std::vector<std::thread> threads;
  std::atomic<int> coordinator_code{-1};
  threads.emplace_back(
      [&] { coordinator_code = run_coordinator(grid, copts); });
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerOptions wopts;
      wopts.name = "w" + std::to_string(w);
      wopts.poll_interval_sec = 0.01;
      if (tcp) {
        // The coordinator thread binds before publish; spin until the test
        // hook reports the port.
        while (port < 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        wopts.connect = "127.0.0.1:" + std::to_string(port);
      } else {
        wopts.spool = spool;
      }
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

TEST(FabricEndToEnd, FileBackendMatchesLocalForAnyWorkerCount) {
  const GridSpec grid = tiny_sweep_grid();
  const std::string ref = local_reference(grid);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_w1"), 1, 1, false), ref);
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_w3"), 1, 3, false), ref);
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_c2"), 2, 2, false), ref);
}

TEST(FabricEndToEnd, TcpBackendMatchesLocal) {
  const GridSpec grid = tiny_sweep_grid();
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_tcp"), 1, 2, true),
            local_reference(grid));
}

TEST(FabricEndToEnd, ReplicatedGridMatchesLocal) {
  GridSpec grid = tiny_sweep_grid();
  grid.kind = GridKind::kReplicated;
  grid.algorithms = {"lass-loan"};
  grid.replications = 3;
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_rep"), 2, 2, false),
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
  EXPECT_EQ(run_fabric(grid, fresh_dir("e2e_explore"), 2, 2, false),
            local_reference(grid));
}

TEST(FabricEndToEnd, ResumeSkipsCheckpointedLeasesAndMatchesLocal) {
  const GridSpec grid = tiny_sweep_grid();
  const std::string ref = local_reference(grid);
  const std::string spool = fresh_dir("resume");
  EXPECT_EQ(run_fabric(grid, spool, 1, 2, false), ref);

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
  // The dead run's claim file for lease 1 is still in the spool; a short
  // lease timeout lets the restarted worker steal it promptly.
  copts.lease_timeout_sec = 0.2;
  copts.out_path = spool + "/merged2.json";
  std::thread worker([&] {
    WorkerOptions wopts;
    wopts.spool = spool;
    wopts.poll_interval_sec = 0.01;
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
  EXPECT_EQ(run_fabric(grid, spool, 1, 1, false), local_reference(grid));
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
