// Experiment harness: determinism, sweep parallel==serial, table/CSV, gantt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "experiment/experiment.hpp"
#include "experiment/gantt.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "scenario/runner.hpp"

namespace mra::experiment {
namespace {

scenario::ScenarioSpec small_config(algo::Algorithm alg, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.system.algorithm = alg;
  spec.system.num_sites = 6;
  spec.system.num_resources = 8;
  spec.system.seed = seed;
  spec.workload = workload::high_load(3, 8);
  spec.warmup = sim::from_ms(100);
  spec.measure = sim::from_ms(1500);
  return spec;
}

ExperimentResult run(const scenario::ScenarioSpec& spec) {
  return scenario::run_scenario(spec, spec.system.algorithm);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run(small_config(algo::Algorithm::kLassWithLoan, 4));
  const auto b = run(small_config(algo::Algorithm::kLassWithLoan, 4));
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_DOUBLE_EQ(a.use_rate, b.use_rate);
  EXPECT_DOUBLE_EQ(a.waiting_mean_ms, b.waiting_mean_ms);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Experiment, SeedChangesOutcome) {
  const auto a = run(small_config(algo::Algorithm::kLassWithLoan, 4));
  const auto b = run(small_config(algo::Algorithm::kLassWithLoan, 5));
  EXPECT_NE(a.messages, b.messages);
}

TEST(Experiment, ReportsMessageKinds) {
  const auto r = run(small_config(algo::Algorithm::kLassWithLoan, 4));
  EXPECT_TRUE(r.messages_by_kind.contains("Lass.Token"));
  EXPECT_TRUE(r.messages_by_kind.contains("Lass.Req"));
  std::uint64_t sum = 0;
  for (const auto& [kind, count] : r.messages_by_kind) sum += count;
  EXPECT_EQ(sum, r.messages);
}

TEST(Experiment, CentralHasNoMessages) {
  const auto r = run(small_config(algo::Algorithm::kCentralSharedMemory, 4));
  EXPECT_EQ(r.messages, 0u) << "the shared-memory reference must not network";
  EXPECT_GT(r.requests_completed, 50u);
}

TEST(Sweep, ParallelMatchesSerial) {
  std::vector<SweepJob> jobs;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    jobs.emplace_back([s]() {
      return run(small_config(algo::Algorithm::kLassWithoutLoan, s));
    });
  }
  const auto serial = run_sweep(jobs, /*threads=*/1);
  const auto parallel = run_sweep(jobs, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].messages, parallel[i].messages);
    EXPECT_DOUBLE_EQ(serial[i].use_rate, parallel[i].use_rate);
  }
}

TEST(Sweep, EmptyInputIsFine) {
  EXPECT_TRUE(run_sweep(std::vector<SweepJob>{}).empty());
}

TEST(TableTest, PrintsAlignedAndRejectsBadRows) {
  Table t({"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
}

TEST(TableTest, CsvEscapesSeparators) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string path = "/tmp/lass_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::string line;
  std::getline(in, header);
  std::getline(in, line);
  EXPECT_EQ(header, "name,value");
  EXPECT_EQ(line, "\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Gantt, RendersBusyLanes) {
  std::vector<obs::RequestSpan> spans;
  obs::RequestSpan span;
  span.site = 3;
  span.acquire_at = 0;
  span.release_at = sim::from_ms(50);
  span.resources = {0, 1};
  spans.push_back(span);

  GanttOptions opt;
  opt.columns = 10;
  opt.start = 0;
  opt.end = sim::from_ms(100);
  std::ostringstream os;
  render_gantt(os, spans, /*num_resources=*/2, opt);
  const std::string out = os.str();
  // First half of both lanes marked with site id 3, second half idle.
  EXPECT_NE(out.find("33333....."), std::string::npos);
  EXPECT_DOUBLE_EQ(gantt_busy_fraction(spans, 2, opt), 0.5);
}

TEST(Gantt, EmptySpansRenderIdle) {
  std::ostringstream os;
  GanttOptions opt;
  opt.columns = 4;
  render_gantt(os, {}, 1, opt);
  EXPECT_NE(os.str().find("...."), std::string::npos);
  EXPECT_DOUBLE_EQ(gantt_busy_fraction({}, 1, opt), 0.0);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GanttDigests {
  std::uint64_t chart = 0;
  std::uint64_t csv = 0;
};

/// The chart and the CSV examples/gantt_trace.cpp writes for `alg` at its
/// default phi, digested with FNV-1a.
GanttDigests gantt_trace_digests(algo::Algorithm alg) {
  scenario::ScenarioSpec spec;
  spec.system.num_sites = 8;
  spec.system.num_resources = 10;
  spec.system.seed = 3;
  spec.workload = workload::high_load(/*phi=*/3, /*num_resources=*/10);
  spec.warmup = sim::from_ms(50);
  spec.measure = sim::from_ms(400);
  obs::FlightRecorder recorder;
  (void)scenario::run_scenario(spec, alg, &recorder);
  const auto spans = gantt_spans(recorder, spec.warmup);

  GanttOptions gopt;
  gopt.columns = 110;
  gopt.start = spec.warmup;
  gopt.end = spec.warmup + spec.measure;
  std::ostringstream chart;
  render_gantt(chart, spans, 10, gopt);
  std::ostringstream csv;
  write_gantt_csv(csv, spans);
  return {fnv1a(chart.str()), fnv1a(csv.str())};
}

TEST(Gantt, GanttTraceOutputIsPinned) {
  // Captured from the collector's per-request record log before the chart
  // moved to recorder spans; the spans reproduce it byte for byte.
  const GanttDigests loan = gantt_trace_digests(algo::Algorithm::kLassWithLoan);
  EXPECT_EQ(loan.chart, 17656575177788858733ULL);
  EXPECT_EQ(loan.csv, 4816219355481524589ULL);
  const GanttDigests bl =
      gantt_trace_digests(algo::Algorithm::kBouabdallahLaforest);
  EXPECT_EQ(bl.chart, 148214294853695154ULL);
  EXPECT_EQ(bl.csv, 7358899018495814906ULL);
}

TEST(Experiment, RecorderSpansCoverTheWindow) {
  const auto spec = small_config(algo::Algorithm::kLassWithLoan, 4);
  obs::FlightRecorder recorder;
  const auto r =
      scenario::run_scenario(spec, spec.system.algorithm, &recorder);
  const auto spans = gantt_spans(recorder, spec.warmup);
  EXPECT_FALSE(spans.empty());
  // One span per request the window counted as completed.
  EXPECT_EQ(spans.size(), r.requests_completed);
  for (const auto& span : spans) {
    EXPECT_LE(span.submit_at, span.acquire_at);
    EXPECT_LT(span.acquire_at, span.release_at);
    // The size is the number of distinct resources, in [1, phi].
    EXPECT_GE(span.resources.size(), 1u);
    EXPECT_LE(span.resources.size(),
              static_cast<std::size_t>(spec.workload.phi));
    EXPECT_TRUE(std::adjacent_find(span.resources.begin(),
                                   span.resources.end(),
                                   std::greater_equal<>()) ==
                span.resources.end());
  }
}

TEST(Experiment, UseRateWithinBounds) {
  for (auto alg : algo::all_algorithms()) {
    const auto r = run(small_config(alg, 11));
    EXPECT_GE(r.use_rate, 0.0) << algo::to_string(alg);
    EXPECT_LE(r.use_rate, 1.0) << algo::to_string(alg);
    EXPECT_GT(r.requests_completed, 10u) << algo::to_string(alg);
  }
}

}  // namespace
}  // namespace mra::experiment
