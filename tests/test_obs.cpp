// The observability layer (src/obs/ + check/fanout): span reconstruction on
// hand-fed event streams, golden Chrome-trace/CSV bytes, byte-identical
// exports across identical runs, and the observer fan-out contract (mux
// composition, attach-ownership errors), and the heartbeat's progress file.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/factory.hpp"
#include "check/explore.hpp"
#include "check/fanout.hpp"
#include "check/monitor.hpp"
#include "check/violation.hpp"
#include "core/resource_set.hpp"
#include "core/wire.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "obs/heartbeat.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/simulator.hpp"

namespace mra::obs {
namespace {

check::Event cs_event(check::EventType type, sim::SimTime at, SiteId site,
                      const ResourceSet* rs, std::int64_t seq = 1) {
  check::Event e;
  e.type = type;
  e.at = at;
  e.site = site;
  e.seq = seq;
  e.resources = rs;
  return e;
}

check::Event msg_event(check::EventType type, sim::SimTime at, SiteId src,
                       SiteId dst, std::int64_t id, std::uint32_t bytes = 0,
                       std::string_view kind = "Req") {
  check::Event e;
  e.type = type;
  e.at = at;
  e.site = src;
  e.peer = dst;
  e.seq = id;
  e.kind = kind;
  e.bytes = bytes;
  return e;
}

check::Event hold_event(sim::SimTime at, SiteId site, ResourceId resource) {
  check::Event e;
  e.type = check::EventType::kHold;
  e.at = at;
  e.site = site;
  e.seq = 1;
  e.resource = resource;
  return e;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The shared hand-fed scenario: site 0 completes one request (with a
/// custody stamp and one message), site 1 is still waiting when the run
/// ends at t = 6 ms.
void feed_golden_stream(FlightRecorder& rec) {
  const ResourceSet ab(4, {0, 1});
  const ResourceSet c(4, {2});
  rec.on_advance(sim::from_ms(1));
  rec.on_event(cs_event(check::EventType::kRequest, sim::from_ms(1), 0, &ab));
  rec.on_event(msg_event(check::EventType::kSend, sim::from_ms(1), 0, 1, 1,
                         /*bytes=*/24));
  rec.on_advance(sim::from_ms(2));
  rec.on_event(msg_event(check::EventType::kDeliver, sim::from_ms(2), 0, 1, 1));
  rec.on_event(hold_event(sim::from_ms(2), 0, 0));
  rec.on_advance(sim::from_ms(3));
  rec.on_event(cs_event(check::EventType::kAcquire, sim::from_ms(3), 0, &ab));
  rec.on_advance(sim::from_ms(4));
  rec.on_event(cs_event(check::EventType::kRequest, sim::from_ms(4), 1, &c));
  rec.on_advance(sim::from_ms(5));
  rec.on_event(cs_event(check::EventType::kRelease, sim::from_ms(5), 0, &ab));
  rec.on_advance(sim::from_ms(6));
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_same_lines(const std::string& expected,
                       const std::string& actual) {
  const std::vector<std::string> want = split_lines(expected);
  const std::vector<std::string> got = split_lines(actual);
  ASSERT_EQ(want.size(), got.size()) << actual;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "line " << i + 1;
  }
}

// ---------------------------------------------------------------------------
// Span reconstruction
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, ReconstructsSpanLifecycle) {
  FlightRecorder rec;
  feed_golden_stream(rec);

  ASSERT_EQ(rec.spans().size(), 2u);
  const RequestSpan& done = rec.spans()[0];
  EXPECT_EQ(done.site, 0);
  EXPECT_EQ(done.seq, 1);
  EXPECT_EQ(done.resources, (std::vector<ResourceId>{0, 1}));
  EXPECT_EQ(done.submit_at, sim::from_ms(1));
  EXPECT_EQ(done.first_message_at, sim::from_ms(1));
  EXPECT_EQ(done.acquire_at, sim::from_ms(3));
  EXPECT_EQ(done.release_at, sim::from_ms(5));
  EXPECT_TRUE(done.completed());
  EXPECT_EQ(done.waiting(rec.last_seen()), sim::from_ms(2));
  ASSERT_EQ(done.holds.size(), 1u);
  EXPECT_EQ(done.holds[0].resource, 0);
  EXPECT_EQ(done.messages, 1u);

  const RequestSpan& open = rec.spans()[1];
  EXPECT_FALSE(open.completed());
  EXPECT_EQ(open.acquire_at, kNever);
  // Still waiting: time waited runs to the recorder's horizon (6 ms).
  EXPECT_EQ(open.waiting(rec.last_seen()), sim::from_ms(2));

  ASSERT_EQ(rec.messages().size(), 1u);
  const MessageRecord& msg = rec.messages()[0];
  ASSERT_EQ(rec.kind_names().size(), 1u);
  EXPECT_EQ(msg.kind, 0u);
  EXPECT_EQ(rec.kind_names()[0], "Req");
  EXPECT_EQ(msg.bytes, 24u);
  EXPECT_EQ(msg.send_at, sim::from_ms(1));
  EXPECT_EQ(msg.deliver_at, sim::from_ms(2));
  EXPECT_EQ(msg.span, 0);  // attributed to site 0's open span
}

TEST(FlightRecorderTest, SendWithNoOpenSpanStaysDetached) {
  FlightRecorder rec;
  rec.on_event(msg_event(check::EventType::kSend, sim::from_ms(1), 2, 3, 1));
  ASSERT_EQ(rec.messages().size(), 1u);
  EXPECT_EQ(rec.messages()[0].span, -1);
  EXPECT_TRUE(rec.spans().empty());
}

// Events without a site (kNoSite) have no span slot: a request opens no
// span and a send is logged detached. Indexing the per-site table with the
// sentinel would read and write far out of bounds (the ASan job catches it).
TEST(FlightRecorderTest, EventsWithoutASiteSkipSpanBookkeeping) {
  FlightRecorder rec;
  const ResourceSet rs(4, {0});
  rec.on_event(cs_event(check::EventType::kRequest, sim::from_ms(1), kNoSite,
                        &rs));
  rec.on_event(hold_event(sim::from_ms(1), kNoSite, 0));
  rec.on_event(cs_event(check::EventType::kAcquire, sim::from_ms(1), kNoSite,
                        &rs));
  rec.on_event(msg_event(check::EventType::kSend, sim::from_ms(1), kNoSite, 1,
                         1));
  rec.on_event(cs_event(check::EventType::kRelease, sim::from_ms(2), kNoSite,
                        &rs));
  EXPECT_TRUE(rec.spans().empty());
  ASSERT_EQ(rec.messages().size(), 1u);
  EXPECT_EQ(rec.messages()[0].span, -1);
  EXPECT_EQ(rec.messages()[0].src, kNoSite);
  EXPECT_EQ(rec.last_seen(), sim::from_ms(2));
}

// ---------------------------------------------------------------------------
// Golden exports: the byte format is the contract Perfetto and the CI
// schema check rely on, so it is pinned here literally.
// ---------------------------------------------------------------------------

TEST(TraceExportTest, GoldenChromeTrace) {
  FlightRecorder rec;
  feed_golden_stream(rec);
  std::ostringstream out;
  write_chrome_trace(rec, out);

  const std::string expected = R"({"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"mra-sim"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"site 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"site 1"}},
{"name":"wait {0,1} #1","cat":"request","ph":"X","ts":1000.000,"dur":2000.000,"pid":0,"tid":0,"args":{"seq":1,"resources":"{0,1}","first_message_ms":1.000000}},
{"name":"Req","cat":"msg","ph":"s","id":1,"ts":1000.000,"pid":0,"tid":0,"args":{"dst":1,"bytes":24}},
{"name":"hold r0","cat":"hold","ph":"i","s":"t","ts":2000.000,"pid":0,"tid":0,"args":{"seq":1}},
{"name":"Req","cat":"msg","ph":"f","bp":"e","id":1,"ts":2000.000,"pid":0,"tid":1,"args":{"src":0}},
{"name":"cs {0,1} #1","cat":"cs","ph":"X","ts":3000.000,"dur":2000.000,"pid":0,"tid":0,"args":{"seq":1,"resources":"{0,1}"}},
{"name":"wait {2} #1","cat":"request","ph":"X","ts":4000.000,"dur":2000.000,"pid":0,"tid":1,"args":{"seq":1,"resources":"{2}","incomplete":true}}
],"displayTimeUnit":"ms"}
)";
  expect_same_lines(expected, out.str());
}

TEST(TraceExportTest, GoldenSpansCsv) {
  FlightRecorder rec;
  feed_golden_stream(rec);
  std::ostringstream out;
  write_spans_csv(rec, out);

  const std::string expected =
      "site,seq,resources,submit_ms,first_message_ms,acquire_ms,"
      "release_ms,waiting_ms,holding_ms,messages\n"
      "0,1,0+1,1.000000,1.000000,3.000000,5.000000,2.000000,2.000000,1\n"
      "1,1,2,4.000000,,,,2.000000,,0\n";
  expect_same_lines(expected, out.str());
}

TEST(TraceExportTest, SlowestSpansOrderAndTieBreak) {
  FlightRecorder rec;
  feed_golden_stream(rec);
  // Third span: site 0 again, submitted late — waits 0.5 ms to the horizon.
  const ResourceSet d(4, {3});
  rec.on_event(cs_event(check::EventType::kRequest,
                        sim::from_ms(5) + sim::microseconds(500), 0, &d, 2));
  rec.on_advance(sim::from_ms(6));

  const auto slowest = slowest_spans(rec, 2);
  ASSERT_EQ(slowest.size(), 2u);
  // Spans 0 and 1 tie at 2 ms waiting; the lower site wins the tie.
  EXPECT_EQ(slowest[0]->site, 0);
  EXPECT_EQ(slowest[0]->seq, 1);
  EXPECT_EQ(slowest[1]->site, 1);

  // K past the span count returns every span, still worst first.
  const auto all = slowest_spans(rec, 10);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], slowest[0]);
  EXPECT_EQ(all[1], slowest[1]);
  EXPECT_EQ(all[2]->seq, 2);
  EXPECT_TRUE(slowest_spans(rec, 0).empty());
}

/// Every exported event family on one instant (t = 2 ms: a span submit, a
/// hold, a send, a delivery, a gauge sample and a violation), so the golden
/// pins the tie order — emission order: spans (wait, cs, holds), messages
/// (s, f), gauges, violations. Around it: a kind first seen after two gauge
/// samples (shorter sends_by_kind), a kind that needs JSON escaping, a cs
/// slice still open at the horizon, and a request submitted before t = 0
/// (negative timestamps keep their printf form).
struct SameInstantRun {
  sim::Simulator simulator;
  net::Network network{simulator,
                       std::make_unique<net::FixedLatency>(sim::from_ms(1)),
                       1};
  FlightRecorder rec;
  std::vector<check::Violation> violations;

  SameInstantRun() {
    const ResourceSet ab(4, {0, 1});
    const ResourceSet d(4, {3});
    const ResourceSet c(4, {2});
    rec.enable_gauges(simulator, network, sim::from_ms(1));
    rec.on_event(cs_event(check::EventType::kRequest, -1500, 2, &c, 7));
    rec.on_advance(0);
    rec.on_advance(sim::microseconds(500));
    rec.on_event(cs_event(check::EventType::kRequest, sim::microseconds(500),
                          0, &ab));
    rec.on_event(msg_event(check::EventType::kSend, sim::microseconds(500), 0,
                           1, 1, 24, "A"));
    rec.on_advance(sim::from_ms(1));
    rec.on_event(msg_event(check::EventType::kSend, sim::from_ms(1), 0, 2, 2,
                           40, "Say \"hi\""));
    rec.on_advance(sim::from_ms(2));
    rec.on_event(cs_event(check::EventType::kRequest, sim::from_ms(2), 1, &d));
    rec.on_event(hold_event(sim::from_ms(2), 0, 0));
    rec.on_event(msg_event(check::EventType::kSend, sim::from_ms(2), 1, 0, 3,
                           24, "A"));
    rec.on_event(
        msg_event(check::EventType::kDeliver, sim::from_ms(2), 0, 1, 1));
    rec.on_advance(sim::from_ms(3));
    rec.on_event(hold_event(sim::from_ms(3), 0, 1));
    rec.on_event(cs_event(check::EventType::kAcquire, sim::from_ms(3), 0, &ab));
    rec.on_event(
        msg_event(check::EventType::kDeliver, sim::from_ms(3), 0, 2, 2));
    rec.on_advance(sim::from_ms(4));

    check::Violation late;
    late.oracle = "starvation";
    late.at = sim::from_ms(2);
    late.sites = {1, 2};
    late.detail = "site 1 waited \"too\" long\\";
    check::Violation early;
    early.oracle = "custom";
    early.at = -1500;
    early.detail = "before the origin";
    violations = {late, early};
  }
};

TEST(TraceExportTest, GoldenSameInstantChromeTrace) {
  SameInstantRun run;
  ChromeTraceOptions options;
  options.violations = &run.violations;
  std::ostringstream out;
  write_chrome_trace(run.rec, out, options);
  const std::string expected = R"({"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"mra-sim"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"site 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"site 1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"site 2"}},
{"name":"wait {2} #7","cat":"request","ph":"X","ts":-1.-500,"dur":4001.500,"pid":0,"tid":2,"args":{"seq":7,"resources":"{2}","incomplete":true}},
{"name":"violation: custom","cat":"violation","ph":"i","s":"p","ts":-1.-500,"pid":0,"tid":0,"args":{"detail":"before the origin","sites":""}},
{"name":"events.queue","ph":"C","ts":0.000,"pid":0,"args":{"depth":0,"capacity":0}},
{"name":"net.in_flight","ph":"C","ts":0.000,"pid":0,"args":{"messages":0}},
{"name":"net.cumulative","ph":"C","ts":0.000,"pid":0,"args":{"messages":0,"bytes":0}},
{"name":"sites","ph":"C","ts":0.000,"pid":0,"args":{"waiting":1,"in_cs":0}},
{"name":"wait {0,1} #1","cat":"request","ph":"X","ts":500.000,"dur":2500.000,"pid":0,"tid":0,"args":{"seq":1,"resources":"{0,1}","first_message_ms":0.500000}},
{"name":"A","cat":"msg","ph":"s","id":1,"ts":500.000,"pid":0,"tid":0,"args":{"dst":1,"bytes":24}},
{"name":"Say \"hi\"","cat":"msg","ph":"s","id":2,"ts":1000.000,"pid":0,"tid":0,"args":{"dst":2,"bytes":40}},
{"name":"events.queue","ph":"C","ts":1000.000,"pid":0,"args":{"depth":0,"capacity":0}},
{"name":"net.in_flight","ph":"C","ts":1000.000,"pid":0,"args":{"messages":0}},
{"name":"net.cumulative","ph":"C","ts":1000.000,"pid":0,"args":{"messages":1,"bytes":24}},
{"name":"sites","ph":"C","ts":1000.000,"pid":0,"args":{"waiting":2,"in_cs":0}},
{"name":"sends.A","ph":"C","ts":1000.000,"pid":0,"args":{"count":1}},
{"name":"hold r0","cat":"hold","ph":"i","s":"t","ts":2000.000,"pid":0,"tid":0,"args":{"seq":1}},
{"name":"wait {3} #1","cat":"request","ph":"X","ts":2000.000,"dur":2000.000,"pid":0,"tid":1,"args":{"seq":1,"resources":"{3}","first_message_ms":2.000000,"incomplete":true}},
{"name":"A","cat":"msg","ph":"f","bp":"e","id":1,"ts":2000.000,"pid":0,"tid":1,"args":{"src":0}},
{"name":"A","cat":"msg","ph":"s","id":3,"ts":2000.000,"pid":0,"tid":1,"args":{"dst":0,"bytes":24}},
{"name":"events.queue","ph":"C","ts":2000.000,"pid":0,"args":{"depth":0,"capacity":0}},
{"name":"net.in_flight","ph":"C","ts":2000.000,"pid":0,"args":{"messages":0}},
{"name":"net.cumulative","ph":"C","ts":2000.000,"pid":0,"args":{"messages":2,"bytes":64}},
{"name":"sites","ph":"C","ts":2000.000,"pid":0,"args":{"waiting":2,"in_cs":0}},
{"name":"sends.A","ph":"C","ts":2000.000,"pid":0,"args":{"count":1}},
{"name":"sends.Say \"hi\"","ph":"C","ts":2000.000,"pid":0,"args":{"count":1}},
{"name":"violation: starvation","cat":"violation","ph":"i","s":"p","ts":2000.000,"pid":0,"tid":1,"args":{"detail":"site 1 waited \"too\" long\\","sites":"1,2"}},
{"name":"cs {0,1} #1","cat":"cs","ph":"X","ts":3000.000,"dur":1000.000,"pid":0,"tid":0,"args":{"seq":1,"resources":"{0,1}","incomplete":true}},
{"name":"hold r1","cat":"hold","ph":"i","s":"t","ts":3000.000,"pid":0,"tid":0,"args":{"seq":1}},
{"name":"Say \"hi\"","cat":"msg","ph":"f","bp":"e","id":2,"ts":3000.000,"pid":0,"tid":2,"args":{"src":0}},
{"name":"events.queue","ph":"C","ts":3000.000,"pid":0,"args":{"depth":0,"capacity":0}},
{"name":"net.in_flight","ph":"C","ts":3000.000,"pid":0,"args":{"messages":0}},
{"name":"net.cumulative","ph":"C","ts":3000.000,"pid":0,"args":{"messages":3,"bytes":88}},
{"name":"sites","ph":"C","ts":3000.000,"pid":0,"args":{"waiting":3,"in_cs":0}},
{"name":"sends.A","ph":"C","ts":3000.000,"pid":0,"args":{"count":2}},
{"name":"sends.Say \"hi\"","ph":"C","ts":3000.000,"pid":0,"args":{"count":1}},
{"name":"events.queue","ph":"C","ts":4000.000,"pid":0,"args":{"depth":0,"capacity":0}},
{"name":"net.in_flight","ph":"C","ts":4000.000,"pid":0,"args":{"messages":0}},
{"name":"net.cumulative","ph":"C","ts":4000.000,"pid":0,"args":{"messages":3,"bytes":88}},
{"name":"sites","ph":"C","ts":4000.000,"pid":0,"args":{"waiting":2,"in_cs":1}},
{"name":"sends.A","ph":"C","ts":4000.000,"pid":0,"args":{"count":2}},
{"name":"sends.Say \"hi\"","ph":"C","ts":4000.000,"pid":0,"args":{"count":1}}
],"displayTimeUnit":"ms"}
)";
  expect_same_lines(expected, out.str());
  EXPECT_EQ(out.str().back(), '\n');
}

TEST(TraceExportTest, GoldenSameInstantSpansCsvAndGauges) {
  SameInstantRun run;
  std::ostringstream csv;
  write_spans_csv(run.rec, csv);
  EXPECT_EQ(csv.str(),
            "site,seq,resources,submit_ms,first_message_ms,acquire_ms,"
            "release_ms,waiting_ms,holding_ms,messages\n"
            "2,7,2,0.-01500,,,,4.001500,,0\n"
            "0,1,0+1,0.500000,0.500000,3.000000,,2.500000,,2\n"
            "1,1,3,2.000000,2.000000,,,2.000000,,1\n");

  std::ostringstream gauges;
  write_gauges_json(run.rec, gauges, 2);
  // The sample at t = 0 predates every kind and the one at 1 ms predates
  // "Say \"hi\"": their missing tail counts print as 0.
  EXPECT_EQ(gauges.str(), R"({
    "interval_ms": 1.000000,
    "kinds": ["A", "Say \"hi\""],
    "samples": [
     {"t_ms": 0.000000, "queue_depth": 0, "queue_capacity": 0, "in_flight": 0, "messages": 0, "bytes": 0, "sites_waiting": 1, "sites_in_cs": 0, "sends_by_kind": [0, 0]},
     {"t_ms": 1.000000, "queue_depth": 0, "queue_capacity": 0, "in_flight": 0, "messages": 1, "bytes": 24, "sites_waiting": 2, "sites_in_cs": 0, "sends_by_kind": [1, 0]},
     {"t_ms": 2.000000, "queue_depth": 0, "queue_capacity": 0, "in_flight": 0, "messages": 2, "bytes": 64, "sites_waiting": 2, "sites_in_cs": 0, "sends_by_kind": [1, 1]},
     {"t_ms": 3.000000, "queue_depth": 0, "queue_capacity": 0, "in_flight": 0, "messages": 3, "bytes": 88, "sites_waiting": 3, "sites_in_cs": 0, "sends_by_kind": [2, 1]},
     {"t_ms": 4.000000, "queue_depth": 0, "queue_capacity": 0, "in_flight": 0, "messages": 3, "bytes": 88, "sites_waiting": 2, "sites_in_cs": 1, "sends_by_kind": [2, 1]}
    ]
  })");
}

// ---------------------------------------------------------------------------
// Determinism over a real run
// ---------------------------------------------------------------------------

struct Export {
  std::string trace;
  std::string csv;
  std::string gauges;
  std::size_t spans = 0;
};

Export run_and_export() {
  const scenario::ScenarioSpec spec = check::tiny_exhaustive_spec(3, 2);
  FlightRecorder rec;
  (void)scenario::run_scenario(
      spec, algo::Algorithm::kLassWithLoan, &rec,
      [&rec](algo::AllocationSystem& system) {
        rec.enable_gauges(system.simulator(), system.network(),
                          sim::from_ms(5));
      });
  Export out;
  out.spans = rec.spans().size();
  std::ostringstream trace, csv, gauges;
  write_chrome_trace(rec, trace);
  write_spans_csv(rec, csv);
  write_gauges_json(rec, gauges);
  out.trace = trace.str();
  out.csv = csv.str();
  out.gauges = gauges.str();
  return out;
}

TEST(TraceExportTest, RepeatedRunsExportIdenticalBytes) {
  const Export a = run_and_export();
  const Export b = run_and_export();
  EXPECT_GT(a.spans, 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.gauges, b.gauges);
}

// The exporters' bytes for a real LASS-with-loan run, pinned by FNV-1a.
// A Monitor with a tight starvation horizon and message bound supplies
// violations that interleave with the spans, flows and gauges. The values
// were captured from the string-per-event exporter before the one-buffer
// rewrite; any byte the rewrite moves fails here.
TEST(TraceExportTest, RealRunExportDigestsArePinned) {
  scenario::ScenarioSpec spec = scenario::find_scenario("paper-phi4");
  spec.warmup = sim::from_ms(200);
  spec.measure = sim::from_ms(600);
  check::MonitorConfig mc;
  mc.num_sites = spec.system.num_sites;
  mc.num_resources = spec.system.num_resources;
  mc.starvation_horizon = sim::from_ms(4);
  mc.max_messages_per_cs = 1.0;
  check::Monitor monitor(mc);
  FlightRecorder rec;
  check::ObserverMux mux;
  mux.add(monitor);
  mux.add(rec);
  (void)scenario::run_scenario(
      spec, algo::Algorithm::kLassWithLoan, &mux,
      [&](algo::AllocationSystem& system) {
        monitor.bind_simulator(system.simulator());
        rec.enable_gauges(system.simulator(), system.network(),
                          sim::from_ms(5));
      });
  monitor.finalize(rec.last_seen(), /*quiescent=*/false);

  ChromeTraceOptions options;
  options.violations = &monitor.violations();
  std::ostringstream trace, csv, gauges;
  write_chrome_trace(rec, trace, options);
  write_spans_csv(rec, csv);
  write_gauges_json(rec, gauges, 2);

  ASSERT_EQ(monitor.violations().size(), 64u);
  ASSERT_EQ(rec.spans().size(), 181u);
  ASSERT_EQ(rec.messages().size(), 1817u);
  ASSERT_EQ(rec.gauges().size(), 160u);
  EXPECT_EQ(trace.str().size(), 575108u);
  EXPECT_EQ(fnv1a(trace.str()), 18000487073770675755ULL);
  EXPECT_EQ(fnv1a(csv.str()), 15265994756219737101ULL);
  EXPECT_EQ(fnv1a(gauges.str()), 14096492427616039495ULL);
}

TEST(FlightRecorderTest, GaugesSampleOnTheSimulatedTimeGrid) {
  const scenario::ScenarioSpec spec = check::tiny_exhaustive_spec(3, 2);
  FlightRecorder rec;
  (void)scenario::run_scenario(
      spec, algo::Algorithm::kLassWithLoan, &rec,
      [&rec](algo::AllocationSystem& system) {
        rec.enable_gauges(system.simulator(), system.network(),
                          sim::from_ms(5));
      });
  ASSERT_GE(rec.gauges().size(), 2u);
  for (std::size_t i = 0; i < rec.gauges().size(); ++i) {
    EXPECT_EQ(rec.gauges()[i].at,
              static_cast<sim::SimTime>(i) * sim::from_ms(5));
  }
}

// ---------------------------------------------------------------------------
// Observer fan-out
// ---------------------------------------------------------------------------

struct CountingObserver final : check::Observer {
  int events = 0;
  int advances = 0;
  void on_event(const check::Event&) override { ++events; }
  void on_advance(sim::SimTime) override { ++advances; }
};

TEST(ObserverMuxTest, ForwardsToEveryObserverInOrder) {
  CountingObserver a;
  CountingObserver b;
  check::ObserverMux mux;
  mux.add(a);
  mux.add(b);
  const ResourceSet rs(4, {0});
  mux.on_event(cs_event(check::EventType::kRequest, 1, 0, &rs));
  mux.on_advance(2);
  EXPECT_EQ(a.events, 1);
  EXPECT_EQ(b.events, 1);
  EXPECT_EQ(a.advances, 1);
  EXPECT_EQ(b.advances, 1);
}

TEST(ObserverMuxTest, MonitorAndRecorderComposeOverOneRun) {
  const scenario::ScenarioSpec spec = check::tiny_exhaustive_spec(3, 2);
  check::MonitorConfig mc;
  mc.num_sites = spec.system.num_sites;
  mc.num_resources = spec.system.num_resources;
  check::Monitor monitor(mc);
  FlightRecorder rec;
  check::ObserverMux mux;
  mux.add(monitor);
  mux.add(rec);
  (void)scenario::run_scenario(
      spec, algo::Algorithm::kLassWithLoan, &mux,
      [&monitor](algo::AllocationSystem& system) {
        monitor.bind_simulator(system.simulator());
      });
  // Both consumers saw the same complete stream.
  EXPECT_TRUE(monitor.ok()) << monitor.violations().front().detail;
  EXPECT_GT(monitor.events_seen(), 0u);
  EXPECT_GT(rec.spans().size(), 0u);
  EXPECT_EQ(rec.messages().size() > 0, true);
}

TEST(ObserverMuxTest, AttachRefusesToDisplaceForeignObserver) {
  algo::SystemConfig cfg;
  cfg.num_sites = 3;
  cfg.num_resources = 2;
  auto system = algo::AllocationSystem::create(cfg);
  system->start();

  check::MonitorConfig mc;
  mc.num_sites = cfg.num_sites;
  mc.num_resources = cfg.num_resources;
  check::Monitor monitor(mc);
  monitor.attach(*system);

  check::ObserverMux mux;
  EXPECT_THROW(mux.attach(*system), check::AlreadyAttachedError);
  check::Monitor second(mc);
  EXPECT_THROW(second.attach(*system), check::AlreadyAttachedError);

  // detach() frees the hooks: the documented fix (one mux, both consumers)
  // then wires cleanly.
  monitor.detach();
  mux.add(monitor);
  EXPECT_NO_THROW(mux.attach(*system));
  mux.detach();
}

TEST(Heartbeat, ProgressFileEscapesThePhase) {
  // A fabric worker's phase carries its --name; a quote or backslash in it
  // used to end the JSON string early.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mra_heartbeat_phase.json")
          .string();
  const std::string phase = "fabric-worker:w\"1\\x";
  const std::atomic<std::uint64_t> done{1};
  const std::atomic<std::uint64_t> failed{0};
  job_heartbeat(phase, path, done, failed, 1).reset();  // the final tick
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string file = text.str();
  const std::string key = "\"phase\": ";
  const std::size_t at = file.find(key);
  ASSERT_NE(at, std::string::npos) << file;
  wire::Cursor c(std::string_view(file).substr(at + key.size()), "progress");
  EXPECT_EQ(c.read_string(), phase) << file;
  c.expect(",\n");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mra::obs
