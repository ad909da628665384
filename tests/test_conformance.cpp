// The conformance subsystem (src/check/): oracle unit behavior on hand-fed
// event streams, violation-report JSON round-trips, monitor bookkeeping, and
// the headline acceptance property — every registry scenario under every
// algorithm, with the full oracle set attached, completes with zero
// violations (online checking included, not just end-state assertions).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/explore.hpp"
#include "check/monitor.hpp"
#include "check/oracles.hpp"
#include "check/violation.hpp"
#include "mutants.hpp"
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

// 100k messages through one link with 64 in flight at any time: the
// in-flight bookkeeping must stay exact over a long stream (no false
// overtaking report), and an overtaking delivery at the end is still caught.
TEST(FifoOracleTest, LongLaggedStreamStaysExactAndStillFlagsOvertaking) {
  FifoOracle oracle(3);
  TestSink sink;
  constexpr std::int64_t kMessages = 100'000;
  constexpr std::int64_t kLag = 64;
  for (std::int64_t id = 1; id <= kMessages + kLag; ++id) {
    if (id <= kMessages) {
      oracle.on_event(msg_event(EventType::kSend, id, 2, 1, id), sink);
    }
    if (id > kLag) {
      const std::int64_t oldest = id - kLag;
      oracle.on_event(msg_event(EventType::kDeliver, id, 2, 1, oldest), sink);
    }
  }
  EXPECT_TRUE(sink.violations.empty());

  const std::int64_t first = kMessages + kLag + 1;
  const std::int64_t second = first + 1;
  oracle.on_event(msg_event(EventType::kSend, first, 2, 1, first), sink);
  oracle.on_event(msg_event(EventType::kSend, first, 2, 1, second), sink);
  oracle.on_event(msg_event(EventType::kDeliver, second, 2, 1, second), sink);
  ASSERT_EQ(sink.violations.size(), 1u);
  EXPECT_EQ(sink.violations[0].oracle, "fifo");
  EXPECT_EQ(sink.violations[0].sites, (std::vector<SiteId>{1, 2}));
  EXPECT_NE(sink.violations[0].detail.find("#100066"), std::string::npos)
      << sink.violations[0].detail;
  oracle.on_event(msg_event(EventType::kDeliver, second, 2, 1, first), sink);
  EXPECT_EQ(sink.violations.size(), 2u);
}

// 10k requests over 16 sites, every 97th left waiting: each starving
// request is reported at the first instant strictly past its deadline,
// never earlier, and exactly once.
TEST(StarvationOracleTest, DeadlinesFireExactlyWhenDueOverALongStream) {
  constexpr int kSites = 16;
  constexpr int kRequests = 10'000;
  constexpr sim::SimDuration kStep = 100;  // one request per step
  constexpr sim::SimDuration kHorizon = 1'000;
  StarvationOracle oracle(kSites, kHorizon);
  TestSink sink;
  const ResourceSet r0(1, {0});

  std::vector<sim::SimTime> due;  // deadlines of the starving requests
  std::size_t expected = 0;
  auto advance = [&](sim::SimTime now) {
    oracle.on_advance(now, sink);
    while (expected < due.size() && due[expected] < now) ++expected;
    ASSERT_EQ(sink.violations.size(), expected) << "at " << now;
  };
  for (int i = 0; i < kRequests; ++i) {
    const sim::SimTime at = i * kStep;
    const SiteId site = i % kSites;
    advance(at);
    oracle.on_event(cs_event(EventType::kRequest, at, site, &r0, i), sink);
    if (i % 97 == 0) {
      due.push_back(at + kHorizon);
      continue;
    }
    const sim::SimTime granted = at + kStep / 2;
    advance(granted);
    oracle.on_event(cs_event(EventType::kAcquire, granted, site, &r0, i), sink);
  }
  const sim::SimTime end = kRequests * kStep + kHorizon;
  advance(end);
  oracle.finalize(end, /*quiescent=*/true, sink);
  ASSERT_EQ(sink.violations.size(), due.size());
  for (std::size_t k = 0; k < due.size(); ++k) {
    const int request = static_cast<int>(k) * 97;
    // The first instant past a deadline d is the grant half a step later,
    // or the end of the stream for a deadline after the last request.
    const bool before_end = request + kHorizon / kStep < kRequests;
    const sim::SimTime first_past = before_end ? due[k] + kStep / 2 : end;
    EXPECT_EQ(sink.violations[k].at, first_past) << "request " << request;
    EXPECT_EQ(sink.violations[k].sites, std::vector<SiteId>{request % kSites});
    const std::string what = "request #" + std::to_string(request) + " ";
    EXPECT_NE(sink.violations[k].detail.find(what), std::string::npos)
        << sink.violations[k].detail;
  }
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

TEST(ViolationJson, MalformedUnicodeEscapesAreRefused) {
  // The writer escapes control bytes as \u00XX and nothing else. The old
  // reader decoded these with std::stoi, which reads a prefix, skips
  // spaces, takes a sign or 0x and truncates to char: \u1zzz and \u-7ff
  // read as byte 1, \u+041, \u0x41 and \u 041 as 'A', and \u0100 as NUL.
  for (const char* escape :
       {"\\u1zzz", "\\u-7ff", "\\u+041", "\\u0x41", "\\u 041", "\\u0100"}) {
    const std::string text =
        std::string(R"([{"detail": "a)") + escape + R"(b"}])";
    try {
      (void)read_violations_json(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("violation JSON: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(ViolationJson, TrailingBytesAreRefused) {
  std::vector<Violation> in(1);
  in[0].oracle = "fifo";
  std::ostringstream os;
  write_violations_json(os, in);
  EXPECT_THROW((void)read_violations_json("[]trailing"), std::runtime_error);
  EXPECT_THROW((void)read_violations_json(os.str() + "]"),
               std::runtime_error);
  EXPECT_THROW((void)read_violations_json(os.str() + os.str()),
               std::runtime_error);
  // Whitespace may follow the array: a report file ends with a newline.
  EXPECT_TRUE(read_violations_json("[]\n").empty());
  EXPECT_EQ(read_violations_json(os.str() + " \n"), in);
}

std::string violation_error(const std::string& text) {
  try {
    (void)read_violations_json(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "parsed";
}

TEST(ViolationJson, IdsAndTimesAreWholeIntegersOfTheirType) {
  // A non-integer, out-of-range or signed-with-plus number used to be cast
  // to an id (1e300 overflowed the cast, 2.7 read as site 2). Each is now
  // an error naming the key and the token.
  EXPECT_NE(violation_error(R"([{"oracle": "x", "sites": [1e300, 2.7]}])")
                .find("bad sites \"1e300\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"oracle": "x", "sites": [2.7]}])")
                .find("bad sites \"2.7\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"resources": [0, 1e300]}])")
                .find("bad resources \"1e300\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"resources": [2147483648]}])")
                .find("bad resources \"2147483648\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"sites": [+3]}])").find("bad sites \"+3\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"sites": [-]}])").find("bad sites \"-\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"at_ns": 1.5}])").find("bad at_ns \"1.5\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"at_ns": 1-2}])").find("bad at_ns \"1-2\""),
            std::string::npos);
  EXPECT_NE(violation_error(R"([{"at_ns": 99999999999999999999}])")
                .find("bad at_ns"),
            std::string::npos);
  // The extremes of each type still read back.
  const std::vector<Violation> ok = read_violations_json(
      R"([{"at_ns": -9223372036854775808, "sites": [2147483647, -1],)"
      R"( "resources": [-2147483648]}])");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].at, std::numeric_limits<sim::SimTime>::min());
  EXPECT_EQ(ok[0].sites, (std::vector<SiteId>{2147483647, -1}));
  EXPECT_EQ(ok[0].resources, (std::vector<ResourceId>{-2147483648}));
}

TEST(ViolationJson, MutantsThrowOrRoundTrip) {
  // Every truncation and a seed-driven set of single-byte substitutions of
  // a written report. Each must be refused with a runtime_error, or parse
  // to violations that write and read back equal.
  std::vector<Violation> in(2);
  in[0].oracle = "mutual-exclusion";
  in[0].at = (1LL << 53) + 1;
  in[0].sites = {2, 17, 305};
  in[0].resources = {0, 31, 79};
  in[0].detail = "resource r31 granted to s17 while held by s2";
  in[0].recent_events = {"[1.2ms] s2 acquire {0,31} seq=4",
                         "quote \" backslash \\ control \x01 done"};
  in[1].oracle = "starvation";
  in[1].at = 5'000'000;
  in[1].sites = {9};
  std::ostringstream os;
  write_violations_json(os, in, 2);
  const std::string text = os.str();
  ASSERT_EQ(read_violations_json(text), in);

  std::size_t parsed = 0;
  for (const std::string& mutant :
       test::mutants_of(text, "0129-+.eE ,:[]{}\"\\ux\n", 23)) {
    std::vector<Violation> once;
    try {
      once = read_violations_json(mutant);
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("violation JSON: ", 0), 0u)
          << e.what();
      continue;
    }
    ++parsed;
    std::ostringstream written;
    write_violations_json(written, once);
    EXPECT_EQ(read_violations_json(written.str()), once) << mutant;
  }
  EXPECT_GT(parsed, 0u);  // e.g. a digit substituted inside a number
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

// One kHold breaks mutual exclusion and closes a wait-for cycle at once.
// Pins the fan-out: oracle order (mutual exclusion before deadlock), the
// max_violations cut-off (the oracles after the one that hit the cap still
// see that event; nothing after it is checked), the details and the
// recent-event window attached to each report.
TEST(MonitorTest, FanOutOrderAndCutOffArePinned) {
  MonitorConfig cfg;
  cfg.num_sites = 3;
  cfg.num_resources = 2;
  cfg.event_window = 6;
  cfg.max_violations = 1;
  Monitor monitor(cfg);
  const ResourceSet r1(2, {1});
  const ResourceSet both(2, {0, 1});
  auto hold = [](sim::SimTime at, SiteId site, ResourceId r) {
    Event e = cs_event(EventType::kHold, at, site, nullptr, site + 1);
    e.resource = r;
    return e;
  };
  Event send = msg_event(EventType::kSend, sim::from_ms(1.5), 2, 0, 9);
  send.bytes = 40;
  monitor.on_event(cs_event(EventType::kRequest, sim::from_ms(1), 2, &r1, 3));
  monitor.on_event(cs_event(EventType::kAcquire, sim::from_ms(1), 2, &r1, 3));
  monitor.on_event(send);
  monitor.on_event(cs_event(EventType::kRequest, sim::from_ms(2), 0, &both));
  monitor.on_event(hold(sim::from_ms(2.5), 0, 0));
  monitor.on_event(cs_event(EventType::kRequest, sim::from_ms(3), 1, &both));
  EXPECT_TRUE(monitor.ok());
  // s1 takes r1 from under s2 (mutual exclusion) and now waits for r0,
  // which s0 holds while waiting for r1 (the cycle s1 -> s0 -> s1).
  monitor.on_event(hold(sim::from_ms(3.25), 1, 1));
  // Past the cap: neither the double grant nor the end-of-run checks
  // report any more.
  monitor.on_event(hold(sim::from_ms(4), 0, 1));
  monitor.on_advance(sim::from_ms(100'000));
  monitor.finalize(sim::from_ms(100'000), /*quiescent=*/true);

  EXPECT_EQ(monitor.events_seen(), 8u);
  const std::vector<Violation>& v = monitor.violations();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].oracle, "mutual-exclusion");
  EXPECT_EQ(v[0].at, sim::from_ms(3.25));
  EXPECT_EQ(v[0].sites, (std::vector<SiteId>{1, 2}));
  EXPECT_EQ(v[0].resources, std::vector<ResourceId>{1});
  EXPECT_EQ(v[0].detail, "resource r1 granted to s1 while held by s2");
  EXPECT_EQ(v[1].oracle, "deadlock");
  EXPECT_EQ(v[1].at, sim::from_ms(3.25));
  EXPECT_EQ(v[1].sites, (std::vector<SiteId>{0, 1}));
  EXPECT_EQ(v[1].resources, (std::vector<ResourceId>{0, 1}));
  EXPECT_EQ(v[1].detail,
            "wait-for cycle: s1, s0 -> s1 (each holds a resource the next "
            "one waits for)");
  const std::vector<std::string> window = {
      "[1ms] s2 acquire {1} seq=3",
      "[1.5ms] s2 send -> s0 Test #9 (40B)",
      "[2ms] s0 request {0,1} seq=1",
      "[2.5ms] s0 hold r0 seq=1",
      "[3ms] s1 request {0,1} seq=1",
      "[3.25ms] s1 hold r1 seq=2",
  };
  EXPECT_EQ(v[0].recent_events, window);
  EXPECT_EQ(v[1].recent_events, window);
  // The ring kept recording past the cut-off: it has wrapped once more.
  const std::vector<std::string> last = {
      "[1.5ms] s2 send -> s0 Test #9 (40B)",
      "[2ms] s0 request {0,1} seq=1",
      "[2.5ms] s0 hold r0 seq=1",
      "[3ms] s1 request {0,1} seq=1",
      "[3.25ms] s1 hold r1 seq=2",
      "[4ms] s0 hold r1 seq=1",
  };
  EXPECT_EQ(monitor.recent_events(), last);
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
