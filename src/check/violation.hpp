// Structured violation reports: what an oracle emits instead of a bare
// assert. A Violation carries enough context to debug a schedule-dependent
// bug after the fact — simulated time, the sites and resources involved, a
// one-line diagnosis and the window of events that led up to it — and
// round-trips through JSON so CI can archive reports next to the repro
// trace (see tests/test_conformance.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace mra::check {

struct Violation {
  std::string oracle;                       ///< reporting oracle's name
  sim::SimTime at = 0;                      ///< when it was detected
  std::vector<SiteId> sites;                ///< sites involved, ascending
  std::vector<ResourceId> resources;        ///< resources involved, ascending
  std::string detail;                       ///< one-line diagnosis
  std::vector<std::string> recent_events;   ///< formatted trailing window

  bool operator==(const Violation&) const = default;
};

/// Writes a JSON array of violation objects. Keys: oracle, at_ns, at_ms
/// (redundant, human convenience), sites, resources, detail, recent_events.
void write_violations_json(std::ostream& os,
                           const std::vector<Violation>& violations,
                           int indent = 0);

/// Parses what write_violations_json wrote (a strict-subset JSON reader on
/// wire::Cursor: objects, arrays, numbers, and strings with exactly the
/// escapes wire::escape writes). Throws std::runtime_error starting
/// "violation JSON: " on malformed input, including an at_ns, site or
/// resource that is not one whole decimal integer of its type. `at` is read
/// from at_ns, so the round trip is exact.
[[nodiscard]] std::vector<Violation> read_violations_json(std::istream& is);
[[nodiscard]] std::vector<Violation> read_violations_json(
    const std::string& text);

}  // namespace mra::check
