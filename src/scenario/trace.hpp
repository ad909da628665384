// Request-trace record/replay.
//
// A RequestTrace is the full request sequence of one run — for every
// request: birth time, site, CS duration, and the exact resource set. Traces
// make algorithm comparisons exact: replayed against any AllocatorNode
// implementation, every algorithm sees bit-identical input (same sites, same
// times, same resource sets), not merely identically-distributed input.
//
// On-disk format (`# mra-trace v1`), line-oriented and diff-friendly:
//
//   # mra-trace v1
//   scenario zipf-hot          (optional provenance)
//   sites 32
//   resources 80
//   seed 1
//   latency_ns 600000
//   clusters 4                 (optional: two-level topology)
//   wan_ns 10000000            (optional: inter-cluster latency)
//   <at_ns> <site> <cs_ns> <r1,r2,...>
//   ...
//
// Header keys come before events; `#` lines are comments; event lines start
// with a digit. Events are stored in birth-time order. The network keys let
// replay rebuild the topology the trace was recorded under — replaying a
// WAN-recorded trace on a flat 0.6 ms network would silently change what is
// being measured.
//
// `# mra-trace v2` extends v1 with self-contained repro provenance, so a
// trace alone (no command-line flags) replays bit-identically:
//
//   # mra-trace v2
//   ...v1 headers...
//   algorithm lass-loan         (what to replay the trace against)
//   delay_bound_ns 1000000      (BoundedDelayLatency perturbation bound)
//   quantum_ns 600000           (latency quantization grid, model checking)
//   mutant bl-control-token-loss  (seeded bug active during the run)
//
// All v2 keys are optional; in v2 the `seed` header is the *perturbation*
// seed that replay must honor to reproduce the latency schedule. Writers
// emit the v2 magic only when a v2 key is set, so plain request traces stay
// v1 and diff-stable. Readers accept both versions; any other version line
// is rejected with a named "unsupported trace version" error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace mra::scenario {

/// One request birth. `resources` is sorted ascending and non-empty.
struct TraceEvent {
  sim::SimTime at = 0;         ///< birth (issue) time
  SiteId site = 0;
  sim::SimDuration cs = 0;     ///< critical-section duration
  std::vector<ResourceId> resources;

  bool operator==(const TraceEvent&) const = default;
};

struct RequestTrace {
  std::string scenario;  ///< provenance label, may be empty
  int num_sites = 0;
  int num_resources = 0;
  std::uint64_t seed = 0;

  /// Network the trace was recorded under, so replay reproduces it.
  sim::SimDuration network_latency = sim::from_ms(0.6);
  int hierarchical_clusters = 1;  ///< > 1: two-level topology
  sim::SimDuration hierarchical_remote_latency = 0;

  // v2 provenance (all optional; see format comment above) -------------------
  std::string algorithm;  ///< CLI name to replay against; empty = caller picks
  sim::SimDuration latency_delay_bound = 0;  ///< perturbation bound
  sim::SimDuration latency_quantum = 0;      ///< quantization grid
  std::string mutant;  ///< seeded bug active during the run, may be empty

  /// True when any v2 provenance field is set — the writer then emits the
  /// v2 magic; a pure-v1 trace round-trips byte-identically as v1.
  [[nodiscard]] bool has_v2_fields() const {
    return !algorithm.empty() || latency_delay_bound > 0 ||
           latency_quantum > 0 || !mutant.empty();
  }

  std::vector<TraceEvent> events;

  /// Upper bounds on the header dimensions, so a two-line header cannot
  /// request an unbounded system (every site holds O(resources) dense
  /// state). kMaxSites is the largest system this simulator runs
  /// (scalability_n's 10^6 sites); kMaxResources is far above the paper's
  /// M = 80; kMaxSiteResources caps their product, which bounds the dense
  /// per-site state of the whole system (10^6 sites x 80 resources fits).
  static constexpr int kMaxSites = 1'000'000;
  static constexpr int kMaxResources = 65'536;
  static constexpr std::int64_t kMaxSiteResources = 100'000'000;

  /// Structural checks: dimensions in [1, kMax*], sites/resources in range,
  /// non-empty sorted resource lists, non-negative times, and a `mutant`
  /// that check::mutant_from_name resolves (so not "none"). Throws
  /// std::invalid_argument naming the offending field and its value, or the
  /// first offending event.
  void validate() const;

  /// Largest request size in the trace (1 when empty).
  [[nodiscard]] int max_request_size() const;
};

/// Serializes in the line format above: v2 magic iff has_v2_fields().
void write_trace(std::ostream& os, const RequestTrace& trace);
void save_trace(const std::string& path, const RequestTrace& trace);

/// Parses the v1 or v2 format. An event line has exactly four fields and a
/// header line exactly one value; every number is one whole decimal token
/// of its field's type. Throws std::runtime_error on malformed input, as
/// "trace line N: ..." naming the field (or "unsupported trace version" for
/// any other version line), and std::invalid_argument when the parsed trace
/// fails validate().
[[nodiscard]] RequestTrace read_trace(std::istream& is);
[[nodiscard]] RequestTrace load_trace(const std::string& path);

}  // namespace mra::scenario
