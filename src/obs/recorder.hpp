// obs::FlightRecorder — the flight-recorder half of the observability layer.
//
// A passive check::Observer that reconstructs, online, everything a post-hoc
// investigation needs from one run: per-request lifecycle spans (submit →
// first message → acquire → release, with per-resource custody stamps), the
// full message log with send/deliver pairing for causal edges, and a
// ring-free time-series of engine gauges sampled on a fixed simulated-time
// grid. Export (Chrome trace JSON, spans CSV, gauges JSON) lives in
// obs/trace_export.hpp — the recorder only accumulates.
//
// Determinism contract: every recorded number derives from the simulation
// (simulated time, event order, engine counters). No wall clock, no
// iteration over unordered containers — two runs of the same seed produce
// byte-identical exports. Compose with a check::Monitor through a
// check::ObserverMux when oracles and recording are wanted together.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/event.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"

namespace mra::net {
class Network;
}  // namespace mra::net
namespace mra::sim {
class Simulator;
}  // namespace mra::sim

namespace mra::obs {

/// Sentinel for "this lifecycle point never happened" (e.g. a request still
/// waiting when the run ended has acquire_at == kNever).
inline constexpr sim::SimTime kNever = -1;

/// One per-resource custody stamp inside a span (Incremental's per-lock
/// grants; algorithms without observable custody emit none).
struct HoldStamp {
  ResourceId resource = kNoResource;
  sim::SimTime at = 0;
};

/// Lifecycle of one CS request, reconstructed from the event stream.
struct RequestSpan {
  SiteId site = kNoSite;
  std::int64_t seq = 0;                 ///< request id (per-site sequence)
  std::vector<ResourceId> resources;    ///< requested set, ascending
  sim::SimTime submit_at = 0;
  sim::SimTime first_message_at = kNever;  ///< first send attributed to it
  sim::SimTime acquire_at = kNever;
  sim::SimTime release_at = kNever;
  std::vector<HoldStamp> holds;
  /// Sends attributed to this span (each such MessageRecord::span points
  /// back here).
  std::uint32_t messages = 0;

  [[nodiscard]] bool completed() const { return release_at != kNever; }
  /// Waiting time; for spans still waiting at end-of-run, time waited until
  /// `horizon` (callers pass the recorder's last-seen instant).
  [[nodiscard]] sim::SimDuration waiting(sim::SimTime horizon) const {
    return (acquire_at != kNever ? acquire_at : horizon) - submit_at;
  }
};

/// One network message: a causal edge between sites.
struct MessageRecord {
  std::int64_t id = 0;        ///< network message id (pairs send/deliver)
  SiteId src = kNoSite;
  SiteId dst = kNoSite;
  std::uint32_t kind = 0;     ///< index into FlightRecorder::kind_names()
  std::uint32_t bytes = 0;
  sim::SimTime send_at = 0;
  sim::SimTime deliver_at = kNever;
  std::int32_t span = -1;     ///< index of the sender's span, -1 detached
};

/// One point on the gauge time-series grid. `sends_by_kind` is parallel to
/// FlightRecorder::kind_names() and may be shorter than the final kind list
/// (kinds discovered after the sample was taken); missing tail entries are
/// zero.
struct GaugeSample {
  sim::SimTime at = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t messages_total = 0;   ///< lifetime sends seen by the recorder
  std::uint64_t bytes_total = 0;
  std::uint32_t sites_waiting = 0;    ///< submitted, not yet acquired
  std::uint32_t sites_in_cs = 0;
  std::vector<std::uint64_t> sends_by_kind;
};

class FlightRecorder final : public check::Observer {
 public:
  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Enables the gauge sampler: one GaugeSample per `interval` of simulated
  /// time, starting at the first on_advance at or past t=0's grid point.
  /// The simulator/network are borrowed read-only for counter snapshots.
  void enable_gauges(const sim::Simulator& simulator,
                     const net::Network& network, sim::SimDuration interval);

  // Observer ------------------------------------------------------------------
  void on_event(const check::Event& event) override;
  void on_advance(sim::SimTime now) override;

  // Accumulated state ---------------------------------------------------------
  [[nodiscard]] const std::vector<RequestSpan>& spans() const {
    return spans_;
  }
  [[nodiscard]] const std::vector<MessageRecord>& messages() const {
    return messages_;
  }
  [[nodiscard]] const std::vector<GaugeSample>& gauges() const {
    return gauges_;
  }
  /// Message kinds in first-seen order (deterministic: emission order is
  /// simulation order).
  [[nodiscard]] const std::vector<std::string>& kind_names() const {
    return kind_names_;
  }
  [[nodiscard]] sim::SimDuration gauge_interval() const { return interval_; }
  /// Latest instant the recorder has seen (events or clock advances); the
  /// horizon for still-open spans.
  [[nodiscard]] sim::SimTime last_seen() const { return last_seen_; }

 private:
  void sample(sim::SimTime at);
  /// Index of `kind` in kind_names_, appending it on first sight.
  std::uint32_t kind_index(std::string_view kind);

  std::vector<RequestSpan> spans_;
  std::vector<MessageRecord> messages_;
  std::vector<std::int32_t> open_span_;   ///< per site: spans_ index, -1 none

  // Gauge state (enable_gauges).
  const sim::Simulator* sim_ = nullptr;
  const net::Network* net_ = nullptr;
  sim::SimDuration interval_ = 0;
  sim::SimTime next_sample_ = 0;
  std::vector<GaugeSample> gauges_;
  std::vector<std::string> kind_names_;
  std::vector<std::uint64_t> kind_sends_;  ///< parallel to kind_names_
  std::uint64_t sends_seen_ = 0;
  std::uint64_t bytes_seen_ = 0;
  std::uint32_t sites_waiting_ = 0;
  std::uint32_t sites_in_cs_ = 0;
  sim::SimTime last_seen_ = 0;
};

}  // namespace mra::obs
