// LayerClock: the traced run's in-process profiler, a check::Observer
// attached through run_scenario's public observer seam.
//
// It timestamps every hook the instrumented layers call — the simulator's
// on_advance, the network's kSend/kDeliver, the allocator's kRequest/
// kAcquire/kRelease — and charges each gap between two consecutive
// context-switching hooks to the context that opened it:
//
//   <message kind>   a delivered message: the protocol handler, inclusive of
//                    the sends it makes and any hook-less event that follows
//                    at the same instant
//   algo.request     request() through the next hook
//   scenario.grant   CS entry: the grant callback, driver and collector
//   algo.release     release() through the next hook
//   sim.instant      the engine's clock advance through the first hook
//   scenario.setup   run_scenario call -> on_wired (system create + start)
//   scenario.start   on_wired -> first event (drivers built and started)
//   experiment.tail  last hook -> run_scenario return (summary, teardown)
//
// The gaps partition each bracketed job, so its rows sum to the job's wall
// time exactly; the hooks' own cost lands inside the gaps, which is the
// trace overhead mra_bench reports. kSend does not switch context (a send
// happens inside a handler); it only counts messages and bytes. Message
// kinds are interned to small ids by the address of their static storage, so
// nothing is allocated per event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/event.hpp"
#include "mra_bench/util.hpp"
#include "sim/simulator.hpp"

namespace mra_bench {

class LayerClock final : public mra::check::Observer {
 public:
  struct Row {
    std::string name;
    std::int64_t ns = 0;
    std::uint64_t count = 0;  ///< times the context was entered
  };

  /// Fixed contexts; message kinds follow from kFirstKind.
  enum Context : std::uint32_t {
    kSetup,
    kStart,
    kInstant,
    kRequest,
    kGrant,
    kRelease,
    kTail,
    kFirstKind,
  };

  LayerClock()
      : rows_{{"scenario.setup"}, {"scenario.start"}, {"sim.instant"},
              {"algo.request"},   {"scenario.grant"}, {"algo.release"},
              {"experiment.tail"}} {}

  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  /// Brackets one run_scenario call: begin_job() right before it, wired()
  /// from its on_wired hook, end_job() right after it returns.
  void begin_job() {
    last_ = now_ns();
    current_ = kSetup;
    ++rows_[kSetup].count;
  }
  void wired(const mra::sim::Simulator& simulator) {
    switch_to(kStart);
    sim_ = &simulator;
  }
  void end_job() {
    const std::int64_t t = now_ns();
    rows_[kTail].ns += t - last_;
    ++rows_[kTail].count;
    current_ = kTail;
    last_ = t;
    // The simulator dies with the run; its last reading stands.
    events_ += job_events_;
    job_events_ = 0;
    sim_ = nullptr;
  }

  // Observer ------------------------------------------------------------------
  void on_advance(mra::sim::SimTime /*now*/) override {
    switch_to(kInstant);
    // Read here, where it is cheap: the count excludes the final instant's
    // batch, which is just as deterministic as the full count.
    job_events_ = sim_->events_processed();
    queue_slots_ = std::max<std::uint64_t>(queue_slots_, sim_->queue_capacity());
  }

  void on_event(const mra::check::Event& e) override {
    using mra::check::EventType;
    switch (e.type) {
      case EventType::kDeliver: switch_to(kind_id(e.kind)); ++deliveries_; break;
      case EventType::kRequest: switch_to(kRequest); break;
      case EventType::kAcquire: switch_to(kGrant); break;
      case EventType::kRelease: switch_to(kRelease); break;
      case EventType::kSend:
        ++sends_;
        bytes_ += e.bytes;
        break;
      case EventType::kHold: break;
    }
  }

  // Results ---------------------------------------------------------------------
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t queue_slots() const { return queue_slots_; }

  /// Σ ns of the message-kind rows (the protocol handlers).
  [[nodiscard]] std::int64_t handler_ns() const {
    std::int64_t ns = 0;
    for (std::size_t i = kFirstKind; i < rows_.size(); ++i) ns += rows_[i].ns;
    return ns;
  }

 private:
  void switch_to(std::uint32_t next) {
    const std::int64_t t = now_ns();
    rows_[current_].ns += t - last_;
    ++rows_[next].count;
    current_ = next;
    last_ = t;
  }

  std::uint32_t kind_id(std::string_view kind) {
    // Kinds are string literals: pointer identity is the fast path; the
    // text comparison only runs once per new literal.
    for (const KindRef& k : kinds_) {
      if (k.ptr == kind.data()) return k.row;
    }
    std::uint32_t row = kFirstKind;
    while (row < rows_.size() && rows_[row].name != kind) ++row;
    if (row == rows_.size()) rows_.push_back(Row{std::string(kind)});
    kinds_.push_back(KindRef{kind.data(), row});
    return row;
  }

  struct KindRef {
    const char* ptr = nullptr;
    std::uint32_t row = 0;
  };

  std::vector<Row> rows_;
  std::vector<KindRef> kinds_;
  std::uint32_t current_ = kSetup;
  std::int64_t last_ = 0;
  const mra::sim::Simulator* sim_ = nullptr;
  std::uint64_t job_events_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t queue_slots_ = 0;
};

}  // namespace mra_bench
