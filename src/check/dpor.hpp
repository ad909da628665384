// Systematic same-instant interleaving exploration (stateless model
// checking in the style of Flanagan & Godefroid's dynamic partial-order
// reduction).
//
// The simulator's (time, seq) firing contract makes every scheduling
// decision explicit: events at *different* instants are causally ordered,
// so the only reorderings a real network could produce beyond the canonical
// schedule are permutations of same-instant batches. The per-link FIFO
// watermark already keeps same-link deliveries at distinct instants, so
// same-instant events at one site always came over different links and may
// arrive in any order.
//
// DporScheduler is a sim::CommutationHook that enumerates those orderings
// depth-first with a persistent-set-style reduction: within a batch, events
// with different commute tags (different sites) touch disjoint state and
// commute — their relative order is never explored. Only the permutations
// *within* each same-tag group are enumerated, as one mixed-radix choice
// per batch. Each fully-executed schedule is one "run"; the driver replays
// the simulation from scratch per run, forcing the recorded choice prefix
// and advancing the deepest choice point like a DFS over the schedule tree.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mra::check {

struct DporConfig {
  /// Hard cap on executed schedules; hitting it sets stats.truncated.
  std::uint64_t max_schedules = 20'000;
  /// Cap on alternatives per choice point (a same-tag group of size k
  /// contributes min(k!, max_branch) orderings). Exceeding it sets
  /// stats.truncated — coverage is then best-effort, not exhaustive.
  std::uint64_t max_branch = 720;
  /// Forced choice prefix: replays a specific schedule (repro mode). The
  /// prefix choice points are pinned; exploration continues below them. A
  /// pinned choice must be below the alternatives of the choice point it
  /// lands on (else on_round throws std::invalid_argument), and a run that
  /// ends unstopped must have met every entry (else advance() throws):
  /// a prefix that does not fit never replays some other schedule.
  std::vector<std::uint64_t> forced_prefix;
};

struct DporStats {
  std::uint64_t schedules_executed = 0;
  std::uint64_t choice_points = 0;     ///< distinct choice nodes discovered
  /// Orderings a reduction-free enumerator would also have tried: for every
  /// discovered batch, (batch size)! minus the alternatives actually kept
  /// (saturating) — the measure of the partial-order reduction.
  std::uint64_t orderings_pruned = 0;
  bool complete = false;   ///< the whole reduced schedule space was executed
  bool truncated = false;  ///< a cap clipped enumeration somewhere
};

/// The DFS scheduler. Usage:
///
///   DporScheduler sched(cfg);
///   do {
///     sched.begin_run();
///     // build a fresh Simulator, sim.set_commutation_hook(&sched),
///     // schedule the workload, sim.run(), check oracles...
///   } while (keep_going && sched.advance());
///
/// Determinism: given the same simulation body, the sequence of schedules
/// (and therefore stats and the first violation found) is a pure function
/// of the config — independent of wall clock, platform, or thread count
/// (exploration is strictly sequential).
class DporScheduler final : public sim::CommutationHook {
 public:
  explicit DporScheduler(DporConfig config = {});

  /// Rewinds to the start of the (re)play: the existing trail becomes the
  /// forced prefix; new batches append new choice points.
  void begin_run();

  /// Backtracks to the deepest choice point with an untried alternative.
  /// Returns false when the space is exhausted (stats().complete) or the
  /// schedule budget is spent (stats().truncated). Throws
  /// std::invalid_argument when the run just finished met fewer choice
  /// points than the forced prefix has entries.
  [[nodiscard]] bool advance();

  [[nodiscard]] const DporStats& stats() const { return stats_; }

  /// The choice made at every choice point of the current run — a
  /// self-contained schedule id for repro (DporConfig::forced_prefix).
  [[nodiscard]] std::vector<std::uint64_t> choices() const;

  /// Throws std::invalid_argument when a forced-prefix choice is not below
  /// the alternatives of the choice point it lands on.
  void on_round(sim::SimTime at, const std::vector<int>& tags,
                std::vector<std::size_t>& order) override;

 private:
  struct Node {
    std::uint64_t chosen = 0;
    std::uint64_t alternatives = 1;
    bool pinned = false;  ///< forced_prefix entry: never backtracked
  };

  /// A same-tag group of the current round.
  struct Group {
    int tag;
    std::size_t size;
  };

  DporConfig cfg_;
  DporStats stats_;
  std::vector<Node> trail_;
  std::size_t depth_ = 0;  ///< choice points consumed this run
  // on_round scratch, reused so a round allocates nothing once warm.
  std::vector<Group> groups_;           ///< in order of first occurrence
  std::vector<std::size_t> positions_;  ///< one group's canonical positions
  std::vector<std::size_t> pool_;       ///< positions not yet placed
};

/// Convenience driver: runs `body` once per schedule until it returns true
/// (stop requested, e.g. violation found with stop-on-first) or the space /
/// budget is exhausted. `body` must build a *fresh* simulator each call and
/// attach the passed hook before scheduling anything.
DporStats explore_schedules(
    const DporConfig& config,
    const std::function<bool(DporScheduler& scheduler)>& body);

}  // namespace mra::check
