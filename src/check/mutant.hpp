// Mutant hooks: seeded protocol bugs used to prove the conformance oracles
// actually detect what they claim to detect (tests/test_mutants.cpp).
// Every build compiles them in; set_active_mutant() activates at most one at
// runtime, and each hook is one load and one compare against kNone, the
// default.
//
// This header is a leaf (no project includes) so instrumentation sites in
// net/, algo/ and mutex/ can include it without layering concerns.
#pragma once

namespace mra::check {

/// Every seeded bug, each mapped to the oracle that must catch it.
enum class Mutant {
  kNone = 0,
  /// LASS enters the CS as soon as *one* required token is owned instead of
  /// all of them -> per-resource mutual-exclusion oracle.
  kLassPrematureEntry,
  /// LASS release() keeps its tokens instead of serving the waiting queue
  /// -> deadlock (stuck-at-quiescence) / starvation oracle.
  kLassDropRelease,
  /// LASS token holder drops the counter-update reply, leaving the
  /// requester in waitS forever -> deadlock / starvation oracle.
  kLassSkipCounterReply,
  /// Incremental acquires its per-resource locks in *descending* id order
  /// on odd sites, breaking the global total order -> wait-for-graph
  /// deadlock oracle (genuine AB/BA cycle).
  kIncrementalReversedAcquire,
  /// Network skips the per-link FIFO watermark clamp, so a low-latency
  /// message overtakes an earlier one on the same link -> FIFO/causality
  /// oracle.
  kNetFifoViolation,
  /// Naimi-Tréhel release() drops the token instead of forwarding it to the
  /// queued next requester -> deadlock oracle (mutex explorer mode).
  kMutexNtDropToken,
  /// Bouabdallah-Laforest loses the control token in transit (the inner
  /// Naimi-Tréhel send drops NtTokenMsg<ControlToken>) -> deadlock
  /// (stuck-at-quiescence) oracle.
  kBlControlTokenLoss,
  /// Maddi stamps every request with timestamp 1 instead of the Lamport
  /// clock, so ties always break by site id -> starvation oracle (high-id
  /// sites wait forever under contention).
  kMaddiTimestampRegression,
  /// Chandy-Misra skips the bottle phase: on winning all forks the site
  /// drinks immediately as if the bottles were already held -> per-resource
  /// mutual-exclusion oracle.
  kCmForkBottleConfusion,
};

[[nodiscard]] const char* to_string(Mutant m);

/// Parses the kebab-case name used by `mra_explore --mutant` and the tests
/// ("lass-premature-entry", ...). Returns kNone for unknown names.
[[nodiscard]] Mutant mutant_from_name(const char* name);

/// The active mutant (kNone by default). Not thread-safe: set it before
/// building/running a system, never concurrently with a sweep.
inline Mutant g_active_mutant = Mutant::kNone;

[[nodiscard]] inline Mutant active_mutant() { return g_active_mutant; }
inline void set_active_mutant(Mutant m) { g_active_mutant = m; }
[[nodiscard]] inline bool mutant_enabled(Mutant m) {
  return m == g_active_mutant;
}

}  // namespace mra::check
