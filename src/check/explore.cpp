#include "check/explore.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "algo/chandy_misra.hpp"
#include "check/mutant.hpp"
#include "experiment/sweep.hpp"
#include "mutex/naimi_trehel.hpp"
#include "mutex/ricart_agrawala.hpp"
#include "mutex/suzuki_kasami.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "scenario/runner.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mra::check {

namespace {

/// Fixed fuzz-sweep wave size: waves are dispatched through
/// experiment::run_sweep and scanned in case order, so reports (runs,
/// violating_runs, first find) are identical for every --threads value.
constexpr std::size_t kWave = 8;

/// Livelock guards: the event budget of one checked scenario run and of one
/// substrate run.
constexpr std::uint64_t kScenarioEventBudget = 200'000'000;
constexpr std::uint64_t kSubstrateEventBudget = 50'000'000;

/// Replay attempts the minimizer may spend on a substrate repro.
constexpr int kSubstrateMinimizeBudget = 48;

Violation livelock_violation(sim::SimTime at, std::uint64_t budget) {
  Violation v;
  v.oracle = "livelock";
  v.at = at;
  v.detail = "simulation exceeded its event budget of " +
             std::to_string(budget) + " events without quiescing";
  return v;
}

/// Activates a trace's recorded mutant for the scope of a replay (no-op
/// when the name is empty).
class ScopedMutant {
 public:
  explicit ScopedMutant(const std::string& name) {
    if (!name.empty()) {
      previous_ = active_mutant();
      set_active_mutant(mutant_from_name(name.c_str()));
      active_ = true;
    }
  }
  ~ScopedMutant() {
    if (active_) set_active_mutant(previous_);
  }
  ScopedMutant(const ScopedMutant&) = delete;
  ScopedMutant& operator=(const ScopedMutant&) = delete;

 private:
  Mutant previous_ = Mutant::kNone;
  bool active_ = false;
};

/// Runs `drive` under the event budget, then the end-of-run checks. A
/// tripped budget is reported as a "livelock" violation, not an exception;
/// a stop-on-first interruption leaves legitimate in-flight requests, so
/// liveness is only judged when the drain completed cleanly.
template <typename Drive>
void run_to_end(sim::Simulator& sim, Monitor& monitor, std::uint64_t budget,
                CheckedRun& out, Drive drive) {
  sim.set_event_budget(budget);
  bool budget_hit = false;
  try {
    drive();
  } catch (const sim::EventBudgetExceeded&) {
    budget_hit = true;
  }
  out.quiescent = !budget_hit && sim.idle();
  monitor.finalize(sim.now(), out.quiescent && monitor.ok());
  out.violations = monitor.violations();
  if (budget_hit) {
    out.violations.push_back(livelock_violation(sim.now(), budget));
  }
  out.events = sim.events_processed();
}

/// run_checked_scenario on the caller's own copy of the spec.
CheckedRun run_checked(scenario::ScenarioSpec s, algo::Algorithm algorithm,
                       const CheckOptions& options) {
  s.system.algorithm = algorithm;
  s.validate();

  CheckedRun out;
  auto system = algo::AllocationSystem::create(s.system);
  if (options.commutation != nullptr) {
    // Before start(): the hook must see every event ever scheduled.
    system->simulator().set_commutation_hook(options.commutation);
  }
  system->start();

  MonitorConfig mc = options.monitor;
  mc.num_sites = s.system.num_sites;
  mc.num_resources = s.system.num_resources;
  Monitor monitor(mc);
  monitor.attach(*system);

  scenario::ScenarioRunner runner(*system, s,
                                  s.system.seed ^ 0x9E3779B97F4A7C15ULL,
                                  &out.trace);
  auto& sim = system->simulator();
  runner.start();
  run_to_end(sim, monitor, kScenarioEventBudget, out, [&] {
    sim.run(s.warmup + s.measure);
    if (monitor.ok()) {
      // Drain to quiescence so liveness is observable: no new requests, and
      // anything still waiting at the end is waiting forever.
      runner.stop_issuing();
      sim.run();
    }
  });
  out.messages = system->network().total_messages();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// run_checked_scenario and the explicit-algorithm replay
// ---------------------------------------------------------------------------

CheckedRun run_checked_scenario(const scenario::ScenarioSpec& spec,
                                algo::Algorithm algorithm,
                                const CheckOptions& options) {
  return run_checked(spec, algorithm, options);
}

std::vector<Violation> check_replay(const scenario::RequestTrace& trace,
                                    algo::Algorithm algorithm,
                                    const MonitorConfig& monitor_cfg,
                                    std::uint64_t seed,
                                    sim::SimDuration delay_bound) {
  MonitorConfig mc = monitor_cfg;
  mc.num_sites = trace.num_sites;
  mc.num_resources = trace.num_resources;
  mc.stop_on_first = false;  // replays run to the end; they are short
  Monitor monitor(mc);

  scenario::ReplayOptions ropts;
  ropts.seed = seed;
  ropts.latency_delay_bound = delay_bound;
  ropts.observer = &monitor;

  try {
    const scenario::ReplayResult r =
        scenario::replay_trace(trace, algorithm, ropts);
    monitor.finalize(r.end_time, /*quiescent=*/true);
  } catch (const sim::EventBudgetExceeded&) {
    // replay_trace's internal budget tripped; the exception does not carry
    // the end time, so the violation reports detection at an unknown (0)
    // instant.
    std::vector<Violation> out = monitor.violations();
    Violation v;
    v.oracle = "livelock";
    v.detail = "checked replay exceeded the replayed system's event budget "
               "without quiescing";
    out.push_back(std::move(v));
    return out;
  }
  return monitor.violations();
}

// ---------------------------------------------------------------------------
// Substrates: the three mutex engines and the Chandy-Misra ring
// ---------------------------------------------------------------------------

const char* to_string(MutexProtocol p) {
  switch (p) {
    case MutexProtocol::kNaimiTrehel: return "nt";
    case MutexProtocol::kSuzukiKasami: return "sk";
    case MutexProtocol::kRicartAgrawala: return "ra";
  }
  return "?";
}

std::vector<MutexProtocol> all_mutex_protocols() {
  return {MutexProtocol::kNaimiTrehel, MutexProtocol::kSuzukiKasami,
          MutexProtocol::kRicartAgrawala};
}

MutexProtocol mutex_protocol_from_name(const std::string& name) {
  for (MutexProtocol p : all_mutex_protocols()) {
    if (name == to_string(p)) return p;
  }
  throw std::invalid_argument("unknown mutex protocol \"" + name +
                              "\" (valid: nt | sk | ra)");
}

namespace {

/// One mutex engine as a single-resource AllocatorNode (universe 1), so its
/// CS events reach the Monitor through the observer seam every allocator
/// uses. The engine is built in on_start(), once the site has its id and
/// network; engine constructors neither send nor schedule.
template <typename Engine>
class MutexNode final : public AllocatorNode {
 public:
  explicit MutexNode(int num_sites) : num_sites_(num_sites) {}

  [[nodiscard]] ProcessState state() const override {
    if (engine_ == nullptr || !engine_->requesting()) {
      return ProcessState::kIdle;
    }
    return engine_->in_cs() ? ProcessState::kInCS : ProcessState::kWaitCS;
  }

  void on_start() override {
    auto send = [this](SiteId dst, std::unique_ptr<net::Message> m) {
      network()->send(id(), dst, std::move(m));
    };
    auto granted = [this]() { notify_granted(); };
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      engine_ = std::make_unique<Engine>(id(), /*elected=*/0, /*instance=*/0,
                                         send, granted);
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      engine_ = std::make_unique<Engine>(id(), /*elected=*/0, num_sites_,
                                         /*instance=*/0, send, granted);
    } else {
      engine_ = std::make_unique<Engine>(id(), num_sites_, /*instance=*/0,
                                         send, granted);
    }
  }

  void on_message([[maybe_unused]] SiteId from,
                  const net::Message& msg) override {
    const std::string_view kind = msg.kind();
    if constexpr (std::is_same_v<Engine, mutex::NaimiTrehelEngine<>>) {
      if (const auto* req =
              net::message_cast<mutex::NtRequestMsg>(msg, kind)) {
        engine_->on_request(*req);
      } else if (const auto* tok = net::message_cast<
                     mutex::NtTokenMsg<mutex::NoPayload>>(msg, kind)) {
        engine_->on_token(*tok);
      }
    } else if constexpr (std::is_same_v<Engine, mutex::SuzukiKasamiEngine>) {
      if (const auto* req =
              net::message_cast<mutex::SkRequestMsg>(msg, kind)) {
        engine_->on_request(*req);
      } else if (const auto* tok =
                     net::message_cast<mutex::SkTokenMsg>(msg, kind)) {
        engine_->on_token(*tok);
      }
    } else {
      if (const auto* req =
              net::message_cast<mutex::RaRequestMsg>(msg, kind)) {
        engine_->on_request(from, *req);
      } else if (const auto* rep =
                     net::message_cast<mutex::RaReplyMsg>(msg, kind)) {
        engine_->on_reply(*rep);
      }
    }
  }

 protected:
  void do_request(const ResourceSet& resources) override {
    // Before the engine call: an engine may grant synchronously, and the
    // grant reports the current request and its seq.
    current_ = resources;
    ++request_seq_;
    engine_->request();
  }

  void do_release() override {
    engine_->release();
    current_.clear();
  }

 private:
  int num_sites_;
  std::unique_ptr<Engine> engine_;
};

bool is_substrate(const std::string& algorithm) {
  return algorithm == "nt" || algorithm == "sk" || algorithm == "ra" ||
         algorithm == "cm-ring";
}

/// One substrate run, in any of three modes: closed-loop fuzz (rng gaps
/// between a site's requests), deterministic exhaustive (every site issues
/// at t = 0 on the latency grid, a commutation hook attached) and replay
/// (the births of a recorded trace).
struct SubstratePlan {
  std::string algorithm;  ///< "nt" | "sk" | "ra" | "cm-ring"
  int num_sites = 0;
  int requests_per_site = 0;  ///< 0 in replay mode
  std::uint64_t seed = 1;
  sim::SimDuration base_latency = sim::from_ms(0.6);
  sim::SimDuration delay = 0;  ///< BoundedDelayLatency bound
  sim::SimDuration cs = 0;     ///< CS duration of a generated request
  bool deterministic = false;  ///< t = 0 issues, no rng draws
  const scenario::RequestTrace* replay = nullptr;  ///< births from a trace
  MonitorConfig monitor;  ///< oracle template; sizes are set per run
};

/// "mutex:<protocol>" or "cm-ring": the scenario label of a substrate run.
std::string substrate_label(const std::string& algorithm) {
  return algorithm == "cm-ring" ? algorithm : "mutex:" + algorithm;
}

std::unique_ptr<AllocatorNode> make_substrate_node(
    const std::string& algorithm, const algo::ChandyMisraConfig& cmc) {
  const int n = cmc.num_sites;
  if (algorithm == "cm-ring") {
    return std::make_unique<algo::ChandyMisraNode>(cmc);
  }
  switch (mutex_protocol_from_name(algorithm)) {
    case MutexProtocol::kNaimiTrehel:
      return std::make_unique<MutexNode<mutex::NaimiTrehelEngine<>>>(n);
    case MutexProtocol::kSuzukiKasami:
      return std::make_unique<MutexNode<mutex::SuzukiKasamiEngine>>(n);
    case MutexProtocol::kRicartAgrawala:
      break;
  }
  return std::make_unique<MutexNode<mutex::RicartAgrawalaEngine>>(n);
}

CheckedRun run_substrate(const SubstratePlan& plan,
                         sim::CommutationHook* hook = nullptr) {
  const int n = plan.num_sites;
  // What differs between substrates is data: the universe (the one mutex
  // resource, or one edge (i, i+1 mod N) per ring link), the resource a
  // request picks and the rng salt.
  const bool ring = plan.algorithm == "cm-ring";
  const int universe = ring ? n : 1;

  sim::Simulator sim;
  if (hook != nullptr) sim.set_commutation_hook(hook);
  net::Network net(
      sim, net::make_bounded_delay_latency(plan.base_latency, plan.delay),
      plan.seed);
  MonitorConfig mc = plan.monitor;
  mc.num_sites = n;
  mc.num_resources = universe;
  Monitor monitor(mc);
  monitor.attach(sim, net);

  algo::ChandyMisraConfig cmc;
  cmc.num_sites = n;
  for (int i = 0; ring && i < n; ++i) cmc.sharers.emplace_back(i, (i + 1) % n);
  std::vector<std::unique_ptr<AllocatorNode>> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(make_substrate_node(plan.algorithm, cmc));
    net.add_node(*nodes.back());
    nodes.back()->set_observer(&monitor);
  }
  net.start();

  // The v2 provenance, stamped here as ScenarioRunner stamps a scenario
  // trace, so every recorded trace is a self-contained repro.
  CheckedRun out;
  scenario::RequestTrace& trace = out.trace;
  trace.scenario = substrate_label(plan.algorithm);
  trace.algorithm = plan.algorithm;
  trace.num_sites = n;
  trace.num_resources = universe;
  trace.seed = plan.seed;
  trace.network_latency = plan.base_latency;
  trace.latency_delay_bound = plan.delay;
  if (active_mutant() != Mutant::kNone) {
    trace.mutant = to_string(active_mutant());
  }

  struct SiteState {
    /// Arrived, not yet issued: (CS duration, resource).
    std::deque<std::pair<sim::SimDuration, ResourceId>> pending;
    bool busy = false;
    sim::SimDuration cs = 0;
    int remaining = 0;  ///< arrivals left to generate (0 in replay mode)
  };
  std::vector<SiteState> st(static_cast<std::size_t>(n));
  for (auto& s : st) s.remaining = plan.requests_per_site;
  auto site = [&](SiteId s) -> SiteState& {
    return st[static_cast<std::size_t>(s)];
  };
  auto node = [&](SiteId s) -> AllocatorNode& {
    return *nodes[static_cast<std::size_t>(s)];
  };
  sim::Rng rng(plan.seed ^
               (ring ? 0x5C5C5C5C5C5C5C5CULL : 0xA5A5A5A5A5A5A5A5ULL));

  std::function<void(SiteId)> try_issue = [&](SiteId s) {
    SiteState& ss = site(s);
    if (ss.busy || ss.pending.empty()) return;
    ss.busy = true;
    const auto [cs, r] = ss.pending.front();
    ss.pending.pop_front();
    ss.cs = cs;
    trace.events.push_back(scenario::TraceEvent{sim.now(), s, cs, {r}});
    node(s).request(ResourceSet(universe, {r}));
  };

  // The resource a request picks. Mutex: the one resource. Ring fuzz: the
  // site's own edge and its left edge alternately, so neighbours contend;
  // ring exhaustive: pairs (2k, 2k+1) share edge 2k.
  auto pick = [&](SiteId s, int count) -> ResourceId {
    if (!ring) return 0;
    if (plan.deterministic) return s - (s % 2);
    return count % 2 == 0 ? s : (s - 1 + n) % n;
  };

  std::function<void(SiteId)> arrive = [&](SiteId s) {
    SiteState& ss = site(s);
    if (ss.remaining <= 0) return;
    --ss.remaining;
    const sim::SimDuration gap =
        plan.deterministic
            ? 0
            : static_cast<sim::SimDuration>(rng.uniform_int(0, 2'000'000));
    const ResourceId r = pick(s, plan.requests_per_site - ss.remaining - 1);
    sim.schedule_in(gap, static_cast<int>(s), [&, s, r]() {
      site(s).pending.emplace_back(plan.cs, r);
      try_issue(s);
    });
  };

  for (SiteId s = 0; s < n; ++s) {
    node(s).set_grant_callback([&, s](RequestId) {
      sim.schedule_in(site(s).cs, static_cast<int>(s), [&, s]() {
        node(s).release();
        site(s).busy = false;
        try_issue(s);  // replay mode: the next pending birth, if any
        arrive(s);
      });
    });
  }

  if (plan.replay != nullptr) {
    for (const scenario::TraceEvent& ev : plan.replay->events) {
      sim.schedule_at(ev.at, static_cast<int>(ev.site), [&, e = &ev]() {
        site(e->site).pending.emplace_back(e->cs, e->resources.front());
        try_issue(e->site);
      });
    }
  }
  for (SiteId s = 0; s < n; ++s) arrive(s);  // no-op in replay mode

  run_to_end(sim, monitor, kSubstrateEventBudget, out, [&] { sim.run(); });
  out.messages = net.total_messages();
  return out;
}

/// Checked replay of a self-contained v2 trace. It leaves the mutant global
/// alone: the drivers replay on the sweep pool, where the trace's mutant is
/// the active one anyway, and set_active_mutant is not thread-safe.
std::vector<Violation> replay_violations(const scenario::RequestTrace& trace,
                                         const MonitorConfig& monitor) {
  if (!is_substrate(trace.algorithm)) {
    // Factory algorithms: the scenario replay path (which also picks up the
    // trace's latency quantum through replay_trace).
    return check_replay(trace, algo::algorithm_from_name(trace.algorithm),
                        monitor, trace.seed, trace.latency_delay_bound);
  }
  trace.validate();
  // Every substrate but Naimi-Tréhel keeps O(sites) state per site: bound
  // sites^2 the way validate() bounds sites x resources.
  if (trace.algorithm != "nt" &&
      static_cast<std::int64_t>(trace.num_sites) * trace.num_sites >
          scenario::RequestTrace::kMaxSiteResources) {
    throw std::invalid_argument(
        "check_replay: sites=" + std::to_string(trace.num_sites) +
        " is too large for " + trace.algorithm + " (sites*sites > " +
        std::to_string(scenario::RequestTrace::kMaxSiteResources) + ")");
  }
  // A substrate request names one resource of the substrate's universe:
  // the mutex resource 0 (validate() narrows each event to {0} once
  // resources is 1), or one ring edge.
  const int universe = trace.algorithm == "cm-ring" ? trace.num_sites : 1;
  if (trace.num_resources != universe) {
    throw std::invalid_argument(
        "check_replay: algorithm " + trace.algorithm + " needs resources " +
        std::to_string(universe) + " (got resources " +
        std::to_string(trace.num_resources) + ")");
  }
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const std::vector<ResourceId>& rs = trace.events[i].resources;
    if (rs.size() != 1) {
      std::string ids;
      for (ResourceId r : rs) {
        ids += (ids.empty() ? "" : ",") + std::to_string(r);
      }
      throw std::invalid_argument(
          "check_replay: trace event " + std::to_string(i) +
          " requests resources " + ids + "; algorithm " + trace.algorithm +
          " requests exactly one");
    }
  }
  SubstratePlan plan;
  plan.algorithm = trace.algorithm;
  plan.num_sites = trace.num_sites;
  plan.seed = trace.seed;
  plan.base_latency = trace.network_latency;
  plan.delay = trace.latency_delay_bound;
  plan.replay = &trace;
  plan.monitor = monitor;
  plan.monitor.stop_on_first = false;  // replays run to the end
  return run_substrate(plan).violations;
}

}  // namespace

std::vector<Violation> check_replay(const scenario::RequestTrace& trace,
                                    const MonitorConfig& monitor) {
  if (trace.algorithm.empty()) {
    throw std::invalid_argument(
        "check_replay: trace has no algorithm header (v1 trace) — use the "
        "overload that names the algorithm explicitly");
  }
  ScopedMutant scoped(trace.mutant);
  return replay_violations(trace, monitor);
}

// ---------------------------------------------------------------------------
// The drivers: one fuzz loop and one exhaustive loop for every family
// ---------------------------------------------------------------------------

namespace {

/// One explorer case: the report labels, the repro file stem, the run's
/// perturbation and how to run it (`hook` is the DPOR scheduler in
/// exhaustive mode, null in fuzz mode).
struct Case {
  std::string scenario;   ///< FoundViolation::scenario
  std::string algorithm;  ///< FoundViolation::algorithm
  std::string stem;       ///< repro file label
  std::uint64_t seed = 0;
  sim::SimDuration delay = 0;  ///< the run's drawn perturbation bound
  std::function<CheckedRun(sim::CommutationHook* hook)> run;
};

/// The perturbation draw depends only on (run seed, case, bound), so
/// re-running with --base-seed <run seed> --seeds 1 and the same bound
/// reproduces any single run.
sim::SimDuration draw_delay(std::uint64_t seed, std::uint64_t case_hash,
                            sim::SimDuration bound) {
  sim::Rng meta(seed ^ case_hash);
  return bound > 0 ? meta.uniform_int(0, bound) : 0;
}

/// "Does this trace still violate `oracle` under checked replay?" — the one
/// predicate of triage, ddmin and the neighborhood search, for every family.
bool reproduces(const scenario::RequestTrace& trace,
                const MonitorConfig& monitor, const std::string& oracle) {
  if (trace.events.empty()) return false;
  const std::vector<Violation> vs = replay_violations(trace, monitor);
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

/// Greedy delta debugging (ddmin-lite) over the event list: repeatedly try
/// dropping contiguous chunks (n/2, n/4, ... 1) while the trace still
/// violates `oracle`, bounded by `budget` replay attempts.
scenario::RequestTrace minimize(const scenario::RequestTrace& full,
                                const MonitorConfig& monitor,
                                const std::string& oracle, int budget) {
  scenario::RequestTrace best = full;
  scenario::RequestTrace candidate = full;
  std::size_t chunk = best.events.size() / 2;
  int attempts = 0;
  while (chunk >= 1 && attempts < budget) {
    bool removed_any = false;
    for (std::size_t start = 0;
         start < best.events.size() && attempts < budget;) {
      const std::vector<scenario::TraceEvent>& events = best.events;
      const auto cut = events.begin() + static_cast<std::ptrdiff_t>(start);
      const std::size_t end = std::min(events.size(), start + chunk);
      candidate.events.assign(events.begin(), cut);
      candidate.events.insert(
          candidate.events.end(),
          events.begin() + static_cast<std::ptrdiff_t>(end), events.end());
      ++attempts;
      if (reproduces(candidate, monitor, oracle)) {
        // Keep the survivors and rescan from the same offset.
        std::swap(best.events, candidate.events);
        removed_any = true;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    // ddmin's retry rule: a successful removal can enable earlier removals,
    // so only refine the granularity after a pass that removed nothing.
    if (!removed_any) chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return best;
}

/// The report entry of a violating run.
FoundViolation found_in(const Case& c, const CheckedRun& run) {
  FoundViolation found;
  found.scenario = c.scenario;
  found.algorithm = c.algorithm;
  found.seed = c.seed;
  found.delay_bound = c.delay;
  found.violations = run.violations;
  found.trace_events = run.trace.events.size();
  found.minimized_events = run.trace.events.size();
  return found;
}

/// Saves `trace` as the entry's repro file when a trace directory is set.
void save_repro(FoundViolation& found, const std::string& dir,
                const std::string& stem, const scenario::RequestTrace& trace) {
  if (dir.empty() || trace.events.empty()) return;
  std::string safe = stem;
  for (char& c : safe) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-') {
      c = '_';
    }
  }
  found.trace_path =
      dir + "/repro_" + safe + "_s" + std::to_string(found.seed) + ".mra";
  scenario::save_trace(found.trace_path, trace);
}

/// Neighborhood search: perturbation variants (remixed seed, scaled bound)
/// around a reproducing violation, replayed on the sweep pool; the first
/// violating variant is minimized too and the smaller repro wins. A variant
/// is a copy of the trace with its seed and bound stamped in, so an adopted
/// repro stays self-contained.
void neighborhood_search(FoundViolation& found,
                         const scenario::RequestTrace& full,
                         scenario::RequestTrace& repro,
                         const MonitorConfig& monitor,
                         const std::string& oracle, int count,
                         int minimize_budget, int threads) {
  if (count <= 0 || !found.replay_reproduces) return;
  const sim::SimDuration base_bound =
      found.delay_bound > 0 ? found.delay_bound : sim::from_ms(1.0);
  static constexpr double kScale[4] = {1.0, 0.5, 1.5, 2.0};
  std::vector<scenario::RequestTrace> variants(
      static_cast<std::size_t>(count), full);
  std::vector<char> hits(variants.size(), 0);
  std::vector<experiment::SweepJob> jobs;
  for (std::size_t j = 0; j < variants.size(); ++j) {
    variants[j].seed = found.seed ^ ((j + 1) * 0x9E3779B97F4A7C15ULL);
    variants[j].latency_delay_bound = static_cast<sim::SimDuration>(
        static_cast<double>(base_bound) * kScale[j % 4]);
    jobs.push_back([&, j]() {
      hits[j] = reproduces(variants[j], monitor, oracle) ? 1 : 0;
      return experiment::ExperimentResult();
    });
  }
  (void)experiment::run_sweep(jobs,
                              static_cast<unsigned>(std::max(0, threads)));

  found.neighborhood_tried = variants.size();
  found.neighborhood_violating =
      static_cast<std::uint64_t>(std::count(hits.begin(), hits.end(), 1));
  const auto hit = std::find(hits.begin(), hits.end(), 1);
  if (hit == hits.end()) return;
  // One extra minimization keeps the budget predictable.
  scenario::RequestTrace alt =
      minimize(variants[static_cast<std::size_t>(hit - hits.begin())],
               monitor, oracle, minimize_budget);
  if (alt.events.size() < repro.events.size()) {
    repro = std::move(alt);
    found.minimized_events = repro.events.size();
  }
}

/// The fuzz driver: runs `cases` in fixed waves on the sweep pool, scans
/// each wave in case order, and triages every violating run — replay check,
/// ddmin, the neighborhood search and the repro file. `Config` is any of
/// the three explore configs (monitor, stop_on_first, threads, trace_dir,
/// progress).
template <typename Config>
ExploreReport drive_fuzz(const std::vector<Case>& cases, const Config& config,
                         int minimize_budget, int neighborhood) {
  ExploreReport report;
  ExploreProgress* progress = config.progress;
  if (progress != nullptr) {
    // Accumulate, not overwrite: a multi-phase run (scenario + mutex +
    // cm-ring fuzz sharing one ExploreProgress) keeps a coherent total.
    progress->runs_total.fetch_add(cases.size(), std::memory_order_relaxed);
  }
  const auto threads = static_cast<unsigned>(std::max(0, config.threads));
  for (std::size_t wave = 0; wave < cases.size(); wave += kWave) {
    const std::size_t end = std::min(cases.size(), wave + kWave);
    std::vector<CheckedRun> slots(end - wave);
    std::vector<experiment::SweepJob> jobs;
    for (std::size_t k = wave; k < end; ++k) {
      jobs.push_back([&, k]() {
        slots[k - wave] = cases[k].run(nullptr);
        if (progress != nullptr) {
          progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        return experiment::ExperimentResult();
      });
    }
    (void)experiment::run_sweep(jobs, threads);
    report.runs += end - wave;

    // Scan the wave in case order: the first violating slot is the first
    // violating run, independent of how the pool interleaved the jobs.
    for (std::size_t k = wave; k < end; ++k) {
      const CheckedRun& run = slots[k - wave];
      if (run.violations.empty()) continue;
      ++report.violating_runs;
      if (progress != nullptr) {
        progress->violations.fetch_add(1, std::memory_order_relaxed);
      }
      // Minimize when the recorded trace reproduces the violation under
      // checked replay, otherwise keep it whole (the run itself is already
      // reproducible from its case, seed and delay).
      FoundViolation found = found_in(cases[k], run);
      const std::string& oracle = run.violations.front().oracle;
      scenario::RequestTrace repro = run.trace;
      found.replay_reproduces = reproduces(run.trace, config.monitor, oracle);
      if (found.replay_reproduces && minimize_budget > 0) {
        repro = minimize(run.trace, config.monitor, oracle, minimize_budget);
        found.minimized_events = repro.events.size();
      }
      neighborhood_search(found, run.trace, repro, config.monitor, oracle,
                          neighborhood, minimize_budget, config.threads);
      save_repro(found, config.trace_dir, cases[k].stem, repro);
      report.found.push_back(std::move(found));
      if (config.stop_on_first) return report;
    }
  }
  return report;
}

/// The exhaustive driver: every same-instant commutation of one case, up to
/// the first violating schedule. Its choice stack is the repro when the
/// canonical-order replay of its births does not re-trigger the bug.
ExploreReport drive_exhaustive(const Case& c, const DporConfig& dpor,
                               const MonitorConfig& monitor,
                               const std::string& trace_dir,
                               ExploreProgress* progress) {
  CheckedRun violating;
  std::vector<std::uint64_t> choices;
  const DporStats stats =
      explore_schedules(dpor, [&](DporScheduler& scheduler) {
        CheckedRun run = c.run(&scheduler);
        if (progress != nullptr) {
          progress->schedules_executed.fetch_add(1,
                                                 std::memory_order_relaxed);
          progress->runs_done.fetch_add(1, std::memory_order_relaxed);
        }
        if (run.violations.empty()) return false;
        if (progress != nullptr) {
          progress->violations.fetch_add(1, std::memory_order_relaxed);
        }
        violating = std::move(run);
        choices = scheduler.choices();
        return true;
      });
  if (progress != nullptr) {
    progress->orderings_pruned.store(stats.orderings_pruned,
                                     std::memory_order_relaxed);
  }

  ExploreReport report;
  report.runs = stats.schedules_executed;
  report.schedules_executed = stats.schedules_executed;
  report.choice_points = stats.choice_points;
  report.orderings_pruned = stats.orderings_pruned;
  report.exhaustive_complete = stats.complete;
  report.exhaustive_truncated = stats.truncated;
  if (violating.violations.empty()) return report;

  report.violating_runs = 1;
  FoundViolation found = found_in(c, violating);
  found.commutation = std::move(choices);
  found.replay_reproduces = reproduces(
      violating.trace, monitor, violating.violations.front().oracle);
  save_repro(found, trace_dir, c.stem + "-exhaustive", violating.trace);
  report.found.push_back(std::move(found));
  return report;
}

/// A (scenario, algorithm) case. `monitor` already carries the mode's
/// stop-on-first flag; the spec is copied once per run.
Case scenario_case(const scenario::ScenarioSpec& spec, algo::Algorithm alg,
                   std::uint64_t seed, sim::SimDuration delay,
                   const MonitorConfig& monitor) {
  Case c;
  c.scenario = spec.name;
  c.algorithm = algo::cli_name(alg);
  c.stem = c.scenario + "_" + c.algorithm;
  c.seed = seed;
  c.delay = delay;
  c.run = [&spec, alg, seed, delay, monitor](sim::CommutationHook* hook) {
    scenario::ScenarioSpec s = spec;
    s.system.seed = seed;
    s.system.latency_delay_bound = delay;
    CheckOptions options;
    options.monitor = monitor;
    options.commutation = hook;
    return run_checked(std::move(s), alg, options);
  };
  return c;
}

/// The substrate plan of a mutex or ring config, in fuzz or exhaustive mode.
template <typename Config>
SubstratePlan substrate_plan(const Config& config, std::string algorithm,
                             sim::SimDuration cs, bool exhaustive) {
  SubstratePlan plan;
  plan.algorithm = std::move(algorithm);
  plan.num_sites = config.num_sites;
  plan.requests_per_site = config.requests_per_site;
  plan.seed = config.base_seed;
  plan.cs = cs;
  plan.deterministic = exhaustive;
  plan.monitor = config.monitor;
  // Exhaustive mode ends the violating schedule early; fuzz mode mirrors
  // the sweep-level flag.
  plan.monitor.stop_on_first = exhaustive || config.stop_on_first;
  return plan;
}

Case substrate_case(const SubstratePlan& plan) {
  Case c;
  c.algorithm = plan.algorithm;
  c.scenario = substrate_label(plan.algorithm);
  c.stem = c.scenario;
  c.seed = plan.seed;
  c.delay = plan.delay;
  c.run = [plan](sim::CommutationHook* hook) {
    return run_substrate(plan, hook);
  };
  return c;
}

/// One fuzz case per seed of `config` for the substrate `plan`.
template <typename Config>
void add_substrate_cases(std::vector<Case>& cases, const Config& config,
                         SubstratePlan plan, std::uint64_t case_hash) {
  for (int i = 0; i < config.seeds_per_case; ++i) {
    plan.seed = config.base_seed + static_cast<std::uint64_t>(i);
    plan.delay = draw_delay(plan.seed, case_hash, config.delay_bound);
    cases.push_back(substrate_case(plan));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points: each builds its case list and hands it to a driver
// ---------------------------------------------------------------------------

ExploreReport explore(const ExploreConfig& config) {
  // Mirrors the sweep-level flag: stop-on-first also aborts the violating
  // run early; keep-going collects every violation.
  MonitorConfig mc = config.monitor;
  mc.stop_on_first = config.stop_on_first;
  std::vector<Case> cases;
  for (const scenario::ScenarioSpec& spec : config.scenarios) {
    for (algo::Algorithm alg : config.algorithms) {
      const std::uint64_t case_hash =
          std::hash<std::string>{}(spec.name + ":" + algo::cli_name(alg));
      for (int i = 0; i < config.seeds_per_case; ++i) {
        const std::uint64_t seed =
            config.base_seed + static_cast<std::uint64_t>(i);
        cases.push_back(scenario_case(
            spec, alg, seed, draw_delay(seed, case_hash, config.delay_bound),
            mc));
      }
    }
  }
  return drive_fuzz(cases, config, config.minimize_budget,
                    config.neighborhood_variants);
}

scenario::ScenarioSpec tiny_exhaustive_spec(int sites, int resources) {
  scenario::ScenarioSpec s;
  s.name = "tiny-exhaustive";
  s.summary = "model-checking config: tiny windows, quantized latency grid";
  s.system.num_sites = sites;
  s.system.num_resources = resources;
  s.system.seed = 1;
  s.system.network_latency = sim::from_ms(0.6);
  // Round every latency up onto the network grid so independent deliveries
  // collide at shared instants — the commutations the explorer enumerates.
  s.system.latency_quantum = sim::from_ms(0.6);
  s.workload.num_resources = resources;
  s.workload.phi = std::min(2, resources);
  s.workload.alpha_min = sim::from_ms(0.6);
  s.workload.alpha_max = sim::from_ms(1.2);
  s.workload.cs_jitter = 0.0;
  s.workload.rho = 1.0;  // high load: requests overlap, grants contend
  s.warmup = sim::from_ms(5);
  s.measure = sim::from_ms(30);
  return s;
}

ExploreReport explore_scenario_exhaustive(const scenario::ScenarioSpec& spec,
                                          algo::Algorithm algorithm,
                                          const MonitorConfig& monitor,
                                          const DporConfig& dpor,
                                          const std::string& trace_dir,
                                          ExploreProgress* progress) {
  MonitorConfig mc = monitor;
  mc.stop_on_first = true;  // end the violating schedule early
  return drive_exhaustive(scenario_case(spec, algorithm, spec.system.seed,
                                        spec.system.latency_delay_bound, mc),
                          dpor, monitor, trace_dir, progress);
}

ExploreReport explore_mutex(const MutexExploreConfig& config) {
  std::vector<Case> cases;
  for (MutexProtocol protocol : config.protocols) {
    add_substrate_cases(
        cases, config,
        substrate_plan(config, to_string(protocol), sim::from_ms(1.0), false),
        0x6D75746578ULL + static_cast<std::uint64_t>(protocol));
  }
  return drive_fuzz(cases, config, kSubstrateMinimizeBudget, 0);
}

ExploreReport explore_mutex_exhaustive(const MutexExploreConfig& config,
                                       const DporConfig& dpor) {
  if (config.protocols.size() != 1) {
    throw std::invalid_argument(
        "explore_mutex_exhaustive: explores exactly one protocol per run "
        "(got " + std::to_string(config.protocols.size()) + ")");
  }
  // CS = the base latency, grid-aligned: maximal same-instant collisions.
  const SubstratePlan plan = substrate_plan(
      config, to_string(config.protocols.front()), sim::from_ms(0.6), true);
  return drive_exhaustive(substrate_case(plan), dpor, config.monitor,
                          config.trace_dir, config.progress);
}

ExploreReport explore_cm_ring(const CmRingExploreConfig& config) {
  std::vector<Case> cases;
  add_substrate_cases(cases, config,
                      substrate_plan(config, "cm-ring", config.cs, false),
                      0x636D2D72696E67ULL);  // "cm-ring"
  return drive_fuzz(cases, config, kSubstrateMinimizeBudget, 0);
}

ExploreReport explore_cm_ring_exhaustive(const CmRingExploreConfig& config,
                                         const DporConfig& dpor) {
  return drive_exhaustive(
      substrate_case(substrate_plan(config, "cm-ring", config.cs, true)),
      dpor, config.monitor, config.trace_dir, config.progress);
}

}  // namespace mra::check
