#include "scenario/runner.hpp"

#include <cassert>
#include <deque>
#include <functional>

#include "check/mutant.hpp"

namespace mra::scenario {

namespace {

/// Waiting-time buckets by request size (Fig. 7 plots six).
constexpr std::size_t kSizeBuckets = 6;

}  // namespace

ScenarioDriver::ScenarioDriver(AllocatorNode& node, sim::Simulator& simulator,
                               const workload::WorkloadConfig& site_cfg,
                               ResourcePicker& picker,
                               const ArrivalSpec& arrival, sim::Rng rng,
                               metrics::Collector& collector,
                               RequestTrace* record)
    : node_(node),
      sim_(simulator),
      picker_(picker),
      collector_(collector),
      record_(record),
      gen_(site_cfg, rng.split()),
      rng_(rng.split()),
      arrival_(make_arrival(arrival, site_cfg)) {}

void ScenarioDriver::start() {
  node_.set_grant_callback([this](RequestId /*seq*/) { on_granted(); });
  schedule_next_birth();
}

void ScenarioDriver::schedule_next_birth() {
  // Tagged with the site id: births at different sites touch disjoint driver
  // and node state (the shared picker keeps nothing between draws), so the
  // model checker may commute them within an instant.
  sim_.schedule_in(arrival_.next_delay(sim_.now(), rng_),
                   static_cast<int>(node_.id()), [this]() { make_request(); });
}

void ScenarioDriver::make_request() {
  if (stopped_) return;
  const int size = gen_.draw_size();
  PendingRequest req;
  req.born = sim_.now();
  req.resources = picker_.draw(size, rng_);
  req.cs = gen_.draw_cs_duration(size);
  if (record_) {
    record_->events.push_back(TraceEvent{req.born, node_.id(), req.cs,
                                         req.resources.to_vector()});
  }
  // Open loop: the next arrival is independent of service, so schedule it
  // now. Closed loop: the next request is born only after this one's CS, so
  // it never finds one in flight.
  if (arrival_.open_loop()) schedule_next_birth();
  // Nothing waits while the site is idle (on_cs_done serves the queue at
  // once), so an idle site dispatches the newborn directly.
  if (!in_flight_) {
    dispatch(req);
    return;
  }
  if (!pending_) pending_ = std::make_unique<std::deque<PendingRequest>>();
  pending_->push_back(std::move(req));
}

void ScenarioDriver::dispatch(const PendingRequest& req) {
  assert(!in_flight_ && node_.state() == ProcessState::kIdle);
  in_flight_ = true;
  current_cs_ = req.cs;
  // Waiting time is measured from birth: for queued open-loop arrivals it
  // includes the queueing delay at the site.
  collector_.on_issue(req.born, node_.id(), node_.current_request_id() + 1,
                      req.resources);
  node_.request(req.resources);
}

void ScenarioDriver::on_granted() {
  collector_.on_grant(sim_.now(), node_.id(), node_.current_request_id(),
                      node_.current_request());
  // release() must not run inside the grant callback (protocols may still be
  // mid-handler), so even a zero-length CS goes through the event queue.
  sim_.schedule_in(current_cs_, static_cast<int>(node_.id()),
                   [this]() { on_cs_done(); });
}

void ScenarioDriver::on_cs_done() {
  const ResourceSet held = node_.current_request();
  collector_.on_release(sim_.now(), node_.id(), node_.current_request_id(),
                        held);
  node_.release();
  in_flight_ = false;
  if (!arrival_.open_loop()) {
    if (!stopped_) schedule_next_birth();
  } else if (pending_ && !pending_->empty()) {
    const PendingRequest next = std::move(pending_->front());
    pending_->pop_front();
    dispatch(next);
  }
}

ScenarioRunner::ScenarioRunner(algo::AllocationSystem& system,
                               const ScenarioSpec& spec, std::uint64_t seed,
                               RequestTrace* record)
    : collector_(system.num_resources(), kSizeBuckets),
      // Heterogeneity scales φ and the CS range, never M, so one picker
      // serves every site.
      picker_(make_picker(spec.popularity, spec.workload.num_resources)),
      light_(spec.workload),
      heavy_(effective_site_workload(spec, 0)) {
  const int num_sites = system.num_sites();
  const int num_heavy = num_heavy_sites(spec);
  if (num_heavy < num_sites) light_.validate();
  if (num_heavy > 0) heavy_.validate();
  collector_.set_max_size(static_cast<std::size_t>(spec.max_request_size()));
  if (record) {
    record->scenario = spec.name;
    record->num_sites = system.num_sites();
    record->num_resources = system.num_resources();
    // Provenance: the user-facing seed (spec.system.seed), not the mixed
    // internal stream seed — the header must let a reader reproduce the run.
    record->seed = spec.system.seed;
    record->network_latency = spec.system.network_latency;
    record->hierarchical_clusters = spec.system.hierarchical_clusters;
    // The WAN latency is meaningless on a flat topology (SystemConfig
    // defaults it to 10 ms regardless), so only record it when it applies.
    record->hierarchical_remote_latency =
        spec.system.hierarchical_clusters > 1
            ? spec.system.hierarchical_remote_latency
            : 0;
    // v2 provenance: everything replay needs to reproduce the run with no
    // flags — the algorithm, the perturbation model, any seeded bug. The
    // writer stays on the v1 magic when none of these are set.
    record->algorithm = algo::cli_name(spec.system.algorithm);
    record->latency_delay_bound = spec.system.latency_delay_bound;
    record->latency_quantum = spec.system.latency_quantum;
    if (check::active_mutant() != check::Mutant::kNone) {
      record->mutant = check::to_string(check::active_mutant());
    }
  }
  sim::Rng master(seed);
  drivers_.reserve(static_cast<std::size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    drivers_.emplace_back(system.node(i), system.simulator(),
                          i < num_heavy ? heavy_ : light_, *picker_,
                          spec.arrival, master.split(), collector_, record);
  }
}

void ScenarioRunner::start() {
  for (ScenarioDriver& d : drivers_) d.start();
}

void ScenarioRunner::stop_issuing() {
  for (ScenarioDriver& d : drivers_) d.stop();
}

namespace {

experiment::ExperimentResult run_scenario_impl(
    const ScenarioSpec& spec, algo::Algorithm algorithm, RequestTrace* record,
    check::Observer* observer,
    const std::function<void(algo::AllocationSystem&)>& on_wired = {}) {
  ScenarioSpec s = spec;
  s.system.algorithm = algorithm;
  s.validate();

  auto system = algo::AllocationSystem::create(s.system);
  system->start();
  if (observer != nullptr) {
    // Wired before the first event fires, so the observer sees the complete
    // stream — warm-up included (spans born in warm-up stay reconstructable).
    system->simulator().set_observer(observer);
    system->network().set_observer(observer);
    for (SiteId i = 0; i < s.system.num_sites; ++i) {
      system->node(i).set_observer(observer);
    }
  }
  if (on_wired) on_wired(*system);

  ScenarioRunner runner(*system, s, s.system.seed ^ 0x9E3779B97F4A7C15ULL,
                        record);

  auto& sim = system->simulator();
  sim.set_event_budget(500'000'000ULL);

  runner.start();
  sim.run(s.warmup);
  runner.collector().reset(sim.now());
  system->network().reset_stats();
  sim.run(s.warmup + s.measure);

  experiment::ExperimentResult result =
      experiment::summarize(*system, runner.collector());
  result.phi = s.workload.phi;
  result.rho = s.workload.rho;
  return result;
}

/// replay_trace's site loop: each trace event is born at its recorded time
/// at its site, a site has one request in flight, and later births wait
/// FIFO behind it. Like ScenarioDriver, a site builds its queue only when a
/// birth has to wait, so a site that never queues allocates nothing.
class TraceReplayer {
 public:
  TraceReplayer(const RequestTrace& trace, algo::AllocationSystem& system,
                metrics::Collector& collector)
      : trace_(trace),
        system_(system),
        sim_(system.simulator()),
        collector_(collector),
        sites_(static_cast<std::size_t>(trace.num_sites)) {
    for (SiteId s = 0; s < trace.num_sites; ++s) {
      system_.node(s).set_grant_callback(
          [this, s](RequestId /*seq*/) { on_granted(s); });
    }
    for (const TraceEvent& ev : trace.events) {
      sim_.schedule_at(ev.at, static_cast<int>(ev.site),
                       [this, e = &ev]() { on_birth(*e); });
    }
  }

  /// No site has a request in flight or queued.
  [[nodiscard]] bool quiescent() const {
    for (const Site& site : sites_) {
      if (site.in_flight || (site.pending && !site.pending->empty())) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Site {
    /// Births waiting behind the in-flight request; null until one waits.
    std::unique_ptr<std::deque<const TraceEvent*>> pending;
    bool in_flight = false;
    sim::SimDuration cs = 0;
  };

  Site& site(SiteId s) { return sites_[static_cast<std::size_t>(s)]; }

  void on_birth(const TraceEvent& ev) {
    Site& st = site(ev.site);
    // Nothing waits at an idle site: on_cs_done serves the queue at once.
    if (!st.in_flight) {
      dispatch(ev);
      return;
    }
    if (!st.pending) {
      st.pending = std::make_unique<std::deque<const TraceEvent*>>();
    }
    st.pending->push_back(&ev);
  }

  void dispatch(const TraceEvent& ev) {
    Site& st = site(ev.site);
    st.in_flight = true;
    st.cs = ev.cs;
    ResourceSet rs(trace_.num_resources);
    for (ResourceId r : ev.resources) rs.insert(r);
    AllocatorNode& node = system_.node(ev.site);
    collector_.on_issue(ev.at, ev.site, node.current_request_id() + 1, rs);
    node.request(rs);
  }

  void on_granted(SiteId s) {
    const AllocatorNode& node = system_.node(s);
    collector_.on_grant(sim_.now(), s, node.current_request_id(),
                        node.current_request());
    sim_.schedule_in(site(s).cs, static_cast<int>(s),
                     [this, s]() { on_cs_done(s); });
  }

  void on_cs_done(SiteId s) {
    AllocatorNode& node = system_.node(s);
    const ResourceSet held = node.current_request();
    collector_.on_release(sim_.now(), s, node.current_request_id(), held);
    node.release();
    Site& st = site(s);
    st.in_flight = false;
    if (st.pending && !st.pending->empty()) {
      const TraceEvent* next = st.pending->front();
      st.pending->pop_front();
      dispatch(*next);
    }
  }

  const RequestTrace& trace_;
  algo::AllocationSystem& system_;
  sim::Simulator& sim_;
  metrics::Collector& collector_;
  std::vector<Site> sites_;
};

}  // namespace

experiment::ExperimentResult run_scenario(const ScenarioSpec& spec,
                                          algo::Algorithm algorithm) {
  return run_scenario_impl(spec, algorithm, nullptr, nullptr);
}

experiment::ExperimentResult run_scenario(
    const ScenarioSpec& spec, algo::Algorithm algorithm,
    check::Observer* observer,
    const std::function<void(algo::AllocationSystem&)>& on_wired) {
  return run_scenario_impl(spec, algorithm, nullptr, observer, on_wired);
}

RequestTrace record_scenario(const ScenarioSpec& spec,
                             algo::Algorithm algorithm) {
  RequestTrace trace;
  (void)run_scenario_impl(spec, algorithm, &trace, nullptr);
  return trace;
}

ReplayResult replay_trace(const RequestTrace& trace, algo::Algorithm algorithm,
                          const ReplayOptions& options) {
  trace.validate();

  algo::SystemConfig sys;
  sys.algorithm = algorithm;
  sys.num_sites = trace.num_sites;
  sys.num_resources = trace.num_resources;
  sys.seed = options.seed;
  // The trace header fixes the network the run was recorded under;
  // options.network_latency > 0 deliberately overrides it.
  sys.network_latency = options.network_latency > 0 ? options.network_latency
                                                    : trace.network_latency;
  sys.hierarchical_clusters = trace.hierarchical_clusters;
  sys.hierarchical_remote_latency = trace.hierarchical_remote_latency;
  sys.latency_jitter = options.latency_jitter;
  // v2 traces carry the perturbation model; explicit options still win so
  // latency-sensitivity studies can override a recorded schedule.
  sys.latency_delay_bound = options.latency_delay_bound > 0
                                ? options.latency_delay_bound
                                : trace.latency_delay_bound;
  sys.latency_quantum = options.latency_quantum > 0 ? options.latency_quantum
                                                    : trace.latency_quantum;
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  if (options.observer != nullptr) {
    system->simulator().set_observer(options.observer);
    system->network().set_observer(options.observer);
    for (SiteId s = 0; s < trace.num_sites; ++s) {
      system->node(s).set_observer(options.observer);
    }
  }

  auto& sim = system->simulator();
  sim.set_event_budget(500'000'000ULL);

  metrics::Collector collector(trace.num_resources, kSizeBuckets);
  collector.set_max_size(static_cast<std::size_t>(trace.max_request_size()));

  TraceReplayer replayer(trace, *system, collector);
  sim.run();  // to quiescence: liveness means every request completes

  ReplayResult out;
  out.completed_all = collector.completed() == trace.events.size() &&
                      replayer.quiescent();
  out.end_time = sim.now();
  out.metrics = experiment::summarize(*system, collector);
  // phi stays 0: a replay has no configured max request size, and reusing
  // the field for the trace's observed maximum would corrupt any consumer
  // that groups bench/scenario JSON rows by phi.
  return out;
}

}  // namespace mra::scenario
