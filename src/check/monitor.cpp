#include "check/monitor.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include "algo/factory.hpp"
#include "check/fanout.hpp"
#include "core/allocator.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mra::check {

Monitor::Monitor(const MonitorConfig& config) : cfg_(config) {
  constexpr auto kFifoMaxSites =
      static_cast<int>(net::Network::kDenseFifoMaxSites);
  if (cfg_.fifo && cfg_.num_sites > kFifoMaxSites) {
    throw std::invalid_argument(
        "MonitorConfig: fifo keeps an N x N link table, so it takes at most " +
        std::to_string(kFifoMaxSites) + " sites; num_sites is " +
        std::to_string(cfg_.num_sites) + " (switch fifo off above it)");
  }
  if (cfg_.event_window == 0) cfg_.event_window = 1;
  ring_.resize(cfg_.event_window);
  if (cfg_.mutual_exclusion && cfg_.num_resources > 0) {
    mutual_exclusion_.emplace(cfg_.num_resources);
  }
  if (cfg_.deadlock && cfg_.num_sites > 0 && cfg_.num_resources > 0) {
    deadlock_.emplace(cfg_.num_sites, cfg_.num_resources);
  }
  if (cfg_.starvation && cfg_.num_sites > 0) {
    starvation_.emplace(cfg_.num_sites, cfg_.starvation_horizon);
  }
  if (cfg_.fifo && cfg_.num_sites > 0) fifo_.emplace(cfg_.num_sites);
  if (cfg_.complexity) complexity_.emplace(cfg_.max_messages_per_cs);
}

Monitor::~Monitor() { detach(); }

void Monitor::attach(algo::AllocationSystem& system) {
  for (SiteId i = 0; i < system.num_sites(); ++i) {
    require_free_observer_slot(system.node(i).check_observer(), this,
                               "allocator nodes");
  }
  attach(system.simulator(), system.network());
  system_ = &system;
  for (SiteId i = 0; i < system.num_sites(); ++i) {
    system.node(i).set_observer(this);
  }
}

void Monitor::attach(sim::Simulator& simulator, net::Network& network) {
  // Double-attach used to silently displace the previous observer; that hid
  // every Monitor-plus-recorder composition bug, so it is a named error now.
  require_free_observer_slot(simulator.observer(), this, "simulator");
  require_free_observer_slot(network.observer(), this, "network");
  sim_ = &simulator;
  net_ = &network;
  simulator.set_observer(this);
  network.set_observer(this);
}

void Monitor::detach() {
  if (sim_ != nullptr && sim_->observer() == this) sim_->set_observer(nullptr);
  if (net_ != nullptr && net_->observer() == this) net_->set_observer(nullptr);
  if (system_ != nullptr) {
    for (SiteId i = 0; i < system_->num_sites(); ++i) {
      if (system_->node(i).check_observer() == this) {
        system_->node(i).set_observer(nullptr);
      }
    }
  }
  sim_ = nullptr;
  net_ = nullptr;
  system_ = nullptr;
  stop_sim_ = nullptr;
}

void Monitor::record(const Event& event) {
  RecordedEvent& r = ring_[ring_next_];
  if (++ring_next_ == ring_.size()) ring_next_ = 0;
  // Every field format() reads for this type is written; res[] past
  // res_count is never read, so it keeps whatever an older event left.
  r.type = event.type;
  r.at = event.at;
  r.site = event.site;
  r.peer = event.peer;
  r.seq = event.seq;
  r.resource = event.resource;
  r.bytes = event.bytes;
  r.kind = event.kind;
  r.res_count = 0;
  r.res_truncated = false;
  if (event.resources != nullptr) {
    event.resources->for_each([&](ResourceId id) {
      if (r.res_count < 8) {
        r.res[r.res_count++] = id;
      } else {
        r.res_truncated = true;
      }
    });
  }
}

std::string Monitor::format(const RecordedEvent& e) {
  std::ostringstream os;
  os << "[" << sim::to_ms(e.at) << "ms] s" << e.site << " "
     << to_string(e.type);
  switch (e.type) {
    case EventType::kRequest:
    case EventType::kAcquire:
    case EventType::kRelease: {
      os << " {";
      for (std::uint8_t i = 0; i < e.res_count; ++i) {
        if (i != 0) os << ",";
        os << e.res[i];
      }
      if (e.res_truncated) os << ",...";
      os << "} seq=" << e.seq;
      break;
    }
    case EventType::kHold:
      os << " r" << e.resource << " seq=" << e.seq;
      break;
    case EventType::kSend:
    case EventType::kDeliver:
      os << " -> s" << e.peer << " " << e.kind << " #" << e.seq << " ("
         << e.bytes << "B)";
      break;
  }
  return os.str();
}

std::vector<std::string> Monitor::recent_events() const {
  std::vector<std::string> out;
  const std::size_t cap = ring_.size();
  const std::size_t count =
      events_seen_ < cap ? static_cast<std::size_t>(events_seen_) : cap;
  // Oldest first: the ring's next slot is also its oldest entry once full.
  std::size_t idx = events_seen_ < cap ? 0 : ring_next_;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(format(ring_[idx]));
    idx = (idx + 1) % cap;
  }
  return out;
}

void Monitor::on_event(const Event& event) {
  ++events_seen_;
  record(event);
  // Checked once per event: when a report reaches max_violations, the
  // oracles after the reporting one still see this event.
  if (!checking_) return;
  switch (event.type) {
    case EventType::kSend:
      if (fifo_) fifo_->on_event(event, *this);
      if (complexity_) complexity_->on_event(event, *this);
      break;
    case EventType::kDeliver:
      if (fifo_) fifo_->on_event(event, *this);
      break;
    case EventType::kRequest:
      if (deadlock_) deadlock_->on_event(event, *this);
      if (starvation_) starvation_->on_event(event, *this);
      break;
    case EventType::kHold:
    case EventType::kRelease:
      if (mutual_exclusion_) mutual_exclusion_->on_event(event, *this);
      if (deadlock_) deadlock_->on_event(event, *this);
      break;
    case EventType::kAcquire:
      if (mutual_exclusion_) mutual_exclusion_->on_event(event, *this);
      if (deadlock_) deadlock_->on_event(event, *this);
      if (starvation_) starvation_->on_event(event, *this);
      if (complexity_) complexity_->on_event(event, *this);
      break;
  }
}

void Monitor::on_advance(sim::SimTime now) {
  if (checking_ && starvation_) starvation_->on_advance(now, *this);
}

void Monitor::report(Violation violation) {
  if (violation.recent_events.empty()) {
    violation.recent_events = recent_events();
  }
  violations_.push_back(std::move(violation));
  if (violations_.size() >= cfg_.max_violations) checking_ = false;
  if (cfg_.stop_on_first) {
    // Prefer the attach()-owned simulator; fall back to the stop-only
    // binding (mux composition). report() only fires from in-run callbacks,
    // so whichever pointer is set is still alive here.
    sim::Simulator* s = sim_ != nullptr ? sim_ : stop_sim_;
    if (s != nullptr) s->stop();
  }
}

void Monitor::finalize(sim::SimTime now, bool quiescent) {
  if (!checking_) return;
  if (deadlock_) deadlock_->finalize(now, quiescent, *this);
  if (starvation_) starvation_->finalize(now, quiescent, *this);
  if (complexity_) complexity_->finalize(now, quiescent, *this);
}

}  // namespace mra::check
