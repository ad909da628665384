#include "check/oracles.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace mra::check {

namespace {

std::string site_list(const std::vector<SiteId>& sites) {
  std::string out;
  for (SiteId s : sites) {
    if (!out.empty()) out += ", ";
    out += 's';
    out += std::to_string(s);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// MutualExclusionOracle
// ---------------------------------------------------------------------------

MutualExclusionOracle::MutualExclusionOracle(int num_resources)
    : owner_(static_cast<std::size_t>(num_resources), kNoSite) {}

void MutualExclusionOracle::claim(const Event& event, ResourceId r,
                                  ViolationSink& sink) {
  SiteId& owner = owner_[static_cast<std::size_t>(r)];
  if (owner != kNoSite && owner != event.site) {
    Violation v;
    v.oracle = std::string(name());
    v.at = event.at;
    v.sites = {std::min(owner, event.site), std::max(owner, event.site)};
    v.resources = {r};
    v.detail = "resource r" + std::to_string(r) + " granted to s" +
               std::to_string(event.site) + " while held by s" +
               std::to_string(owner);
    sink.report(std::move(v));
    // The later claimant becomes the tracked owner so a matching release
    // keeps the books consistent.
  }
  owner = event.site;
}

void MutualExclusionOracle::on_event(const Event& event, ViolationSink& sink) {
  switch (event.type) {
    case EventType::kHold:
      claim(event, event.resource, sink);
      break;
    case EventType::kAcquire:
      if (event.resources != nullptr) {
        event.resources->for_each(
            [&](ResourceId r) { claim(event, r, sink); });
      }
      break;
    case EventType::kRelease:
      if (event.resources != nullptr) {
        event.resources->for_each([&](ResourceId r) {
          SiteId& owner = owner_[static_cast<std::size_t>(r)];
          if (owner == event.site) owner = kNoSite;
        });
      }
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// DeadlockOracle
// ---------------------------------------------------------------------------

DeadlockOracle::DeadlockOracle(int num_sites, int num_resources)
    : waiting_(static_cast<std::size_t>(num_sites), false) {
  held_.reserve(static_cast<std::size_t>(num_sites));
  wanted_.reserve(static_cast<std::size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    held_.emplace_back(num_resources);
    wanted_.emplace_back(num_resources);
  }
}

void DeadlockOracle::on_event(const Event& event, ViolationSink& sink) {
  const auto s = static_cast<std::size_t>(event.site);
  switch (event.type) {
    case EventType::kRequest:
      if (event.resources != nullptr) wanted_[s] = *event.resources;
      waiting_[s] = true;
      check_cycle_from(event.site, event.at, sink);
      break;
    case EventType::kHold:
      held_[s].insert(event.resource);
      // A new hold can close a cycle through any waiter that wants it.
      check_cycle_from(event.site, event.at, sink);
      break;
    case EventType::kAcquire:
      if (event.resources != nullptr) held_[s] |= *event.resources;
      waiting_[s] = false;
      // No cycle check: a site in CS wants nothing, so it has no outgoing
      // wait-for edge and cannot be part of a cycle.
      break;
    case EventType::kRelease:
      held_[s].clear();
      wanted_[s].clear();
      waiting_[s] = false;
      break;
    default:
      break;
  }
}

void DeadlockOracle::check_cycle_from(SiteId start, sim::SimTime at,
                                      ViolationSink& sink) {
  // DFS over wait-for edges u -> v (u waiting, wanted(u) \ held(u) meets
  // held(v)). N is small (tests <= 64 sites), edges are bitset intersects.
  const int n = static_cast<int>(held_.size());
  path_.clear();
  state_.assign(static_cast<std::size_t>(n), 0);

  // Iterative DFS with an explicit path to recover the cycle.
  frames_.clear();
  frames_.emplace_back(start, 0);
  while (!frames_.empty()) {
    auto& [u, next] = frames_.back();
    const auto ui = static_cast<std::size_t>(u);
    if (next == 0) {
      state_[ui] = 1;  // on path
      path_.push_back(u);
    }
    bool descended = false;
    if (waiting_[ui]) {
      const ResourceSet missing = wanted_[ui].set_difference(held_[ui]);
      for (int v = next; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (vi == ui || held_[vi].empty()) continue;
        if (!missing.intersects(held_[vi])) continue;
        if (state_[vi] == 1) {
          // Cycle: the path suffix from v to u, closed by u -> v.
          auto it =
              std::find(path_.begin(), path_.end(), static_cast<SiteId>(v));
          std::vector<SiteId> cycle(it, path_.end());
          std::vector<SiteId> sorted = cycle;
          std::sort(sorted.begin(), sorted.end());
          std::string signature;
          for (SiteId cs : sorted) signature += std::to_string(cs) + ",";
          if (std::find(reported_cycles_.begin(), reported_cycles_.end(),
                        signature) == reported_cycles_.end()) {
            reported_cycles_.push_back(signature);
            Violation viol;
            viol.oracle = std::string(name());
            viol.at = at;
            viol.sites = sorted;
            ResourceSet involved(wanted_[ui].universe_size());
            for (SiteId cs : cycle) {
              const auto ci = static_cast<std::size_t>(cs);
              involved |= wanted_[ci];
              involved |= held_[ci];
            }
            for (ResourceId r : involved.to_vector()) {
              viol.resources.push_back(r);
            }
            viol.detail =
                "wait-for cycle: " + site_list(cycle) + " -> s" +
                std::to_string(cycle.front()) +
                " (each holds a resource the next one waits for)";
            sink.report(std::move(viol));
          }
          continue;
        }
        if (state_[vi] == 0) {
          next = v + 1;
          frames_.emplace_back(static_cast<SiteId>(v), 0);
          descended = true;
          break;
        }
      }
    }
    if (!descended) {
      state_[ui] = 2;  // done
      path_.pop_back();
      frames_.pop_back();
    }
  }
}

void DeadlockOracle::finalize(sim::SimTime now, bool quiescent,
                              ViolationSink& sink) {
  if (!quiescent) return;
  std::vector<SiteId> stuck;
  ResourceSet involved(held_.empty() ? 0 : held_[0].universe_size());
  for (std::size_t s = 0; s < waiting_.size(); ++s) {
    if (waiting_[s]) {
      stuck.push_back(static_cast<SiteId>(s));
      involved |= wanted_[s];
    }
  }
  if (stuck.empty()) return;
  Violation v;
  v.oracle = std::string(name());
  v.at = now;
  v.sites = stuck;
  for (ResourceId r : involved.to_vector()) v.resources.push_back(r);
  v.detail = "event queue drained with " + std::to_string(stuck.size()) +
             " site(s) still waiting: " + site_list(stuck);
  sink.report(std::move(v));
}

// ---------------------------------------------------------------------------
// StarvationOracle
// ---------------------------------------------------------------------------

StarvationOracle::StarvationOracle(int num_sites, sim::SimDuration horizon)
    : horizon_(horizon),
      waiting_seq_(static_cast<std::size_t>(num_sites), -1),
      waiting_since_(static_cast<std::size_t>(num_sites), 0) {}

void StarvationOracle::report(SiteId site, sim::SimTime now,
                              ViolationSink& sink) {
  const auto s = static_cast<std::size_t>(site);
  Violation v;
  v.oracle = std::string(name());
  v.at = now;
  v.sites = {site};
  v.detail = 's';
  v.detail += std::to_string(site) + " request #" +
              std::to_string(waiting_seq_[s]) + " waiting since " +
              std::to_string(sim::to_ms(waiting_since_[s])) +
              "ms, longer than the horizon of " +
              std::to_string(sim::to_ms(horizon_)) + "ms";
  // Report once per request: forget the wait so later deadlines skip it.
  waiting_seq_[s] = -1;
  sink.report(std::move(v));
}

void StarvationOracle::expire(sim::SimTime now, ViolationSink& sink) {
  // Strictly before `now`: on_advance fires before the instant's events, so
  // a grant happening exactly at the deadline (wait == horizon, not longer)
  // must not be flagged.
  while (!deadlines_.empty() && deadlines_.front().at < now) {
    const Deadline d = deadlines_.front();
    deadlines_.pop_front();
    const auto s = static_cast<std::size_t>(d.site);
    if (waiting_seq_[s] == d.seq) report(d.site, now, sink);
  }
}

void StarvationOracle::on_event(const Event& event, ViolationSink& sink) {
  const auto s = static_cast<std::size_t>(event.site);
  switch (event.type) {
    case EventType::kRequest:
      waiting_seq_[s] = event.seq;
      waiting_since_[s] = event.at;
      // Event times are nondecreasing, so the queue stays sorted.
      deadlines_.push_back(Deadline{event.at + horizon_, event.site,
                                    event.seq});
      (void)sink;
      break;
    case EventType::kAcquire:
      waiting_seq_[s] = -1;
      break;
    default:
      break;
  }
}

void StarvationOracle::on_advance(sim::SimTime now, ViolationSink& sink) {
  expire(now, sink);
}

void StarvationOracle::finalize(sim::SimTime now, bool quiescent,
                                ViolationSink& sink) {
  (void)quiescent;
  // Catch deadlines between the last instant and the end of the window —
  // and, at quiescence, waits that will now never be served.
  expire(now, sink);
}

// ---------------------------------------------------------------------------
// FifoOracle
// ---------------------------------------------------------------------------

FifoOracle::FifoOracle(int num_sites)
    : n_(num_sites),
      links_(static_cast<std::size_t>(num_sites) *
             static_cast<std::size_t>(num_sites)),
      send_clock_(static_cast<std::size_t>(num_sites), 0) {}

void FifoOracle::on_event(const Event& event, ViolationSink& sink) {
  if (event.type != EventType::kSend && event.type != EventType::kDeliver) {
    return;
  }
  if (event.site < 0 || event.site >= n_ || event.peer < 0 ||
      event.peer >= n_) {
    return;  // foreign site ids (harness-level events), nothing to check
  }
  const std::size_t link =
      static_cast<std::size_t>(event.site) * static_cast<std::size_t>(n_) +
      static_cast<std::size_t>(event.peer);

  Link& l = links_[link];
  if (event.type == EventType::kSend) {
    const std::uint64_t tick =
        ++send_clock_[static_cast<std::size_t>(event.site)];
    l.in_flight.push_back(InFlight{event.seq, event.at, tick});
    return;
  }

  // kDeliver: must match the oldest in-flight message on this link.
  VectorQueue<InFlight>& q = l.in_flight;
  InFlight* it = std::find_if(q.begin(), q.end(), [&](const InFlight& f) {
    return f.msg_id == event.seq;
  });
  if (it == q.end()) return;  // observer attached mid-flight; skip
  const InFlight flight = *it;
  const bool overtook = it != q.begin();
  if (overtook) {
    q.erase(it);
  } else {
    q.pop_front();
  }

  if (overtook || flight.sender_tick <= l.last_delivered_tick) {
    Violation v;
    v.oracle = std::string(name());
    v.at = event.at;
    v.sites = {std::min(event.site, event.peer),
               std::max(event.site, event.peer)};
    v.detail = "FIFO violated on link s" + std::to_string(event.site) +
               " -> s" + std::to_string(event.peer) + ": message #" +
               std::to_string(event.seq) + " (sent " +
               std::to_string(sim::to_ms(flight.sent_at)) +
               "ms) overtook an earlier message on the same link";
    sink.report(std::move(v));
  }
  l.last_delivered_tick = std::max(l.last_delivered_tick, flight.sender_tick);

  if (event.at < flight.sent_at) {
    Violation v;
    v.oracle = std::string(name());
    v.at = event.at;
    v.sites = {std::min(event.site, event.peer),
               std::max(event.site, event.peer)};
    v.detail = "message #" + std::to_string(event.seq) +
               " delivered before it was sent (causality broken)";
    sink.report(std::move(v));
  }
}

// ---------------------------------------------------------------------------
// ComplexityOracle
// ---------------------------------------------------------------------------

ComplexityOracle::ComplexityOracle(double max_messages_per_cs)
    : bound_(max_messages_per_cs) {}

void ComplexityOracle::finalize(sim::SimTime now, bool quiescent,
                                ViolationSink& sink) {
  (void)quiescent;
  if (bound_ <= 0.0 || acquires_ == 0) return;
  const double per_cs = messages_per_cs();
  if (per_cs > bound_) {
    Violation v;
    v.oracle = std::string(name());
    v.at = now;
    v.detail = "average " + std::to_string(per_cs) +
               " messages per CS entry exceeds the configured bound of " +
               std::to_string(bound_) + " (" + std::to_string(sends_) +
               " msgs / " + std::to_string(acquires_) + " CS)";
    sink.report(std::move(v));
  }
}

}  // namespace mra::check
