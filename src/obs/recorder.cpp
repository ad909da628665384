#include "obs/recorder.hpp"

#include <algorithm>

#include "core/resource_set.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mra::obs {

void FlightRecorder::enable_gauges(const sim::Simulator& simulator,
                                   const net::Network& network,
                                   sim::SimDuration interval) {
  sim_ = &simulator;
  net_ = &network;
  interval_ = interval > 0 ? interval : sim::milliseconds(10);
  next_sample_ = 0;
}

std::uint32_t FlightRecorder::kind_index(std::string_view kind) {
  for (std::size_t i = 0; i < kind_names_.size(); ++i) {
    if (kind_names_[i] == kind) return static_cast<std::uint32_t>(i);
  }
  kind_names_.emplace_back(kind);
  kind_sends_.push_back(0);
  return static_cast<std::uint32_t>(kind_names_.size() - 1);
}

void FlightRecorder::on_event(const check::Event& event) {
  last_seen_ = std::max(last_seen_, event.at);
  // The site's open span, -1 for none. An event without a site (kNoSite)
  // has no span slot: it opens and touches no span, and its message is
  // still logged, detached.
  const auto site = static_cast<std::size_t>(event.site);
  std::int32_t idx = -1;
  if (event.site >= 0) {
    if (site >= open_span_.size()) open_span_.resize(site + 1, -1);
    idx = open_span_[site];
  }

  switch (event.type) {
    case check::EventType::kRequest: {
      if (event.site < 0) break;
      RequestSpan span;
      span.site = event.site;
      span.seq = event.seq;
      span.submit_at = event.at;
      if (event.resources != nullptr) {
        event.resources->for_each(
            [&](ResourceId id) { span.resources.push_back(id); });
      }
      open_span_[site] = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(std::move(span));
      ++sites_waiting_;
      break;
    }
    case check::EventType::kHold: {
      if (idx >= 0) {
        spans_[static_cast<std::size_t>(idx)].holds.push_back(
            HoldStamp{event.resource, event.at});
      }
      break;
    }
    case check::EventType::kAcquire: {
      if (idx >= 0) {
        spans_[static_cast<std::size_t>(idx)].acquire_at = event.at;
        if (sites_waiting_ > 0) --sites_waiting_;
        ++sites_in_cs_;
      }
      break;
    }
    case check::EventType::kRelease: {
      if (idx >= 0) {
        spans_[static_cast<std::size_t>(idx)].release_at = event.at;
        open_span_[site] = -1;
        if (sites_in_cs_ > 0) --sites_in_cs_;
      }
      break;
    }
    case check::EventType::kSend: {
      MessageRecord msg;
      msg.id = event.seq;
      msg.src = event.site;
      msg.dst = event.peer;
      msg.kind = kind_index(event.kind);
      msg.bytes = event.bytes;
      msg.send_at = event.at;
      if (idx >= 0) {
        RequestSpan& span = spans_[static_cast<std::size_t>(idx)];
        if (span.first_message_at == kNever) span.first_message_at = event.at;
        ++span.messages;
        msg.span = idx;
      }
      ++kind_sends_[msg.kind];
      ++sends_seen_;
      bytes_seen_ += event.bytes;
      messages_.push_back(msg);
      break;
    }
    case check::EventType::kDeliver: {
      // Message ids are dense and 1-based (net::Network hands them out
      // sequentially), so the pairing is a positional lookup; the id check
      // guards against a recorder attached mid-run.
      const auto pos = static_cast<std::size_t>(event.seq - 1);
      if (event.seq >= 1 && pos < messages_.size() &&
          messages_[pos].id == event.seq) {
        messages_[pos].deliver_at = event.at;
      }
      break;
    }
  }
}

void FlightRecorder::on_advance(sim::SimTime now) {
  last_seen_ = std::max(last_seen_, now);
  if (sim_ == nullptr) return;
  // on_advance fires once per distinct instant, *before* that instant's
  // events: every grid point at or before `now` therefore sees the engine
  // state as of the end of the previous instant — a well-defined snapshot.
  while (next_sample_ <= now) {
    sample(next_sample_);
    next_sample_ += interval_;
  }
}

void FlightRecorder::sample(sim::SimTime at) {
  GaugeSample s;
  s.at = at;
  s.queue_depth = sim_->queue_depth();
  s.queue_capacity = sim_->queue_capacity();
  s.in_flight = net_->in_flight_messages();
  s.messages_total = sends_seen_;
  s.bytes_total = bytes_seen_;
  s.sites_waiting = sites_waiting_;
  s.sites_in_cs = sites_in_cs_;
  s.sends_by_kind = kind_sends_;
  gauges_.push_back(std::move(s));
}

}  // namespace mra::obs
