// The traced run's replay passes. A StreamRecorder keeps one probe job's
// complete hook stream (up to a cap); each pass then feeds that stream to one
// layer in isolation and times it, so layers whose hooks cost as much as
// their work (cheap handlers, the event queue) still get a clean number:
//
//   engine   the recorded deliveries as no-op callbacks on a bare
//            sim::Simulator, scheduled from a chain of per-send-instant
//            triggers so the queue holds what the run held in flight
//   network  the same chain, but each trigger calls net::Network::send to
//            no-op nodes with the recorded latencies; minus the engine pass
//            this is the network's own cost per message
//   metrics  the request/acquire/release stream into a fresh Collector
//   check    the whole stream into a fresh check::Monitor (every oracle)
//   obs      the whole stream into a fresh obs::FlightRecorder, then the
//            Chrome-trace and spans-CSV exports of what it built
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "check/event.hpp"
#include "check/monitor.hpp"
#include "core/resource_set.hpp"
#include "metrics/collector.hpp"
#include "mra_bench/util.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "sim/simulator.hpp"

namespace mra_bench {

/// One job's hook stream: clock advances and events in emission order, with
/// the borrowed request sets copied out.
struct Stream {
  struct Item {
    bool advance = false;
    mra::check::Event event;  ///< `resources` re-pointed into `sets` on replay
    std::int32_t set = -1;
  };

  int sites = 0;
  int resources = 0;
  std::vector<Item> items;
  std::vector<mra::ResourceSet> sets;

  /// Feeds the stream to `observer` exactly as the live hooks did.
  void feed(mra::check::Observer& observer) const {
    for (const Item& it : items) {
      if (it.advance) {
        observer.on_advance(it.event.at);
        continue;
      }
      mra::check::Event e = it.event;
      if (it.set >= 0) e.resources = &sets[static_cast<std::size_t>(it.set)];
      observer.on_event(e);
    }
  }
};

/// Records the first `cap` hook calls of a run. Message kinds are string
/// literals (check/event.hpp), so keeping their views is safe.
class StreamRecorder final : public mra::check::Observer {
 public:
  StreamRecorder(int sites, int resources, std::size_t cap) : cap_(cap) {
    stream_.sites = sites;
    stream_.resources = resources;
  }

  void on_advance(mra::sim::SimTime now) override {
    if (stream_.items.size() >= cap_) return;
    Stream::Item it;
    it.advance = true;
    it.event.at = now;
    stream_.items.push_back(it);
  }

  void on_event(const mra::check::Event& e) override {
    if (stream_.items.size() >= cap_) return;
    Stream::Item it;
    it.event = e;
    it.event.resources = nullptr;
    if (e.resources != nullptr) {
      it.set = static_cast<std::int32_t>(stream_.sets.size());
      stream_.sets.push_back(*e.resources);
    }
    stream_.items.push_back(it);
  }

  [[nodiscard]] Stream take() { return std::move(stream_); }

 private:
  std::size_t cap_;
  Stream stream_;
};

inline constexpr int kDenseFifoOracleMaxSites = 2048;

/// Accumulated cost of one pass over every probe stream.
struct PassCost {
  double ns = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] double per_item() const {
    return count == 0 ? 0.0 : ns / static_cast<double>(count);
  }
};

namespace replay_detail {

/// A delivered message of the stream, in send order.
struct Msg {
  mra::sim::SimTime send_at = 0;
  mra::sim::SimTime deliver_at = 0;
  mra::SiteId src = 0;
  mra::SiteId dst = 0;
  std::uint32_t bytes = 0;
  std::string_view kind;
};

/// Pairs every kSend with its kDeliver (network message ids are dense per
/// run); sends whose delivery falls past the recorded prefix are dropped.
inline std::vector<Msg> delivered_messages(const Stream& s) {
  std::vector<mra::sim::SimTime> delivered;
  for (const Stream::Item& it : s.items) {
    if (it.advance || it.event.type != mra::check::EventType::kDeliver) continue;
    const auto id = static_cast<std::size_t>(it.event.seq);
    if (delivered.size() <= id) delivered.resize(id + 1, -1);
    delivered[id] = it.event.at;
  }
  std::vector<Msg> msgs;
  for (const Stream::Item& it : s.items) {
    if (it.advance || it.event.type != mra::check::EventType::kSend) continue;
    const auto id = static_cast<std::size_t>(it.event.seq);
    if (id >= delivered.size() || delivered[id] < 0) continue;
    msgs.push_back(Msg{it.event.at, delivered[id], it.event.site,
                       it.event.peer, it.event.bytes, it.event.kind});
  }
  return msgs;
}

/// Walks the messages one send instant at a time: each trigger event hands
/// that instant's messages to `emit` and schedules the next trigger.
template <class Emit>
class SendChain {
 public:
  SendChain(mra::sim::Simulator& sim, const std::vector<Msg>& msgs, Emit emit)
      : sim_(sim), msgs_(msgs), emit_(emit) {}

  void start() {
    if (!msgs_.empty()) sim_.schedule_at(msgs_[0].send_at, [this] { fire(); });
  }

 private:
  void fire() {
    const mra::sim::SimTime t = msgs_[next_].send_at;
    while (next_ < msgs_.size() && msgs_[next_].send_at == t) {
      emit_(msgs_[next_]);
      ++next_;
    }
    if (next_ < msgs_.size()) {
      sim_.schedule_at(msgs_[next_].send_at, [this] { fire(); });
    }
  }

  mra::sim::Simulator& sim_;
  const std::vector<Msg>& msgs_;
  Emit emit_;
  std::size_t next_ = 0;
};

/// Latency model returning the recorded delays, in send order.
class RecordedLatency final : public mra::net::LatencyModel {
 public:
  explicit RecordedLatency(const std::vector<Msg>& msgs) : msgs_(msgs) {}
  mra::sim::SimDuration sample(int /*src*/, int /*dst*/,
                               mra::sim::Rng& /*rng*/) override {
    const Msg& m = msgs_[next_++];
    return m.deliver_at - m.send_at;
  }

 private:
  const std::vector<Msg>& msgs_;
  std::size_t next_ = 0;
};

class ReplayMessage final : public mra::net::Message {
 public:
  ReplayMessage(std::string_view kind, std::size_t wire) : kind_(kind), wire_(wire) {}
  [[nodiscard]] std::string_view kind() const override { return kind_; }
  [[nodiscard]] std::size_t wire_size() const override { return wire_; }

 private:
  std::string_view kind_;
  std::size_t wire_;
};

class NullNode final : public mra::net::Node {
 public:
  void on_message(mra::SiteId /*from*/, const mra::net::Message& /*msg*/) override {}
};

/// Median of `reps` timings of `once()`, which returns elapsed ns.
template <class Once>
double median_ns(int reps, Once once) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(once());
  return spread(t).median;
}

}  // namespace replay_detail

/// Runs every pass over every probe stream, `reps` times each (median).
struct ReplayPasses {
  PassCost engine;     ///< per engine event (deliveries + triggers)
  PassCost network;    ///< per message, engine pass subtracted
  PassCost collector;  ///< per request
  PassCost monitor;    ///< per hook call
  PassCost recorder;   ///< per hook call
  PassCost exporter;   ///< per reconstructed request span

  void run(const Stream& s, int reps) {
    using namespace replay_detail;
    const std::vector<Msg> msgs = delivered_messages(s);

    std::uint64_t engine_events = 0;
    const double engine_ns = median_ns(reps, [&] {
      mra::sim::Simulator sim;
      auto emit = [&sim](const Msg& m) { sim.schedule_at(m.deliver_at, [] {}); };
      SendChain<decltype(emit)> chain(sim, msgs, emit);
      chain.start();
      const std::int64_t t0 = now_ns();
      sim.run();
      const std::int64_t t1 = now_ns();
      engine_events = sim.events_processed();
      return static_cast<double>(t1 - t0);
    });
    engine.ns += engine_ns;
    engine.count += engine_events;

    const double network_ns = median_ns(reps, [&] {
      mra::sim::Simulator sim;
      mra::net::Network net(sim, std::make_unique<RecordedLatency>(msgs), 1);
      std::vector<NullNode> nodes(static_cast<std::size_t>(s.sites));
      for (NullNode& n : nodes) net.add_node(n);
      net.start();
      auto emit = [&net](const Msg& m) {
        net.send(m.src, m.dst,
                 std::make_unique<ReplayMessage>(
                     m.kind, m.bytes - mra::net::Network::kEnvelopeBytes));
      };
      SendChain<decltype(emit)> chain(sim, msgs, emit);
      chain.start();
      const std::int64_t t0 = now_ns();
      sim.run();
      return static_cast<double>(now_ns() - t0);
    });
    network.ns += network_ns - engine_ns;
    network.count += msgs.size();

    std::uint64_t requests = 0;
    std::size_t max_size = 1;
    for (const Stream::Item& it : s.items) {
      if (it.advance || it.event.type != mra::check::EventType::kRequest) continue;
      ++requests;
      max_size = std::max(max_size, s.sets[static_cast<std::size_t>(it.set)].size());
    }
    collector.ns += median_ns(reps, [&] {
      mra::metrics::Collector c(s.resources, 6);
      c.set_max_size(max_size);
      const std::int64_t t0 = now_ns();
      for (const Stream::Item& it : s.items) {
        if (it.advance || it.set < 0) continue;
        const mra::check::Event& e = it.event;
        const mra::ResourceSet& rs = s.sets[static_cast<std::size_t>(it.set)];
        switch (e.type) {
          case mra::check::EventType::kRequest: c.on_issue(e.at, e.site, e.seq, rs); break;
          case mra::check::EventType::kAcquire: c.on_grant(e.at, e.site, e.seq, rs); break;
          case mra::check::EventType::kRelease: c.on_release(e.at, e.site, e.seq, rs); break;
          default: break;
        }
      }
      return static_cast<double>(now_ns() - t0);
    });
    collector.count += requests;

    monitor.ns += median_ns(reps, [&] {
      mra::check::MonitorConfig mc;
      mc.num_sites = s.sites;
      mc.num_resources = s.resources;
      // The FIFO oracle keeps an N x N link matrix; past the network's own
      // dense-matrix limit it is left out rather than allocating gigabytes.
      mc.fifo = s.sites <= kDenseFifoOracleMaxSites;
      mra::check::Monitor m(mc);
      const std::int64_t t0 = now_ns();
      s.feed(m);
      return static_cast<double>(now_ns() - t0);
    });
    monitor.count += s.items.size();

    recorder.ns += median_ns(reps, [&] {
      mra::obs::FlightRecorder r;
      const std::int64_t t0 = now_ns();
      s.feed(r);
      return static_cast<double>(now_ns() - t0);
    });
    recorder.count += s.items.size();

    mra::obs::FlightRecorder built;
    s.feed(built);
    exporter.ns += median_ns(reps, [&] {
      HashStream out;
      const std::int64_t t0 = now_ns();
      mra::obs::write_chrome_trace(built, out);
      mra::obs::write_spans_csv(built, out);
      return static_cast<double>(now_ns() - t0);
    });
    exporter.count += built.spans().size();
  }
};

}  // namespace mra_bench
