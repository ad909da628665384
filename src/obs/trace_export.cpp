#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/wire.hpp"

namespace mra::obs {
namespace {

/// A nanosecond count printed as fixed point in `unit`s: the integer part,
/// '.', then `digits` zero-padded fractional digits. Exact, no floating
/// point.
struct Fixed {
  std::int64_t ns;
  std::int64_t unit;
  int digits;
};

/// Nanoseconds → the trace format's microseconds (three fractional digits).
Fixed us(sim::SimTime ns) { return {ns, 1000, 3}; }

/// Nanoseconds → milliseconds (six fractional digits).
Fixed ms(sim::SimTime ns) { return {ns, 1'000'000, 6}; }

/// The one output buffer every exporter formats into. Text and numbers are
/// appended in place (std::to_chars: locale-free) and the stream receives
/// whole ~64 KB chunks, so no trace event ever exists as a string of its
/// own. The exporter calls flush() once it has written everything.
class Writer {
 public:
  explicit Writer(std::ostream& os)
      : os_(os), buf_(kChunk), pos_(buf_.data()), end_(pos_ + kChunk) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Hands everything buffered to the stream.
  void flush() {
    if (pos_ == buf_.data()) return;
    os_.write(buf_.data(), pos_ - buf_.data());
    pos_ = buf_.data();
  }

  Writer& operator<<(std::string_view s) {
    if (s.size() > static_cast<std::size_t>(end_ - pos_)) {
      flush();
      if (s.size() > buf_.size()) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(pos_, s.data(), s.size());
    pos_ += s.size();
    return *this;
  }

  Writer& operator<<(char c) {
    room(1);
    *pos_++ = c;
    return *this;
  }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, char>)
  Writer& operator<<(T v) {
    room(kMaxNumber);
    pos_ = std::to_chars(pos_, end_, v).ptr;
    return *this;
  }

  /// Same bytes as printf("%" PRId64 ".%0<digits>" PRId64, ns / unit,
  /// ns % unit), including its form for negative values: a negative
  /// remainder keeps its '-' inside the zero-padded field.
  Writer& operator<<(Fixed f) {
    room(2 * kMaxNumber);
    pos_ = std::to_chars(pos_, end_, f.ns / f.unit).ptr;
    *pos_++ = '.';
    std::int64_t frac = f.ns % f.unit;
    int width = f.digits;
    if (frac < 0) {
      *pos_++ = '-';
      frac = -frac;
      --width;
    }
    char digits[kMaxNumber];
    const auto len = static_cast<int>(
        std::to_chars(digits, digits + kMaxNumber, frac).ptr - digits);
    for (int i = len; i < width; ++i) *pos_++ = '0';
    std::memcpy(pos_, digits, static_cast<std::size_t>(len));
    pos_ += len;
    return *this;
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  static constexpr std::size_t kMaxNumber = 24;  ///< longest 64-bit integer

  void room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - pos_) < n) flush();
  }

  std::ostream& os_;
  std::vector<char> buf_;
  char* pos_;
  char* end_;
};

/// Site or resource ids joined by `sep`.
void write_joined(Writer& w, const std::vector<std::int32_t>& values,
                  char sep) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) w << sep;
    w << values[i];
  }
}

/// What a trace key renders, in the emission order of one record: a span's
/// wait, cs and holds; a message's s and f; a gauge sample's four fixed
/// counters and its per-kind counters; a violation.
enum class Item : std::uint8_t {
  kWait,
  kCs,
  kHold,
  kFlowStart,
  kFlowEnd,
  kQueue,
  kInFlight,
  kCumulative,
  kSites,
  kKindSends,
  kViolation,
};

/// One trace event pending time order: where its data lives, not its bytes.
/// Sorting by (at, order) is a stable sort by instant over emission order.
struct Key {
  sim::SimTime at;
  std::uint32_t order;   ///< emission index
  std::uint32_t record;  ///< span / message / gauge / violation index
  std::uint32_t sub;     ///< hold index (kHold), kind index (kKindSends)
  Item item;
};

void write_span_event(Writer& w, const RequestSpan& span, const Key& key,
                      sim::SimTime horizon) {
  if (key.item == Item::kHold) {
    w << "{\"name\":\"hold r" << span.holds[key.sub].resource
      << "\",\"cat\":\"hold\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
      << us(key.at) << ",\"pid\":0,\"tid\":" << span.site
      << ",\"args\":{\"seq\":" << span.seq << "}}";
    return;
  }
  const bool wait = key.item == Item::kWait;
  const sim::SimTime end = wait ? span.acquire_at : span.release_at;
  w << (wait ? "{\"name\":\"wait {" : "{\"name\":\"cs {");
  write_joined(w, span.resources, ',');
  w << "} #" << span.seq
    << (wait ? "\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":"
             : "\",\"cat\":\"cs\",\"ph\":\"X\",\"ts\":")
    << us(key.at) << ",\"dur\":" << us((end != kNever ? end : horizon) - key.at)
    << ",\"pid\":0,\"tid\":" << span.site << ",\"args\":{\"seq\":" << span.seq
    << ",\"resources\":\"{";
  write_joined(w, span.resources, ',');
  w << "}\"";
  if (wait && span.first_message_at != kNever) {
    w << ",\"first_message_ms\":" << ms(span.first_message_at);
  }
  if (end == kNever) w << ",\"incomplete\":true";
  w << "}}";
}

void write_message_event(Writer& w, const MessageRecord& msg,
                         std::string_view kind, const Key& key) {
  if (key.item == Item::kFlowStart) {
    w << "{\"name\":\"" << kind << "\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":"
      << msg.id << ",\"ts\":" << us(key.at) << ",\"pid\":0,\"tid\":"
      << msg.src << ",\"args\":{\"dst\":" << msg.dst
      << ",\"bytes\":" << msg.bytes << "}}";
  } else {
    w << "{\"name\":\"" << kind
      << "\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << msg.id
      << ",\"ts\":" << us(key.at) << ",\"pid\":0,\"tid\":" << msg.dst
      << ",\"args\":{\"src\":" << msg.src << "}}";
  }
}

void write_gauge_event(Writer& w, const GaugeSample& g,
                       const std::vector<std::string>& kinds, const Key& key) {
  switch (key.item) {
    case Item::kQueue:
      w << "{\"name\":\"events.queue\",\"ph\":\"C\",\"ts\":" << us(g.at)
        << ",\"pid\":0,\"args\":{\"depth\":" << g.queue_depth
        << ",\"capacity\":" << g.queue_capacity << "}}";
      break;
    case Item::kInFlight:
      w << "{\"name\":\"net.in_flight\",\"ph\":\"C\",\"ts\":" << us(g.at)
        << ",\"pid\":0,\"args\":{\"messages\":" << g.in_flight << "}}";
      break;
    case Item::kCumulative:
      w << "{\"name\":\"net.cumulative\",\"ph\":\"C\",\"ts\":" << us(g.at)
        << ",\"pid\":0,\"args\":{\"messages\":" << g.messages_total
        << ",\"bytes\":" << g.bytes_total << "}}";
      break;
    case Item::kSites:
      w << "{\"name\":\"sites\",\"ph\":\"C\",\"ts\":" << us(g.at)
        << ",\"pid\":0,\"args\":{\"waiting\":" << g.sites_waiting
        << ",\"in_cs\":" << g.sites_in_cs << "}}";
      break;
    default:
      w << "{\"name\":\"sends." << kinds[key.sub] << "\",\"ph\":\"C\",\"ts\":"
        << us(g.at) << ",\"pid\":0,\"args\":{\"count\":"
        << g.sends_by_kind[key.sub] << "}}";
      break;
  }
}

void write_violation_event(Writer& w, const check::Violation& v) {
  w << "{\"name\":\"violation: " << wire::escape(v.oracle)
    << "\",\"cat\":\"violation\",\"ph\":\"i\",\"s\":\"p\",\"ts\":" << us(v.at)
    << ",\"pid\":0,\"tid\":" << (v.sites.empty() ? 0 : v.sites.front())
    << ",\"args\":{\"detail\":\"" << wire::escape(v.detail)
    << "\",\"sites\":\"";
  write_joined(w, v.sites, ',');
  w << "\"}}";
}

}  // namespace

void write_chrome_trace(const FlightRecorder& recorder, std::ostream& os,
                        const ChromeTraceOptions& options) {
  const auto& spans = recorder.spans();
  const auto& messages = recorder.messages();
  const auto& gauges = recorder.gauges();

  std::vector<Key> keys;
  const auto add = [&keys](sim::SimTime at, Item item, std::size_t record,
                           std::size_t sub = 0) {
    keys.push_back(Key{at, static_cast<std::uint32_t>(keys.size()),
                       static_cast<std::uint32_t>(record),
                       static_cast<std::uint32_t>(sub), item});
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const RequestSpan& span = spans[i];
    add(span.submit_at, Item::kWait, i);
    if (span.acquire_at != kNever) add(span.acquire_at, Item::kCs, i);
    for (std::size_t h = 0; h < span.holds.size(); ++h) {
      add(span.holds[h].at, Item::kHold, i, h);
    }
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    add(messages[i].send_at, Item::kFlowStart, i);
    if (messages[i].deliver_at != kNever) {
      add(messages[i].deliver_at, Item::kFlowEnd, i);
    }
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const sim::SimTime at = gauges[i].at;
    for (const Item item :
         {Item::kQueue, Item::kInFlight, Item::kCumulative, Item::kSites}) {
      add(at, item, i);
    }
    for (std::size_t k = 0; k < gauges[i].sends_by_kind.size(); ++k) {
      add(at, Item::kKindSends, i, k);
    }
  }
  const std::vector<check::Violation> no_violations;
  const auto& violations =
      options.violations != nullptr ? *options.violations : no_violations;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    add(violations[i].at, Item::kViolation, i);
  }

  std::vector<std::string> kinds;
  kinds.reserve(recorder.kind_names().size());
  for (const std::string& kind : recorder.kind_names()) {
    kinds.push_back(wire::escape(kind));
  }

  std::size_t num_sites = 0;
  for (const RequestSpan& s : spans) {
    num_sites = std::max(num_sites, static_cast<std::size_t>(s.site) + 1);
  }
  for (const MessageRecord& m : messages) {
    num_sites = std::max(num_sites, static_cast<std::size_t>(m.src) + 1);
    num_sites = std::max(num_sites, static_cast<std::size_t>(m.dst) + 1);
  }

  Writer w(os);
  w << "{\"traceEvents\":[\n"
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{"
       "\"name\":\"mra-sim\"}}";
  for (std::size_t s = 0; s < num_sites; ++s) {
    w << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << s
      << ",\"args\":{\"name\":\"site " << s << "\"}}";
  }
  const sim::SimTime horizon = recorder.last_seen();
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  });
  for (const Key& key : keys) {
    w << ",\n";
    switch (key.item) {
      case Item::kWait:
      case Item::kCs:
      case Item::kHold:
        write_span_event(w, spans[key.record], key, horizon);
        break;
      case Item::kFlowStart:
      case Item::kFlowEnd: {
        const MessageRecord& msg = messages[key.record];
        write_message_event(w, msg, kinds[msg.kind], key);
        break;
      }
      case Item::kViolation:
        write_violation_event(w, violations[key.record]);
        break;
      default:
        write_gauge_event(w, gauges[key.record], kinds, key);
        break;
    }
  }
  w << "\n],\"displayTimeUnit\":\"ms\"}\n";
  w.flush();
}

std::vector<const RequestSpan*> slowest_spans(const FlightRecorder& recorder,
                                              std::size_t k) {
  const sim::SimTime horizon = recorder.last_seen();
  std::vector<const RequestSpan*> out;
  out.reserve(recorder.spans().size());
  for (const RequestSpan& span : recorder.spans()) out.push_back(&span);
  // A strict total order on (waiting, site, seq): the top K are the same
  // with or without sorting the rest.
  const std::size_t top = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(top),
                    out.end(),
                    [horizon](const RequestSpan* a, const RequestSpan* b) {
                      const auto wa = a->waiting(horizon);
                      const auto wb = b->waiting(horizon);
                      if (wa != wb) return wa > wb;
                      if (a->site != b->site) return a->site < b->site;
                      return a->seq < b->seq;
                    });
  out.resize(top);
  return out;
}

void write_spans_csv(const FlightRecorder& recorder, std::ostream& os) {
  std::vector<const RequestSpan*> all;
  all.reserve(recorder.spans().size());
  for (const RequestSpan& span : recorder.spans()) all.push_back(&span);
  write_spans_csv(recorder, all, os);
}

void write_spans_csv(const FlightRecorder& recorder,
                     const std::vector<const RequestSpan*>& spans,
                     std::ostream& os) {
  const sim::SimTime horizon = recorder.last_seen();
  Writer w(os);
  w << "site,seq,resources,submit_ms,first_message_ms,acquire_ms,"
       "release_ms,waiting_ms,holding_ms,messages\n";
  for (const RequestSpan* span : spans) {
    w << span->site << ',' << span->seq << ',';
    write_joined(w, span->resources, '+');
    w << ',' << ms(span->submit_at) << ',';
    if (span->first_message_at != kNever) w << ms(span->first_message_at);
    w << ',';
    if (span->acquire_at != kNever) w << ms(span->acquire_at);
    w << ',';
    if (span->release_at != kNever) w << ms(span->release_at);
    w << ',' << ms(span->waiting(horizon)) << ',';
    if (span->completed() && span->acquire_at != kNever) {
      w << ms(span->release_at - span->acquire_at);
    }
    w << ',' << span->messages << '\n';
  }
  w.flush();
}

void write_gauges_json(const FlightRecorder& recorder, std::ostream& os,
                       int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const auto& kinds = recorder.kind_names();
  Writer w(os);
  w << "{\n" << pad2 << "\"interval_ms\": " << ms(recorder.gauge_interval())
    << ",\n" << pad2 << "\"kinds\": [";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (i != 0) w << ", ";
    w << '"' << wire::escape(kinds[i]) << '"';
  }
  w << "],\n" << pad2 << "\"samples\": [";
  const auto& gauges = recorder.gauges();
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const GaugeSample& g = gauges[i];
    w << (i == 0 ? "\n" : ",\n") << pad2 << " {\"t_ms\": " << ms(g.at)
      << ", \"queue_depth\": " << g.queue_depth
      << ", \"queue_capacity\": " << g.queue_capacity
      << ", \"in_flight\": " << g.in_flight
      << ", \"messages\": " << g.messages_total
      << ", \"bytes\": " << g.bytes_total
      << ", \"sites_waiting\": " << g.sites_waiting
      << ", \"sites_in_cs\": " << g.sites_in_cs << ", \"sends_by_kind\": [";
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      if (k != 0) w << ", ";
      w << (k < g.sends_by_kind.size() ? g.sends_by_kind[k] : 0);
    }
    w << "]}";
  }
  w << "\n" << pad2 << "]\n" << pad << "}";
  w.flush();
}

}  // namespace mra::obs
