#include "fabric/result.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/wire.hpp"

namespace mra::fabric {

std::string serialize_result(const experiment::ExperimentResult& r) {
  std::string out = "{\"algorithm\":";
  wire::append_string(out, r.algorithm);
  out += ",\"phi\":" + std::to_string(r.phi);
  out += ",\"rho\":";
  wire::append_double(out, r.rho);
  out += ",\"use_rate\":";
  wire::append_double(out, r.use_rate);
  out += ",\"waiting_mean_ms\":";
  wire::append_double(out, r.waiting_mean_ms);
  out += ",\"waiting_stddev_ms\":";
  wire::append_double(out, r.waiting_stddev_ms);
  out += ",\"waiting_p50_ms\":";
  wire::append_double(out, r.waiting_p50_ms);
  out += ",\"waiting_p95_ms\":";
  wire::append_double(out, r.waiting_p95_ms);
  out += ",\"waiting_p99_ms\":";
  wire::append_double(out, r.waiting_p99_ms);
  out += ",\"requests_completed\":" + std::to_string(r.requests_completed);
  out += ",\"messages\":" + std::to_string(r.messages);
  out += ",\"bytes\":" + std::to_string(r.bytes);
  out += ",\"messages_per_cs\":";
  wire::append_double(out, r.messages_per_cs);
  out += ",\"loans_used\":" + std::to_string(r.loans_used);
  out += ",\"loans_failed\":" + std::to_string(r.loans_failed);
  out += ",\"waiting_stats\":" + r.waiting_stats.serialize();
  out += ",\"waiting_sketch\":" + r.waiting_sketch.serialize();
  out += '}';
  return out;
}

experiment::ExperimentResult parse_result(std::string_view line) {
  wire::Cursor c(line, "fabric wire");
  experiment::ExperimentResult r;
  c.expect("{\"algorithm\":");
  r.algorithm = c.read_string();
  c.expect(",\"phi\":");
  const std::int64_t phi = c.read_i64();
  if (phi < std::numeric_limits<int>::min() ||
      phi > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("fabric result: phi " + std::to_string(phi) +
                                " does not fit in int");
  }
  r.phi = static_cast<int>(phi);
  c.expect(",\"rho\":");
  r.rho = c.read_double();
  c.expect(",\"use_rate\":");
  r.use_rate = c.read_double();
  c.expect(",\"waiting_mean_ms\":");
  r.waiting_mean_ms = c.read_double();
  c.expect(",\"waiting_stddev_ms\":");
  r.waiting_stddev_ms = c.read_double();
  c.expect(",\"waiting_p50_ms\":");
  r.waiting_p50_ms = c.read_double();
  c.expect(",\"waiting_p95_ms\":");
  r.waiting_p95_ms = c.read_double();
  c.expect(",\"waiting_p99_ms\":");
  r.waiting_p99_ms = c.read_double();
  c.expect(",\"requests_completed\":");
  r.requests_completed = c.read_u64();
  c.expect(",\"messages\":");
  r.messages = c.read_u64();
  c.expect(",\"bytes\":");
  r.bytes = c.read_u64();
  c.expect(",\"messages_per_cs\":");
  r.messages_per_cs = c.read_double();
  c.expect(",\"loans_used\":");
  r.loans_used = c.read_u64();
  c.expect(",\"loans_failed\":");
  r.loans_failed = c.read_u64();
  c.expect(",\"waiting_stats\":");
  r.waiting_stats = metrics::RunningStats::read(c);
  c.expect(",\"waiting_sketch\":");
  r.waiting_sketch = metrics::QuantileSketch::read(c);
  c.expect("}");
  c.expect_end();
  return r;
}

std::string error_payload(std::string_view message) {
  std::string out = "{\"error\":";
  wire::append_string(out, message);
  out += '}';
  return out;
}

std::optional<std::string> parse_error(std::string_view line) {
  wire::Cursor c(line, "fabric wire");
  if (!c.consume("{\"error\":")) return std::nullopt;
  std::string message = c.read_string();
  c.expect("}");
  c.expect_end();
  return message;
}

}  // namespace mra::fabric
