#include "experiment/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/wire.hpp"

namespace mra::experiment {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void write_one(std::ostream& os, const LabeledResult& lr) {
  const ExperimentResult& r = lr.result;
  os << "{\"label\":\"" << wire::escape(lr.label) << "\""
     << ",\"algorithm\":\"" << wire::escape(r.algorithm) << "\""
     << ",\"phi\":" << r.phi << ",\"rho\":" << num(r.rho)
     << ",\"use_rate\":" << num(r.use_rate)
     << ",\"waiting_mean_ms\":" << num(r.waiting_mean_ms)
     << ",\"waiting_stddev_ms\":" << num(r.waiting_stddev_ms)
     << ",\"waiting_p50_ms\":" << num(r.waiting_p50_ms)
     << ",\"waiting_p95_ms\":" << num(r.waiting_p95_ms)
     << ",\"waiting_p99_ms\":" << num(r.waiting_p99_ms)
     << ",\"requests_completed\":" << r.requests_completed
     << ",\"messages\":" << r.messages << ",\"bytes\":" << r.bytes
     << ",\"messages_per_cs\":" << num(r.messages_per_cs)
     << ",\"loans_used\":" << r.loans_used
     << ",\"loans_failed\":" << r.loans_failed << "}";
}

void write_one_replicated(std::ostream& os,
                          const LabeledReplicatedResult& lr) {
  const ReplicatedResult& r = lr.result;
  os << "{\"label\":\"" << wire::escape(lr.label) << "\""
     << ",\"algorithm\":\"" << wire::escape(r.algorithm) << "\""
     << ",\"phi\":" << r.phi << ",\"rho\":" << num(r.rho)
     << ",\"replications\":" << r.replications
     << ",\"use_rate\":" << num(r.use_rate.mean)
     << ",\"use_rate_ci95\":" << num(r.use_rate.ci95_half)
     << ",\"waiting_mean_ms\":" << num(r.waiting_mean_ms.mean)
     << ",\"waiting_mean_ms_ci95\":" << num(r.waiting_mean_ms.ci95_half)
     << ",\"waiting_stddev_ms\":" << num(r.waiting_pooled.stddev())
     << ",\"waiting_p50_ms\":" << num(r.waiting_p50_ms)
     << ",\"waiting_p95_ms\":" << num(r.waiting_p95_ms)
     << ",\"waiting_p99_ms\":" << num(r.waiting_p99_ms)
     << ",\"requests_completed\":" << r.requests_completed
     << ",\"messages\":" << r.messages << ",\"bytes\":" << r.bytes
     << ",\"messages_per_cs\":" << num(r.messages_per_cs.mean)
     << ",\"messages_per_cs_ci95\":" << num(r.messages_per_cs.ci95_half)
     << ",\"loans_used\":" << r.loans_used
     << ",\"loans_failed\":" << r.loans_failed << "}";
}

}  // namespace

void write_results_json(std::ostream& os, const std::string& tool,
                        const std::vector<LabeledResult>& results) {
  os << "{\"tool\":\"" << wire::escape(tool) << "\",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n  ";
    write_one(os, results[i]);
  }
  os << "\n]}\n";
}

void write_results_json_file(const std::string& path, const std::string& tool,
                             const std::vector<LabeledResult>& results) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  write_results_json(f, tool, results);
}

void write_replicated_json(
    std::ostream& os, const std::string& tool,
    const std::vector<LabeledReplicatedResult>& results) {
  os << "{\"tool\":\"" << wire::escape(tool) << "\",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n  ";
    write_one_replicated(os, results[i]);
  }
  os << "\n]}\n";
}

void write_replicated_json_file(
    const std::string& path, const std::string& tool,
    const std::vector<LabeledReplicatedResult>& results) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  write_replicated_json(f, tool, results);
}

}  // namespace mra::experiment
