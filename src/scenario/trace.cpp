#include "scenario/trace.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mra::scenario {

namespace {
constexpr const char* kMagicV1 = "# mra-trace v1";
constexpr const char* kMagicV2 = "# mra-trace v2";
constexpr const char* kMagicPrefix = "# mra-trace ";
}

void RequestTrace::validate() const {
  if (num_sites <= 0 || num_resources <= 0) {
    throw std::invalid_argument(
        "trace: sites and resources must be positive (got sites=" +
        std::to_string(num_sites) +
        " resources=" + std::to_string(num_resources) + ")");
  }
  const auto bound = [](const char* field, std::int64_t value,
                        std::int64_t limit) {
    if (value > limit) {
      throw std::invalid_argument(std::string("trace: ") + field + "=" +
                                  std::to_string(value) +
                                  " exceeds the limit " +
                                  std::to_string(limit));
    }
  };
  bound("sites", num_sites, kMaxSites);
  bound("resources", num_resources, kMaxResources);
  bound("sites*resources",
        static_cast<std::int64_t>(num_sites) * num_resources,
        kMaxSiteResources);
  if (network_latency < 0 || hierarchical_clusters < 1 ||
      hierarchical_remote_latency < 0) {
    throw std::invalid_argument(
        "trace: need latency_ns >= 0, clusters >= 1, wan_ns >= 0");
  }
  if (latency_delay_bound < 0 || latency_quantum < 0) {
    throw std::invalid_argument(
        "trace: need delay_bound_ns >= 0, quantum_ns >= 0");
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const std::string where = "trace event " + std::to_string(i);
    if (e.at < 0 || e.cs < 0) {
      throw std::invalid_argument(where + ": negative time");
    }
    if (e.site < 0 || e.site >= num_sites) {
      throw std::invalid_argument(where + ": site " + std::to_string(e.site) +
                                  " out of [0, " + std::to_string(num_sites) +
                                  ")");
    }
    if (e.resources.empty()) {
      throw std::invalid_argument(where + ": empty resource set");
    }
    if (!std::is_sorted(e.resources.begin(), e.resources.end()) ||
        std::adjacent_find(e.resources.begin(), e.resources.end()) !=
            e.resources.end()) {
      throw std::invalid_argument(where + ": resources not sorted/distinct");
    }
    if (e.resources.front() < 0 || e.resources.back() >= num_resources) {
      throw std::invalid_argument(where + ": resource id out of [0, " +
                                  std::to_string(num_resources) + ")");
    }
  }
}

int RequestTrace::max_request_size() const {
  std::size_t m = 1;
  for (const TraceEvent& e : events) m = std::max(m, e.resources.size());
  return static_cast<int>(m);
}

void write_trace(std::ostream& os, const RequestTrace& trace) {
  os << (trace.has_v2_fields() ? kMagicV2 : kMagicV1) << "\n";
  if (!trace.scenario.empty()) os << "scenario " << trace.scenario << "\n";
  os << "sites " << trace.num_sites << "\n";
  os << "resources " << trace.num_resources << "\n";
  os << "seed " << trace.seed << "\n";
  os << "latency_ns " << trace.network_latency << "\n";
  if (trace.hierarchical_clusters > 1) {
    os << "clusters " << trace.hierarchical_clusters << "\n";
    os << "wan_ns " << trace.hierarchical_remote_latency << "\n";
  }
  if (!trace.algorithm.empty()) os << "algorithm " << trace.algorithm << "\n";
  if (trace.latency_delay_bound > 0) {
    os << "delay_bound_ns " << trace.latency_delay_bound << "\n";
  }
  if (trace.latency_quantum > 0) {
    os << "quantum_ns " << trace.latency_quantum << "\n";
  }
  if (!trace.mutant.empty()) os << "mutant " << trace.mutant << "\n";
  for (const TraceEvent& e : trace.events) {
    os << e.at << " " << e.site << " " << e.cs << " ";
    for (std::size_t i = 0; i < e.resources.size(); ++i) {
      if (i != 0) os << ",";
      os << e.resources[i];
    }
    os << "\n";
  }
}

void save_trace(const std::string& path, const RequestTrace& trace) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  write_trace(f, trace);
}

RequestTrace read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line.rfind(kMagicPrefix, 0) != 0) {
    throw std::runtime_error("trace: missing magic line \"" +
                             std::string(kMagicV1) + "\"");
  }
  const bool v2 = line == kMagicV2;
  if (!v2 && line != kMagicV1) {
    throw std::runtime_error("trace: unsupported trace version \"" + line +
                             "\" (this build reads v1 and v2)");
  }
  RequestTrace trace;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (std::isdigit(static_cast<unsigned char>(line[0]))) {
      TraceEvent e;
      std::string resources;
      if (!(ls >> e.at >> e.site >> e.cs >> resources)) {
        throw std::runtime_error("trace line " + std::to_string(line_no) +
                                 ": malformed event: " + line);
      }
      std::istringstream rs(resources);
      std::string tok;
      while (std::getline(rs, tok, ',')) {
        try {
          e.resources.push_back(
              static_cast<ResourceId>(std::stol(tok)));
        } catch (const std::exception&) {
          throw std::runtime_error("trace line " + std::to_string(line_no) +
                                   ": bad resource id \"" + tok + "\"");
        }
      }
      trace.events.push_back(std::move(e));
    } else {
      std::string key;
      ls >> key;
      if (key == "scenario") {
        ls >> trace.scenario;
      } else if (key == "sites") {
        ls >> trace.num_sites;
      } else if (key == "resources") {
        ls >> trace.num_resources;
      } else if (key == "seed") {
        ls >> trace.seed;
      } else if (key == "latency_ns") {
        ls >> trace.network_latency;
      } else if (key == "clusters") {
        ls >> trace.hierarchical_clusters;
      } else if (key == "wan_ns") {
        ls >> trace.hierarchical_remote_latency;
      } else if (v2 && key == "algorithm") {
        ls >> trace.algorithm;
      } else if (v2 && key == "delay_bound_ns") {
        ls >> trace.latency_delay_bound;
      } else if (v2 && key == "quantum_ns") {
        ls >> trace.latency_quantum;
      } else if (v2 && key == "mutant") {
        ls >> trace.mutant;
      } else {
        throw std::runtime_error("trace line " + std::to_string(line_no) +
                                 ": unknown header key \"" + key + "\"");
      }
      if (!ls) {
        throw std::runtime_error("trace line " + std::to_string(line_no) +
                                 ": malformed header: " + line);
      }
    }
  }
  trace.validate();
  return trace;
}

RequestTrace load_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace: " + path);
  return read_trace(f);
}

}  // namespace mra::scenario
