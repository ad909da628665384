#include "scenario/trace.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "check/mutant.hpp"
#include "core/wire.hpp"

namespace mra::scenario {

namespace {
constexpr const char* kMagicV1 = "# mra-trace v1";
constexpr const char* kMagicV2 = "# mra-trace v2";
constexpr const char* kMagicPrefix = "# mra-trace ";

std::runtime_error line_error(std::size_t line_no, const std::string& what) {
  return std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                            what);
}

/// One whole decimal token of T (wire::parse_whole: no '+', no sign on an
/// unsigned type, no exponent, no trailing junk, nothing out of range);
/// anything else throws naming the field.
template <typename T>
T parse_field(std::string_view token, std::string_view field,
              std::size_t line_no) {
  if (const std::optional<T> value = wire::parse_whole<T>(token)) {
    return *value;
  }
  const std::string quoted = "\"" + std::string(token) + "\"";
  throw line_error(line_no, "bad " + std::string(field) + " " + quoted);
}
}  // namespace

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
  // A misspelt mutant would replay with no seeded bug and report clean.
  if (!mutant.empty() &&
      check::mutant_from_name(mutant.c_str()) == check::Mutant::kNone) {
    throw std::invalid_argument("trace: mutant=" + mutant +
                                " names no seeded bug");
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
  std::vector<std::string> fields;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    fields.clear();
    std::istringstream ls(line);
    for (std::string field; ls >> field;) fields.push_back(std::move(field));

    if (std::isdigit(static_cast<unsigned char>(line[0]))) {
      if (fields.size() != 4) {
        throw line_error(line_no, "event wants 4 fields: " + line);
      }
      TraceEvent e;
      e.at = parse_field<sim::SimTime>(fields[0], "at_ns", line_no);
      e.site = parse_field<SiteId>(fields[1], "site", line_no);
      e.cs = parse_field<sim::SimDuration>(fields[2], "cs_ns", line_no);
      // Every comma separates two ids, so "1," and ",1" are refused.
      std::string_view ids = fields[3];
      for (;;) {
        const std::size_t comma = ids.find(',');
        const std::string_view id = ids.substr(0, comma);
        const auto r = parse_field<ResourceId>(id, "resource id", line_no);
        e.resources.push_back(r);
        if (comma == std::string_view::npos) break;
        ids.remove_prefix(comma + 1);
      }
      trace.events.push_back(std::move(e));
      continue;
    }

    if (fields.empty()) throw line_error(line_no, "malformed header: " + line);
    const std::string& key = fields[0];
    const auto value = [&]() -> const std::string& {
      if (fields.size() != 2) {
        throw line_error(line_no, key + " wants exactly one value");
      }
      return fields[1];
    };
    const auto number = [&](auto& out) {
      using T = std::remove_reference_t<decltype(out)>;
      out = parse_field<T>(value(), key, line_no);
    };
    if (key == "scenario") {
      trace.scenario = value();
    } else if (key == "sites") {
      number(trace.num_sites);
    } else if (key == "resources") {
      number(trace.num_resources);
    } else if (key == "seed") {
      number(trace.seed);
    } else if (key == "latency_ns") {
      number(trace.network_latency);
    } else if (key == "clusters") {
      number(trace.hierarchical_clusters);
    } else if (key == "wan_ns") {
      number(trace.hierarchical_remote_latency);
    } else if (v2 && key == "algorithm") {
      trace.algorithm = value();
    } else if (v2 && key == "delay_bound_ns") {
      number(trace.latency_delay_bound);
    } else if (v2 && key == "quantum_ns") {
      number(trace.latency_quantum);
    } else if (v2 && key == "mutant") {
      trace.mutant = value();
    } else {
      throw line_error(line_no, "unknown header key \"" + key + "\"");
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
