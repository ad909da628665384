#include "experiment/gantt.hpp"

#include <algorithm>

namespace mra::experiment {

namespace {

sim::SimTime window_end(const std::vector<obs::RequestSpan>& spans,
                        const GanttOptions& options) {
  if (options.end != 0) return options.end;
  sim::SimTime end = options.start + 1;
  for (const auto& span : spans) end = std::max(end, span.release_at);
  return end;
}

std::vector<std::string> build_lanes(
    const std::vector<obs::RequestSpan>& spans,
    ResourceId num_resources, const GanttOptions& options) {
  const sim::SimTime t0 = options.start;
  const sim::SimTime t1 = window_end(spans, options);
  const double width = static_cast<double>(t1 - t0);
  std::vector<std::string> lanes(
      static_cast<std::size_t>(num_resources),
      std::string(static_cast<std::size_t>(options.columns), '.'));

  for (const auto& s : spans) {
    if (s.release_at <= t0 || s.acquire_at >= t1) continue;
    const auto c0 = static_cast<int>(
        static_cast<double>(std::max(s.acquire_at, t0) - t0) / width *
        options.columns);
    auto c1 = static_cast<int>(
        static_cast<double>(std::min(s.release_at, t1) - t0) / width *
        options.columns);
    c1 = std::max(c1, c0 + 1);
    const char mark = options.show_site_ids
                          ? static_cast<char>('0' + s.site % 10)
                          : '#';
    for (ResourceId r : s.resources) {
      auto& lane = lanes[static_cast<std::size_t>(r)];
      for (int c = c0; c < c1 && c < options.columns; ++c) {
        lane[static_cast<std::size_t>(c)] = mark;
      }
    }
  }
  return lanes;
}

}  // namespace

std::vector<obs::RequestSpan> gantt_spans(const obs::FlightRecorder& recorder,
                                          sim::SimTime after) {
  std::vector<obs::RequestSpan> out;
  for (const obs::RequestSpan& s : recorder.spans()) {
    if (s.completed() && s.release_at > after) out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const obs::RequestSpan& a, const obs::RequestSpan& b) {
                     return a.release_at < b.release_at;
                   });
  return out;
}

void render_gantt(std::ostream& os,
                  const std::vector<obs::RequestSpan>& spans,
                  ResourceId num_resources, const GanttOptions& options) {
  const auto lanes = build_lanes(spans, num_resources, options);
  for (ResourceId r = 0; r < num_resources; ++r) {
    os << "r" << r << (r < 10 ? "  |" : " |")
       << lanes[static_cast<std::size_t>(r)] << "|\n";
  }
}

void write_gantt_csv(std::ostream& os,
                     const std::vector<obs::RequestSpan>& spans) {
  os << "site,seq,size,issued_ms,granted_ms,released_ms,resources\n";
  for (const auto& s : spans) {
    os << s.site << ',' << s.seq << ',' << s.resources.size() << ','
       << sim::to_ms(s.submit_at) << ',' << sim::to_ms(s.acquire_at) << ','
       << sim::to_ms(s.release_at) << ",\"";
    for (std::size_t i = 0; i < s.resources.size(); ++i) {
      if (i > 0) os << ' ';
      os << s.resources[i];
    }
    os << "\"\n";
  }
}

double gantt_busy_fraction(const std::vector<obs::RequestSpan>& spans,
                           ResourceId num_resources,
                           const GanttOptions& options) {
  const auto lanes = build_lanes(spans, num_resources, options);
  std::size_t busy = 0;
  std::size_t total = 0;
  for (const auto& lane : lanes) {
    for (char c : lane) busy += (c != '.') ? 1 : 0;
    total += lane.size();
  }
  return total == 0 ? 0.0 : static_cast<double>(busy) / static_cast<double>(total);
}

}  // namespace mra::experiment
