// Gantt rendering of a run's request spans (reproduces the paper's
// Figures 1 and 4: resource lanes, coloured = in use). The spans come from
// an obs::FlightRecorder attached through scenario::run_scenario's observer
// overload.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace mra::experiment {

struct GanttOptions {
  int columns = 100;            ///< characters across the time axis
  sim::SimTime start = 0;       ///< window start
  sim::SimTime end = 0;         ///< window end (0 = max release time)
  bool show_site_ids = true;    ///< draw the using site's id (mod 10)
};

/// The spans a chart of the measured window draws: every completed span
/// released after `after` (a run's warm-up), in release order. Ties keep
/// submit order. The order matters: a one-column CS and the next grant on
/// the same resource overwrite each other in draw order.
[[nodiscard]] std::vector<obs::RequestSpan> gantt_spans(
    const obs::FlightRecorder& recorder, sim::SimTime after);

/// Renders one lane per resource; '.' = idle, digit/# = in use by site.
void render_gantt(std::ostream& os, const std::vector<obs::RequestSpan>& spans,
                  ResourceId num_resources, const GanttOptions& options = {});

/// Writes a header line and one CSV row per span: site, seq, size, the
/// submit, acquire and release times in ms, and the space-separated
/// resources.
void write_gantt_csv(std::ostream& os,
                     const std::vector<obs::RequestSpan>& spans);

/// Fraction of lane-columns that are busy (a discretised use rate, the
/// "coloured area" of the paper's Figure 4).
[[nodiscard]] double gantt_busy_fraction(
    const std::vector<obs::RequestSpan>& spans, ResourceId num_resources,
    const GanttOptions& options = {});

}  // namespace mra::experiment
