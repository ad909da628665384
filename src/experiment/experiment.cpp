#include "experiment/experiment.hpp"

#include "algo/lass/node.hpp"

namespace mra::experiment {

ExperimentResult summarize(algo::AllocationSystem& system,
                           const metrics::Collector& col) {
  ExperimentResult result;
  result.algorithm = algo::to_string(system.config().algorithm);

  auto& sim = system.simulator();
  result.use_rate = col.usage().use_rate(sim.now());
  result.waiting_mean_ms = col.waiting().mean();
  result.waiting_stddev_ms = col.waiting().stddev();
  result.waiting_stats = col.waiting();
  result.waiting_sketch = col.waiting_sketch();
  result.waiting_p50_ms = result.waiting_sketch.percentile(50);
  result.waiting_p95_ms = result.waiting_sketch.percentile(95);
  result.waiting_p99_ms = result.waiting_sketch.percentile(99);
  result.requests_completed = col.completed();
  for (const auto& s : col.waiting_by_size()) {
    result.waiting_by_size.push_back(
        BucketStats{s.mean(), s.stddev(), s.count()});
  }

  result.messages = system.network().total_messages();
  result.bytes = system.network().total_bytes();
  result.messages_per_cs =
      col.completed() == 0
          ? 0.0
          : static_cast<double>(result.messages) /
                static_cast<double>(col.completed());
  for (const auto& [kind, st] : system.network().stats_by_kind()) {
    result.messages_by_kind[kind] = st.count;
  }

  for (int i = 0; i < system.num_sites(); ++i) {
    if (const auto* lass =
            dynamic_cast<const algo::lass::LassNode*>(&system.node(i))) {
      result.loans_used += lass->loans_used();
      result.loans_failed += lass->loans_failed();
    }
  }

  return result;
}

}  // namespace mra::experiment
