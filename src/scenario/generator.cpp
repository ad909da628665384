#include "scenario/generator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mra::scenario {

namespace {

/// The paper's §5.1 choice: delegates to the same Fisher-Yates helper
/// workload::RequestGenerator uses, so the two paths cannot drift.
class UniformPicker final : public ResourcePicker {
 public:
  explicit UniformPicker(int num_resources) : m_(num_resources) {}

  ResourceSet draw(int size, sim::Rng& rng) override {
    return workload::draw_uniform_resources(size, m_, rng);
  }

  const char* name() const override { return "uniform"; }

 private:
  int m_;
};

/// Weighted sampling without replacement via Efraimidis-Spirakis keys:
/// key_r = u_r^(1/w_r), take the `size` largest keys. One next_double()
/// per resource per draw — O(M) RNG consumption, fully deterministic, and
/// correct for any size up to M (no rejection loop that could degenerate).
class WeightedPicker final : public ResourcePicker {
 public:
  WeightedPicker(std::vector<double> weights, const char* name)
      : weights_(std::move(weights)), name_(name) {}

  ResourceSet draw(int size, sim::Rng& rng) override {
    const auto m = weights_.size();
    keys_.resize(m);
    order_.resize(m);
    for (std::size_t r = 0; r < m; ++r) {
      const double u = rng.next_double();
      // u == 0 would give key 0 for every weight; nudge into (0, 1).
      keys_[r] = std::pow(std::max(u, 1e-300), 1.0 / weights_[r]);
      order_[r] = static_cast<ResourceId>(r);
    }
    std::partial_sort(order_.begin(),
                      order_.begin() + static_cast<std::ptrdiff_t>(size),
                      order_.end(), [this](ResourceId a, ResourceId b) {
                        const auto ka = keys_[static_cast<std::size_t>(a)];
                        const auto kb = keys_[static_cast<std::size_t>(b)];
                        return ka != kb ? ka > kb : a < b;
                      });
    ResourceSet out(static_cast<ResourceId>(m));
    for (int i = 0; i < size; ++i) out.insert(order_[static_cast<std::size_t>(i)]);
    return out;
  }

  const char* name() const override { return name_; }

 private:
  std::vector<double> weights_;
  const char* name_;
  // Scratch, rewritten in full by every draw: nothing carries over from one
  // draw to the next, so one picker can serve every site of a run.
  std::vector<double> keys_;
  std::vector<ResourceId> order_;
};

}  // namespace

std::unique_ptr<ResourcePicker> make_picker(const PopularitySpec& spec,
                                            int num_resources) {
  const auto m = static_cast<std::size_t>(num_resources);
  switch (spec.kind) {
    case Popularity::kUniform:
      return std::make_unique<UniformPicker>(num_resources);
    case Popularity::kZipf: {
      std::vector<double> w(m);
      for (std::size_t r = 0; r < m; ++r) {
        w[r] = 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_exponent);
      }
      return std::make_unique<WeightedPicker>(std::move(w), "zipf");
    }
    case Popularity::kHotspot: {
      const auto k = static_cast<std::size_t>(spec.hot_k);
      std::vector<double> w(m);
      const double hot_w = spec.hot_mass / static_cast<double>(k);
      const double cold_w =
          m == k ? hot_w
                 : (1.0 - spec.hot_mass) / static_cast<double>(m - k);
      for (std::size_t r = 0; r < m; ++r) {
        w[r] = r < k ? hot_w : std::max(cold_w, 1e-12);
      }
      return std::make_unique<WeightedPicker>(std::move(w), "hotspot");
    }
  }
  return std::make_unique<UniformPicker>(num_resources);
}

sim::SimDuration ArrivalProcess::next_delay(sim::SimTime now, sim::Rng& rng) {
  if (kind_ != Arrival::kOnOffBursty) {
    // Closed: the paper's think time Exp(β · scale). Open: the Poisson gap.
    return std::max<sim::SimDuration>(
        1, static_cast<sim::SimDuration>(rng.exponential(mean_)));
  }
  // ON/OFF: closed loop gated by exponential phases — think time accrues
  // only while ON (a Markov-modulated process). A delay that would cross an
  // OFF phase is pushed past it, producing request bursts in ON windows.
  if (!initialized_) {
    initialized_ = true;
    on_ = true;
    phase_end_ = now + draw_phase(rng);
  }
  while (phase_end_ <= now) toggle(rng);
  double remaining = rng.exponential(mean_);
  sim::SimTime t = now;
  while (true) {
    if (!on_) {
      t = phase_end_;
      toggle(rng);
      continue;
    }
    const double avail = static_cast<double>(phase_end_ - t);
    if (remaining <= avail) {
      const auto fire = t + static_cast<sim::SimDuration>(remaining);
      return std::max<sim::SimDuration>(1, fire - now);
    }
    remaining -= avail;
    t = phase_end_;
    toggle(rng);
  }
}

sim::SimDuration ArrivalProcess::draw_phase(sim::Rng& rng) {
  const double mean = static_cast<double>(on_ ? on_mean_ : off_mean_);
  return std::max<sim::SimDuration>(
      1, static_cast<sim::SimDuration>(rng.exponential(mean)));
}

void ArrivalProcess::toggle(sim::Rng& rng) {
  on_ = !on_;
  phase_end_ += draw_phase(rng);
}

ArrivalProcess make_arrival(const ArrivalSpec& spec,
                            const workload::WorkloadConfig& site_cfg) {
  const double beta = static_cast<double>(site_cfg.beta());
  switch (spec.kind) {
    case Arrival::kClosedExponential:
      return {Arrival::kClosedExponential, beta};
    case Arrival::kOpenPoisson:
      return {Arrival::kOpenPoisson,
              spec.open_mean_interarrival > 0
                  ? static_cast<double>(spec.open_mean_interarrival)
                  : beta + static_cast<double>(site_cfg.mean_cs())};
    case Arrival::kOnOffBursty:
      return {Arrival::kOnOffBursty, beta * spec.burst_think_scale,
              spec.on_mean, spec.off_mean};
  }
  return {Arrival::kClosedExponential, beta};
}

int num_heavy_sites(const ScenarioSpec& spec) {
  return static_cast<int>(
      std::lround(spec.heterogeneity.heavy_fraction *
                  static_cast<double>(spec.system.num_sites)));
}

workload::WorkloadConfig effective_site_workload(const ScenarioSpec& spec,
                                                 int site) {
  workload::WorkloadConfig wl = spec.workload;
  if (site < num_heavy_sites(spec)) {
    const auto& h = spec.heterogeneity;
    wl.phi = std::max(
        1, std::min(wl.num_resources,
                    static_cast<int>(std::lround(
                        static_cast<double>(wl.phi) * h.heavy_phi_scale))));
    wl.alpha_min = static_cast<sim::SimDuration>(
        static_cast<double>(wl.alpha_min) * h.heavy_cs_scale);
    wl.alpha_max = static_cast<sim::SimDuration>(
        static_cast<double>(wl.alpha_max) * h.heavy_cs_scale);
  }
  return wl;
}

}  // namespace mra::scenario
