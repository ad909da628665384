#include "metrics/usage.hpp"

#include <cassert>

#include "check/mutant.hpp"

namespace mra::metrics {

namespace {

/// The asserts below state mutual exclusion as the tracker sees it. A seeded
/// mutant breaks it on purpose, for the Monitor to report, so they only hold
/// while no mutant is active (always, when mutants are compiled out).
[[maybe_unused]] bool mutant_active() {
  return check::active_mutant() != check::Mutant::kNone;
}

}  // namespace

void UsageTracker::on_acquire(sim::SimTime t, const ResourceSet& rs) {
  rs.for_each([&](ResourceId r) {
    auto& since = busy_since_[static_cast<std::size_t>(r)];
    assert((since == sim::kTimeInfinity || mutant_active()) &&
           "UsageTracker: resource acquired twice (mutual exclusion violated)");
    since = t;
  });
}

void UsageTracker::on_release(sim::SimTime t, const ResourceSet& rs) {
  rs.for_each([&](ResourceId r) {
    auto& since = busy_since_[static_cast<std::size_t>(r)];
    assert((since != sim::kTimeInfinity || mutant_active()) &&
           "UsageTracker: release of free resource");
    assert(t >= since || mutant_active());
    accumulated_ += static_cast<double>(t - since);
    since = sim::kTimeInfinity;
  });
}

void UsageTracker::reset(sim::SimTime t) {
  accumulated_ = 0.0;
  window_start_ = t;
  for (auto& since : busy_since_) {
    if (since != sim::kTimeInfinity) since = t;  // keep counting from the cut
  }
}

double UsageTracker::busy_integral(sim::SimTime now) const {
  double total = accumulated_;
  for (const auto& since : busy_since_) {
    if (since != sim::kTimeInfinity && now > since) {
      total += static_cast<double>(now - since);
    }
  }
  return total;
}

double UsageTracker::use_rate(sim::SimTime now) const {
  const double window = static_cast<double>(now - window_start_);
  if (window <= 0.0) return 0.0;
  return busy_integral(now) / (window * static_cast<double>(busy_since_.size()));
}

}  // namespace mra::metrics
