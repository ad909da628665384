#include "metrics/collector.hpp"

#include <cassert>

namespace mra::metrics {

std::size_t Collector::bucket_of(std::size_t size) const {
  if (by_size_.empty() || max_size_ <= 1) return 0;
  std::size_t b = (size - 1) * by_size_.size() / max_size_;
  if (b >= by_size_.size()) b = by_size_.size() - 1;
  return b;
}

void Collector::on_issue(sim::SimTime t, SiteId site, RequestId /*seq*/,
                         const ResourceSet& /*rs*/) {
  if (in_flight_.size() <= static_cast<std::size_t>(site)) {
    in_flight_.resize(static_cast<std::size_t>(site) + 1);
  }
  auto& f = in_flight_[static_cast<std::size_t>(site)];
  f.issued = t;
  f.counted = t >= window_start_;
}

void Collector::on_grant(sim::SimTime t, SiteId site, RequestId /*seq*/,
                         const ResourceSet& rs) {
  usage_.on_acquire(t, rs);
  const auto& f = in_flight_[static_cast<std::size_t>(site)];
  if (f.counted) {
    const double wait_ms = sim::to_ms(t - f.issued);
    waiting_.add(wait_ms);
    waiting_sketch_.add(wait_ms);
    by_size_[bucket_of(rs.size())].add(wait_ms);
  }
}

void Collector::on_release(sim::SimTime t, SiteId /*site*/,
                           RequestId /*seq*/, const ResourceSet& rs) {
  usage_.on_release(t, rs);
  ++completed_;
}

void Collector::reset(sim::SimTime t) {
  usage_.reset(t);
  waiting_.reset();
  waiting_sketch_.reset();
  for (auto& s : by_size_) s.reset();
  completed_ = 0;
  window_start_ = t;
  // Requests already granted keep their usage integration (handled by
  // UsageTracker::reset) but never enter the waiting statistics: their
  // `counted` flag refers to the old window.
  for (auto& f : in_flight_) f.counted = f.issued >= t;
}

}  // namespace mra::metrics
