#include "algo/lass/token.hpp"

#include <algorithm>

namespace mra::algo::lass {

bool SortedRequestQueue::insert(const ReqItem& item) {
  // One live request per site: reconcile with any existing entry first.
  auto same_site = std::find_if(
      items_.begin(), items_.end(),
      [&](const ReqItem& it) { return it.sinit == item.sinit; });
  if (same_site != items_.end()) {
    if (same_site->id >= item.id) return false;  // existing is same or newer
    items_.erase(same_site);
  }
  auto pos = std::find_if(items_.begin(), items_.end(),
                          [&](const ReqItem& it) { return item.precedes(it); });
  items_.insert(pos, item);
  return true;
}

ReqItem SortedRequestQueue::pop_head() {
  ReqItem out = items_.front();
  items_.erase(items_.begin());
  return out;
}

bool SortedRequestQueue::remove_site(SiteId site) {
  auto it = std::remove_if(items_.begin(), items_.end(),
                           [&](const ReqItem& i) { return i.sinit == site; });
  const bool removed = it != items_.end();
  items_.erase(it, items_.end());
  return removed;
}

void SortedRequestQueue::prune_obsolete(const SiteRequestIds& ids) {
  auto it = std::remove_if(items_.begin(), items_.end(), [&](const ReqItem& i) {
    return i.id <= ids_of(ids, i.sinit).cs;
  });
  items_.erase(it, items_.end());
}

bool SortedRequestQueue::contains_site(SiteId site) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const ReqItem& i) { return i.sinit == site; });
}

}  // namespace mra::algo::lass
