#include "algo/lass/token.hpp"

#include <algorithm>
#include <cassert>
#include <new>

namespace mra::algo::lass {

// ---------------------------------------------------------------------------
// IdLog
// ---------------------------------------------------------------------------

IdLog* IdLog::create() {
  return new (core::container_spill_allocate(sizeof(IdLog))) IdLog();
}

void IdLog::destroy(IdLog* log) {
  log->~IdLog();
  core::container_spill_deallocate(log, sizeof(IdLog));
}

std::size_t IdLog::lower(SiteId site) const {
  const Head* it = std::lower_bound(
      heads_.begin(), heads_.end(), site,
      [](const Head& h, SiteId s) { return h.site < s; });
  return static_cast<std::size_t>(it - heads_.begin());
}

const IdLog::Head* IdLog::find(SiteId site) const {
  const std::size_t i = lower(site);
  return i != heads_.size() && heads_[i].site == site ? &heads_[i] : nullptr;
}

const SiteIds* IdLog::version_at(const Head& h, Epoch epoch) const {
  if (h.stamp <= epoch) return &h.ids;
  for (std::uint32_t i = h.prev; i != kNone; i = past_[i].prev) {
    if (past_[i].stamp <= epoch) return &past_[i].ids;
  }
  return nullptr;
}

SiteIds IdLog::current(SiteId site) const {
  const Head* h = find(site);
  return h == nullptr ? SiteIds{} : h->ids;
}

SiteIds IdLog::at(SiteId site, Epoch epoch) const {
  const Head* h = find(site);
  const SiteIds* ids = h == nullptr ? nullptr : version_at(*h, epoch);
  return ids == nullptr ? SiteIds{} : *ids;
}

bool IdLog::viewed(Epoch from, Epoch until) const {
  const Epoch* it = std::lower_bound(views_.begin(), views_.end(), from);
  return it != views_.end() && *it < until;
}

template <typename Fn>
void IdLog::update(SiteId site, Fn&& write) {
  const std::size_t pos = lower(site);
  if (pos == heads_.size() || heads_[pos].site != site) {
    Head fresh{site, kNone, epoch_, SiteIds{}};
    write(fresh.ids);
    heads_.insert(heads_.begin() + pos, fresh);
    return;
  }
  Head& h = heads_[pos];
  // Every live view opened before the current epoch, so one reads h iff
  // the newest view is not older than h's stamp. Then h moves to the past.
  if (!views_.empty() && views_.back() >= h.stamp) {
    past_.push_back(Past{h.prev, h.stamp, epoch_, h.ids});
    h.prev = static_cast<std::uint32_t>(past_.size() - 1);
    h.stamp = epoch_;
  }
  write(h.ids);
}

IdLog::Epoch IdLog::open_view() {
  views_.push_back(epoch_);
  return epoch_++;
}

void IdLog::close_view(Epoch epoch) {
  const Epoch* it = std::lower_bound(views_.begin(), views_.end(), epoch);
  assert(it != views_.end() && *it == epoch);
  const bool has_prev = it != views_.begin();
  const Epoch prev = has_prev ? *(it - 1) : 0;
  const Epoch next = it + 1 != views_.end() ? *(it + 1) : kLatest;
  views_.erase(it);
  if (!token_alive_) {
    if (views_.empty()) destroy(this);
    return;
  }
  // A past version only this view read spans its epoch and no other live
  // view's: it was superseded after this epoch but no later than the next
  // view's, which past_'s order finds by binary search, and it was stamped
  // after the previous view's epoch.
  const Past* first = std::upper_bound(
      past_.begin(), past_.end(), epoch,
      [](Epoch e, const Past& p) { return e < p.until; });
  for (const Past* p = first; p != past_.end() && p->until <= next; ++p) {
    if (p->stamp <= epoch && (!has_prev || p->stamp > prev)) ++garbage_;
  }
  if (2 * garbage_ > size()) compact();
}

void IdLog::drop_token() {
  token_alive_ = false;
  if (views_.empty()) destroy(this);
}

void IdLog::compact() {
  // Keeps the past versions a live view reads, in order. A link to a
  // dropped version goes to the newest kept version before it: the dropped
  // one spans only epochs no live view has, and views opened later read
  // the current version, so every read is unchanged.
  core::SmallVector<std::uint32_t, 16> moved;  // old index -> new link
  moved.reserve(past_.size());
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < past_.size(); ++i) {
    Past p = past_[i];
    p.prev = p.prev == kNone ? kNone : moved[p.prev];
    if (viewed(p.stamp, p.until)) {
      past_[kept] = p;
      moved.push_back(kept++);
    } else {
      moved.push_back(p.prev);
    }
  }
  past_.erase(past_.begin() + kept, past_.end());
  for (Head& h : heads_) {
    if (h.prev != kNone) h.prev = moved[h.prev];
  }
  garbage_ = 0;
}

std::size_t IdLog::readable_entries() const {
  std::size_t n = 0;
  for (const Head& h : heads_) {
    if (token_alive_ || viewed(h.stamp, kLatest)) ++n;
  }
  for (const Past& p : past_) {
    if (viewed(p.stamp, p.until)) ++n;
  }
  return n;
}

IdLog* IdLog::copy_at(Epoch epoch) const {
  IdLog* copy = create();
  for (const Head& h : heads_) {
    if (const SiteIds* ids = version_at(h, epoch)) {
      copy->heads_.push_back(Head{h.site, kNone, 0, *ids});
    }
  }
  return copy;
}

// ---------------------------------------------------------------------------
// TokenIds
// ---------------------------------------------------------------------------

TokenIds::TokenIds(const TokenIds& other) {
  if (other.log_ != nullptr) log_ = other.log_->copy_at(IdLog::kLatest);
}

TokenIds TokenIds::copy_of(const DepartedIds& view) {
  if (view.log_ == nullptr) return TokenIds();
  return TokenIds(view.log_->copy_at(view.epoch_));
}

IdLog& TokenIds::writable_log() {
  if (log_ == nullptr) log_ = IdLog::create();
  return *log_;
}

void TokenIds::set_req_cnt(SiteId site, RequestId id) {
  writable_log().update(site, [id](SiteIds& ids) { ids.req_cnt = id; });
}

void TokenIds::set_cs(SiteId site, RequestId id) {
  writable_log().update(site, [id](SiteIds& ids) { ids.cs = id; });
}

DepartedIds TokenIds::depart() {
  if (log_ == nullptr) return DepartedIds{};
  return DepartedIds(log_, log_->open_view());
}

// ---------------------------------------------------------------------------
// SortedRequestQueue
// ---------------------------------------------------------------------------

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

void SortedRequestQueue::prune_obsolete(const TokenIds& ids) {
  auto it = std::remove_if(items_.begin(), items_.end(), [&](const ReqItem& i) {
    return i.id <= ids.get(i.sinit).cs;
  });
  items_.erase(it, items_.end());
}

bool SortedRequestQueue::contains_site(SiteId site) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const ReqItem& i) { return i.sinit == site; });
}

}  // namespace mra::algo::lass
