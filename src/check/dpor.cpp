#include "check/dpor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mra::check {

namespace {

constexpr std::uint64_t kSaturated = 0xFFFFFFFFFFFFFFFFULL;

/// n! saturating at 2^64-1 (n >= 21 overflows; exploration never needs the
/// exact value there, only "more than any cap").
std::uint64_t saturating_factorial(std::size_t n) {
  std::uint64_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) {
    if (f > kSaturated / i) return kSaturated;
    f *= i;
  }
  return f;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > kSaturated / b) return kSaturated;
  return a * b;
}

}  // namespace

DporScheduler::DporScheduler(DporConfig config) : cfg_(std::move(config)) {
  for (std::uint64_t c : cfg_.forced_prefix) {
    Node node;
    node.chosen = c;
    node.alternatives = c + 1;  // never incrementable: the prefix is pinned
    node.pinned = true;
    trail_.push_back(node);
  }
}

void DporScheduler::begin_run() {
  depth_ = 0;
  ++stats_.schedules_executed;
}

bool DporScheduler::advance() {
  if (depth_ < cfg_.forced_prefix.size()) {
    throw std::invalid_argument(
        "DporScheduler: the forced choice prefix has " +
        std::to_string(cfg_.forced_prefix.size()) +
        " entries but the run met only " + std::to_string(depth_) +
        " choice point(s)");
  }
  if (stats_.schedules_executed >= cfg_.max_schedules) {
    stats_.truncated = true;
    return false;
  }
  // DFS backtrack: deepest node with an untried alternative; everything
  // below it belongs to abandoned subtrees and is discarded.
  while (!trail_.empty()) {
    Node& node = trail_.back();
    if (!node.pinned && node.chosen + 1 < node.alternatives) {
      ++node.chosen;
      return true;
    }
    if (node.pinned) break;
    trail_.pop_back();
  }
  stats_.complete = !stats_.truncated;
  return false;
}

std::vector<std::uint64_t> DporScheduler::choices() const {
  std::vector<std::uint64_t> out;
  out.reserve(trail_.size());
  for (const Node& node : trail_) out.push_back(node.chosen);
  return out;
}

void DporScheduler::on_round(sim::SimTime /*at*/,
                             const std::vector<int>& tags,
                             std::vector<std::size_t>& order) {
  // Group the batch by commute tag, in order of first occurrence. Events
  // tagged kNoCommuteTag are dependent with everything: they stay at their
  // canonical position and never join a permutation group.
  groups_.clear();
  for (const int tag : tags) {
    if (tag == sim::Simulator::kNoCommuteTag) continue;
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const Group& g) { return g.tag == tag; });
    if (it == groups_.end()) {
      groups_.push_back(Group{tag, 1});
    } else {
      ++it->size;
    }
  }

  // One mixed-radix choice per batch: the product over same-tag groups of
  // min(k!, max_branch) orderings. Different-tag events commute, so their
  // relative order is never enumerated — that is the whole reduction.
  std::uint64_t radix = 1;
  for (const Group& g : groups_) {
    const std::uint64_t full = saturating_factorial(g.size);
    if (full > cfg_.max_branch) stats_.truncated = true;
    radix = saturating_mul(radix, std::min(full, cfg_.max_branch));
  }
  if (radix > cfg_.max_branch) {
    radix = cfg_.max_branch;
    stats_.truncated = true;
  }

  std::uint64_t choice = 0;
  if (radix > 1) {
    if (depth_ < trail_.size()) {
      const Node& node = trail_[depth_];
      if (node.pinned && node.chosen >= radix) {
        throw std::invalid_argument(
            "DporScheduler: forced choice " + std::to_string(node.chosen) +
            " at depth " + std::to_string(depth_) +
            " is out of range: that choice point has " + std::to_string(radix) +
            " alternatives");
      }
      choice = node.chosen;  // forced prefix / replayed DFS path
    } else {
      Node node;
      node.alternatives = radix;
      trail_.push_back(node);
      ++stats_.choice_points;
      // Count the reduction once, when the batch is first discovered: a
      // reduction-free enumerator would have tried n! orderings here.
      const std::uint64_t unreduced = saturating_factorial(tags.size());
      stats_.orderings_pruned +=
          unreduced == kSaturated ? kSaturated - radix : unreduced - radix;
    }
    ++depth_;
  }

  if (choice == 0) return;  // identity = the canonical (time, seq) order

  // Decompose the mixed-radix choice into one permutation index per group
  // (first group = least significant digit) and apply each as the idx-th
  // lexicographic permutation of that group's own canonical positions.
  // Cross-group interleaving is untouched: order[] slots outside the group
  // keep their identity assignment.
  for (const Group& g : groups_) {
    const std::uint64_t digits =
        std::min(saturating_factorial(g.size), cfg_.max_branch);
    if (digits <= 1) continue;
    std::uint64_t idx = choice % digits;
    choice /= digits;
    positions_.clear();
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (tags[i] == g.tag) positions_.push_back(i);
    }
    pool_ = positions_;
    for (const std::size_t position : positions_) {
      const std::uint64_t f = saturating_factorial(pool_.size() - 1);
      const std::size_t pick =
          std::min(static_cast<std::size_t>(idx / f), pool_.size() - 1);
      idx %= f;
      order[position] = pool_[pick];
      pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
}

DporStats explore_schedules(
    const DporConfig& config,
    const std::function<bool(DporScheduler& scheduler)>& body) {
  DporScheduler scheduler(config);
  bool stop = false;
  do {
    scheduler.begin_run();
    stop = body(scheduler);
    // On stop, advance() is skipped so the trail still holds the stopping
    // run's choices — the body typically saved scheduler.choices() already.
  } while (!stop && scheduler.advance());
  return scheduler.stats();
}

}  // namespace mra::check
