#include "core/resource_set.hpp"

#include <stdexcept>
#include <string>

namespace mra {

void ResourceSet::throw_negative_universe(ResourceId universe) {
  throw std::invalid_argument("ResourceSet: negative universe " +
                              std::to_string(universe));
}

void ResourceSet::check(ResourceId r) const {
  if (r < 0 || r >= universe_) {
    throw std::out_of_range("ResourceSet: id " + std::to_string(r) +
                            " outside universe [0, " +
                            std::to_string(universe_) + ")");
  }
}

void ResourceSet::require_same_universe(const ResourceSet& other) const {
  if (universe_ != other.universe_) {
    throw std::invalid_argument("ResourceSet: universe mismatch (" +
                                std::to_string(universe_) + " vs " +
                                std::to_string(other.universe_) + ")");
  }
}

bool ResourceSet::subset_of(const ResourceSet& other) const {
  require_same_universe(other);
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

bool ResourceSet::intersects(const ResourceSet& other) const {
  require_same_universe(other);
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

ResourceSet& ResourceSet::operator|=(const ResourceSet& other) {
  require_same_universe(other);
  std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  count_ = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] |= b[i];
    count_ += static_cast<std::uint32_t>(__builtin_popcountll(a[i]));
  }
  return *this;
}

ResourceSet& ResourceSet::operator-=(const ResourceSet& other) {
  require_same_universe(other);
  std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  count_ = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] &= ~b[i];
    count_ += static_cast<std::uint32_t>(__builtin_popcountll(a[i]));
  }
  return *this;
}

ResourceSet ResourceSet::set_union(const ResourceSet& other) const {
  ResourceSet out = *this;
  out |= other;
  return out;
}

ResourceSet ResourceSet::set_difference(const ResourceSet& other) const {
  ResourceSet out = *this;
  out -= other;
  return out;
}

ResourceSet ResourceSet::set_intersection(const ResourceSet& other) const {
  require_same_universe(other);
  ResourceSet out = *this;
  std::uint64_t* a = out.words();
  const std::uint64_t* b = other.words();
  out.count_ = 0;
  for (std::size_t i = 0; i < num_words(); ++i) {
    a[i] &= b[i];
    out.count_ += static_cast<std::uint32_t>(__builtin_popcountll(a[i]));
  }
  return out;
}

bool ResourceSet::operator==(const ResourceSet& other) const {
  if (universe_ != other.universe_ || count_ != other.count_) return false;
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::vector<ResourceId> ResourceSet::to_vector() const {
  std::vector<ResourceId> out;
  out.reserve(count_);
  for_each([&](ResourceId r) { out.push_back(r); });
  return out;
}

}  // namespace mra
