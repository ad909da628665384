// Unit + property tests for ResourceSet (the bitset behind every protocol's
// TRequired/TOwned logic).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resource_set.hpp"
#include "sim/random.hpp"

namespace mra {
namespace {

TEST(ResourceSet, BasicInsertEraseContains) {
  ResourceSet s(100);
  EXPECT_TRUE(s.empty());
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(99);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(1));
  s.erase(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.size(), 3u);
}

TEST(ResourceSet, DuplicateInsertEraseAreIdempotent) {
  ResourceSet s(10);
  s.insert(5);
  s.insert(5);
  EXPECT_EQ(s.size(), 1u);
  s.erase(5);
  s.erase(5);
  EXPECT_EQ(s.size(), 0u);
}

TEST(ResourceSet, OutOfRangeThrows) {
  ResourceSet s(10);
  EXPECT_THROW(s.insert(10), std::out_of_range);
  EXPECT_THROW(s.insert(-1), std::out_of_range);
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(10));
}

TEST(ResourceSet, UniverseMismatchThrows) {
  ResourceSet a(10);
  ResourceSet b(20);
  EXPECT_THROW((void)a.subset_of(b), std::invalid_argument);
  EXPECT_THROW((void)a.intersects(b), std::invalid_argument);
  EXPECT_THROW(a |= b, std::invalid_argument);
}

TEST(ResourceSet, SubsetAndIntersection) {
  ResourceSet a(128, {1, 70, 100});
  ResourceSet b(128, {1, 2, 70, 100, 127});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  ResourceSet c(128, {3, 4});
  EXPECT_FALSE(a.intersects(c));
  ResourceSet empty(128);
  EXPECT_TRUE(empty.subset_of(a));
  EXPECT_FALSE(empty.intersects(a));
}

TEST(ResourceSet, UnionDifferenceIntersection) {
  ResourceSet a(64, {0, 1, 2});
  ResourceSet b(64, {2, 3});
  EXPECT_EQ(a.set_union(b), ResourceSet(64, {0, 1, 2, 3}));
  EXPECT_EQ(a.set_difference(b), ResourceSet(64, {0, 1}));
  EXPECT_EQ(a.set_intersection(b), ResourceSet(64, {2}));
  a |= b;
  EXPECT_EQ(a.size(), 4u);
  a -= b;
  EXPECT_EQ(a, ResourceSet(64, {0, 1}));
}

TEST(ResourceSet, ToVectorSorted) {
  ResourceSet s(80, {7, 3, 41});
  EXPECT_EQ(s.to_vector(), (std::vector<ResourceId>{3, 7, 41}));
  EXPECT_TRUE(ResourceSet(5).to_vector().empty());
}

TEST(ResourceSet, ForEachVisitsAscending) {
  ResourceSet s(200, {199, 0, 64, 65, 128});
  std::vector<ResourceId> seen;
  s.for_each([&](ResourceId r) { seen.push_back(r); });
  EXPECT_EQ(seen, (std::vector<ResourceId>{0, 64, 65, 128, 199}));
}

TEST(ResourceSet, NegativeUniverseThrows) {
  try {
    (void)ResourceSet(-3);
    FAIL() << "negative universe accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos) << e.what();
  }
}

TEST(ResourceSet, FitsInThirtyTwoBytes) {
  // Request sets are copied into every ReqItem, driver and collector.
  EXPECT_LE(sizeof(ResourceSet), 32u);
}

// Universes on both sides of the inline capacity (128 ids, two words).
constexpr ResourceId kUniverses[] = {0, 1, 64, 80, 128, 129, 1000};

/// Every `stride`-th id from `offset`, plus the last id: touches the first
/// and the last word of the universe.
std::vector<ResourceId> pattern(ResourceId universe, int offset, int stride) {
  std::set<ResourceId> ids;
  for (ResourceId r = offset; r < universe; r += stride) ids.insert(r);
  if (universe > 0) ids.insert(universe - 1);
  return {ids.begin(), ids.end()};
}

ResourceSet make_set(ResourceId universe, const std::vector<ResourceId>& ids) {
  ResourceSet s(universe);
  for (ResourceId r : ids) s.insert(r);
  return s;
}

/// `s` holds exactly `ids` over `universe`, and equality and the set
/// operations agree with a freshly built set of the same members.
void expect_holds(const ResourceSet& s, ResourceId universe,
                  const std::vector<ResourceId>& ids) {
  EXPECT_EQ(s.universe_size(), universe);
  EXPECT_EQ(s.size(), ids.size());
  EXPECT_EQ(s.to_vector(), ids);
  const ResourceSet fresh = make_set(universe, ids);
  const ResourceSet none(universe);
  EXPECT_EQ(s, fresh);
  EXPECT_EQ(s == none, ids.empty());
  EXPECT_TRUE(s.subset_of(fresh));
  EXPECT_TRUE(none.subset_of(s));
  EXPECT_EQ(s.intersects(fresh), !ids.empty());
  EXPECT_EQ(s.set_union(none), fresh);
  EXPECT_EQ(s.set_intersection(fresh), fresh);
  EXPECT_TRUE(s.set_difference(fresh).empty());
}

TEST(ResourceSet, CopyAndMoveAcrossInlineAndHeapUniverses) {
  for (ResourceId ua : kUniverses) {
    for (ResourceId ub : kUniverses) {
      SCOPED_TRACE("universe " + std::to_string(ua) + " <- " +
                   std::to_string(ub));
      const std::vector<ResourceId> ids_a = pattern(ua, 0, 7);
      const std::vector<ResourceId> ids_b = pattern(ub, 3, 5);
      const ResourceSet a = make_set(ua, ids_a);

      // Copy construction is deep: changing the copy leaves `a` alone.
      ResourceSet copy(a);
      expect_holds(copy, ua, ids_a);
      if (ua > 0) {
        copy.erase(ua - 1);
        EXPECT_TRUE(a.contains(ua - 1));
        copy.insert(ua - 1);
      }

      // Move construction; the moved-from set is empty over universe 0
      // and can be reassigned.
      ResourceSet moved(std::move(copy));
      expect_holds(moved, ua, ids_a);
      expect_holds(copy, 0, {});
      copy = make_set(ub, ids_b);
      expect_holds(copy, ub, ids_b);

      // Copy assignment, from a different (or the same) universe.
      ResourceSet assigned = make_set(ub, ids_b);
      assigned = a;
      expect_holds(assigned, ua, ids_a);
      const ResourceSet& alias = assigned;
      assigned = alias;
      expect_holds(assigned, ua, ids_a);
      if (ua > 0) {
        assigned.erase(ua - 1);
        EXPECT_TRUE(a.contains(ua - 1));
      }

      // Move assignment; the source is reassigned by move, then destroyed.
      ResourceSet target = make_set(ub, ids_b);
      ResourceSet source(a);
      target = std::move(source);
      expect_holds(target, ua, ids_a);
      expect_holds(source, 0, {});
      source = ResourceSet(ub);
      expect_holds(source, ub, {});
      expect_holds(a, ua, ids_a);
    }
  }
}

// Property test against std::set as the reference model.
TEST(ResourceSetProperty, MatchesReferenceModel) {
  sim::Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    const ResourceId universe = static_cast<ResourceId>(rng.uniform_int(1, 300));
    ResourceSet a(universe);
    ResourceSet b(universe);
    std::set<ResourceId> ra;
    std::set<ResourceId> rb;
    for (int op = 0; op < 200; ++op) {
      const auto r = static_cast<ResourceId>(rng.uniform_int(0, universe - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0: a.insert(r); ra.insert(r); break;
        case 1: a.erase(r); ra.erase(r); break;
        case 2: b.insert(r); rb.insert(r); break;
        default: b.erase(r); rb.erase(r); break;
      }
    }
    ASSERT_EQ(a.size(), ra.size());
    ASSERT_EQ(b.size(), rb.size());
    const bool ref_subset =
        std::includes(rb.begin(), rb.end(), ra.begin(), ra.end());
    ASSERT_EQ(a.subset_of(b), ref_subset);
    bool ref_intersects = false;
    for (ResourceId r : ra) ref_intersects |= rb.count(r) > 0;
    ASSERT_EQ(a.intersects(b), ref_intersects);
    std::vector<ResourceId> ref_vec(ra.begin(), ra.end());
    ASSERT_EQ(a.to_vector(), ref_vec);
  }
}

}  // namespace
}  // namespace mra
