// Tests for the flat containers behind the per-site memory layout
// (DESIGN.md §13): SmallVector inline/spill mechanics, FlatMap ordering
// semantics (which LASS flush order depends on), the shared spill pool,
// and the end-to-end determinism goldens: a LASS run's event stream,
// byte-identical across the std::map -> FlatMap migration, and the same
// run's stream under every algorithm.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/factory.hpp"
#include "check/monitor.hpp"
#include "core/arena.hpp"
#include "core/flat_map.hpp"
#include "core/resource_map.hpp"
#include "core/small_vector.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "scenario/runner.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace {

using mra::core::Arena;
using mra::core::FlatMap;
using mra::core::FreeListPool;
using mra::core::ResourceMap;
using mra::core::SmallVector;

TEST(SmallVector, PushBackPreservesOrderAcrossSpill) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.inline_storage());
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_FALSE(v.inline_storage());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 99);
}

TEST(SmallVector, StaysInlineAtCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.inline_storage());  // spill happens on the 5th element
  v.push_back(4);
  EXPECT_FALSE(v.inline_storage());
}

TEST(SmallVector, InsertAndEraseShiftElements) {
  SmallVector<int, 2> v;
  v.push_back(1);
  v.push_back(3);
  v.insert(v.begin() + 1, 2);  // forces a spill too (capacity 2 -> 3)
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  EXPECT_EQ(v[2], 3);

  v.erase(v.begin());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[1], 3);

  v.erase(v.begin(), v.end());
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, MoveStealsHeapBufferAndMovesInlineElements) {
  SmallVector<std::string, 2> inline_v;
  inline_v.push_back("a");
  SmallVector<std::string, 2> from_inline = std::move(inline_v);
  ASSERT_EQ(from_inline.size(), 1u);
  EXPECT_EQ(from_inline[0], "a");
  EXPECT_TRUE(from_inline.inline_storage());

  SmallVector<std::string, 2> spilled;
  for (int i = 0; i < 8; ++i) spilled.push_back(std::to_string(i));
  const std::string* heap = spilled.data();
  SmallVector<std::string, 2> from_heap = std::move(spilled);
  EXPECT_EQ(from_heap.data(), heap);  // buffer stolen, not copied
  ASSERT_EQ(from_heap.size(), 8u);
  EXPECT_EQ(from_heap[7], "7");
}

TEST(FlatMap, IterationIsAscendingKeyOrder) {
  // LASS flushes its aggregation buffers by iterating the per-site map;
  // replay stays byte-identical only because this order matches std::map.
  FlatMap<int, std::string, 2> m;
  m[30] = "c";
  m[10] = "a";
  m[20] = "b";
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
}

TEST(FlatMap, FindEraseAndDefaultConstruct) {
  FlatMap<int, int, 2> m;
  EXPECT_EQ(m[5], 0);  // operator[] default-constructs, std::map semantics
  m[5] = 42;
  EXPECT_TRUE(m.contains(5));
  EXPECT_EQ(m.at(5), 42);
  EXPECT_EQ(m.find(6), m.end());
  EXPECT_THROW((void)m.at(6), std::out_of_range);

  auto [it, inserted] = m.try_emplace(6, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 7);
  auto [it2, inserted2] = m.try_emplace(6, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 7);

  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_EQ(m.erase(5), 0u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, SpillsToHeapBeyondInlineCapacity) {
  FlatMap<int, int, 4> m;
  for (int i = 0; i < 4; ++i) m[i] = i;
  EXPECT_TRUE(m.inline_storage());
  m[4] = 4;
  EXPECT_FALSE(m.inline_storage());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(m.at(i), i);
}

/// (key, value) pairs of a ResourceMap, in its iteration order.
template <typename V>
std::vector<std::pair<int, V>> entries_of(const ResourceMap<V>& m) {
  std::vector<std::pair<int, V>> out;
  m.for_each([&](int r, const V& v) { out.emplace_back(r, v); });
  return out;
}

TEST(ResourceMap, FindTryEmplaceEraseAndClear) {
  ResourceMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_FALSE(m.contains(3));

  auto [v, inserted] = m.try_emplace(3, 30);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 30);
  auto [v2, inserted2] = m.try_emplace(3, 99);
  EXPECT_FALSE(inserted2);  // existing value wins
  EXPECT_EQ(v2, m.find(3));
  EXPECT_EQ(*v2, 30);

  EXPECT_EQ(m[7], 0);  // operator[] default-constructs, std::map semantics
  m[7] = 70;
  m[1] = 10;
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(entries_of(m),
            (std::vector<std::pair<int, int>>{{1, 10}, {3, 30}, {7, 70}}));

  EXPECT_EQ(m.erase(3), 1u);
  EXPECT_EQ(m.erase(3), 0u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_EQ(*m.find(7), 70);  // later values shift down, keys stay bound
  EXPECT_EQ(entries_of(m),
            (std::vector<std::pair<int, int>>{{1, 10}, {7, 70}}));

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.contains(7));
  m[7] = 1;  // usable after clear
  EXPECT_EQ(m.size(), 1u);
}

TEST(ResourceMap, KeysAcrossWordBoundaries) {
  // Keys on both sides of each 64-bit word edge, inserted out of order and
  // beyond the two inline words, rank into the right slots.
  const std::vector<int> keys{128, 63, 0, 127, 64, 200, 1};
  ResourceMap<int> m;
  for (int k : keys) m[k] = k * 10;
  for (int k : keys) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), k * 10) << k;
  }
  for (int absent : {2, 62, 65, 126, 129, 199, 201, 1000}) {
    EXPECT_FALSE(m.contains(absent)) << absent;
    EXPECT_EQ(m.find(absent), nullptr) << absent;
  }
  std::vector<int> order;
  m.for_each([&](int r, const int& v) {
    EXPECT_EQ(v, r * 10);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 63, 64, 127, 128, 200}));

  EXPECT_EQ(m.erase(64), 1u);
  EXPECT_EQ(m.erase(127), 1u);
  EXPECT_EQ(*m.find(63), 630);
  EXPECT_EQ(*m.find(128), 1280);
  EXPECT_EQ(*m.find(200), 2000);
  EXPECT_EQ(m.size(), 5u);
}

TEST(ResourceMap, MatchesFlatMapUnderRandomOperations) {
  // Differential test: 10k seeded operations applied to a ResourceMap and
  // to the FlatMap it replaces must leave identical contents, in ascending
  // key order, after every step.
  mra::sim::Rng rng(20261016);
  ResourceMap<std::uint64_t> map;
  FlatMap<int, std::uint64_t, 2> ref;
  for (int step = 0; step < 10000; ++step) {
    const int r = static_cast<int>(rng.uniform_int(0, 200));
    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1: {
        const std::uint64_t value = rng.next_u64();
        const auto [v, inserted] = map.try_emplace(r, value);
        const auto [it, ref_inserted] = ref.try_emplace(r, value);
        ASSERT_EQ(inserted, ref_inserted) << "step " << step;
        ASSERT_EQ(*v, it->second) << "step " << step;
        break;
      }
      case 2: {
        const std::uint64_t value = rng.next_u64();
        map[r] = value;
        ref[r] = value;
        break;
      }
      case 3:
        ASSERT_EQ(map.erase(r), ref.erase(r)) << "step " << step;
        break;
      default: {
        const std::uint64_t* v = map.find(r);
        const auto it = ref.find(r);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second) << "step " << step;
        }
        if (rng.uniform_int(0, 499) == 0) {
          map.clear();
          ref.clear();
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    const auto got = entries_of(map);
    const std::vector<std::pair<int, std::uint64_t>> want(ref.begin(),
                                                          ref.end());
    ASSERT_EQ(got, want) << "step " << step;
  }
}

TEST(FreeListPool, RecyclesBlocksInLifoOrder) {
  FreeListPool pool;
  void* a = pool.allocate(64);
  void* b = pool.allocate(64);
  const std::size_t reserved = pool.arena().bytes_allocated();
  pool.deallocate(a, 64);
  pool.deallocate(b, 64);
  EXPECT_EQ(pool.allocate(64), b);  // LIFO: last freed, first reused
  EXPECT_EQ(pool.allocate(64), a);
  // Recycling never touched the arena again.
  EXPECT_EQ(pool.arena().bytes_allocated(), reserved);
}

TEST(ArenaTest, BumpAllocatesAndTracksBytes) {
  Arena arena(/*first_chunk_bytes=*/128);
  void* p = arena.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_allocated(), 100u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
  // A request larger than the current chunk grows geometrically.
  void* q = arena.allocate(1000);
  ASSERT_NE(q, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 1000u);
}

#ifndef MRA_CONTAINER_POOL_DISABLED
TEST(ContainerPool, SmallVectorSpillRecyclesThroughPool) {
  const std::size_t before = mra::core::container_spill_pool()
                                 .arena()
                                 .bytes_allocated();
  for (int round = 0; round < 8; ++round) {
    SmallVector<std::uint64_t, 2> v;
    for (int i = 0; i < 16; ++i) v.push_back(static_cast<std::uint64_t>(i));
  }
  const std::size_t after = mra::core::container_spill_pool()
                                .arena()
                                .bytes_allocated();
  // All 8 rounds spill through the same recycled free-list blocks: the
  // arena grows for the first round only (grow chain 32 -> 64 -> 128 B).
  EXPECT_LE(after - before, 32u + 64u + 128u);
}
#endif  // MRA_CONTAINER_POOL_DISABLED

// ---------------------------------------------------------------------------
// Determinism golden: the exact event stream of a LASS-with-loan run,
// required to stay byte-identical forever. It was first pinned as a string
// trace before the flat-container migration (std::map / std::vector state);
// at commit f2eb510, where that pin still held, the run's event stream was
// captured and replaced it. If FlatMap iteration order, lazy token
// materialization, or the sparse FIFO watermark ever diverge from the dense
// originals, the FNV hash moves and this fails.
//
// The run is read through a check::Monitor whose event window holds all of
// it, so recent_events() is the run's complete text form: every request,
// grant, release, send and delivery, in emission order.
// ---------------------------------------------------------------------------

namespace golden {

/// FNV-1a of the lines, each followed by a newline.
std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::string& line : lines) {
    for (unsigned char c : line + '\n') {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The pinned run: φ = 4 high load on 8 sites and 16 resources, 0.6 ms
/// links, seed 7, 500 simulated ms, every oracle on.
struct PinnedRun {
  explicit PinnedRun(mra::algo::Algorithm algorithm) {
    mra::algo::SystemConfig& sys = spec.system;
    sys.algorithm = algorithm;
    sys.num_sites = 8;
    sys.num_resources = 16;
    sys.seed = 7;
    sys.network_latency = mra::sim::from_ms(0.6);
    spec.workload = mra::workload::high_load(/*phi=*/4, /*M=*/16);
    system = mra::algo::AllocationSystem::create(sys);
  }

  /// Starts the system, attaches the monitor, runs the workload and returns
  /// the monitor's window, oldest first.
  std::vector<std::string> run() {
    system->start();
    monitor.attach(*system);
    runner.emplace(*system, spec, spec.system.seed ^ 0x9E3779B97F4A7C15ULL);
    runner->start();
    system->simulator().run(mra::sim::from_ms(500));
    return monitor.recent_events();
  }

  static mra::check::MonitorConfig whole_run_window() {
    mra::check::MonitorConfig config;
    config.num_sites = 8;
    config.num_resources = 16;
    config.event_window = 2048;  // above every pinned run's event count
    return config;
  }

  mra::scenario::ScenarioSpec spec;
  std::unique_ptr<mra::algo::AllocationSystem> system;
  mra::check::Monitor monitor{whole_run_window()};
  std::optional<mra::scenario::ScenarioRunner> runner;
};

}  // namespace golden

TEST(LassDeterminism, LassTraceByteIdentical) {
  golden::PinnedRun run(mra::algo::Algorithm::kLassWithLoan);
  const std::vector<std::string> events = run.run();

  // Values captured at commit f2eb510; see DESIGN.md §13.
  EXPECT_EQ(run.monitor.events_seen(), events.size());  // no wrap
  EXPECT_TRUE(run.monitor.ok());
  ASSERT_EQ(events.size(), 1061u);
  EXPECT_EQ(golden::fnv1a(events), 16720640224842483172ULL);
  EXPECT_EQ(events.front(), "[0.788946ms] s0 request {2,8,10,11} seq=1");
  EXPECT_EQ(events.back(),
            "[499.871ms] s7 send -> s0 Lass.Token #468 (262B)");

  EXPECT_EQ(run.runner->collector().completed(), 40u);
  EXPECT_EQ(run.system->network().total_messages(), 468u);
  EXPECT_EQ(run.system->network().total_bytes(), 45194u);
}

// The same run under every factory algorithm, pinned at commit f2eb510:
// the number of events and the FNV-1a of their text form.
TEST(EventStreamDeterminism, EveryAlgorithmByteIdentical) {
  struct Pin {
    mra::algo::Algorithm algorithm;
    std::size_t events;
    std::uint64_t fnv;
  };
  using mra::algo::Algorithm;
  const Pin pins[] = {
      {Algorithm::kIncremental, 769, 9018526811261329667ULL},
      {Algorithm::kBouabdallahLaforest, 547, 8151453622901135898ULL},
      {Algorithm::kLassWithoutLoan, 814, 2741602935950824355ULL},
      {Algorithm::kLassWithLoan, 1061, 16720640224842483172ULL},
      {Algorithm::kCentralSharedMemory, 174, 6104750176055444614ULL},
      {Algorithm::kMaddi, 864, 2485510196869792271ULL},
  };
  ASSERT_EQ(std::size(pins), mra::algo::all_algorithms().size());
  for (const Pin& pin : pins) {
    SCOPED_TRACE(mra::algo::cli_name(pin.algorithm));
    golden::PinnedRun run(pin.algorithm);
    const std::vector<std::string> events = run.run();
    EXPECT_EQ(run.monitor.events_seen(), events.size());  // no wrap
    EXPECT_TRUE(run.monitor.ok());
    EXPECT_EQ(events.size(), pin.events);
    EXPECT_EQ(golden::fnv1a(events), pin.fnv);
  }
}

}  // namespace
