#include <gtest/gtest.h>

#include <list>
#include <map>

#include "core/meta.hpp"

namespace phftl::core {
namespace {

Geometry meta_geom() {
  Geometry g;
  g.num_dies = 4;
  g.blocks_per_die = 16;   // 16 superblocks
  g.pages_per_block = 32;  // 128 pages per superblock
  g.page_size = 4096;      // 102 entries per meta page
  return g;
}

MetaStore::Config meta_cfg(double cache_fraction = 0.01,
                           std::size_t min_pages = 2) {
  MetaStore::Config cfg;
  cfg.geom = meta_geom();
  cfg.cache_fraction = cache_fraction;
  cfg.min_cache_pages = min_pages;
  return cfg;
}

TEST(MetaStore, LayoutSolvesDataMetaSplit) {
  MetaStore store(meta_cfg());
  // 4096 / 40 = 102 entries per meta page; 128 pages → 2 meta + 126 data
  // (126 ≤ 2·102 ✓, and 1 meta page could only cover 102 < 127).
  EXPECT_EQ(store.entries_per_meta_page(), 102u);
  EXPECT_EQ(store.meta_pages_per_superblock(), 2u);
  EXPECT_EQ(store.data_pages_per_superblock(), 126u);
  EXPECT_EQ(store.total_meta_pages(), 32u);
}

TEST(MetaStore, PaperGeometryYields409Entries) {
  MetaStore::Config cfg;
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = 96;
  cfg.geom.pages_per_block = 64;  // 512-page superblocks
  cfg.geom.page_size = 16 * 1024;
  MetaStore store(cfg);
  EXPECT_EQ(store.entries_per_meta_page(), 409u);  // 16KB / 40B entries
  EXPECT_EQ(store.meta_pages_per_superblock(), 2u);
  EXPECT_EQ(store.data_pages_per_superblock(), 510u);
}

TEST(MetaStore, MppnGroupsConsecutiveDataPages) {
  MetaStore store(meta_cfg());
  const Geometry g = meta_geom();
  // Pages 0..101 of superblock 0 share meta page 0; 102.. map to 1.
  EXPECT_EQ(store.mppn_of(g.make_ppn(0, 0)), store.mppn_of(g.make_ppn(0, 101)));
  EXPECT_NE(store.mppn_of(g.make_ppn(0, 0)), store.mppn_of(g.make_ppn(0, 102)));
  // Different superblocks never share meta pages.
  EXPECT_NE(store.mppn_of(g.make_ppn(0, 0)), store.mppn_of(g.make_ppn(1, 0)));
}

TEST(MetaStore, PutGetRoundTrip) {
  MetaStore store(meta_cfg());
  MetaEntry e;
  e.write_time = 777;
  e.hidden[0] = 42;
  e.hidden[31] = -42;
  store.put(5, e);
  bool missed = false;
  const MetaEntry got = store.get(5, /*sb_open=*/true, &missed);
  EXPECT_FALSE(missed);  // open superblock: RAM buffer
  EXPECT_EQ(got.write_time, 777u);
  EXPECT_EQ(got.hidden[0], 42);
  EXPECT_EQ(got.hidden[31], -42);
  EXPECT_EQ(store.buffer_hits(), 1u);
}

TEST(MetaStore, ClosedSuperblockMissesThenHits) {
  MetaStore store(meta_cfg());
  bool missed = false;
  store.get(0, /*sb_open=*/false, &missed);
  EXPECT_TRUE(missed);  // first touch: meta page read from flash
  EXPECT_EQ(store.cache_misses(), 1u);
  store.get(1, false, &missed);
  EXPECT_FALSE(missed);  // neighbour shares the cached meta page
  EXPECT_EQ(store.cache_hits(), 1u);
  // A page in the second meta-page group misses separately.
  store.get(120, false, &missed);
  EXPECT_TRUE(missed);
}

TEST(MetaStore, LruEvictsColdestMetaPage) {
  MetaStore store(meta_cfg(0.0, /*min_pages=*/2));  // capacity 2
  const Geometry g = meta_geom();
  bool missed;
  store.get(g.make_ppn(0, 0), false, &missed);  // load mppn A
  store.get(g.make_ppn(1, 0), false, &missed);  // load mppn B
  store.get(g.make_ppn(0, 1), false, &missed);  // touch A (now MRU)
  EXPECT_FALSE(missed);
  store.get(g.make_ppn(2, 0), false, &missed);  // load C: evicts B (LRU)
  EXPECT_TRUE(missed);
  store.get(g.make_ppn(0, 2), false, &missed);  // A still cached
  EXPECT_FALSE(missed);
  store.get(g.make_ppn(1, 1), false, &missed);  // B was evicted
  EXPECT_TRUE(missed);
}

TEST(MetaStore, EraseInvalidatesCacheAndEntries) {
  MetaStore store(meta_cfg());
  const Geometry g = meta_geom();
  MetaEntry e;
  e.write_time = 1;
  store.put(g.make_ppn(3, 0), e);
  bool missed;
  store.get(g.make_ppn(3, 0), false, &missed);  // cache it
  store.on_superblock_erased(3);
  const MetaEntry got = store.get(g.make_ppn(3, 0), false, &missed);
  EXPECT_TRUE(missed);  // cached page was dropped
  EXPECT_EQ(got.write_time, kNeverWritten);  // entry reset
}

TEST(MetaStore, HitRateAccounting) {
  MetaStore store(meta_cfg());
  bool missed;
  store.get(0, false, &missed);
  for (int i = 1; i < 100; ++i) store.get(i, false, &missed);
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(store.cache_hits(), 99u);
  EXPECT_NEAR(store.cache_hit_rate(), 0.99, 1e-9);
}

TEST(MetaStore, CacheCapacityFollowsOnePercentRule) {
  MetaStore::Config cfg;
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = 1024;  // lots of superblocks
  cfg.geom.pages_per_block = 64;
  cfg.geom.page_size = 16 * 1024;
  cfg.min_cache_pages = 4;
  MetaStore store(cfg);
  EXPECT_EQ(store.cache_capacity_pages(),
            static_cast<std::size_t>(store.total_meta_pages() / 100));
}

// --- FlatMetaCache vs the reference implementation ---
//
// The flat open-addressed hash + array LRU must reproduce the paper's
// tree+list cache *exactly*: same hit/miss outcome, same eviction victim,
// same size, op for op. A divergence anywhere in a long randomized stream
// would shift every §V-B hit rate after it.

/// The reference implementation: std::map (red-black tree) keyed by MPPN →
/// std::list iterator, exactly the structure the paper names and exactly
/// what MetaStore shipped before the flat rework.
class ReferenceMetaCache {
 public:
  explicit ReferenceMetaCache(std::size_t capacity) : capacity_(capacity) {
    PHFTL_CHECK_MSG(capacity_ > 0, "cache capacity must be positive");
  }

  std::size_t size() const { return index_.size(); }

  CacheAccess access(std::uint64_t key) {
    CacheAccess out;
    auto it = index_.find(key);
    if (it != index_.end()) {
      out.hit = true;
      lru_.splice(lru_.begin(), lru_, it->second);
      return out;
    }
    if (index_.size() >= capacity_) {
      out.evicted = true;
      out.victim = lru_.back();
      lru_.pop_back();
      index_.erase(out.victim);
    }
    lru_.push_front(key);
    index_[key] = lru_.begin();
    return out;
  }

  bool erase(std::uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    index_.clear();
    lru_.clear();
  }

  template <typename Fn>
  void for_each_mru(Fn&& fn) const {
    for (const std::uint64_t key : lru_) fn(key);
  }

 private:
  std::size_t capacity_;
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::list<std::uint64_t> lru_;  // front = most recently used
};

TEST(MetaCacheDifferential, MillionRandomizedOpsMatchReference) {
  constexpr std::size_t kCapacity = 97;  // prime, forces probe collisions
  FlatMetaCache flat(kCapacity);
  ReferenceMetaCache ref(kCapacity);

  // Mixed op stream: mostly skewed accesses (hot subset for realistic hit
  // rates), interleaved with range erases (superblock-erase pattern) and
  // occasional full clears (power-cut cold start).
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr std::uint64_t kKeySpace = 4096;
  constexpr std::uint64_t kHotSpace = 64;

  for (std::size_t op = 0; op < 1'000'000; ++op) {
    const std::uint64_t dice = rnd() % 100;
    if (dice < 90) {  // touch-or-insert
      const std::uint64_t key =
          dice < 45 ? rnd() % kHotSpace : rnd() % kKeySpace;
      const CacheAccess a = flat.access(key);
      const CacheAccess b = ref.access(key);
      ASSERT_EQ(a.hit, b.hit) << "op " << op << " key " << key;
      ASSERT_EQ(a.evicted, b.evicted) << "op " << op << " key " << key;
      if (a.evicted) {
        ASSERT_EQ(a.victim, b.victim) << "op " << op << " key " << key;
      }
    } else if (dice < 99) {  // superblock erase: drop a small key range
      const std::uint64_t first = rnd() % kKeySpace;
      for (std::uint64_t k = first; k < first + 4; ++k)
        ASSERT_EQ(flat.erase(k), ref.erase(k)) << "op " << op << " key " << k;
    } else {  // cold start
      flat.clear();
      ref.clear();
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
  }

  // Final recency orders must agree element for element.
  std::vector<std::uint64_t> flat_order, ref_order;
  flat.for_each_mru([&](std::uint64_t k) { flat_order.push_back(k); });
  ref.for_each_mru([&](std::uint64_t k) { ref_order.push_back(k); });
  EXPECT_EQ(flat_order, ref_order);
}

TEST(MetaCacheDifferential, CapacityOneDegenerateCase) {
  FlatMetaCache flat(1);
  ReferenceMetaCache ref(1);
  for (std::uint64_t k : {5ull, 5ull, 9ull, 5ull, 9ull, 9ull}) {
    const CacheAccess a = flat.access(k);
    const CacheAccess b = ref.access(k);
    ASSERT_EQ(a.hit, b.hit);
    ASSERT_EQ(a.evicted, b.evicted);
    if (a.evicted) {
      ASSERT_EQ(a.victim, b.victim);
    }
  }
}

TEST(FlatMetaCache, EraseClosesProbeChains) {
  // Keys that collide under the power-of-two mask exercise backward-shift
  // deletion: after erasing the middle of a probe chain, the tail keys
  // must remain findable.
  FlatMetaCache cache(8);
  // With 16 slots, keys k and k + 16 * 0x... may or may not collide — use
  // enough keys to guarantee chains form at 50% load.
  for (std::uint64_t k = 0; k < 8; ++k) cache.access(k);
  EXPECT_EQ(cache.size(), 8u);
  for (std::uint64_t k = 0; k < 8; k += 2) EXPECT_TRUE(cache.erase(k));
  for (std::uint64_t k = 1; k < 8; k += 2) {
    EXPECT_TRUE(cache.contains(k)) << "key " << k << " lost after erase";
    EXPECT_TRUE(cache.access(k).hit);
  }
  EXPECT_EQ(cache.size(), 4u);
}

TEST(MetaStoreDeath, MetaPageOffsetsRejected) {
  MetaStore store(meta_cfg());
  const Geometry g = meta_geom();
  // Offsets ≥ data capacity are meta pages, not data pages.
  EXPECT_DEATH(store.mppn_of(g.make_ppn(0, 126)), "meta page");
  MetaEntry e;
  EXPECT_DEATH(store.put(g.make_ppn(0, 127), e), "data pages");
}

}  // namespace
}  // namespace phftl::core
