#include "mpath/util/lru_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mu = mpath::util;

namespace {

using Cache = mu::LruCache<std::uint64_t, std::string>;

/// Every key lands in one bucket: only full-key equality tells entries
/// apart.
struct ConstantHash {
  std::size_t operator()(std::uint64_t) const { return 42; }
};

}  // namespace

// Regression for the replace path: replacing a resident entry (here after a
// version bump, as a calibration publication does) must keep the entry's
// own recency node. It once repointed the entry at another key's node, so a
// later eviction left a dangling recency iterator and the next hit spliced
// freed memory (ASan/UBSan CI replays this).
TEST(LruCache, ReplaceInPlaceThenEvictKeepsRecencyValid) {
  Cache cache(2);
  std::uint64_t version = 0;
  for (int round = 0; round < 8; ++round) {
    cache.insert(1, "a" + std::to_string(round), version);
    cache.insert(2, "b" + std::to_string(round), version);
    ++version;
    // Both residents are stale now: re-insert in place and hit them.
    cache.insert(1, "a", version);
    cache.insert(2, "b", version);
    ASSERT_NE(cache.find(2, version).value, nullptr);
    // A third key evicts the least recent (1); the survivor still hits.
    cache.insert(3, "c", version);
    const auto survivor = cache.find(2, version);
    ASSERT_NE(survivor.value, nullptr);
    EXPECT_EQ(*survivor.value, "b");
    EXPECT_EQ(cache.find(1, version).value, nullptr);
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
  }
  EXPECT_EQ(cache.stats().evictions, 8u);
  EXPECT_EQ(cache.stats().hits, 16u);
}

// The map is keyed by the full key: with every key hashing alike, distinct
// keys coexist and a lookup only ever returns its own key's value.
TEST(LruCache, ConstantHashKeysNeverAlias) {
  mu::LruCache<std::uint64_t, std::uint64_t, ConstantHash> cache;
  for (std::uint64_t k = 1; k <= 8; ++k) cache.insert(k, k * 10, 0);
  EXPECT_EQ(cache.size(), 8u);
  for (std::uint64_t k = 1; k <= 8; ++k) {
    const auto found = cache.find(k, 0);
    ASSERT_NE(found.value, nullptr) << k;
    EXPECT_EQ(*found.value, k * 10);
  }
  EXPECT_EQ(cache.find(9, 0).value, nullptr);
  EXPECT_EQ(cache.stats().hits, 8u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCache, VersionBumpInvalidatesAndCounts) {
  Cache cache;
  cache.insert(7, "old", 1);
  ASSERT_NE(cache.find(7, 1).value, nullptr);
  // A newer version drops the entry and reports it stale, once.
  const auto stale = cache.find(7, 2);
  EXPECT_EQ(stale.value, nullptr);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(cache.size(), 0u);
  const auto gone = cache.find(7, 2);
  EXPECT_EQ(gone.value, nullptr);
  EXPECT_FALSE(gone.stale);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  // Recomputed under the new version: hits again.
  cache.insert(7, "new", 2);
  ASSERT_NE(cache.find(7, 2).value, nullptr);
  EXPECT_EQ(*cache.find(7, 2).value, "new");
}

TEST(LruCache, CapacityBoundsSize) {
  Cache cache(2);
  cache.insert(1, "a", 0);
  cache.insert(2, "b", 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert(3, "c", 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().inserts, 3u);
}

TEST(LruCache, HitRefreshesRecency) {
  Cache cache(2);
  cache.insert(1, "a", 0);
  cache.insert(2, "b", 0);
  // Touch 1 so 2 is least recent when 3 overflows the bound.
  ASSERT_NE(cache.find(1, 0).value, nullptr);
  cache.insert(3, "c", 0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.find(1, 0).value, nullptr);  // survived
  EXPECT_EQ(cache.find(2, 0).value, nullptr);  // evicted
  std::vector<std::string> order;
  cache.for_each([&](const std::string& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<std::string>{"a", "c"}));
}

TEST(LruCache, ZeroCapacityMeansUnbounded) {
  Cache cache;
  for (std::uint64_t k = 1; k <= 32; ++k) cache.insert(k, "v", 0);
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.erase(5));
  EXPECT_FALSE(cache.erase(5));
  EXPECT_EQ(cache.size(), 31u);
}
