#include "common/lru_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace nttpim {
namespace {

TEST(LruCache, CountsHitsAndMisses) {
  LruCache<int, int> cache(4);
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, 10);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 10);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LruCache, HoldsAtMostItsCapacity) {
  LruCache<int, int> cache(3);
  for (int k = 0; k < 10; ++k) cache.insert(k, k);
  for (int k = 0; k < 7; ++k) EXPECT_EQ(cache.find(k), nullptr) << k;
  for (int k = 7; k < 10; ++k) EXPECT_NE(cache.find(k), nullptr) << k;
  EXPECT_THROW((LruCache<int, int>(0)), std::invalid_argument);
  EXPECT_THROW(cache.insert(9, 0), std::invalid_argument);  // cached already
  EXPECT_EQ(*cache.find(9), 9);
}

// A full cache drops the entry found or inserted least recently.
TEST(LruCache, EvictsTheLeastRecentlyUsedEntry) {
  LruCache<int, int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  ASSERT_NE(cache.find(1), nullptr);  // 2 is now least recent
  cache.insert(3, 30);
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);  // 3 is now least recent
  cache.insert(4, 40);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_EQ(*cache.find(1), 10);
  EXPECT_EQ(*cache.find(4), 40);
}

// The schedule memo's key type: order and length both distinguish keys.
TEST(LruCache, VectorKeysCompareByElement) {
  using Key = std::vector<std::uint64_t>;
  LruCache<Key, int> cache(8);
  cache.insert({1, 0, 2, 0}, 1);
  cache.insert({2, 0, 1, 0}, 2);
  cache.insert({1, 2, 0, 0}, 3);
  EXPECT_EQ(*cache.find({1, 0, 2, 0}), 1);
  EXPECT_EQ(*cache.find({2, 0, 1, 0}), 2);
  EXPECT_EQ(*cache.find({1, 2, 0, 0}), 3);
  EXPECT_EQ(cache.find({1, 0, 2}), nullptr);
}

}  // namespace
}  // namespace nttpim
