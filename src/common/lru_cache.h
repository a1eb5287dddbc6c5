// Bounded least-recently-used map: a fixed entry count, hit and miss
// counters.
//
// Single-driver, like mapping::PlanCache: every member, the counters
// included, is called from one thread at a time, and debug builds assert
// that each access to the entries comes from the owning thread. Keys are
// ordered (std::map), as the repo's other caches key on structs and
// vectors with operator<=>; a lookup costs O(log capacity) key compares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <utility>

#include "common/check.h"
#include "sync/thread_confined.h"

namespace nttpim {

template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    NTTPIM_EXPECT_MSG(capacity >= 1, "an LRU cache holds at least one entry");
  }

  /// The value filed under `key`, which becomes the most recently used
  /// entry, or nullptr. Counts one hit or one miss. The pointer stays
  /// valid until the next insert().
  const Value* find(const Key& key) {
    State& s = *state_;
    const auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    s.entries.splice(s.entries.begin(), s.entries, it->second);
    return &it->second->second;
  }

  /// File `value` under `key`, which must not be cached yet (insert after
  /// a find() miss), as the most recently used entry; a full cache first
  /// evicts its least recently used entry.
  void insert(Key key, Value value) {
    State& s = *state_;
    NTTPIM_EXPECT_MSG(!s.index.contains(key), "key is already cached");
    if (s.entries.size() == capacity_) {
      s.index.erase(s.entries.back().first);
      s.entries.pop_back();
    }
    s.entries.emplace_front(std::move(key), std::move(value));
    s.index.emplace(s.entries.front().first, s.entries.begin());
  }

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

 private:
  using Entries = std::list<std::pair<Key, Value>>;
  struct State {
    Entries entries;  ///< most recently used first
    std::map<Key, typename Entries::iterator> index;
  };

  std::size_t capacity_;
  sync::ThreadConfined<State> state_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace nttpim
