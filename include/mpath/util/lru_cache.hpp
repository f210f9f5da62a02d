// Least-recently-used cache keyed by the full key: the one LRU in mpath.
//
// Algorithm 1 of the paper looks a configuration up before it solves theta.
// In mpath that lookup is the plan cache (pipeline::GraphCache), and the
// collective chain cache (pipeline::ChainController) is the same mechanism
// one level up; both are this class. What every user relies on:
//   * The map is keyed by the full key, never by a hash bucket address, so
//     two distinct keys cannot alias: a hash collision only lengthens a
//     bucket walk.
//   * Lookup is heterogeneous when Hash and Eq are transparent (C++20), so
//     a caller can probe with a borrowed view of the key and a hit
//     allocates nothing.
//   * Every entry carries a version stamp (a calibration snapshot version).
//     A lookup under a different version drops the entry and reports it
//     stale, so the caller recomputes under the current version.
//   * Capacity 0 means unbounded; otherwise the least-recently-used entry
//     is evicted once the size exceeds the capacity.
//   * Replacing an entry in place keeps its recency node (moved to the
//     front), so the recency list never points at a dead or foreign entry.
//
// Single-threaded: a cache shared across threads is locked by its owner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace mpath::util {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;         ///< absent or stale lookups
  std::uint64_t inserts = 0;        ///< new entries and in-place replacements
  std::uint64_t evictions = 0;      ///< entries dropped by the capacity bound
  std::uint64_t invalidations = 0;  ///< stale lookups (entry dropped)
};

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Eq = std::equal_to<>>
class LruCache {
 public:
  /// What find() saw: `value` is set on a hit; `stale` when an entry for
  /// the key existed under another version and has just been dropped.
  struct Found {
    Value* value = nullptr;
    bool stale = false;
  };

  explicit LruCache(std::size_t capacity = 0) : capacity_(capacity) {}
  LruCache(const LruCache&) = delete;  // the recency list points into map_
  LruCache& operator=(const LruCache&) = delete;

  /// Look `key` up under `version`, refreshing its recency on a hit. `key`
  /// may be any type Hash and Eq accept.
  template <typename K>
  [[nodiscard]] Found find(const K& key, std::uint64_t version) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return {};
    }
    if (it->second.version != version) {
      ++stats_.misses;
      ++stats_.invalidations;
      unlink(it);
      return {nullptr, true};
    }
    ++stats_.hits;
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return {&it->second.value, false};
  }

  /// Store `value` under `key` stamped with `version`, replacing a resident
  /// entry in place. Evicts past capacity; the entry just written is the
  /// most recent, so it always survives.
  void insert(Key key, Value value, std::uint64_t version) {
    auto [it, fresh] = map_.try_emplace(std::move(key));
    Entry& e = it->second;
    e.value = std::move(value);
    e.version = version;
    if (fresh) {
      recency_.push_front(&it->first);
      e.recency = recency_.begin();
    } else {
      recency_.splice(recency_.begin(), recency_, e.recency);
    }
    ++stats_.inserts;
    while (capacity_ > 0 && map_.size() > capacity_) {
      unlink(map_.find(*recency_.back()));
      ++stats_.evictions;
    }
  }

  /// Drop the entry for `key` if present (no counter moves).
  template <typename K>
  bool erase(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    unlink(it);
    return true;
  }

  /// Visit every resident value, most recently used first.
  template <typename F>
  void for_each(F&& f) {
    for (const Key* k : recency_) f(map_.find(*k)->second.value);
  }

  void clear() {
    recency_.clear();
    map_.clear();
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] const LruStats& stats() const { return stats_; }

 private:
  struct Entry {
    Value value{};
    std::uint64_t version = 0;
    /// This entry's node in recency_ (most recent first). Map nodes never
    /// move, so the key pointer it holds stays valid across rehashes.
    typename std::list<const Key*>::iterator recency;
  };
  using Map = std::unordered_map<Key, Entry, Hash, Eq>;

  void unlink(typename Map::iterator it) {
    recency_.erase(it->second.recency);
    map_.erase(it);
  }

  std::size_t capacity_;
  Map map_;
  std::list<const Key*> recency_;
  LruStats stats_;
};

}  // namespace mpath::util
