#include "mpath/pipeline/graph.hpp"

#include <algorithm>

namespace mpath::pipeline {

void TransferGraph::Path::split_chunks() {
  chunk_offsets.clear();
  chunk_sizes.clear();
  if (bytes == 0 || chunks < 1) return;
  const auto k = static_cast<std::uint64_t>(chunks);
  const std::uint64_t base = bytes / k;
  const std::uint64_t rem = bytes % k;
  std::size_t chunk_off = 0;
  for (std::uint64_t c = 0; c < k; ++c) {
    const auto sz = static_cast<std::size_t>(base + (c < rem ? 1 : 0));
    chunk_offsets.push_back(chunk_off);
    chunk_sizes.push_back(sz);
    chunk_off += sz;
  }
}

GraphCache::GraphCache(GraphCacheOptions options) : options_(options) {}

std::uint64_t GraphCache::cache_key(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    std::span<const topo::PathPlan> paths) const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(src);
  mix(dst);
  mix(bytes);
  for (const auto& p : paths) {
    mix(static_cast<std::uint64_t>(p.kind) + 1);
    mix(p.stage);
  }
  if (options_.key_bits < 64) {
    const int bits = std::max(options_.key_bits, 1);
    h &= (1ull << bits) - 1ull;
  }
  return h;
}

bool GraphCache::entry_matches(const Entry& e, topo::DeviceId src,
                               topo::DeviceId dst, std::uint64_t bytes,
                               std::span<const topo::PathPlan> paths) {
  const TransferGraph& g = *e.graph;
  const std::span<const topo::PathPlan> have = g.key_paths();
  return g.src_device() == src && g.dst_device() == dst &&
         g.total_bytes() == bytes &&
         std::equal(have.begin(), have.end(), paths.begin(), paths.end());
}

GraphPtr GraphCache::lookup(topo::DeviceId src, topo::DeviceId dst,
                            std::uint64_t bytes,
                            std::span<const topo::PathPlan> paths,
                            std::uint64_t cal_version) {
  const std::uint64_t key = cache_key(src, dst, bytes, paths);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (!entry_matches(it->second, src, dst, bytes, paths)) {
    // A different tuple hashed here; the resident template is someone
    // else's transfer. Miss (the caller's insert will replace it).
    ++stats_.collisions;
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.cal_version != cal_version) {
    // Compiled under a superseded calibration snapshot: its theta split
    // reflects old alpha/beta. Drop so the caller recompiles.
    ++stats_.invalidations;
    ++stats_.misses;
    lru_.erase(it->second.recency);
    map_.erase(it);
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  return it->second.graph;
}

void GraphCache::insert(GraphPtr graph, std::uint64_t cal_version) {
  if (graph == nullptr) return;
  const std::uint64_t key = cache_key(graph->src_device(),
                                      graph->dst_device(),
                                      graph->total_bytes(),
                                      graph->key_paths());
  std::lock_guard<std::mutex> lock(mutex_);
  Entry fresh;
  fresh.graph = std::move(graph);
  fresh.cal_version = cal_version;
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Replace in place (collision or re-insert): the key already owns an
    // LRU node — keep its iterator across the assignment.
    const auto node = it->second.recency;
    lru_.splice(lru_.begin(), lru_, node);
    it->second = std::move(fresh);
    it->second.recency = node;
  } else {
    lru_.push_front(key);
    it = map_.emplace(key, std::move(fresh)).first;
    it->second.recency = lru_.begin();
  }
  ++stats_.inserts;
  while (options_.capacity > 0 && map_.size() > options_.capacity) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

bool GraphCache::remove(topo::DeviceId src, topo::DeviceId dst,
                        std::uint64_t bytes,
                        std::span<const topo::PathPlan> paths) {
  const std::uint64_t key = cache_key(src, dst, bytes, paths);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it == map_.end() || !entry_matches(it->second, src, dst, bytes, paths)) {
    return false;
  }
  lru_.erase(it->second.recency);
  map_.erase(it);
  return true;
}

void GraphCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

GraphCacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace mpath::pipeline
