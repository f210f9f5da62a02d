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

GraphCache::GraphCache(GraphCacheOptions options)
    : options_(options), cache_(options.capacity) {}

std::size_t GraphCache::KeyHash::operator()(const KeyView& k) const {
  // FNV-1a over the tuple. Only a bucket address: the cache compares full
  // keys (KeyEq), so colliding tuples never alias.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.src);
  mix(k.dst);
  mix(k.bytes);
  for (const auto& p : k.paths) {
    mix(static_cast<std::uint64_t>(p.kind) + 1);
    mix(p.stage);
  }
  return static_cast<std::size_t>(h);
}

bool GraphCache::KeyEq::operator()(const KeyView& a, const KeyView& b) const {
  return a.src == b.src && a.dst == b.dst && a.bytes == b.bytes &&
         std::equal(a.paths.begin(), a.paths.end(), b.paths.begin(),
                    b.paths.end());
}

GraphPtr GraphCache::lookup(topo::DeviceId src, topo::DeviceId dst,
                            std::uint64_t bytes,
                            std::span<const topo::PathPlan> paths,
                            std::uint64_t cal_version) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto found = cache_.find(KeyView{src, dst, bytes, paths}, cal_version);
  return found.value != nullptr ? *found.value : nullptr;
}

void GraphCache::insert(GraphPtr graph, std::uint64_t cal_version) {
  if (graph == nullptr) return;
  const std::span<const topo::PathPlan> paths = graph->key_paths();
  Key key{graph->src_device(), graph->dst_device(), graph->total_bytes(),
          {paths.begin(), paths.end()}};
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(std::move(key), std::move(graph), cal_version);
}

bool GraphCache::remove(topo::DeviceId src, topo::DeviceId dst,
                        std::uint64_t bytes,
                        std::span<const topo::PathPlan> paths) {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.erase(KeyView{src, dst, bytes, paths});
}

void GraphCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

GraphCacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mpath::pipeline
