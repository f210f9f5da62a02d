#include "mpath/pipeline/graph.hpp"

#include <algorithm>
#include <cmath>

namespace mpath::pipeline {

TransferGraph::~TransferGraph() {
  // Return reserved events to the runtime free list; staging leases release
  // through their own destructors. Safe mid-replay only because replays
  // hold the graph by shared_ptr — destruction here means no frame is
  // walking its paths.
  if (runtime_ == nullptr) return;
  for (Path& p : paths_) {
    for (gpusim::EventId ev : p.fwd_events) runtime_->release_event(ev);
    for (gpusim::EventId ev : p.bwd_events) runtime_->release_event(ev);
  }
}

bool TransferGraph::patch(std::uint64_t new_bytes) {
  if (!valid() || new_bytes == 0) return false;
  if (new_bytes == total_bytes_) return true;
  const double n = static_cast<double>(new_bytes);
  const std::size_t p = config_.paths.size();

  // Re-derive integer byte shares from the compiled thetas, exactly as
  // config_from_theta does: floor for every non-anchor path, remainder to
  // the anchor.
  util::SmallVec<std::uint64_t, 4> share_bytes;
  share_bytes.resize(p);
  std::uint64_t assigned = 0;
  for (std::size_t i = 1; i < p; ++i) {
    share_bytes[i] = static_cast<std::uint64_t>(
        std::floor(config_.paths[i].theta * n));
    assigned += share_bytes[i];
  }
  if (assigned > new_bytes) return false;  // thetas cannot over-assign
  share_bytes[0] = new_bytes - assigned;

  // Feasibility against the compiled resources: every share that now
  // carries bytes must have compiled issue state, and no staged chunk may
  // outgrow its staging slot.
  util::SmallVec<Path*, 4> by_plan_index;
  by_plan_index.resize(p);
  for (std::size_t i = 0; i < p; ++i) by_plan_index[i] = nullptr;
  for (Path& path : paths_) by_plan_index[path.plan_index] = &path;
  for (std::size_t i = 0; i < p; ++i) {
    if (share_bytes[i] == 0) continue;
    const Path* path = by_plan_index[i];
    if (path == nullptr) return false;
    if (path->staged) {
      const std::uint64_t k = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(std::max(config_.paths[i].chunks, 1)),
          share_bytes[i]);
      const std::uint64_t max_chunk =
          share_bytes[i] / k + (share_bytes[i] % k != 0 ? 1 : 0);
      if (max_chunk > path->slot_bytes) return false;
      if (k > 16 && k > static_cast<std::uint64_t>(path->chunks)) {
        // Would need more events than were reserved at compile time.
        if (k > path->fwd_events.size()) return false;
      }
    }
  }

  // Commit: refresh the config's shares and predicted times, then the
  // per-path issue state and its chunk tables.
  std::size_t offset = 0;
  config_.total_bytes = new_bytes;
  config_.predicted_time = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    model::PathShare& share = config_.paths[i];
    share.bytes = share_bytes[i];
    if (i == 0) share.theta = static_cast<double>(share.bytes) / n;
    share.predicted_time =
        share.bytes > 0 ? share.terms.time(share.theta, n) : 0.0;
    config_.predicted_time =
        std::max(config_.predicted_time, share.predicted_time);
    if (Path* path = by_plan_index[i]; path != nullptr) {
      path->bytes = share.bytes;
      path->offset = offset;
      path->chunks =
          share.bytes > 0
              ? static_cast<int>(std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(std::max(share.chunks, 1)),
                    share.bytes))
              : 0;
    }
    offset += share.bytes;
  }
  total_bytes_ = new_bytes;
  for (Path& path : paths_) path.split_chunks();
  return true;
}

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
