// Compiled transfer graphs: build the plan once, replay it per message.
//
// The authors' follow-up work moves multi-path transfers into CUDA Graphs —
// capture the chunk-op DAG once, then replay it at ~zero launch cost, with
// the captured graph *being* the execution plan. This mirrors that shape in
// the simulator: PipelineEngine::compile_graph bakes a TransferConfig into a
// TransferGraph holding the per-path plan the engine's one issue driver
// walks (resolved streams, chunk tables), and PipelineEngine::replay runs
// that driver over it. execute_monitored builds the same plan for one
// transfer on its own frame and runs the same driver, so there is no second
// op sequence to keep in step. The GraphCache is the plan cache — the
// "look up config" step of Algorithm 1, with the template as the cached
// entry — and makes the steady state: lookup, replay, done — no theta
// solve, no plan construction, no per-chunk setup. PathConfigurator keeps
// no cache of its own, so with graphs off every transfer solves theta.
//
// A template is a plan, not a resource holder: every execution, fresh or
// replayed, acquires its own staging leases and events through the same
// blocking StagingPool::acquire and returns them as it drains. Templates
// are therefore reentrant (any number of replays of one template may be in
// flight), never starve the staging pool, and replay is timing-identical to
// the uncompiled path by construction (same driver, same acquisitions, and
// compile itself takes no simulated time).
//
// Lifetime: a graph names streams of the PipelineEngine that compiled it
// and replays only there. Graphs are shared_ptr-held so LRU eviction while
// a replay is executing is safe (the replay frame keeps its snapshot
// alive).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "mpath/gpusim/runtime.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/util/lru_cache.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::pipeline {

class PipelineEngine;

/// A reusable compiled transfer plan for one (src, dst, bytes,
/// candidate-path-set) tuple. Built by PipelineEngine::compile_graph;
/// executed by PipelineEngine::replay. Default-constructed graphs are empty
/// shells — valid() is false; the cache machinery accepts them, which is
/// what the concurrent cache tests exercise.
class TransferGraph {
 public:
  /// One path's share of the plan: what PipelineEngine's issue driver
  /// walks, kept across replays here and built per transfer by
  /// execute_monitored.
  struct Path {
    topo::PathPlan plan;
    std::uint64_t bytes = 0;
    int chunks = 1;              ///< after the min(chunks, bytes) clamp
    std::size_t offset = 0;      ///< slice start within the message
    std::size_t plan_index = 0;  ///< index into config().paths and watches
    bool staged = false;
    double extra_sync_s = 0.0;
    gpusim::StreamId first_stream = 0;
    gpusim::StreamId second_stream = 0;
    util::SmallVec<std::size_t, 16> chunk_offsets;
    util::SmallVec<std::size_t, 16> chunk_sizes;

    /// Rebuild chunk_offsets/chunk_sizes from `bytes` and `chunks`: `chunks`
    /// near-equal contiguous pieces, the first `bytes % chunks` one byte
    /// longer (empty tables for an idle path).
    void split_chunks();
  };

  [[nodiscard]] bool valid() const { return runtime_ != nullptr; }
  [[nodiscard]] topo::DeviceId src_device() const { return src_dev_; }
  [[nodiscard]] topo::DeviceId dst_device() const { return dst_dev_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  /// The full candidate list the template was planned over (cache
  /// identity), including zero-byte shares.
  [[nodiscard]] std::span<const topo::PathPlan> key_paths() const {
    return key_paths_;
  }
  /// The compiled configuration (by-value snapshot).
  [[nodiscard]] const model::TransferConfig& config() const { return config_; }
  [[nodiscard]] std::span<const Path> paths() const {
    return {paths_.data(), paths_.size()};
  }
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// Scheduler capacity-event count at compile time: a joint-theta channel
  /// refuses to replay a template compiled under superseded link
  /// capacities. Opaque to the graph itself.
  [[nodiscard]] std::uint64_t capacity_epoch() const {
    return capacity_epoch_;
  }
  void set_capacity_epoch(std::uint64_t epoch) { capacity_epoch_ = epoch; }

 private:
  friend class PipelineEngine;

  gpusim::GpuRuntime* runtime_ = nullptr;
  topo::DeviceId src_dev_ = topo::kInvalidDevice;
  topo::DeviceId dst_dev_ = topo::kInvalidDevice;
  std::uint64_t total_bytes_ = 0;
  std::vector<topo::PathPlan> key_paths_;
  model::TransferConfig config_;
  util::SmallVec<Path, 4> paths_;  ///< active (bytes > 0) shares only
  std::uint64_t replays_ = 0;
  std::uint64_t capacity_epoch_ = 0;
};

using GraphPtr = std::shared_ptr<TransferGraph>;

struct GraphCacheOptions {
  /// Maximum cached templates; least-recently-used entries are evicted past
  /// this. 0 = unbounded. Templates hold no staging buffers or events, so
  /// the bound is host memory only.
  std::size_t capacity = 32;
};

/// Plan-cache counters; `invalidations` counts templates compiled under a
/// superseded calibration snapshot, dropped so the caller recompiles.
using GraphCacheStats = util::LruStats;

/// The plan cache: Algorithm 1's "look up config" step. A util::LruCache of
/// templates keyed by the full (src, dst, bytes, path-set) tuple and
/// stamped with the calibration version they were compiled under. A lookup
/// probes with a borrowed view of the tuple, so a hit allocates nothing.
/// Mutex-protected: the replay hot path is engine-single-threaded (the lock
/// is uncontended), but sweep tooling may build/inspect caches from
/// multiple threads.
class GraphCache {
 public:
  explicit GraphCache(GraphCacheOptions options = {});
  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// The cached template for the tuple, or nullptr (miss, or a stale
  /// calibration stamp — stale entries are dropped so the caller recompiles
  /// under the current snapshot).
  [[nodiscard]] GraphPtr lookup(topo::DeviceId src, topo::DeviceId dst,
                                std::uint64_t bytes,
                                std::span<const topo::PathPlan> paths,
                                std::uint64_t cal_version);

  /// Insert (or replace) the template under its own tuple, stamped with the
  /// calibration version it was compiled under.
  void insert(GraphPtr graph, std::uint64_t cal_version);

  /// Drop the entry for the tuple if present (explicit invalidation, e.g. a
  /// template path entered health probation). Returns true if removed.
  bool remove(topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
              std::span<const topo::PathPlan> paths);

  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] GraphCacheStats stats() const;  ///< by-value snapshot
  [[nodiscard]] const GraphCacheOptions& options() const { return options_; }

 private:
  /// The tuple a template was planned for, owned (the stored key) or
  /// borrowed (a lookup probe); hash and equality accept either.
  struct KeyView {
    topo::DeviceId src = topo::kInvalidDevice;
    topo::DeviceId dst = topo::kInvalidDevice;
    std::uint64_t bytes = 0;
    std::span<const topo::PathPlan> paths;
  };
  struct Key {
    topo::DeviceId src = topo::kInvalidDevice;
    topo::DeviceId dst = topo::kInvalidDevice;
    std::uint64_t bytes = 0;
    std::vector<topo::PathPlan> paths;
    operator KeyView() const { return {src, dst, bytes, paths}; }  // NOLINT
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyView& k) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const;
  };

  mutable std::mutex mutex_;
  GraphCacheOptions options_;
  util::LruCache<Key, GraphPtr, KeyHash, KeyEq> cache_;
};

}  // namespace mpath::pipeline
