// Multi-path pipeline engine — the execution machinery of Sojoodi et al.
// (ExHET'24, ref [35] of the paper) that the performance model drives
// (Fig. 2a Step 5).
//
// An ExecPlan assigns a contiguous slice of the message to each path. The
// engine issues the per-chunk operation graph for all paths from a single
// host loop (interleaved round-robin over paths, one chunk per round):
//
//   stream A (first hop):   [wait slot free] copy(src -> stage)  record F_c
//   stream B (second hop):  wait F_c  [host-sync delay]  copy(stage -> dst)
//                           record B_c
//
// Staging buffers are double-buffered (chunk c reuses the slot of c-2 and
// therefore waits on B_{c-2}), matching the three-step staging protocol of
// Section 3.4. Each issued operation costs host time, which is what makes
// path initiation sequential — the effect Algorithm 1 line 18 models.
//
// One private driver issues every transfer. It walks a per-path plan
// (TransferGraph::Path): execute_monitored builds that plan for a single
// transfer on its own frame; compile_graph builds it once and replay walks
// it again per message. Either way the driver acquires the execution's
// staging leases and events itself and returns them as the paths drain, so
// a plan holds no resources between executions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mpath/gpusim/runtime.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/staging.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::pipeline {

/// One path's assignment inside a transfer.
struct ExecPath {
  topo::PathPlan plan;
  std::uint64_t bytes = 0;  ///< contiguous slice length (0 = skip)
  int chunks = 1;           ///< pipeline depth k_i (staged paths)
};

/// A transfer's path assignments. Small-vector: the paper's plans use at
/// most 3–4 paths, so building and passing a plan never heap-allocates.
using ExecPlan = util::SmallVec<ExecPath, 4>;

/// Watchdog spec for one path of a monitored transfer: a relative deadline
/// measured from issue start. The model-driven caller derives it from the
/// predicted per-path completion time T_i times a slack factor; <= 0
/// disables monitoring for that path (legacy behaviour, no extra events).
struct PathWatch {
  double deadline_s = 0.0;
};

/// Watchdog specs, parallel to an ExecPlan (same inline capacity).
using PathWatchList = util::SmallVec<PathWatch, 4>;

/// Per-path result of a monitored transfer (parallel to the input plan).
struct PathOutcome {
  std::uint64_t bytes = 0;           ///< slice length assigned to the path
  std::uint64_t bytes_delivered = 0; ///< contiguous prefix visible at dst
  bool timed_out = false;            ///< watchdog fired and aborted the path
};

struct TransferOutcome {
  bool complete = true;  ///< no path timed out; all bytes delivered
  util::SmallVec<PathOutcome, 4> paths;  ///< parallel to the input plan
  [[nodiscard]] std::uint64_t delivered() const {
    std::uint64_t sum = 0;
    for (const PathOutcome& p : paths) sum += p.bytes_delivered;
    return sum;
  }
};

class PipelineEngine {
 public:
  explicit PipelineEngine(
      gpusim::GpuRuntime& runtime, std::size_t staging_buffers_per_device = 4,
      gpusim::Payload staging_payload = gpusim::Payload::Materialized);
  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  /// Execute `plan` moving sum(plan.bytes) from src[src_offset..] to
  /// dst[dst_offset..]. Paths own consecutive slices in plan order.
  /// Throws std::invalid_argument on malformed plans (bounds, chunks < 1).
  [[nodiscard]] sim::Task<void> execute(gpusim::DeviceBuffer& dst,
                                        std::size_t dst_offset,
                                        const gpusim::DeviceBuffer& src,
                                        std::size_t src_offset,
                                        ExecPlan plan);

  /// Like execute(), but each path with `watch[i].deadline_s > 0` runs under
  /// a watchdog: if the path has not delivered its slice by the deadline its
  /// in-flight fluid flows are cancelled, no further chunks are issued on
  /// it, and the outcome reports the delivered contiguous prefix — so a
  /// transfer over a severed link returns (with partial-progress accounting)
  /// instead of hanging. `watch` must be empty (no monitoring) or the same
  /// length as `plan`. Progress accounting is passive (per-chunk completion
  /// hooks on direct paths, the existing backward event records on staged
  /// paths), so monitoring does not change a path's completion time.
  [[nodiscard]] sim::Task<TransferOutcome> execute_monitored(
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset, ExecPlan plan,
      PathWatchList watch);

  /// Compile `config` into a reusable TransferGraph template: the same
  /// per-path plan execute_monitored builds for one transfer (streams,
  /// chunk tables), kept across replays. Host-side only: it takes no
  /// simulated time and reserves nothing. Throws std::invalid_argument on
  /// malformed or empty configs.
  [[nodiscard]] std::shared_ptr<TransferGraph> compile_graph(
      topo::DeviceId src_dev, topo::DeviceId dst_dev,
      const model::TransferConfig& config);

  /// Execute a compiled template: the issue driver behind execute_monitored
  /// walks the template's per-path plan — no theta solve, no plan
  /// construction, no per-chunk setup — so the staging acquisitions, the
  /// runtime-call / issue-cost sequence and the rng draws under jitter are
  /// the uncompiled ones by construction. Reentrant: replays of one
  /// template may overlap, each with its own resources. `watch` must be
  /// empty or sized like graph->config().paths. Throws
  /// std::invalid_argument on endpoint/graph mismatches.
  [[nodiscard]] sim::Task<TransferOutcome> replay(
      std::shared_ptr<TransferGraph> graph, gpusim::DeviceBuffer& dst,
      std::size_t dst_offset, const gpusim::DeviceBuffer& src,
      std::size_t src_offset, PathWatchList watch);

  [[nodiscard]] gpusim::GpuRuntime& runtime() { return *runtime_; }
  [[nodiscard]] const StagingPool& staging() const { return staging_; }
  [[nodiscard]] std::uint64_t transfers_executed() const {
    return transfers_;
  }
  /// Cumulative bytes executed per path kind (reporting aid).
  [[nodiscard]] std::uint64_t bytes_on(topo::PathKind kind) const;

 private:
  struct StreamKey {
    topo::DeviceId src;
    topo::DeviceId dst;
    std::size_t path_index;
    int role;  // 0 = first hop / direct, 1 = second hop
    auto operator<=>(const StreamKey&) const = default;
  };

  using PathState = TransferGraph::Path;

  /// Share `index` of a plan, `offset` bytes into the message: streams,
  /// chunk tables and the host-sync penalty.
  PathState path_state(topo::DeviceId src_dev, topo::DeviceId dst_dev,
                       std::size_t index, const topo::PathPlan& plan,
                       std::uint64_t bytes, int chunks, std::size_t offset);
  /// The one issue driver: acquire each staged path's staging lease and
  /// events in plan order, arm the watchdogs, issue chunk r of every path
  /// before chunk r+1 of any, drain (staged paths first, each lease
  /// returning as its path drains), release the events and assemble the
  /// outcome, parallel to a plan of `plan_size` shares.
  [[nodiscard]] sim::Task<TransferOutcome> drive(
      std::span<const PathState> paths, std::size_t plan_size,
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset,
      PathWatchList watch);
  gpusim::StreamId stream_for(const StreamKey& key, topo::DeviceId device);
  [[nodiscard]] sim::Engine::DelayAwaiter issue_cost();

  gpusim::GpuRuntime* runtime_;
  StagingPool staging_;
  std::map<StreamKey, gpusim::StreamId> streams_;
  std::uint64_t transfers_ = 0;
  std::map<topo::PathKind, std::uint64_t> bytes_by_kind_;
};

}  // namespace mpath::pipeline
