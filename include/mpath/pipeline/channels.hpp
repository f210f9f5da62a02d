// DataChannel implementations over the pipeline engine:
//   * SinglePathChannel — the UCX default: everything on the direct path
//     (the paper's baseline),
//   * ModelDrivenChannel — Fig. 2a Steps 3-5: invoke the performance model
//     per transfer, execute the optimal configuration (the paper's
//     "Dynamic Path Distribution"),
//   * StaticPlanChannel — a fixed fraction/chunk assignment found offline
//     by exhaustive search (the paper's "Static Path Distribution", [35]).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mpath/gpusim/channel.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/model/recalibrator.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/health.hpp"

namespace mpath::pipeline {

class TransferScheduler;
class GraphCache;
class ChainController;

class SinglePathChannel final : public gpusim::DataChannel {
 public:
  explicit SinglePathChannel(PipelineEngine& engine) : engine_(&engine) {}

  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "direct"; }

 private:
  PipelineEngine* engine_;
};

/// Degradation-aware recovery policy: every path of a transfer runs under a
/// watchdog whose deadline is the model-predicted per-path time T_i times
/// `slack`; on timeout the failed path is dropped from the candidate set,
/// theta is re-solved over the survivors for the undelivered remainder, and
/// the remainder is re-issued as a fresh ExecPlan. After `max_replans`
/// failed attempts (or when no path survives) the transfer throws
/// gpusim::TransferError with partial-progress accounting.
struct RecoveryOptions {
  bool enabled = false;
  double slack = 4.0;          ///< deadline = slack * predicted T_i
  double min_deadline_s = 1e-3;  ///< floor so noise cannot trip tiny shares
  int max_replans = 3;
  /// Per-retry watchdog slack escalation: re-plan r of one transfer uses
  /// slack * min(retry_backoff^r, max_slack_factor). A flapping path then
  /// has to misbehave for exponentially longer to burn each remaining
  /// re-plan, instead of tripping max_replans in one burst. retry_backoff
  /// of 1 restores the fixed-slack PR 2 behaviour.
  double retry_backoff = 2.0;
  double max_slack_factor = 8.0;
};

/// Watchdog slack for re-plan number `replans` (0 = the initial plan, so
/// the first attempt always runs at exactly `rec.slack`).
[[nodiscard]] double escalated_slack(const RecoveryOptions& rec, int replans);

/// Monotonic counters describing recovery activity on a channel.
struct RecoveryStats {
  std::uint64_t path_timeouts = 0;      ///< watchdogs that fired
  std::uint64_t replans = 0;            ///< remainder re-plans issued
  std::uint64_t transfers_recovered = 0;  ///< completed after >= 1 re-plan
  std::uint64_t transfers_failed = 0;   ///< ended in TransferError
  double recovery_time_s = 0.0;  ///< sim time from first timeout to finish
};

struct ModelDrivenOptions {
  /// Transfers below this size skip the model and go direct (matching the
  /// runtime integration, which leaves small messages on the default path).
  std::size_t min_multipath_bytes = 256 * 1024;
  RecoveryOptions recovery;
  /// Path probation/readmission policy. Requires recovery.enabled (health
  /// is driven by the watchdog outcomes); ignored otherwise.
  HealthOptions health;
  /// When set, every cleanly completed model-driven transfer feeds its
  /// (predicted, actual) pair back for online alpha/beta refinement. The
  /// recalibrator must outlive the channel. Null (default) keeps the model
  /// static — paper-faithful mode.
  model::Recalibrator* recalibrator = nullptr;
  /// Compiled-plan replay: when set, multi-path transfers consult this
  /// template cache first. A hit replays the compiled template (skipping
  /// the theta solve, plan construction, and per-chunk setup); a miss
  /// compiles the fresh plan into a template for next time. Templates are
  /// reentrant, so concurrent same-key transfers replay one template.
  /// Replay falls back to the uncompiled path whenever it could diverge
  /// from it: one of the template's paths is unhealthy, link capacities
  /// changed since compile, or the scheduler sees contention the compiled
  /// split did not. The cache must outlive the channel. Null (default)
  /// disables compiled replay: every multi-path transfer then solves theta.
  GraphCache* graphs = nullptr;
};

/// Monotonic counters describing compiled-graph usage on a channel.
struct GraphUseStats {
  std::uint64_t compiles = 0;          ///< templates built (cache misses)
  std::uint64_t replays = 0;           ///< cache-hit fast-path executions
  std::uint64_t replays_fresh = 0;     ///< executions right after a compile
  /// Always 0: templates are reentrant, so a template mid-replay no longer
  /// sends a transfer down the uncompiled path. Kept because the perfbench
  /// report reads it (pipeline.graph.busy_fallbacks_per_transfer).
  std::uint64_t busy_fallbacks = 0;
  std::uint64_t health_fallbacks = 0;  ///< a template path is unhealthy
  std::uint64_t epoch_fallbacks = 0;   ///< link capacities changed
  std::uint64_t contended_rejects = 0; ///< scheduler refused admit_replay
  /// Host wall-nanoseconds spent in the channel's *synchronous* planning
  /// sections: configure solves, admissions, template compiles, chain
  /// claim/record bookkeeping. Never spans a co_await, so it measures the
  /// per-transfer host-side cost a real (non-simulated) stack would pay on
  /// the CPU — the thing graph replay exists to amortise — with simulated
  /// device/network event processing excluded.
  std::uint64_t plan_ns = 0;
};

class ModelDrivenChannel final : public gpusim::DataChannel {
 public:
  ModelDrivenChannel(PipelineEngine& engine,
                     model::PathConfigurator& configurator,
                     topo::PathPolicy policy, ModelDrivenOptions options = {});

  /// Scheduled variant: every multi-path transfer is admitted through
  /// `scheduler` (joint contention-aware planning); recovery re-plans go
  /// through TransferScheduler::replan so they see live contention too.
  /// The scheduler must outlive the channel and share `configurator`.
  ModelDrivenChannel(PipelineEngine& engine, TransferScheduler& scheduler,
                     model::PathConfigurator& configurator,
                     topo::PathPolicy policy, ModelDrivenOptions options = {});

  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "model-driven"; }

  /// The configuration chosen for the most recent transfer (theta
  /// reporting, Fig. 4). Empty until the first multi-path transfer.
  [[nodiscard]] const std::optional<model::TransferConfig>& last_config()
      const {
    return last_config_;
  }
  [[nodiscard]] const topo::PathPolicy& policy() const { return policy_; }
  [[nodiscard]] const RecoveryStats& recovery_stats() const { return stats_; }
  [[nodiscard]] const ModelDrivenOptions& options() const { return options_; }
  /// The node-level scheduler this channel admits through (null when
  /// constructed without one — solo planning, legacy behaviour).
  [[nodiscard]] TransferScheduler* scheduler() const { return scheduler_; }
  /// The channel-lifetime path-health state machine (tracks nothing and
  /// changes nothing unless options().health.enabled with recovery on).
  [[nodiscard]] const PathHealthManager& health() const { return health_; }
  /// Compiled-graph activity (all zero unless options().graphs is set).
  [[nodiscard]] const GraphUseStats& graph_stats() const {
    return graph_stats_;
  }
  /// Attach (or detach, with null) a collective chain controller: every
  /// transfer then consumes the controller's pending step — replaying a
  /// chained template when one is claimable, and reporting its
  /// configuration back during capture. The controller must outlive the
  /// attachment and requires recovery disabled on this channel.
  void attach_chain(ChainController* chain);
  /// The attached chain controller (null when collective chaining is off).
  [[nodiscard]] ChainController* chain() const { return chain_; }

 private:
  friend class ChainController;
  [[nodiscard]] const std::vector<topo::PathPlan>& candidate_paths(
      topo::DeviceId src, topo::DeviceId dst);
  /// Calibration version templates are stamped with (0 = no store).
  [[nodiscard]] std::uint64_t graph_cal_version() const;
  /// Cache lookup plus every replay-safety gate that does not need the
  /// scheduler: unhealthy template paths and (on scheduled channels)
  /// superseded capacity epochs return nullptr — the caller then takes the
  /// uncompiled path.
  [[nodiscard]] std::shared_ptr<TransferGraph> find_replayable(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      const std::vector<topo::PathPlan>& paths);
  /// Compile `config` into a template, stamp it with the current capacity
  /// epoch, and insert it into the cache.
  [[nodiscard]] std::shared_ptr<TransferGraph> compile_template(
      topo::DeviceId src, topo::DeviceId dst,
      const model::TransferConfig& config);
  [[nodiscard]] sim::Task<void> transfer_with_recovery(
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset,
      std::size_t bytes);
  /// Outcome of one uncaptured transfer. `reproducible` says whether a
  /// later identical transfer would deterministically pick `config` again —
  /// exactly the bar a captured chain step must meet to compile. The
  /// configuration travels here as a coroutine-local copy because
  /// concurrent transfers interleave at co_await points: by the time the
  /// caller resumes, the shared last_config_ member may already belong to
  /// another in-flight transfer.
  struct UncapturedOutcome {
    bool reproducible = false;
    std::optional<model::TransferConfig> config;
  };
  /// The whole non-recovery transfer body minus chain interplay.
  [[nodiscard]] sim::Task<UncapturedOutcome> transfer_uncaptured(
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset,
      std::size_t bytes);
  /// Fails a scheduler ticket if the transfer unwinds before departing.
  struct ScheduleGuard;
  /// The one tail of every planned multi-path transfer: close the plan_ns
  /// section opened at `plan_t0`, replay `graph` (or execute `config`
  /// uncompiled when it is null), depart `guard`'s ticket, and report
  /// `config` with the elapsed time since `t0` to the recalibrator.
  /// `config` is read after the transfer, so it must outlive the call.
  [[nodiscard]] sim::Task<void> run_planned(
      ScheduleGuard guard, std::shared_ptr<TransferGraph> graph,
      const model::TransferConfig& config,
      std::chrono::steady_clock::time_point plan_t0, double t0,
      gpusim::DeviceBuffer& dst, std::size_t dst_offset,
      const gpusim::DeviceBuffer& src, std::size_t src_offset);

  PipelineEngine* engine_;
  ChainController* chain_ = nullptr;
  model::PathConfigurator* configurator_;
  TransferScheduler* scheduler_ = nullptr;
  topo::PathPolicy policy_;
  ModelDrivenOptions options_;
  PathHealthManager health_;
  RecoveryStats stats_;
  GraphUseStats graph_stats_;
  std::optional<model::TransferConfig> last_config_;
  // Candidate path cache per (src, dst).
  std::map<std::pair<topo::DeviceId, topo::DeviceId>,
           std::vector<topo::PathPlan>>
      path_cache_;
};

/// Offline-tuned fixed distribution: fraction[i] of every message rides
/// plan paths[i] with chunks[i] pipeline depth. Fractions must sum to ~1.
struct StaticPlan {
  std::vector<topo::PathPlan> paths;
  std::vector<double> fractions;
  std::vector<int> chunks;
};

class StaticPlanChannel final : public gpusim::DataChannel {
 public:
  StaticPlanChannel(PipelineEngine& engine, StaticPlan plan,
                    std::size_t min_multipath_bytes = 256 * 1024);

  [[nodiscard]] sim::Task<void> transfer(gpusim::DeviceBuffer& dst,
                                         std::size_t dst_offset,
                                         const gpusim::DeviceBuffer& src,
                                         std::size_t src_offset,
                                         std::size_t bytes) override;
  [[nodiscard]] std::string name() const override { return "static"; }
  [[nodiscard]] const StaticPlan& plan() const { return plan_; }

 private:
  PipelineEngine* engine_;
  StaticPlan plan_;
  std::size_t min_multipath_bytes_;
};

}  // namespace mpath::pipeline
