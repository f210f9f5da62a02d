// Node-level joint transfer scheduler.
//
// Each ModelDrivenChannel used to run Algorithm 1 as if it owned the node:
// under concurrent transfers the fluid network's max-min arbitration makes
// every solo plan's predicted T_i wrong, and the theta splits fight each
// other for the same links. The scheduler is the node-wide fix: every
// transfer is admitted through it, so planning sees the live contention
// state —
//
//   * admission plans the arriving transfer (or a whole batch, e.g. an
//     allreduce storm) with model::JointThetaSolver: a capped max-min
//     water-fill over the fluid links' capacities, with every in-flight
//     transfer's paths as fixed flows and (optionally) non-scheduler
//     traffic folded in as per-link background weight snapshotted from
//     FluidNetwork::link_flow_weight;
//   * the resulting per-path rates replace the solo Omegas in the Eq. 24
//     equal-time solve, so both the split and the predicted times are
//     contention-aware (recovery watchdog deadlines inherit the slack
//     automatically);
//   * departures / failures / recovery re-plans update the footprint, so
//     later admissions water-fill against reality.
//
// Prediction accounting: each admission records a predicted duration. The
// record stays live ("unfrozen") while the simulated clock has not advanced
// past the admit instant, and same-timestamp admissions refresh each
// other's predictions — a K-transfer storm arriving at one instant ends up
// with all K predictions solved against the full set. The first event at a
// strictly later time freezes the prediction; `history()` then pairs it
// with the measured completion for |predicted - simulated| / simulated
// reporting (the bench/multi_tenant gate).
//
// Single-threaded like the rest of the simulator: the scheduler is driven
// from coroutines on one sim::Engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpath/model/configurator.hpp"
#include "mpath/model/theta.hpp"
#include "mpath/pipeline/engine.hpp"

namespace mpath::pipeline {

struct SchedulerOptions {
  /// When false, admissions solve solo Eq. 24 exactly like an unscheduled
  /// ModelDrivenChannel — same admission bookkeeping, same history records.
  /// This is the ablation baseline the joint gate compares against.
  bool joint = true;
  /// Fold fluid flows the scheduler does not own (per-link flow weight
  /// minus the scheduler's own live paths) into the water-fill as
  /// background load.
  bool network_snapshot = true;
  /// Subscribe to FluidNetwork capacity-change notifications: the modeled
  /// residue of in-flight transfers is integrated up to the instant of
  /// every sever/degrade/restore at the rates that actually governed the
  /// elapsed window. Without it a restore mid-transfer is applied
  /// retroactively across the whole window at the next admission, so
  /// readmission probes plan against capacities that never existed. No
  /// effect on fault-free runs (the listener never fires).
  bool observe_capacity = true;
};

class TransferScheduler {
 public:
  using TicketId = std::uint64_t;
  static constexpr TicketId kInvalidTicket = 0;

  struct Request {
    topo::DeviceId src = 0;
    topo::DeviceId dst = 0;
    std::uint64_t bytes = 0;
    std::span<const topo::PathPlan> paths;  ///< paths[0] = anchor
  };

  struct Admission {
    TicketId ticket = kInvalidTicket;
    model::TransferConfig config;
    /// The plan was solved with nothing else on its links: no live flow
    /// shares them, no background traffic, and the joint water-fill applied
    /// no rate override (or the scheduler runs in solo mode, where plans
    /// never depend on contention). Only uncontended admissions produce
    /// configs worth compiling into a replay template — their split is a
    /// pure function of (tuple, calibration), so a later admit_replay can
    /// reproduce the identical ledger entry.
    bool uncontended = false;
  };

  /// One admitted transfer's ledger entry (kept after departure).
  struct Record {
    double t_admit = 0.0;
    double t_depart = -1.0;    ///< simulated completion; -1 while in flight
    double predicted_s = 0.0;  ///< frozen planner prediction (duration)
    std::uint64_t bytes = 0;
    int replans = 0;
    bool failed = false;
    [[nodiscard]] bool completed() const { return t_depart >= 0.0 && !failed; }
    [[nodiscard]] double actual_s() const { return t_depart - t_admit; }
  };

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t departed = 0;
    std::uint64_t failed = 0;
    std::uint64_t replans = 0;
    std::uint64_t joint_iterations = 0;  ///< summed solver rounds
    std::uint64_t capacity_events = 0;   ///< observed link capacity changes
    std::uint64_t replay_admits = 0;     ///< admit_replay accepted
    std::uint64_t replay_rejects = 0;    ///< admit_replay: links contended
    /// admit_replay: compiled config no longer describes the request
    /// (size/path-set drift) — caller must recompile.
    std::uint64_t replay_plan_mismatches = 0;
    /// Departure-side invariant: every depart/fail re-derives the ticket's
    /// link footprint and checks it against what admission charged.
    std::uint64_t footprint_checks = 0;
    std::uint64_t footprint_mismatches = 0;  ///< should stay 0
    /// Collective-round batch admissions (admit_chain): rounds accepted,
    /// rounds refused (a flow would be squeezed below its solo cap, or
    /// background traffic sits on a round link), and per-step tickets
    /// registered by accepted rounds.
    std::uint64_t chain_round_admits = 0;
    std::uint64_t chain_round_rejects = 0;
    std::uint64_t chain_step_admits = 0;
    /// admit_chain: a step's compiled config no longer describes its
    /// request (size/path-set drift) — the whole round is refused.
    std::uint64_t chain_plan_mismatches = 0;
    /// Tickets released by depart_chain without ever carrying a replay
    /// (chain died mid-round; the pre-admitted remainder is unwound).
    std::uint64_t chain_unwound = 0;
  };

  /// Both references must outlive the scheduler. The configurator supplies
  /// Algorithm 1's prepare/config halves; theta comes from the joint solve.
  TransferScheduler(PipelineEngine& engine,
                    model::PathConfigurator& configurator,
                    SchedulerOptions options = {});
  ~TransferScheduler();
  TransferScheduler(const TransferScheduler&) = delete;
  TransferScheduler& operator=(const TransferScheduler&) = delete;

  /// Plan one transfer against the live contention state and register it as
  /// in-flight. `paths` must be non-empty; paths[0] is the anchor.
  [[nodiscard]] Admission admit(topo::DeviceId src, topo::DeviceId dst,
                                std::uint64_t bytes,
                                std::span<const topo::PathPlan> paths);

  /// Jointly plan a batch of simultaneous transfers (the K-transfer solve):
  /// every request's split accounts for all the others plus live traffic.
  [[nodiscard]] std::vector<Admission> admit_batch(
      std::span<const Request> requests);

  /// Admit a transfer that will *replay* a compiled template instead of
  /// being freshly planned. Accepts only when the compiled split is still
  /// exactly what a fresh admission would produce: the template must
  /// describe this request (same bytes and candidate paths — else
  /// replay_plan_mismatches), and under joint planning nothing else may
  /// touch the template's links (no live scheduled flow, no background
  /// traffic — else replay_rejects). On acceptance the ticket and history
  /// record are registered exactly as admit() would, using the compiled
  /// config's terms, so the departure-side ledger is indistinguishable
  /// from a fresh admission. A rejected admission returns kInvalidTicket;
  /// the caller falls back to a fresh compile.
  [[nodiscard]] Admission admit_replay(topo::DeviceId src, topo::DeviceId dst,
                                       std::uint64_t bytes,
                                       std::span<const topo::PathPlan> paths,
                                       const model::TransferConfig& compiled);

  /// One step of a chained collective round offered for batched replay
  /// admission. `compiled` is the step's template config (solo terms — the
  /// graph was compiled from an uncontended admission) and must outlive the
  /// admit_chain call.
  struct ChainStepRequest {
    topo::DeviceId src = 0;
    topo::DeviceId dst = 0;
    std::uint64_t bytes = 0;
    std::span<const topo::PathPlan> paths;  ///< full candidate set
    const model::TransferConfig* compiled = nullptr;
  };

  /// Batched replay admission for one chained collective round: all K steps
  /// are validated with ONE JointThetaSolver water-fill (the PR 6 storm
  /// solve inverted into a gate) instead of K independent admit_replay
  /// probes. The round is accepted iff every compiled config still
  /// describes its request AND the joint water-fill of the round's carrying
  /// paths plus every live flow leaves *all* of them at their solo caps
  /// with no background traffic on a round link — exactly the condition
  /// under which a fresh joint solve of any step, at any instant while the
  /// round is in flight, would reproduce the compiled solo split. On
  /// acceptance each step gets a ticket registered from its compiled
  /// shares (admit_replay ledger semantics — departures are
  /// indistinguishable from fresh admissions); the returned ids align with
  /// `steps`. An empty vector means the round was refused and the caller
  /// must fall back to per-step fresh admission.
  [[nodiscard]] std::vector<TicketId> admit_chain(
      std::span<const ChainStepRequest> steps);

  /// Unwind tickets pre-registered by admit_chain that no replay ever
  /// claimed (the chain died mid-round): verify and release each footprint
  /// and mark the records failed so the history never confuses them with
  /// transfers that ran. Invalid ids are skipped.
  void depart_chain(std::span<const TicketId> tickets);

  /// Recovery re-plan: replace the ticket's footprint with a fresh joint
  /// plan for the undelivered `bytes` over the `survivors` subset
  /// (survivors[0] is the anchor, compute_config semantics). The ticket's
  /// history record is continued, not re-created.
  [[nodiscard]] model::TransferConfig replan(
      TicketId ticket, std::uint64_t bytes,
      std::span<const topo::PathPlan> survivors);

  /// The transfer completed: stamp its record and release its footprint.
  void depart(TicketId ticket);
  /// The transfer aborted (TransferError): record the failure and release
  /// its footprint so later plans stop water-filling against it.
  void fail(TicketId ticket);

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] const std::vector<Record>& history() const { return records_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  [[nodiscard]] model::PathConfigurator& configurator() {
    return *configurator_;
  }

 private:
  /// One live path's modeled residue: which fluid links it occupies, its
  /// solo rate cap, and how much latency/payload is still ahead of it.
  struct LivePath {
    util::SmallVec<std::uint32_t, 4> links;
    double cap_bps = 0.0;
    double remaining_delta = 0.0;
    double remaining_bytes = 0.0;
  };
  struct Ticket {
    TicketId id = kInvalidTicket;
    std::size_t record = 0;  ///< index into records_
    double t_admit = 0.0;
    topo::DeviceId src = 0;
    topo::DeviceId dst = 0;
    bool frozen = false;  ///< prediction final (clock moved past t_admit)
    util::SmallVec<LivePath, 4> paths;
    /// Sorted link ids admission charged to this ticket (its attributed
    /// water-fill weight). depart/fail re-derive the footprint from the
    /// live paths and verify it matches — a mismatch means a replay or
    /// replan released different weight than admission charged.
    util::SmallVec<std::uint32_t, 8> charged;
  };

  /// Advance every live path's modeled residue to `now` at the current
  /// water-fill rates and freeze predictions whose admit instant has
  /// passed. Called at the top of every public mutation.
  void integrate_to(double now);
  /// Current per-link capacities + non-scheduler background weight.
  [[nodiscard]] std::vector<model::JointLink> snapshot_links();
  /// All live paths still moving data, as water-fill flows. `owners`
  /// receives (ticket index, path index) per flow, aligned with the result.
  [[nodiscard]] std::vector<model::FixedFlow> live_flows(
      std::vector<std::pair<std::size_t, std::size_t>>* owners) const;
  /// Fluid links occupied by `plan` while streaming (both hops of a staged
  /// path — they are pipelined, so they are concurrently loaded).
  [[nodiscard]] util::SmallVec<std::uint32_t, 4> plan_links(
      topo::DeviceId src, topo::DeviceId dst, const topo::PathPlan& plan);
  /// Refresh the prediction of every unfrozen ticket from its residue and
  /// the given per-flow rates (same alignment as live_flows).
  void refresh_predictions(
      std::span<const double> rates,
      std::span<const std::pair<std::size_t, std::size_t>> owners);
  [[nodiscard]] std::size_t find(TicketId ticket);
  void release(std::size_t index);
  /// Sorted union (with multiplicity) of the ticket's live-path links.
  [[nodiscard]] static util::SmallVec<std::uint32_t, 8> footprint_of(
      const Ticket& t);
  /// Check the satellite invariant before releasing `index`: the footprint
  /// being released is the one admission charged.
  void verify_footprint(std::size_t index);
  /// True when any live scheduled flow or (if snapshotting) background
  /// traffic touches one of `cand` (sorted link ids).
  [[nodiscard]] bool links_contended(std::span<const std::uint32_t> cand);

  PipelineEngine* engine_;
  model::PathConfigurator* configurator_;
  SchedulerOptions options_;
  sim::FluidNetwork* net_ = nullptr;   ///< set iff observe_capacity
  std::uint64_t capacity_listener_ = 0;
  std::vector<Ticket> live_;
  std::vector<Record> records_;
  Stats stats_;
  TicketId next_id_ = 1;
  double last_event_ = 0.0;
};

}  // namespace mpath::pipeline
