#include "mpath/pipeline/channels.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpath/pipeline/collective_graph.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"

namespace mpath::pipeline {

namespace {
using PlanClock = std::chrono::steady_clock;

/// Watchdog deadline floor, so noise on tiny shares cannot trip a healthy
/// path.
constexpr double kMinDeadlineS = 1e-3;

/// Nanoseconds since `t0`, for GraphUseStats::plan_ns sections. Callers
/// must never let a section span a co_await: suspended wall time belongs
/// to other coroutines and the event loop, not to this transfer's planner.
std::uint64_t plan_ns_since(PlanClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(PlanClock::now() -
                                                           t0)
          .count());
}

ExecPlan direct_plan(std::size_t bytes) {
  return {ExecPath{topo::PathPlan{topo::PathKind::Direct, topo::kInvalidDevice},
                   bytes, 1}};
}

/// Single path for a small segment: prefer the Direct survivor when one is
/// alive (lowest latency, no staging buffers); otherwise fall back to the
/// first survivor, which is the best-ranked staged path in enumeration
/// order. Without the scan, a dead direct path would silently route small
/// remainders over whichever survivor happened to sit first.
std::span<const topo::PathPlan> small_segment_path(
    const std::vector<topo::PathPlan>& alive) {
  for (const topo::PathPlan& p : alive) {
    if (p.kind == topo::PathKind::Direct) return {&p, 1};
  }
  return {alive.data(), 1};
}

}  // namespace

/// Marks a scheduler ticket failed if the transfer coroutine unwinds
/// without departing cleanly, so the scheduler stops water-filling against
/// a transfer that no longer exists. Movable, so a transfer's tail can take
/// over the ticket.
struct ModelDrivenChannel::ScheduleGuard {
  TransferScheduler* sched = nullptr;
  TransferScheduler::TicketId ticket = TransferScheduler::kInvalidTicket;
  bool armed = true;
  ScheduleGuard() = default;
  ScheduleGuard(TransferScheduler* s, TransferScheduler::TicketId t)
      : sched(s), ticket(t) {}
  ScheduleGuard(ScheduleGuard&& o) noexcept
      : sched(o.sched),
        ticket(o.ticket),
        armed(std::exchange(o.armed, false)) {}
  ScheduleGuard(const ScheduleGuard&) = delete;
  ScheduleGuard& operator=(const ScheduleGuard&) = delete;
  ScheduleGuard& operator=(ScheduleGuard&&) = delete;
  ~ScheduleGuard() {
    if (armed && sched != nullptr &&
        ticket != TransferScheduler::kInvalidTicket) {
      sched->fail(ticket);
    }
  }
};

double escalated_slack(const RecoveryOptions& rec, int replans) {
  const double esc = std::min(std::pow(rec.retry_backoff, replans),
                              rec.max_slack_factor);
  return rec.slack * std::max(esc, 1.0);
}

sim::Task<void> SinglePathChannel::transfer(gpusim::DeviceBuffer& dst,
                                            std::size_t dst_offset,
                                            const gpusim::DeviceBuffer& src,
                                            std::size_t src_offset,
                                            std::size_t bytes) {
  co_await engine_->execute(dst, dst_offset, src, src_offset,
                            direct_plan(bytes));
}

ModelDrivenChannel::ModelDrivenChannel(PipelineEngine& engine,
                                       model::PathConfigurator& configurator,
                                       topo::PathPolicy policy,
                                       ModelDrivenOptions options)
    : engine_(&engine),
      configurator_(&configurator),
      policy_(policy),
      options_(options),
      health_(options.health) {}

ModelDrivenChannel::ModelDrivenChannel(PipelineEngine& engine,
                                       TransferScheduler& scheduler,
                                       model::PathConfigurator& configurator,
                                       topo::PathPolicy policy,
                                       ModelDrivenOptions options)
    : engine_(&engine),
      configurator_(&configurator),
      scheduler_(&scheduler),
      policy_(policy),
      options_(options),
      health_(options.health) {}

const std::vector<topo::PathPlan>& ModelDrivenChannel::candidate_paths(
    topo::DeviceId src, topo::DeviceId dst) {
  const auto key = std::make_pair(src, dst);
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    it = path_cache_
             .emplace(key, topo::enumerate_paths(engine_->runtime().topology(),
                                                 src, dst, policy_))
             .first;
  }
  return it->second;
}

std::uint64_t ModelDrivenChannel::graph_cal_version() const {
  const model::CalibrationStore* cal = configurator_->calibration();
  return cal != nullptr ? cal->version() : 0;
}

std::shared_ptr<TransferGraph> ModelDrivenChannel::find_replayable(
    topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
    const std::vector<topo::PathPlan>& paths) {
  std::shared_ptr<TransferGraph> g =
      options_.graphs->lookup(src, dst, bytes, paths, graph_cal_version());
  if (g == nullptr) return nullptr;
  if (options_.health.enabled) {
    for (const topo::PathPlan& plan : g->key_paths()) {
      if (health_.state(src, dst, plan) != PathHealth::kHealthy) {
        // One of the template's candidates is on probation: the classic
        // path would plan around it, so the compiled split is stale. Drop
        // the template; a healthy one is compiled once the path recovers
        // (or the split without it gets compiled fresh).
        ++graph_stats_.health_fallbacks;
        (void)options_.graphs->remove(src, dst, bytes, g->key_paths());
        return nullptr;
      }
    }
  }
  if (scheduler_ != nullptr &&
      g->capacity_epoch() != scheduler_->stats().capacity_events) {
    // Link capacities changed since compile (sever/degrade/restore): the
    // joint solve could pick a different split now. Recompile.
    ++graph_stats_.epoch_fallbacks;
    (void)options_.graphs->remove(src, dst, bytes, g->key_paths());
    return nullptr;
  }
  return g;
}

std::shared_ptr<TransferGraph> ModelDrivenChannel::compile_template(
    topo::DeviceId src, topo::DeviceId dst,
    const model::TransferConfig& config) {
  std::shared_ptr<TransferGraph> g =
      engine_->compile_graph(src, dst, config);
  ++graph_stats_.compiles;
  if (scheduler_ != nullptr) {
    g->set_capacity_epoch(scheduler_->stats().capacity_events);
  }
  options_.graphs->insert(g, graph_cal_version());
  return g;
}

void ModelDrivenChannel::attach_chain(ChainController* chain) {
  if (chain != nullptr && options_.recovery.enabled) {
    throw std::invalid_argument(
        "ModelDrivenChannel: cannot attach a chain controller with recovery "
        "enabled");
  }
  chain_ = chain;
}

sim::Task<void> ModelDrivenChannel::transfer(gpusim::DeviceBuffer& dst,
                                             std::size_t dst_offset,
                                             const gpusim::DeviceBuffer& src,
                                             std::size_t src_offset,
                                             std::size_t bytes) {
  if (options_.recovery.enabled) {
    co_await transfer_with_recovery(dst, dst_offset, src, src_offset, bytes);
    co_return;
  }
  // Collective chain interplay: the transport tap staged what this message
  // is — a capture-iteration step (record its config afterwards) or a
  // replayable step of a sealed chain (claim its template + batch ticket
  // and skip configuration entirely).
  const PlanClock::time_point plan_t0 = PlanClock::now();
  ChainController::Pending pend;
  if (chain_ != nullptr) pend = chain_->take_pending();
  if (pend.replay) {
    ChainController::Claim claim = chain_->claim_step(pend);
    if (claim.graph != nullptr) {
      const double t0 = engine_->runtime().engine().now();
      last_config_ = claim.graph->config();
      // The recalibrator needs the configuration after the replay resumes,
      // by which point last_config_ may belong to another in-flight
      // transfer — only then is a coroutine-local copy worth paying for.
      std::optional<model::TransferConfig> cfg;
      if (options_.recalibrator != nullptr) cfg = claim.graph->config();
      const model::TransferConfig& planned =
          cfg.has_value() ? *cfg : claim.graph->config();
      co_await run_planned(ScheduleGuard(scheduler_, claim.ticket),
                           std::move(claim.graph), planned, plan_t0, t0, dst,
                           dst_offset, src, src_offset);
      co_return;
    }
    // Unclaimable (contended round, passthrough, or the chain just died):
    // fall through to the normal path.
  }
  graph_stats_.plan_ns += plan_ns_since(plan_t0);
  const UncapturedOutcome unc =
      co_await transfer_uncaptured(dst, dst_offset, src, src_offset, bytes);
  if (pend.capture) {
    // Capture bookkeeping — the last leave seals the chain and compiles
    // every step's template, so this section carries the one-off capture
    // cost the steady-state claim path amortises away.
    const PlanClock::time_point record_t0 = PlanClock::now();
    chain_->record_step(pend, unc.reproducible && unc.config.has_value()
                                  ? &*unc.config
                                  : nullptr);
    graph_stats_.plan_ns += plan_ns_since(record_t0);
  }
}

sim::Task<ModelDrivenChannel::UncapturedOutcome>
ModelDrivenChannel::transfer_uncaptured(gpusim::DeviceBuffer& dst,
                                        std::size_t dst_offset,
                                        const gpusim::DeviceBuffer& src,
                                        std::size_t src_offset,
                                        std::size_t bytes) {
  if (bytes < options_.min_multipath_bytes) {
    co_await engine_->execute(dst, dst_offset, src, src_offset,
                              direct_plan(bytes));
    co_return UncapturedOutcome{};  // no multipath config to reproduce
  }
  const PlanClock::time_point u_t0 = PlanClock::now();
  const auto& paths = candidate_paths(src.device(), dst.device());
  const double t0 = engine_->runtime().engine().now();
  // Everything below keeps a coroutine-local copy of the chosen
  // configuration (`cfg`): concurrent transfers interleave at every
  // co_await, so last_config_ only reports "most recent transfer" and must
  // never be read back after a suspension.
  if (scheduler_ != nullptr) {
    // Compiled fast path: a cached template admitted as a replay skips the
    // joint solve and plan construction entirely.
    if (options_.graphs != nullptr) {
      if (auto g = find_replayable(src.device(), dst.device(), bytes, paths)) {
        TransferScheduler::Admission adm = scheduler_->admit_replay(
            src.device(), dst.device(), bytes, paths, g->config());
        if (adm.ticket != TransferScheduler::kInvalidTicket) {
          ScheduleGuard guard(scheduler_, adm.ticket);
          model::TransferConfig cfg = std::move(adm.config);
          last_config_ = cfg;
          ++graph_stats_.replays;
          co_await run_planned(std::move(guard), std::move(g), cfg, u_t0, t0,
                               dst, dst_offset, src, src_offset);
          co_return UncapturedOutcome{true, std::move(cfg)};
        }
        ++graph_stats_.contended_rejects;
      }
    }
    TransferScheduler::Admission adm =
        scheduler_->admit(src.device(), dst.device(), bytes, paths);
    ScheduleGuard guard(scheduler_, adm.ticket);
    // Only uncontended admissions compile: their split is reproducible, so
    // a later admit_replay can register the identical ledger entry.
    std::shared_ptr<TransferGraph> g;
    if (options_.graphs != nullptr && adm.uncontended) {
      g = compile_template(src.device(), dst.device(), adm.config);
      ++graph_stats_.replays_fresh;
    }
    // An uncontended joint solve is the solo configuration — reproducible;
    // a contended one depends on the live flows at this exact instant.
    const bool uncontended = adm.uncontended;
    model::TransferConfig cfg = std::move(adm.config);
    last_config_ = cfg;
    co_await run_planned(std::move(guard), std::move(g), cfg, u_t0, t0, dst,
                         dst_offset, src, src_offset);
    co_return UncapturedOutcome{uncontended, std::move(cfg)};
  }
  std::shared_ptr<TransferGraph> g;
  model::TransferConfig cfg;
  if (options_.graphs != nullptr) {
    g = find_replayable(src.device(), dst.device(), bytes, paths);
    if (g != nullptr) {
      cfg = g->config();
      ++graph_stats_.replays;
    }
  }
  if (g == nullptr) {
    // Without a plan cache every transfer solves theta.
    cfg = configurator_->configure(src.device(), dst.device(), bytes, paths);
    if (options_.graphs != nullptr) {
      g = compile_template(src.device(), dst.device(), cfg);
      ++graph_stats_.replays_fresh;
    }
  }
  last_config_ = cfg;
  co_await run_planned(ScheduleGuard(), std::move(g), cfg, u_t0, t0, dst,
                       dst_offset, src, src_offset);
  // Solo configuration (or its template): deterministic given calibration.
  co_return UncapturedOutcome{true, std::move(cfg)};
}

sim::Task<void> ModelDrivenChannel::run_planned(
    ScheduleGuard guard, std::shared_ptr<TransferGraph> graph,
    const model::TransferConfig& config, PlanClock::time_point plan_t0,
    double t0, gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset) {
  if (graph != nullptr) {
    graph_stats_.plan_ns += plan_ns_since(plan_t0);
    (void)co_await engine_->replay(std::move(graph), dst, dst_offset, src,
                                   src_offset, {});
  } else {
    ExecPlan plan;
    plan.reserve(config.paths.size());
    for (const auto& share : config.paths) {
      plan.push_back(ExecPath{share.plan, share.bytes, share.chunks});
    }
    graph_stats_.plan_ns += plan_ns_since(plan_t0);
    co_await engine_->execute(dst, dst_offset, src, src_offset,
                              std::move(plan));
  }
  if (guard.sched != nullptr &&
      guard.ticket != TransferScheduler::kInvalidTicket) {
    const PlanClock::time_point depart_t0 = PlanClock::now();
    guard.sched->depart(guard.ticket);
    graph_stats_.plan_ns += plan_ns_since(depart_t0);
  }
  guard.armed = false;
  if (options_.recalibrator != nullptr) {
    options_.recalibrator->observe(src.device(), dst.device(), config,
                                   engine_->runtime().engine().now() - t0);
  }
}

sim::Task<void> ModelDrivenChannel::transfer_with_recovery(
    gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset,
    std::size_t bytes) {
  sim::Engine& eng = engine_->runtime().engine();
  const topo::Topology& topo = engine_->runtime().topology();
  const double t0 = eng.now();
  const RecoveryOptions& rec = options_.recovery;
  const bool use_health = options_.health.enabled;
  const topo::DeviceId sdev = src.device();
  const topo::DeviceId ddev = dst.device();

  // Full candidate set for this pair. Without health tracking, `alive` is
  // the PR 2 survivor set: paths whose watchdog fires are removed for the
  // rest of this transfer. With health tracking, the candidate set is
  // re-partitioned per attempt from the channel-lifetime state machine, so
  // a path can come back within (and across) transfers.
  const std::vector<topo::PathPlan>& candidates =
      candidate_paths(sdev, ddev);
  std::vector<topo::PathPlan> alive = candidates;
  std::vector<topo::PathPlan> active;
  std::vector<topo::PathPlan> probe_due;
  std::vector<topo::PathPlan> probes_issued;
  std::vector<std::string> dead_names;

  // Undelivered message segments (offsets relative to the transfer). The
  // initial segment is the whole message; a partially delivered path
  // contributes its undelivered suffix back to the queue.
  struct Seg {
    std::size_t off;
    std::uint64_t bytes;
  };
  std::vector<Seg> todo{{0, bytes}};
  int replans = 0;
  double first_timeout = -1.0;
  ScheduleGuard guard;
  guard.sched = scheduler_;
  // The current attempt's configuration, held here and never in
  // last_config_: it is read again after co_await, by when a concurrent
  // transfer on this channel could have overwritten the shared member.
  model::TransferConfig config;

  while (!todo.empty()) {
    const Seg seg = todo.back();
    todo.pop_back();
    const std::vector<topo::PathPlan>* pool = &alive;
    if (use_health) {
      health_.partition(sdev, ddev, candidates, eng.now(), &active,
                        &probe_due);
      if (active.empty()) {
        // Nothing healthy. Plan over whatever is due a probe; if even
        // those are cooling down, force the full candidate set rather
        // than stall — the attempt stays bounded by max_replans.
        active = probe_due.empty() ? candidates : std::move(probe_due);
        probe_due.clear();
      }
      pool = &active;
    }
    // Small segments stay single-path (on the Direct survivor when alive,
    // else the first survivor), matching the non-recovery channel's
    // min_multipath threshold.
    const std::span<const topo::PathPlan> use =
        seg.bytes >= options_.min_multipath_bytes
            ? std::span<const topo::PathPlan>(*pool)
            : small_segment_path(*pool);
    // Compiled fast path, first whole-message attempt only: replans have
    // shrunken candidate sets and partial segments, which a frozen template
    // cannot express. The lookup runs whenever the request shape fits —
    // find_replayable vetoes (and evicts) templates with any non-healthy
    // candidate, so a hit guarantees the health-partitioned pool IS the
    // full candidate set and no probe carving is pending.
    const bool replay_shape =
        options_.graphs != nullptr && replans == 0 && seg.off == 0 &&
        seg.bytes == bytes && seg.bytes >= options_.min_multipath_bytes;
    // Compiling additionally requires the planned pool to be the whole
    // candidate set with no probe slices: a template is keyed under (and
    // replays) the full-tuple plan only — a subset config would compile an
    // unfindable template.
    const bool compile_eligible = replay_shape && probe_due.empty() &&
                                  pool->size() == candidates.size();
    std::shared_ptr<TransferGraph> graph;
    bool graph_from_cache = false;
    if (replay_shape) {
      graph = find_replayable(sdev, ddev, seg.bytes, candidates);
      graph_from_cache = graph != nullptr;
    }
    bool uncontended = scheduler_ == nullptr;
    if (graph != nullptr && scheduler_ != nullptr) {
      TransferScheduler::Admission adm = scheduler_->admit_replay(
          sdev, ddev, seg.bytes, candidates, graph->config());
      if (adm.ticket == TransferScheduler::kInvalidTicket) {
        ++graph_stats_.contended_rejects;
        graph = nullptr;
      } else {
        guard.ticket = adm.ticket;
        config = std::move(adm.config);
      }
    } else if (graph != nullptr) {
      config = graph->config();
    }
    if (graph == nullptr) {
      if (scheduler_ != nullptr) {
        if (guard.ticket == TransferScheduler::kInvalidTicket) {
          TransferScheduler::Admission adm =
              scheduler_->admit(src.device(), dst.device(), seg.bytes, use);
          guard.ticket = adm.ticket;
          config = std::move(adm.config);
          uncontended = adm.uncontended;
        } else {
          config = scheduler_->replan(guard.ticket, seg.bytes, use);
        }
      } else {
        config = configurator_->compute_config(src.device(), dst.device(),
                                               seg.bytes, use);
      }
      if (compile_eligible && uncontended) {
        graph = compile_template(sdev, ddev, config);
      }
    }
    last_config_ = config;
    // Watchdog slack for this attempt: the base factor escalates per
    // re-plan (bounded exponential backoff), and with health tracking each
    // path compounds its own failure-streak multiplier on top.
    const double slack = escalated_slack(rec, replans);
    ExecPlan plan;
    PathWatchList watch;
    if (graph == nullptr) plan.reserve(config.paths.size());
    watch.reserve(config.paths.size());
    for (const auto& share : config.paths) {
      // A replayed template carries its own compiled plan; only the
      // watchdog deadlines are built per attempt (identically either way).
      if (graph == nullptr) {
        plan.push_back(ExecPath{share.plan, share.bytes, share.chunks});
      }
      // Watchdog deadline: model-predicted completion time of this share
      // times the slack factor, floored so that noise on tiny shares
      // cannot trip a healthy path.
      const double mult =
          use_health ? health_.slack_multiplier(sdev, ddev, share.plan) : 1.0;
      watch.push_back(PathWatch{
          share.bytes > 0
              ? std::max(kMinDeadlineS, slack * mult * share.predicted_time)
              : 0.0});
    }
    // Probe slices: paths on probation ride along with a small cut of the
    // anchor's share. A probe that delivers readmits its path into the
    // planned set from the next attempt on; one that times out only costs
    // its own (floored) deadline, never the planned paths' bytes. (Never
    // reached on a graph attempt: eligibility requires no pending probes.)
    probes_issued.clear();
    if (graph == nullptr && use_health &&
        seg.bytes >= options_.min_multipath_bytes) {
      const std::uint64_t pb = health_.probe_bytes(seg.bytes);
      for (const topo::PathPlan& pp : probe_due) {
        // Keep the anchor meaningfully larger than what it donates.
        if (plan.empty() || plan.front().bytes < 2 * pb) break;
        plan.front().bytes -= pb;
        const model::TransferConfig probe_cfg = configurator_->compute_config(
            sdev, ddev, pb, std::span<const topo::PathPlan>(&pp, 1));
        const double mult = health_.slack_multiplier(sdev, ddev, pp);
        plan.push_back(ExecPath{pp, pb, probe_cfg.paths[0].chunks});
        watch.push_back(PathWatch{
            std::max(kMinDeadlineS, slack * mult * probe_cfg.predicted_time)});
        probes_issued.push_back(pp);
        health_.on_probe_issued(sdev, ddev, pp);
      }
    }
    TransferOutcome out;
    if (graph != nullptr) {
      if (graph_from_cache) {
        ++graph_stats_.replays;
      } else {
        ++graph_stats_.replays_fresh;
      }
      out = co_await engine_->replay(std::move(graph), dst,
                                     dst_offset + seg.off, src,
                                     src_offset + seg.off, std::move(watch));
    } else {
      out = co_await engine_->execute_monitored(
          dst, dst_offset + seg.off, src, src_offset + seg.off,
          std::move(plan), std::move(watch));
    }
    if (out.complete) {
      if (use_health) {
        for (const auto& share : config.paths) {
          if (share.bytes > 0) health_.on_success(sdev, ddev, share.plan,
                                                  eng.now());
        }
        for (const topo::PathPlan& pp : probes_issued) {
          health_.on_success(sdev, ddev, pp, eng.now());
        }
      }
      continue;
    }

    if (first_timeout < 0.0) first_timeout = eng.now();
    // Mark timed-out paths (dropped from `alive`, or demoted in the health
    // state machine) and queue the undelivered remainder of every slice —
    // including probe slices, whose bytes came out of the anchor's share.
    std::size_t path_off = seg.off;
    for (std::size_t i = 0; i < out.paths.size(); ++i) {
      const PathOutcome& po = out.paths[i];
      const topo::PathPlan dead =
          i < config.paths.size()
              ? config.paths[i].plan
              : probes_issued[i - config.paths.size()];
      if (po.timed_out) {
        ++stats_.path_timeouts;
        dead_names.push_back(topo::describe(dead, topo));
        if (use_health) {
          health_.on_timeout(sdev, ddev, dead, eng.now());
        } else {
          std::erase_if(alive, [&dead](const topo::PathPlan& p) {
            return p.kind == dead.kind && p.stage == dead.stage;
          });
        }
      } else if (use_health && po.bytes > 0 &&
                 po.bytes_delivered >= po.bytes) {
        // Fully delivered its slice even though the transfer as a whole
        // needs a re-plan: that path is healthy (probes readmit here). A
        // slice cancelled mid-flight by the abort proves nothing and
        // changes no state.
        health_.on_success(sdev, ddev, dead, eng.now());
      }
      if (po.bytes_delivered < po.bytes) {
        todo.push_back(Seg{path_off + po.bytes_delivered,
                           po.bytes - po.bytes_delivered});
      }
      path_off += po.bytes;
    }
    ++replans;
    if ((!use_health && alive.empty()) || replans > rec.max_replans) {
      ++stats_.transfers_failed;
      std::uint64_t undelivered = 0;
      for (const Seg& s : todo) undelivered += s.bytes;
      std::string detail = "dead paths:";
      for (const std::string& n : dead_names) detail += " " + n;
      gpusim::TransferError::Info info;
      info.detail = detail;
      info.bytes_requested = bytes;
      info.bytes_delivered = bytes - static_cast<std::size_t>(undelivered);
      info.elapsed_s = eng.now() - t0;
      info.retries = replans;
      throw gpusim::TransferError(
          "ModelDrivenChannel: transfer failed (" + detail + "; " +
              std::to_string(info.bytes_delivered) + "/" +
              std::to_string(bytes) + " bytes delivered)",
          std::move(info));
    }
    ++stats_.replans;
  }
  if (scheduler_ != nullptr &&
      guard.ticket != TransferScheduler::kInvalidTicket) {
    scheduler_->depart(guard.ticket);
    guard.armed = false;
  }
  if (first_timeout >= 0.0) {
    ++stats_.transfers_recovered;
    stats_.recovery_time_s += eng.now() - first_timeout;
  } else if (options_.recalibrator != nullptr) {
    // Clean single-plan completion: feed (predicted, actual) back for
    // online alpha/beta refinement. Transfers that tripped a watchdog are
    // excluded — a stall is a fault for the health machine, not drift.
    options_.recalibrator->observe(sdev, ddev, config, eng.now() - t0);
  }
}

StaticPlanChannel::StaticPlanChannel(PipelineEngine& engine, StaticPlan plan,
                                     std::size_t min_multipath_bytes)
    : engine_(&engine),
      plan_(std::move(plan)),
      min_multipath_bytes_(min_multipath_bytes) {
  if (plan_.paths.empty() ||
      plan_.paths.size() != plan_.fractions.size() ||
      plan_.paths.size() != plan_.chunks.size()) {
    throw std::invalid_argument("StaticPlanChannel: inconsistent plan");
  }
  if (plan_.paths.front().kind != topo::PathKind::Direct) {
    throw std::invalid_argument(
        "StaticPlanChannel: first path must be direct");
  }
  double sum = 0.0;
  for (double f : plan_.fractions) {
    if (f < 0.0) {
      throw std::invalid_argument("StaticPlanChannel: negative fraction");
    }
    sum += f;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    throw std::invalid_argument("StaticPlanChannel: fractions must sum to 1");
  }
}

sim::Task<void> StaticPlanChannel::transfer(gpusim::DeviceBuffer& dst,
                                            std::size_t dst_offset,
                                            const gpusim::DeviceBuffer& src,
                                            std::size_t src_offset,
                                            std::size_t bytes) {
  if (bytes < min_multipath_bytes_) {
    co_await engine_->execute(dst, dst_offset, src, src_offset,
                              direct_plan(bytes));
    co_return;
  }
  ExecPlan plan;
  plan.reserve(plan_.paths.size());
  std::uint64_t assigned = 0;
  for (std::size_t i = 1; i < plan_.paths.size(); ++i) {
    const auto share = static_cast<std::uint64_t>(
        std::floor(plan_.fractions[i] * static_cast<double>(bytes)));
    assigned += share;
    plan.push_back(ExecPath{plan_.paths[i], share, plan_.chunks[i]});
  }
  // The direct path absorbs the rounding remainder, as in Algorithm 1.
  plan.insert(plan.begin(),
              ExecPath{plan_.paths[0], bytes - assigned, plan_.chunks[0]});
  co_await engine_->execute(dst, dst_offset, src, src_offset,
                            std::move(plan));
}

}  // namespace mpath::pipeline
