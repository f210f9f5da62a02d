#include "mpath/pipeline/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

namespace mpath::pipeline {

namespace {

// State shared between the executing coroutine and its watchdog callbacks.
// Heap-held (shared_ptr, pool-recycled) because a watchdog timer can fire
// after the transfer completed and the coroutine frame is gone.
struct MonitorState {
  struct Entry {
    gpusim::CancelTokenPtr token;
    util::SmallVec<gpusim::EventId, 16> done_events;  ///< per-chunk completion
    util::SmallVec<std::size_t, 16> chunk_sizes;
    std::size_t records_issued = 0;  ///< completion records enqueued so far
    std::uint64_t bytes = 0;
    std::uint64_t delivered = 0;  ///< direct: running total fed by DoneHooks
    bool staged = false;
    bool finished = false;
    bool timed_out = false;
  };
  gpusim::GpuRuntime* rt = nullptr;
  util::SmallVec<Entry, 4> entries;  ///< parallel to the caller's plan

  // Contiguous delivered prefix. Direct paths accumulate it passively: each
  // chunk's memcpy_async carries a DoneHook that adds the chunk size on
  // delivery (streams are in-order, so the sum is always a prefix), costing
  // no extra events. Staged paths poll the backward event records; only
  // events whose record has been *enqueued* are consulted — a freshly
  // created event reads as fired (CUDA never-recorded semantics) and must
  // not count until record_event re-arms it.
  [[nodiscard]] std::uint64_t delivered_prefix(std::size_t i) const {
    const Entry& e = entries[i];
    if (!e.staged) return e.delivered;
    std::uint64_t sum = 0;
    const std::size_t n = std::min(e.records_issued, e.done_events.size());
    for (std::size_t c = 0; c < n; ++c) {
      if (!rt->event_fired(e.done_events[c])) break;
      sum += e.chunk_sizes[c];
    }
    return sum;
  }

  // Watchdog body for path `i`: snapshot progress *before* cancelling (the
  // post-cancel drain fires the remaining completion records without moving
  // data), then abort the path's in-flight flows.
  void on_deadline(std::size_t i) {
    Entry& e = entries[i];
    if (e.finished || e.timed_out) return;
    const std::uint64_t d = delivered_prefix(i);
    if (d >= e.bytes) {  // raced with completion: path is effectively done
      e.finished = true;
      e.delivered = e.bytes;
      return;
    }
    e.delivered = d;
    e.timed_out = true;
    e.token->cancel();
  }
};

void check_watch(const PathWatchList& watch, std::size_t plan_size) {
  if (!watch.empty() && watch.size() != plan_size) {
    throw std::invalid_argument(
        "PipelineEngine: watch must be empty or match the plan size");
  }
}

// Validate every share of a plan (ExecPath or model::PathShare) before
// anything is issued or reserved, and return the byte total. The sum is
// overflow-checked so a wrapped total cannot slip past the region bounds
// check and then throw mid-issuance.
template <typename Shares>
std::uint64_t checked_total(const Shares& shares) {
  std::uint64_t total = 0;
  for (const auto& s : shares) {
    if (s.chunks < 1) {
      throw std::invalid_argument("PipelineEngine: chunks must be >= 1");
    }
    if (s.plan.kind != topo::PathKind::Direct &&
        s.plan.stage == topo::kInvalidDevice) {
      throw std::invalid_argument("PipelineEngine: staged path without stage");
    }
    if (s.bytes > std::numeric_limits<std::uint64_t>::max() - total) {
      throw std::invalid_argument("PipelineEngine: plan byte total overflows");
    }
    total += s.bytes;
  }
  return total;
}

}  // namespace

PipelineEngine::PipelineEngine(gpusim::GpuRuntime& runtime,
                               std::size_t staging_buffers_per_device,
                               gpusim::Payload staging_payload)
    : runtime_(&runtime),
      staging_(runtime, staging_buffers_per_device, staging_payload) {}

gpusim::StreamId PipelineEngine::stream_for(const StreamKey& key,
                                            topo::DeviceId device) {
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_.emplace(key, runtime_->create_stream(device)).first;
  }
  return it->second;
}

sim::Engine::DelayAwaiter PipelineEngine::issue_cost() {
  const auto& costs = runtime_->costs();
  return runtime_->engine().delay(costs.op_launch_s *
                                  runtime_->rng().jitter(costs.jitter_rel));
}

std::uint64_t PipelineEngine::bytes_on(topo::PathKind kind) const {
  auto it = bytes_by_kind_.find(kind);
  return it == bytes_by_kind_.end() ? 0 : it->second;
}

sim::Task<void> PipelineEngine::execute(gpusim::DeviceBuffer& dst,
                                        std::size_t dst_offset,
                                        const gpusim::DeviceBuffer& src,
                                        std::size_t src_offset,
                                        ExecPlan plan) {
  (void)co_await execute_monitored(dst, dst_offset, src, src_offset,
                                   std::move(plan), {});
}

PipelineEngine::PathState PipelineEngine::path_state(
    topo::DeviceId src_dev, topo::DeviceId dst_dev, std::size_t index,
    const topo::PathPlan& plan, std::uint64_t bytes, int chunks,
    std::size_t offset) {
  PathState p;
  p.plan = plan;
  p.bytes = bytes;
  p.offset = offset;
  p.plan_index = index;
  // Never more chunks than bytes.
  p.chunks = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(chunks), bytes));
  p.split_chunks();
  p.staged = plan.kind != topo::PathKind::Direct;
  p.first_stream = stream_for({src_dev, dst_dev, index, 0}, src_dev);
  if (p.staged) {
    p.second_stream = stream_for({src_dev, dst_dev, index, 1}, plan.stage);
    const auto& costs = runtime_->costs();
    p.extra_sync_s = plan.kind == topo::PathKind::HostStaged
                         ? costs.host_stage_sync_s
                         : costs.stage_sync_s;
  }
  return p;
}

sim::Task<TransferOutcome> PipelineEngine::execute_monitored(
    gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset, ExecPlan plan,
    PathWatchList watch) {
  check_watch(watch, plan.size());
  const std::uint64_t total = checked_total(plan);
  src.check_region(src_offset, total);
  dst.check_region(dst_offset, total);

  // A transient plan for this one transfer, replayed once.
  util::SmallVec<PathState, 4> paths;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ExecPath& spec = plan[i];
    if (spec.bytes == 0) continue;
    paths.push_back(path_state(src.device(), dst.device(), i, spec.plan,
                               spec.bytes, spec.chunks, offset));
    offset += spec.bytes;
  }
  co_return co_await drive(paths, plan.size(), dst, dst_offset, src,
                           src_offset, std::move(watch));
}

std::shared_ptr<TransferGraph> PipelineEngine::compile_graph(
    topo::DeviceId src_dev, topo::DeviceId dst_dev,
    const model::TransferConfig& config) {
  const std::uint64_t total = checked_total(config.paths);
  if (total == 0) {
    throw std::invalid_argument("PipelineEngine: cannot compile empty config");
  }

  auto graph = std::make_shared<TransferGraph>();
  graph->runtime_ = runtime_;
  graph->src_dev_ = src_dev;
  graph->dst_dev_ = dst_dev;
  graph->total_bytes_ = total;
  graph->config_ = config;
  graph->key_paths_.reserve(config.paths.size());
  for (const model::PathShare& share : config.paths) {
    graph->key_paths_.push_back(share.plan);
  }

  std::size_t offset = 0;
  for (std::size_t i = 0; i < config.paths.size(); ++i) {
    const model::PathShare& share = config.paths[i];
    if (share.bytes == 0) continue;
    graph->paths_.push_back(path_state(src_dev, dst_dev, i, share.plan,
                                       share.bytes, share.chunks, offset));
    offset += share.bytes;
  }
  return graph;
}

sim::Task<TransferOutcome> PipelineEngine::replay(
    std::shared_ptr<TransferGraph> graph, gpusim::DeviceBuffer& dst,
    std::size_t dst_offset, const gpusim::DeviceBuffer& src,
    std::size_t src_offset, PathWatchList watch) {
  if (graph == nullptr || !graph->valid()) {
    throw std::invalid_argument("PipelineEngine: replay of an invalid graph");
  }
  TransferGraph& g = *graph;
  if (g.runtime_ != runtime_) {
    throw std::invalid_argument(
        "PipelineEngine: graph was compiled by a different runtime");
  }
  check_watch(watch, g.config_.paths.size());
  if (src.device() != g.src_dev_ || dst.device() != g.dst_dev_) {
    throw std::invalid_argument(
        "PipelineEngine: replay endpoints do not match the compiled graph");
  }
  src.check_region(src_offset, g.total_bytes_);
  dst.check_region(dst_offset, g.total_bytes_);
  ++g.replays_;
  co_return co_await drive(g.paths_, g.config_.paths.size(), dst, dst_offset,
                           src, src_offset, std::move(watch));
}

sim::Task<TransferOutcome> PipelineEngine::drive(
    std::span<const PathState> paths, std::size_t plan_size,
    gpusim::DeviceBuffer& dst, std::size_t dst_offset,
    const gpusim::DeviceBuffer& src, std::size_t src_offset,
    PathWatchList watch) {
  // This execution's resources, parallel to `paths`: a staged path's
  // double-buffered staging lease and its per-chunk forward/backward
  // events. Leases are taken in plan order, before any watchdog is armed:
  // waiting for a slot is charged to the transfer, not to its deadline.
  struct Staging {
    StagingPool::Lease lease;
    util::SmallVec<gpusim::EventId, 16> fwd_events;
    util::SmallVec<gpusim::EventId, 16> bwd_events;
  };
  util::SmallVec<Staging, 4> staging;
  staging.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathState& p = paths[i];
    if (!p.staged) continue;
    Staging& st = staging[i];
    st.lease = co_await staging_.acquire(p.plan.stage,
                                         2 * p.chunk_sizes.front(),
                                         src.device());
    for (int c = 0; c < p.chunks; ++c) {
      st.fwd_events.push_back(runtime_->acquire_event());
      st.bwd_events.push_back(runtime_->acquire_event());
    }
  }

  bool any_watch = false;
  for (const PathWatch& w : watch) any_watch |= w.deadline_s > 0.0;
  std::shared_ptr<MonitorState> mon;
  if (any_watch) {
    mon = sim::make_pooled<MonitorState>();
    mon->rt = runtime_;
    mon->entries.resize(plan_size);
  }
  // The watchdog entry of a monitored path, null for an unmonitored one.
  const auto watched = [&mon](const PathState& p) -> MonitorState::Entry* {
    if (mon == nullptr) return nullptr;
    MonitorState::Entry& e = mon->entries[p.plan_index];
    return e.token != nullptr ? &e : nullptr;
  };

  // -- monitor entries and accounting -----------------------------------------
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathState& p = paths[i];
    if (mon != nullptr && watch[p.plan_index].deadline_s > 0.0) {
      MonitorState::Entry& e = mon->entries[p.plan_index];
      e.token = runtime_->make_cancel_token();
      e.bytes = p.bytes;
      e.chunk_sizes = p.chunk_sizes;
      e.staged = p.staged;
      // The backward record of chunk c fires once the chunk left the
      // staging device, i.e. the chunk is visible at the destination.
      // Direct paths need no events at all: each chunk's copy reports its
      // own completion through a DoneHook (see the issue loop below).
      if (p.staged) e.done_events = staging[i].bwd_events;
    }
    bytes_by_kind_[p.plan.kind] += p.bytes;
  }

  // -- arm watchdogs ----------------------------------------------------------
  // Deadlines are relative to issue start. The callback holds the shared
  // MonitorState, not the coroutine frame, so a timer firing after the
  // transfer completed is a harmless no-op.
  if (mon != nullptr) {
    sim::Engine& engine = runtime_->engine();
    for (const PathState& p : paths) {
      if (watched(p) == nullptr) continue;
      const std::size_t i = p.plan_index;
      engine.schedule_callback(engine.now() + watch[i].deadline_s,
                               [mon, i] { mon->on_deadline(i); });
    }
  }

  // -- interleaved issue loop -------------------------------------------------
  // One host loop issues chunk r of every path before chunk r+1 of any, so
  // all paths begin flowing early while later paths still start strictly
  // after earlier ones (sequential initiation). Every runtime call is
  // followed by one issue-cost await.
  int max_rounds = 0;
  for (const PathState& p : paths) max_rounds = std::max(max_rounds, p.chunks);
  for (int r = 0; r < max_rounds; ++r) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const PathState& p = paths[i];
      if (r >= p.chunks) continue;
      MonitorState::Entry* e = watched(p);
      // Stop feeding a path whose watchdog already gave up on it.
      if (e != nullptr && e->timed_out) continue;
      gpusim::CancelTokenPtr token = e != nullptr ? e->token : nullptr;
      const std::size_t c = static_cast<std::size_t>(r);
      const std::size_t sz = p.chunk_sizes[c];
      const std::size_t src_at = src_offset + p.offset + p.chunk_offsets[c];
      const std::size_t dst_at = dst_offset + p.offset + p.chunk_offsets[c];
      if (!p.staged) {
        // Progress accounting rides the copy's own completion instead of an
        // extra per-chunk event record: monitoring a direct path is free.
        gpusim::GpuRuntime::DoneHook hook;
        if (e != nullptr) {
          hook = [mon, i = p.plan_index, sz](bool delivered) {
            if (delivered) mon->entries[i].delivered += sz;
          };
        }
        runtime_->memcpy_async(dst, dst_at, src, src_at, sz, p.first_stream,
                               std::move(token), std::move(hook));
        co_await issue_cost();
        continue;
      }
      Staging& st = staging[i];
      gpusim::DeviceBuffer& stage = st.lease.buffer();
      const std::size_t slot_off = (c % 2) * (stage.size() / 2);
      if (r >= 2) {
        // The slot is free once chunk c-2 left the staging device.
        runtime_->wait_event(p.first_stream, st.bwd_events[c - 2]);
        co_await issue_cost();
      }
      runtime_->memcpy_async(stage, slot_off, src, src_at, sz, p.first_stream,
                             token);
      co_await issue_cost();
      runtime_->record_event(st.fwd_events[c], p.first_stream);
      co_await issue_cost();
      runtime_->wait_event(p.second_stream, st.fwd_events[c]);
      co_await issue_cost();
      if (p.extra_sync_s > 0.0) {
        runtime_->stream_delay(p.second_stream, p.extra_sync_s);
        co_await issue_cost();
      }
      runtime_->memcpy_async(dst, dst_at, stage, slot_off, sz,
                             p.second_stream, std::move(token));
      co_await issue_cost();
      runtime_->record_event(st.bwd_events[c], p.second_stream);
      if (e != nullptr) ++e->records_issued;
      co_await issue_cost();
    }
  }

  // -- completion ---------------------------------------------------------------
  // Staged paths first: a staging lease returns to the pool the moment its
  // own streams drain, so windowed transfers never hold buffers hostage
  // while waiting for an unrelated (direct) slice to finish. A timed-out
  // path's streams drain too: its cancelled copies skip the data movement,
  // so the synchronize below returns promptly instead of hanging.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const PathState& p = paths[i];
    if (!p.staged) continue;
    co_await runtime_->synchronize(p.second_stream);
    if (src.materialized() && dst.materialized() &&
        !staging[i].lease.buffer().materialized()) {
      // Simulated staging buffer between materialized endpoints: land the
      // payload in bulk — but only the delivered prefix of a path that was
      // aborted mid-flight.
      const MonitorState::Entry* e = watched(p);
      const auto land = static_cast<std::size_t>(
          e != nullptr && e->timed_out ? e->delivered : p.bytes);
      if (land > 0) {
        std::memcpy(dst.region(dst_offset + p.offset, land).data(),
                    src.region(src_offset + p.offset, land).data(), land);
      }
    }
    staging[i].lease.release();
  }
  for (const PathState& p : paths) {
    if (p.staged) continue;
    co_await runtime_->synchronize(p.first_stream);
  }
  ++transfers_;

  // -- assemble the outcome ---------------------------------------------------
  // Parallel to the plan; shares without state carry no bytes.
  TransferOutcome out;
  out.paths.resize(plan_size);
  for (const PathState& p : paths) {
    out.paths[p.plan_index].bytes = p.bytes;
    out.paths[p.plan_index].bytes_delivered = p.bytes;  // default: delivered
  }
  if (mon != nullptr) {
    for (std::size_t i = 0; i < plan_size; ++i) {
      MonitorState::Entry& e = mon->entries[i];
      if (e.timed_out) {
        out.paths[i].timed_out = true;
        out.paths[i].bytes_delivered = e.delivered;
        out.complete = false;
      } else {
        e.finished = true;  // disarm any still-pending watchdog timer
      }
    }
  }

  // Recycle this execution's events. All records have fired (every stream
  // drained above), every waiter captured its latch at enqueue time, and
  // late watchdog timers bail out on finished/timed-out entries before
  // consulting events — so a reused id can never alias stale state.
  for (const Staging& st : staging) {
    for (gpusim::EventId ev : st.fwd_events) runtime_->release_event(ev);
    for (gpusim::EventId ev : st.bwd_events) runtime_->release_event(ev);
  }
  co_return out;
}

}  // namespace mpath::pipeline
