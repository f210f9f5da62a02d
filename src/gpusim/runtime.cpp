#include "mpath/gpusim/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "mpath/util/units.hpp"

namespace mpath::gpusim {

void CancelToken::cancel() {
  if (cancelled_) return;
  cancelled_ = true;
  for (sim::FlowId id : in_flight_) {
    // A flow that completed in this same instant has a stale id; cancel_flow
    // returns false and the copy counts as delivered.
    if (net_->cancel_flow(id)) cancelled_ids_.push_back(id);
  }
  in_flight_.clear();
}

bool CancelToken::was_cancelled(sim::FlowId id) const {
  return std::find(cancelled_ids_.begin(), cancelled_ids_.end(), id) !=
         cancelled_ids_.end();
}

GpuRuntime::GpuRuntime(const topo::System& system, sim::Engine& engine,
                       sim::FluidNetwork& network, std::uint64_t seed)
    : system_(&system),
      engine_(&engine),
      network_(&network),
      binding_(system.topology, network),
      rng_(seed) {}

StreamId GpuRuntime::create_stream(topo::DeviceId device) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_stream)");
  streams_.push_back(Stream{device});
  return static_cast<StreamId>(streams_.size() - 1);
}

EventId GpuRuntime::create_event() {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_event)");
  auto latch = sim::make_pooled<sim::Latch>(*engine_);
  latch->fire();  // never-recorded events do not block (CUDA semantics)
  events_.push_back(Event{std::move(latch)});
  return static_cast<EventId>(events_.size() - 1);
}

EventId GpuRuntime::acquire_event() {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (acquire_event)");
  ++events_acquired_;
  if (!event_free_list_.empty()) {
    const EventId ev = event_free_list_.back();
    event_free_list_.pop_back();
    return ev;
  }
  return create_event();
}

void GpuRuntime::release_event(EventId event) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (release_event)");
  assert(events_released_ < events_acquired_ &&
         "GpuRuntime: release_event without a matching acquire_event");
  ++events_released_;
  event_free_list_.push_back(event);
}

CancelTokenPtr GpuRuntime::make_cancel_token() const {
  return sim::make_pooled<CancelToken>(*network_);
}

bool GpuRuntime::event_fired(EventId event) const {
  return events_.at(event).latch->fired();
}

void GpuRuntime::enqueue(StreamId stream, Op op) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (stream enqueue)");
  Stream& s = streams_.at(stream);
  const bool idle = s.queue.empty();
  if (s.queue.size() == s.queue.capacity() && 2 * s.head >= s.queue.size()) {
    // Full and at least half run: reuse the run slots instead of growing.
    s.queue.erase(s.queue.begin(), s.queue.begin() + s.head);
    s.head = 0;
  }
  s.queue.push_back(std::move(op));
  if (idle) {
    // Nobody joins a driver (synchronize waits on a latch), so it starts
    // without join state.
    engine_->launch(drive(s, stream), "gpusim-stream");
  }
  ++ops_issued_;
  if (tracer_ != nullptr && --ops_until_sample_ == 0) {
    ops_until_sample_ = counter_stride_;
    const auto busy =
        std::count_if(streams_.begin(), streams_.end(),
                      [](const Stream& st) { return !st.queue.empty(); });
    tracer_->add_counter("gpusim", "streams_busy", engine_->now(),
                         static_cast<double>(busy));
  }
}

sim::Task<void> GpuRuntime::drive(Stream& s, StreamId stream) {
  for (;;) {
    // Enqueues may move the slot, so the op runs from a copy; the slot
    // keeps the synchronize latch until the op completes.
    Op op = std::move(s.queue[s.head]);
    s.queue[s.head].synced = std::move(op.synced);
    if (op.kind == Op::Kind::kRecord) {
      co_await engine_->delay(costs().event_record_s *
                              rng_.jitter(costs().jitter_rel));
      op.event->fire();
    } else if (op.kind == Op::Kind::kWait) {
      co_await op.event->wait();
      co_await engine_->delay(costs().event_wait_s *
                              rng_.jitter(costs().jitter_rel));
    } else if (op.kind == Op::Kind::kDelay) {
      co_await engine_->delay(op.seconds);
    } else if (op.token && op.token->cancelled()) {
      // Cancelled before it started: drain with no dispatch latency.
      if (op.on_done) op.on_done(false);
    } else {
      const DeviceBuffer& src = *op.src;
      DeviceBuffer& dst = *op.dst;
      const double trace_start = engine_->now();
      // Device-side dispatch latency for the copy engine.
      co_await engine_->delay(costs().op_launch_s *
                              rng_.jitter(costs().jitter_rel));
      bool delivered = true;
      if (op.len > 0) {
        if (src.device() == dst.device()) {
          co_await engine_->delay(static_cast<double>(op.len) /
                                  costs().local_copy_bps);
        } else {
          // Same steps as FluidNetwork::transfer; the flow id is registered
          // with the token, if any, so token->cancel() can abort it.
          const sim::Route route =
              binding_.route_links(src.device(), dst.device());
          double latency = 0.0;
          for (sim::LinkId l : route) latency += network_->link(l).latency_s;
          if (latency > 0.0) co_await engine_->delay(latency);
          if (op.token && op.token->cancelled()) {
            delivered = false;
          } else if (!route.empty()) {
            auto* flow_done = new sim::Latch(*engine_);  // network-owned
            const sim::FlowId fid = network_->start_flow(
                route, static_cast<double>(op.len), flow_done);
            if (op.token) op.token->in_flight_.push_back(fid);
            co_await flow_done->wait();
            if (op.token) {
              auto& live = op.token->in_flight_;
              const auto it = std::find(live.begin(), live.end(), fid);
              if (it != live.end()) live.erase(it);
              delivered = !op.token->was_cancelled(fid);
            }
          }
        }
        if (delivered) {
          // Payload lands at completion time; simulated buffers carry none.
          if (dst.materialized() && src.materialized()) {
            std::memcpy(dst.region(op.dst_offset, op.len).data(),
                        src.region(op.src_offset, op.len).data(), op.len);
          }
          bytes_copied_ += op.len;
        }
      }
      if (tracer_ != nullptr) {
        tracer_->add_span(
            "stream" + std::to_string(stream) + " (" +
                topology().device(s.device).name + ")",
            std::string(delivered ? "copy " : "copy(cancelled) ") +
                util::format_bytes(op.len) + " " +
                topology().device(src.device()).name + "->" +
                topology().device(dst.device()).name,
            trace_start, engine_->now());
      }
      if (op.on_done) op.on_done(delivered);
    }
    if (const auto& synced = s.queue[s.head].synced) synced->fire();
    if (++s.head == s.queue.size()) {
      s.queue.clear();
      s.head = 0;
      co_return;
    }
    // One same-instant hop before the next op: the lane entry where the
    // next op would wake on this op's completion.
    co_await engine_->delay(0.0);
  }
}

void GpuRuntime::memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                              const DeviceBuffer& src, std::size_t src_offset,
                              std::size_t len, StreamId stream,
                              CancelTokenPtr token, DoneHook on_done) {
  // Validate regions eagerly: misuse should fail at the call site, not at
  // some later simulated instant.
  dst.check_region(dst_offset, len);
  src.check_region(src_offset, len);
  enqueue(stream, Op{.kind = Op::Kind::kCopy, .dst = &dst, .src = &src,
                     .dst_offset = dst_offset, .src_offset = src_offset,
                     .len = len, .token = std::move(token),
                     .on_done = std::move(on_done)});
}

void GpuRuntime::record_event(EventId event, StreamId stream) {
  auto recorded = sim::make_pooled<sim::Latch>(*engine_);
  events_.at(event).latch = recorded;
  enqueue(stream, Op{.kind = Op::Kind::kRecord, .event = std::move(recorded)});
}

void GpuRuntime::wait_event(StreamId stream, EventId event) {
  // CUDA captures the event state at enqueue time.
  enqueue(stream,
          Op{.kind = Op::Kind::kWait, .event = events_.at(event).latch});
}

void GpuRuntime::stream_delay(StreamId stream, double seconds) {
  enqueue(stream, Op{.kind = Op::Kind::kDelay, .seconds = seconds});
}

std::shared_ptr<sim::Latch> GpuRuntime::sync_point(Stream& s) {
  Op& last = s.queue.back();
  if (!last.synced) last.synced = sim::make_pooled<sim::Latch>(*engine_);
  return last.synced;
}

sim::Task<void> GpuRuntime::synchronize(StreamId stream) {
  Stream& s = streams_.at(stream);
  if (s.queue.empty()) co_return;
  const auto done = sync_point(s);
  co_await done->wait();
}

sim::Task<void> GpuRuntime::synchronize_event(EventId event) {
  auto latch = events_.at(event).latch;
  co_await latch->wait();
}

sim::Task<void> GpuRuntime::device_synchronize() {
  // Snapshot first: ops enqueued after this call are not covered.
  std::vector<std::shared_ptr<sim::Latch>> points;
  for (Stream& s : streams_) {
    if (!s.queue.empty()) points.push_back(sync_point(s));
  }
  for (auto& p : points) co_await p->wait();
}

sim::Task<void> GpuRuntime::ipc_open(topo::DeviceId opener,
                                     const DeviceBuffer& buffer) {
  const auto key = std::make_pair(opener, buffer.id());
  if (ipc_cache_.contains(key)) co_return;
  co_await engine_->delay(costs().ipc_open_s *
                          rng_.jitter(costs().jitter_rel));
  ipc_cache_.insert(key);
}

bool GpuRuntime::ipc_cached(topo::DeviceId opener,
                            const DeviceBuffer& buffer) const {
  return ipc_cache_.contains(std::make_pair(opener, buffer.id()));
}

void GpuRuntime::ipc_cache_clear() { ipc_cache_.clear(); }

}  // namespace mpath::gpusim
