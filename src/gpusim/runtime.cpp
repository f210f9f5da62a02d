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

namespace {
/// Order-stable removal (SmallVec analogue of std::erase on a vector).
void erase_flow(util::SmallVec<sim::FlowId, 4>& v, sim::FlowId id) {
  const auto it = std::find(v.begin(), v.end(), id);
  if (it != v.end()) v.erase(it);
}
}  // namespace

GpuRuntime::GpuRuntime(const topo::System& system, sim::Engine& engine,
                       sim::FluidNetwork& network, std::uint64_t seed)
    : system_(&system),
      engine_(&engine),
      network_(&network),
      binding_(system.topology, network),
      rng_(seed) {}

StreamId GpuRuntime::create_stream(topo::DeviceId device) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (create_stream)");
  auto tail = sim::make_pooled<sim::Latch>(*engine_);
  tail->fire();  // empty stream is drained
  streams_.push_back(Stream{device, std::move(tail)});
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

template <typename MakeOp>
void GpuRuntime::enqueue(StreamId stream, MakeOp&& make_op) {
  MPATH_ASSERT_OWNER(owner_, "gpusim::GpuRuntime (stream enqueue)");
  Stream& s = streams_.at(stream);
  auto done = sim::make_pooled<sim::Latch>(*engine_);
  // Nobody joins a stream op (successors wait on its latch), so it starts
  // without join state.
  engine_->launch(make_op(s.tail, done), "gpusim-op");
  s.tail = std::move(done);
  ++ops_issued_;
  if (tracer_ != nullptr && --ops_until_sample_ == 0) {
    ops_until_sample_ = counter_stride_;
    std::size_t busy = 0;
    for (const Stream& st : streams_) {
      if (!st.tail->fired()) ++busy;
    }
    tracer_->add_counter("gpusim", "streams_busy", engine_->now(),
                         static_cast<double>(busy));
  }
}

sim::Task<void> GpuRuntime::run_copy(std::shared_ptr<sim::Latch> prev,
                                     std::shared_ptr<sim::Latch> done,
                                     DeviceBuffer& dst, std::size_t dst_offset,
                                     const DeviceBuffer& src,
                                     std::size_t src_offset, std::size_t len,
                                     StreamId stream, CancelTokenPtr token,
                                     DoneHook on_done) {
  co_await prev->wait();
  if (token && token->cancelled()) {
    if (on_done) on_done(false);
    done->fire();  // drain without moving data or paying dispatch latency
    co_return;
  }
  const double trace_start = engine_->now();
  // Device-side dispatch latency for the copy engine.
  co_await engine_->delay(costs().op_launch_s *
                          rng_.jitter(costs().jitter_rel));
  bool delivered = true;
  if (len > 0) {
    if (src.device() == dst.device()) {
      co_await engine_->delay(static_cast<double>(len) /
                              costs().local_copy_bps);
    } else if (!token) {
      co_await network_->transfer(
          binding_.route_links(src.device(), dst.device()),
          static_cast<double>(len));
    } else {
      // Cancellable variant of FluidNetwork::transfer: the flow id is
      // registered with the token while the bytes stream so that
      // token->cancel() can abort it mid-flight.
      const sim::Route route = binding_.route_links(src.device(), dst.device());
      double latency = 0.0;
      for (sim::LinkId l : route) latency += network_->link(l).latency_s;
      if (latency > 0.0) co_await engine_->delay(latency);
      if (token->cancelled()) {
        delivered = false;
      } else {
        auto latch = std::make_unique<sim::Latch>(*engine_);
        sim::Latch* lp = latch.get();
        const sim::FlowId fid = network_->start_flow(
            route, static_cast<double>(len), latch.release());
        token->in_flight_.push_back(fid);
        co_await lp->wait();
        erase_flow(token->in_flight_, fid);
        delivered = !token->was_cancelled(fid);
      }
    }
    if (delivered) {
      // Payload lands at completion time; simulated buffers carry none.
      if (dst.materialized() && src.materialized()) {
        std::memcpy(dst.region(dst_offset, len).data(),
                    src.region(src_offset, len).data(), len);
      }
      bytes_copied_ += len;
    }
  }
  if (tracer_ != nullptr) {
    tracer_->add_span(stream_track(stream),
                      std::string(delivered ? "copy " : "copy(cancelled) ") +
                          util::format_bytes(len) + " " +
                          topology().device(src.device()).name + "->" +
                          topology().device(dst.device()).name,
                      trace_start, engine_->now());
  }
  if (on_done) on_done(delivered);
  done->fire();
}

std::string GpuRuntime::stream_track(StreamId stream) const {
  return "stream" + std::to_string(stream) + " (" +
         topology().device(streams_.at(stream).device).name + ")";
}

void GpuRuntime::memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                              const DeviceBuffer& src, std::size_t src_offset,
                              std::size_t len, StreamId stream,
                              CancelTokenPtr token, DoneHook on_done) {
  // Validate regions eagerly: misuse should fail at the call site, not at
  // some later simulated instant.
  dst.check_region(dst_offset, len);
  src.check_region(src_offset, len);
  enqueue(stream, [&, dst_offset, src_offset, len, stream](
                      std::shared_ptr<sim::Latch> prev,
                      std::shared_ptr<sim::Latch> done) {
    return run_copy(std::move(prev), std::move(done), dst, dst_offset, src,
                    src_offset, len, stream, std::move(token),
                    std::move(on_done));
  });
}

void GpuRuntime::record_event(EventId event, StreamId stream) {
  auto recorded = sim::make_pooled<sim::Latch>(*engine_);
  events_.at(event).latch = recorded;
  enqueue(stream, [this, recorded](std::shared_ptr<sim::Latch> prev,
                                   std::shared_ptr<sim::Latch> done)
                      -> sim::Task<void> {
    return [](GpuRuntime* rt, std::shared_ptr<sim::Latch> p,
              std::shared_ptr<sim::Latch> rec,
              std::shared_ptr<sim::Latch> d) -> sim::Task<void> {
      co_await p->wait();
      co_await rt->engine_->delay(rt->costs().event_record_s *
                                  rt->rng_.jitter(rt->costs().jitter_rel));
      rec->fire();
      d->fire();
    }(this, std::move(prev), recorded, std::move(done));
  });
}

void GpuRuntime::wait_event(StreamId stream, EventId event) {
  // CUDA captures the event state at enqueue time.
  auto latch = events_.at(event).latch;
  enqueue(stream, [this, latch](std::shared_ptr<sim::Latch> prev,
                                std::shared_ptr<sim::Latch> done)
                      -> sim::Task<void> {
    return [](GpuRuntime* rt, std::shared_ptr<sim::Latch> p,
              std::shared_ptr<sim::Latch> ev,
              std::shared_ptr<sim::Latch> d) -> sim::Task<void> {
      co_await p->wait();
      co_await ev->wait();
      co_await rt->engine_->delay(rt->costs().event_wait_s *
                                  rt->rng_.jitter(rt->costs().jitter_rel));
      d->fire();
    }(this, std::move(prev), std::move(latch), std::move(done));
  });
}

void GpuRuntime::stream_delay(StreamId stream, double seconds) {
  enqueue(stream, [this, seconds](std::shared_ptr<sim::Latch> prev,
                                  std::shared_ptr<sim::Latch> done)
                      -> sim::Task<void> {
    return [](GpuRuntime* rt, double dt, std::shared_ptr<sim::Latch> p,
              std::shared_ptr<sim::Latch> d) -> sim::Task<void> {
      co_await p->wait();
      co_await rt->engine_->delay(dt);
      d->fire();
    }(this, seconds, std::move(prev), std::move(done));
  });
}

sim::Task<void> GpuRuntime::synchronize(StreamId stream) {
  auto tail = streams_.at(stream).tail;
  co_await tail->wait();
}

sim::Task<void> GpuRuntime::synchronize_event(EventId event) {
  auto latch = events_.at(event).latch;
  co_await latch->wait();
}

sim::Task<void> GpuRuntime::device_synchronize() {
  // Snapshot tails first: ops enqueued after this call are not covered.
  std::vector<std::shared_ptr<sim::Latch>> tails;
  tails.reserve(streams_.size());
  for (const Stream& s : streams_) tails.push_back(s.tail);
  for (auto& t : tails) co_await t->wait();
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
