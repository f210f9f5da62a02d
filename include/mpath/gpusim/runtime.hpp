// CUDA-like asynchronous runtime over the discrete-event simulator.
//
// Semantics mirror the subset of CUDA the UCX cuda_ipc path relies on:
//   * streams execute enqueued operations in order,
//   * events capture a point in a stream; other streams can wait on them,
//   * async copies move bytes between device buffers along the topology
//     route, sharing links with all concurrent traffic (fluid model),
//   * opening a peer buffer for IPC pays a one-time cost per
//     (opener device, buffer) pair, amortized by a handle cache —
//     UCX's cuda_ipc registration cache.
//
// Enqueue calls are non-blocking (they return immediately at the current
// simulated instant); host-side issue overhead is modeled by the callers
// (pipeline engine) so that sequential path initiation shows up exactly
// where the paper's Algorithm 1 accounts for it (line 18).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "mpath/gpusim/buffer.hpp"
#include "mpath/sim/engine.hpp"
#include "mpath/sim/fluid.hpp"
#include "mpath/sim/inline_fn.hpp"
#include "mpath/sim/owner.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/sim/trace.hpp"
#include "mpath/topo/binding.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/rng.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::gpusim {

using StreamId = std::uint32_t;
using EventId = std::uint32_t;

/// Cooperative cancellation handle for in-flight copies. A token is shared
/// between the issuer (e.g. a pipeline watchdog) and every memcpy_async it
/// governs: cancel() aborts the governed copies' live fluid flows via
/// FluidNetwork::cancel_flow and marks the token, after which governed ops
/// that have not yet started drain without moving data. Single-simulation
/// use only (no thread safety needed — the engine is single-threaded).
class CancelToken {
 public:
  explicit CancelToken(sim::FluidNetwork& net) : net_(&net) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Abort: cancels every governed fluid flow currently in flight. Later
  /// governed copies become no-ops. Idempotent.
  void cancel();
  [[nodiscard]] bool cancelled() const { return cancelled_; }
  /// Flows actually aborted mid-flight by cancel() (not merely skipped).
  [[nodiscard]] std::size_t flows_cancelled() const {
    return cancelled_ids_.size();
  }

 private:
  friend class GpuRuntime;
  [[nodiscard]] bool was_cancelled(sim::FlowId id) const;

  sim::FluidNetwork* net_;
  bool cancelled_ = false;
  // A token typically governs the chunks of one path (a handful in flight
  // at once); inline storage keeps the cancellable-copy path off the heap.
  util::SmallVec<sim::FlowId, 4> in_flight_;      ///< flows streaming now
  util::SmallVec<sim::FlowId, 4> cancelled_ids_;  ///< aborted by cancel()
};
using CancelTokenPtr = std::shared_ptr<CancelToken>;

class GpuRuntime {
 public:
  /// The runtime builds its own fluid network binding over `system`'s
  /// topology. `system` and `engine` must outlive the runtime.
  GpuRuntime(const topo::System& system, sim::Engine& engine,
             sim::FluidNetwork& network, std::uint64_t seed = 1);
  GpuRuntime(const GpuRuntime&) = delete;
  GpuRuntime& operator=(const GpuRuntime&) = delete;

  // -- object creation ------------------------------------------------------
  [[nodiscard]] StreamId create_stream(topo::DeviceId device);
  [[nodiscard]] EventId create_event();
  /// Recycled event reservation: pop a previously released event or create
  /// a fresh one. Reuse is safe because every consumer captures an event's
  /// latch when its op is *enqueued* and record_event re-arms the latch
  /// synchronously at enqueue — a reacquired id can never be observed
  /// through stale state.
  [[nodiscard]] EventId acquire_event();
  /// Return an event to the runtime free list for acquire_event reuse. The
  /// caller must no longer use the id.
  void release_event(EventId event);
  [[nodiscard]] std::size_t events_pooled() const {
    return event_free_list_.size();
  }
  /// Events currently reserved via acquire_event and not yet released.
  /// Every pipeline execution returns its events as it drains, so this is
  /// back at its baseline whenever no transfer is in flight — the
  /// graph/chain leak checks in the tests assert exactly that.
  [[nodiscard]] std::uint64_t events_outstanding() const {
    return events_acquired_ - events_released_;
  }
  /// Make a cancellation token bound to this runtime's fluid network.
  [[nodiscard]] CancelTokenPtr make_cancel_token() const;

  // -- stream operations (enqueue, non-blocking) ----------------------------
  /// Completion hook for memcpy_async: runs at the simulated instant the
  /// copy finishes, with `delivered == false` when the copy was cancelled
  /// (drained without moving data). Lets callers observe per-chunk progress
  /// passively instead of enqueueing an extra event record per chunk.
  /// Inline-storage callable: hooks are enqueued per chunk, so a capture
  /// that allocated would undo the zero-allocation hot path.
  using DoneHook = sim::InlineFn<void(bool delivered), 48>;

  /// Copy `len` bytes between buffer regions along the topology route from
  /// src.device() to dst.device(). Payload bytes are copied at completion
  /// time. Both buffers must outlive the operation. A non-null `token`
  /// makes the copy abortable: token->cancel() kills the in-flight fluid
  /// flow (partial link bytes stay accounted, payload is not copied) and
  /// turns not-yet-started governed copies into no-ops, so a stream backed
  /// by a severed link drains instead of stalling forever. A non-null
  /// `on_done` is invoked once at copy completion (delivered or drained).
  void memcpy_async(DeviceBuffer& dst, std::size_t dst_offset,
                    const DeviceBuffer& src, std::size_t src_offset,
                    std::size_t len, StreamId stream,
                    CancelTokenPtr token = nullptr, DoneHook on_done = {});
  /// Record `event` at the current tail of `stream` (CUDA semantics: a
  /// later wait_event observes this record).
  void record_event(EventId event, StreamId stream);
  /// Make `stream` wait for the most recent record of `event`. Waiting on
  /// a never-recorded event is a no-op (as in CUDA).
  void wait_event(StreamId stream, EventId event);
  /// Enqueue a fixed on-stream delay (models per-chunk staging work that is
  /// not a data movement, e.g. host-side synchronization in host staging).
  void stream_delay(StreamId stream, double seconds);

  // -- synchronization (awaitable) ------------------------------------------
  /// Complete when every operation currently enqueued on `stream` is done.
  [[nodiscard]] sim::Task<void> synchronize(StreamId stream);
  /// Complete when the most recent record of `event` has fired.
  [[nodiscard]] sim::Task<void> synchronize_event(EventId event);
  /// True if the most recent record of `event` has fired (non-blocking
  /// query, cudaEventQuery semantics). Never-recorded events read as fired.
  [[nodiscard]] bool event_fired(EventId event) const;
  /// Complete when all streams are drained.
  [[nodiscard]] sim::Task<void> device_synchronize();

  // -- CUDA IPC handle cache --------------------------------------------------
  /// Open `buffer` for access from `opener`. First open per (opener,
  /// buffer) pays the system's ipc_open cost; later opens are free.
  [[nodiscard]] sim::Task<void> ipc_open(topo::DeviceId opener,
                                         const DeviceBuffer& buffer);
  [[nodiscard]] bool ipc_cached(topo::DeviceId opener,
                                const DeviceBuffer& buffer) const;
  /// Drop all cached handles (tests / cache-behaviour benchmarks).
  void ipc_cache_clear();
  [[nodiscard]] std::size_t ipc_cache_size() const { return ipc_cache_.size(); }

  // -- accessors --------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const topo::System& system() const { return *system_; }
  [[nodiscard]] const topo::Topology& topology() const {
    return system_->topology;
  }
  [[nodiscard]] const topo::SoftwareCosts& costs() const {
    return system_->costs;
  }
  [[nodiscard]] const topo::NetworkBinding& binding() const {
    return binding_;
  }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Total simulated bytes copied through memcpy_async so far.
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  [[nodiscard]] std::uint64_t ops_issued() const { return ops_issued_; }

  /// Attach an activity tracer (nullptr detaches). While attached, every
  /// stream operation emits a span on the track "streamN (device)", and a
  /// "streams_busy" occupancy counter ("ph":"C") is sampled on track
  /// "gpusim" once every `counter_stride` enqueues.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] sim::Tracer* tracer() const { return tracer_; }
  /// Stride (in enqueued ops) between stream-occupancy counter samples.
  void set_counter_stride(std::uint64_t stride) {
    counter_stride_ = stride > 0 ? stride : 1;
    ops_until_sample_ = counter_stride_;
  }

 private:
  struct Stream {
    topo::DeviceId device;
    // Completion latch of the last enqueued op; ops chain on it.
    std::shared_ptr<sim::Latch> tail;
  };
  struct Event {
    // Latch of the most recent record; starts pre-fired (CUDA semantics).
    std::shared_ptr<sim::Latch> latch;
  };

  /// Chain `op` after the current tail of `stream`; returns the new tail.
  template <typename MakeOp>
  void enqueue(StreamId stream, MakeOp&& make_op);

  [[nodiscard]] sim::Task<void> run_copy(
      std::shared_ptr<sim::Latch> prev, std::shared_ptr<sim::Latch> done,
      DeviceBuffer& dst, std::size_t dst_offset, const DeviceBuffer& src,
      std::size_t src_offset, std::size_t len, StreamId stream,
      CancelTokenPtr token, DoneHook on_done);

  [[nodiscard]] std::string stream_track(StreamId stream) const;

  // Like the engine it drives, a runtime belongs to exactly one thread
  // (checked in debug builds); parallel sweeps build one per worker.
  [[no_unique_address]] sim::ThreadOwner owner_;
  const topo::System* system_;
  sim::Engine* engine_;
  sim::FluidNetwork* network_;
  topo::NetworkBinding binding_;
  util::Rng rng_;
  std::vector<Stream> streams_;
  std::vector<Event> events_;
  std::vector<EventId> event_free_list_;  ///< released ids, LIFO reuse
  std::uint64_t events_acquired_ = 0;     ///< acquire_event calls
  std::uint64_t events_released_ = 0;     ///< release_event calls
  std::set<std::pair<topo::DeviceId, BufferId>> ipc_cache_;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t ops_issued_ = 0;
  sim::Tracer* tracer_ = nullptr;
  std::uint64_t counter_stride_ = 256;
  std::uint64_t ops_until_sample_ = 256;
};

}  // namespace mpath::gpusim
