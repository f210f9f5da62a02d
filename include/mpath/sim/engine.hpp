// Discrete-event simulation engine with a virtual clock.
//
// All simulated activity (GPU streams, link transfers, MPI ranks) runs as
// coroutines over one Engine. Time only advances between events, so a whole
// OSU-style bandwidth sweep executes deterministically in milliseconds of
// wall time.
//
// Events run in (time, push order). The hot path is allocation-free in
// steady state:
//   * Events for a later instant go to a compact 16-byte {time, seq|slot}
//     binary heap over a recycled slab of payloads (coroutine handle or
//     inline-storage callback — no std::function).
//   * Events for the current instant (spawn starts, latch wakes, defer,
//     zero delays) skip the heap: they append to a FIFO lane. A heap entry
//     due now was pushed before the clock reached now, so it runs before
//     every lane entry — the same order a single (time, seq) heap gives.
//   * Every root coroutine keeps its own record (name, failure, links) in
//     its frame, on an intrusive live list in spawn order, and frees itself
//     when it finishes. Only a failure nobody has observed stays behind
//     for run() to report. Roots started with launch() carry no join state
//     at all (gpusim starts one per busy stream, not one per op); spawn()
//     adds a pooled joinable ProcState.
// See DESIGN.md, "Solver complexity & event batching" and "Allocation &
// pooling".
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpath/sim/inline_fn.hpp"
#include "mpath/sim/owner.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/sim/task.hpp"
#include "mpath/util/small_vec.hpp"

namespace mpath::sim {

using Time = double;  ///< simulated seconds

class Engine;
class Tracer;

/// Error thrown by Engine::run on deadlock or unobserved process failure,
/// and by Engine::delay on invalid (NaN/negative) durations.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Event callback type: inline storage only, so scheduling can never
/// heap-allocate. Captures larger than the SBO budget fail to compile —
/// bundle state behind a single pointer instead.
using EventFn = InlineFn<void()>;

/// One-shot broadcast event. fire() releases every current and future
/// waiter; waiting on an already-fired latch does not suspend.
class Latch {
 public:
  explicit Latch(Engine& engine) : engine_(&engine) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  // Latches are created per flow / event record on the hot path; recycle
  // their storage through the simulator pool.
  static void* operator new(std::size_t n) { return detail::pool_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::pool_free(p, n);
  }

  void fire();
  [[nodiscard]] bool fired() const { return fired_; }

  /// Return to the unfired state with no waiters (slab recycling only;
  /// must not be called while waiters are suspended on the latch).
  void reset() {
    fired_ = false;
    head_ = nullptr;
    tail_ = nullptr;
  }

  /// Waiters form an intrusive FIFO list threaded through the awaiters
  /// themselves. A suspended awaiter lives in its coroutine's frame, which
  /// stays alive until the handle is resumed — so any number of waiters
  /// park on a latch without the latch allocating node storage.
  struct Awaiter {
    Latch* latch = nullptr;
    std::coroutine_handle<> handle{};
    Awaiter* next = nullptr;
    bool await_ready() const noexcept { return latch->fired_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle = h;
      if (latch->tail_ != nullptr) {
        latch->tail_->next = this;
      } else {
        latch->head_ = this;
      }
      latch->tail_ = this;
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{this}; }

 private:
  Engine* engine_;
  bool fired_ = false;
  Awaiter* head_ = nullptr;
  Awaiter* tail_ = nullptr;
};

namespace detail {

struct ProcSlab;
struct RootPromise;

/// Completion state of a spawned process. Pool-recycled: lives in a
/// ProcSlab and is handed back when the last ProcRef drops.
struct ProcState {
  explicit ProcState(Engine& engine) : done(engine) {}
  Latch done;
  std::exception_ptr exception;
  ProcSlab* slab = nullptr;
  ProcState* next_free = nullptr;
  std::uint32_t refs = 0;
  bool observed = false;  ///< true once join() delivered the exception
};

/// Free-list slab of ProcStates. The Engine owns one; if Process handles
/// outlive the engine, the slab is orphaned and the last reference frees
/// it. std::deque gives stable addresses across growth.
struct ProcSlab {
  std::deque<ProcState> states;
  ProcState* free_head = nullptr;
  std::size_t checked_out = 0;
  bool orphaned = false;

  ProcState* acquire(Engine& engine) {
    ProcState* st;
    if (free_head != nullptr) {
      st = free_head;
      free_head = st->next_free;
      st->next_free = nullptr;
    } else {
      st = &states.emplace_back(engine);
      st->slab = this;
    }
    ++checked_out;
    return st;
  }

  /// Called when a state's refcount hits zero.
  void recycle(ProcState* st) {
    st->exception = nullptr;
    st->observed = false;
    st->done.reset();
    st->next_free = free_head;
    free_head = st;
    --checked_out;
    if (orphaned && checked_out == 0) delete this;
  }
};

/// Intrusive refcounted handle to a pooled ProcState (single-threaded; the
/// engine and everything on it run on one thread).
class ProcRef {
 public:
  ProcRef() = default;
  explicit ProcRef(ProcState* st) : st_(st) {
    if (st_ != nullptr) ++st_->refs;
  }
  ProcRef(const ProcRef& o) : st_(o.st_) {
    if (st_ != nullptr) ++st_->refs;
  }
  ProcRef(ProcRef&& o) noexcept : st_(std::exchange(o.st_, nullptr)) {}
  ProcRef& operator=(ProcRef o) noexcept {
    std::swap(st_, o.st_);
    return *this;
  }
  ~ProcRef() { release(); }

  [[nodiscard]] ProcState* get() const noexcept { return st_; }
  ProcState* operator->() const noexcept { return st_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return st_ != nullptr;
  }

 private:
  void release() noexcept {
    if (st_ != nullptr && --st_->refs == 0) st_->slab->recycle(st_);
    st_ = nullptr;
  }
  ProcState* st_ = nullptr;
};

}  // namespace detail

/// Handle to a detached coroutine started with Engine::spawn. Join is
/// optional; unjoined failures surface at the end of Engine::run(). A
/// Process may outlive its engine: it then reads as not done.
class Process {
 public:
  Process() = default;
  explicit Process(detail::ProcRef state) : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return bool(state_); }
  [[nodiscard]] bool done() const { return state_ && state_->done.fired(); }

  struct Joiner {
    detail::ProcRef state;
    // The latch chain links the awaiter node itself, so it must live here
    // (in the awaiting coroutine's frame), not in a temporary.
    Latch::Awaiter aw{};
    bool await_ready() const noexcept { return state->done.fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      aw.latch = &state->done;
      aw.await_suspend(h);
    }
    void await_resume() const {
      state->observed = true;
      if (state->exception) std::rethrow_exception(state->exception);
    }
  };
  /// Await completion; rethrows the process's exception, if any.
  [[nodiscard]] Joiner join() const { return Joiner{state_}; }

 private:
  detail::ProcRef state_;
};

/// NOT thread-safe: an Engine and everything running on it belong to ONE
/// thread — the first thread that schedules or runs it (checked in debug
/// builds via MPATH_ASSERT_OWNER). Parallel sweeps give every worker its
/// own Engine and share only immutable snapshots across threads.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Time now() const { return now_; }

  /// Resume `h` at absolute simulated time `t` (>= now).
  void schedule_handle(Time t, std::coroutine_handle<> h);
  /// Invoke `fn` at absolute simulated time `t` (>= now).
  void schedule_callback(Time t, EventFn fn);
  /// Same-time batching: invoke `fn` at the *current* timestamp, after
  /// every event already queued at this time (FIFO) but before any event
  /// queued afterwards. Lets modules coalesce a burst of same-time updates
  /// (e.g. k chunk completions) into one pass.
  void defer(EventFn fn);

  struct DelayAwaiter {
    Engine* engine;
    Time wake_at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      engine->schedule_handle(wake_at, h);
    }
    void await_resume() const noexcept {}
  };
  /// Suspend the calling coroutine for `dt` simulated seconds. Throws
  /// SimError on NaN or negative `dt` — callers must not rely on clamping.
  [[nodiscard]] DelayAwaiter delay(Time dt) {
    if (!(dt >= 0.0)) {  // also catches NaN
      throw SimError("Engine::delay: dt must be >= 0 and not NaN (got " +
                     std::to_string(dt) + ") at t=" + std::to_string(now_));
    }
    return DelayAwaiter{this, now_ + dt};
  }

  /// Start a detached coroutine and return a joinable handle to it. The
  /// engine owns its frame until it completes. `name` is used in error
  /// reports only.
  Process spawn(Task<void> task, std::string name = {});
  /// Start a detached coroutine that nobody joins: no completion state is
  /// allocated. It counts as live, a deadlock report can name it, and an
  /// exception it throws surfaces from run() as a SimError.
  void launch(Task<void> task, std::string name = {});

  /// Run until the event queue drains. Returns the number of events
  /// processed. Throws SimError if live processes remain blocked (deadlock)
  /// or if a spawned process failed and was never joined.
  std::uint64_t run();

  /// Run until the event queue drains or `t_limit` is reached; events
  /// scheduled exactly at `t_limit` are processed, and the clock stops at
  /// min(t_limit, last event time). Returns events processed.
  std::uint64_t run_until(Time t_limit);

  /// Roots (spawned or launched) that have not finished yet.
  [[nodiscard]] std::size_t live_process_count() const { return live_roots_; }
  /// Pending events: the timed heap plus the same-instant lane.
  [[nodiscard]] std::size_t queued_event_count() const {
    return heap_.size() + lane_count_;
  }

  /// Emit "event_queue_depth" counter samples on tracer track "engine",
  /// one every `sample_stride` processed events (nullptr detaches).
  void set_tracer(Tracer* tracer, std::uint64_t sample_stride = 256) {
    tracer_ = tracer;
    trace_stride_ = sample_stride > 0 ? sample_stride : 1;
    trace_countdown_ = trace_stride_;
  }

 private:
  // The priority queue is split into a compact binary heap of
  // {t, seq|slot} records and a slab of payloads addressed by slot, so
  // sift operations move 16 bytes instead of a ~72-byte struct with a
  // std::function, and payload storage is recycled. `seq` keeps the upper
  // 40 bits of the key: same-time events compare by it alone (slot bits
  // can never tie-break since seq is unique), preserving the exact FIFO
  // ordering of the previous single-struct queue.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  struct HeapEntry {
    Time t;
    std::uint64_t key;  ///< (seq << kSlotBits) | payload slot
  };
  struct EventLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.key > b.key;
    }
  };
  struct EventSlot {
    std::coroutine_handle<> handle;  // set for handle events
    EventFn callback;                // set for callback events
  };
  /// Same-instant lane entry: a coroutine handle is stored directly, a
  /// callback through a payload slot.
  struct LaneEntry {
    std::coroutine_handle<> handle;
    std::uint32_t slot;
  };

  friend struct detail::RootPromise;

  void push_event(Time t, std::coroutine_handle<> h, EventFn fn);
  void push_lane(LaneEntry entry);
  void dispatch(std::coroutine_handle<> h, std::uint32_t slot);
  std::uint64_t run_impl(Time t_limit, bool bounded);
  void start_root(Task<void> task, std::string name, detail::ProcState* state);
  /// Called from a root's final suspend; returns true when the root must
  /// stay linked (its failure has not been observed yet).
  bool finish_root(detail::RootPromise& root) noexcept;
  void unlink_root(detail::RootPromise& root) noexcept;
  void check_quiescence();

  [[no_unique_address]] ThreadOwner owner_;
  std::vector<HeapEntry> heap_;
  std::vector<EventSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<LaneEntry> lane_;  ///< ring buffer, power-of-two size
  std::size_t lane_head_ = 0;
  std::size_t lane_count_ = 0;
  // Intrusive list, in spawn order, of roots that are still running or
  // whose failure is not yet reported.
  detail::RootPromise* first_root_ = nullptr;
  detail::RootPromise* last_root_ = nullptr;
  detail::ProcSlab* proc_slab_ = nullptr;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_roots_ = 0;
  Tracer* tracer_ = nullptr;
  std::uint64_t trace_stride_ = 256;
  std::uint64_t trace_countdown_ = 256;
};

/// Spawn all tasks concurrently and await their completion. The first
/// exception (by completion order) is rethrown after all tasks finish.
Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks);

}  // namespace mpath::sim
