#include "mpath/sim/engine.hpp"

#include <algorithm>
#include <cassert>

#include "mpath/sim/trace.hpp"
#include "mpath/util/log.hpp"

namespace mpath::sim {

void Latch::fire() {
  if (fired_) return;
  fired_ = true;
  // Resume via the event queue (at the current time) rather than inline, so
  // that firing a latch from deep inside another coroutine cannot reenter
  // arbitrary user state.
  Awaiter* head = head_;
  head_ = nullptr;
  tail_ = nullptr;
  if (head == nullptr) return;
  if (head->next == nullptr) {
    engine_->schedule_handle(engine_->now(), head->handle);
    return;
  }
  // Batch multi-waiter wakeups into one queue event. Scheduling the
  // waiters individually would hand them consecutive sequence numbers, so
  // nothing could interleave between their resumptions anyway — resuming
  // them back-to-back from a single event is observably identical while
  // costing one queue operation instead of k. The chain nodes are the
  // suspended awaiters themselves, so read `next` before resuming: resume
  // may destroy the node's coroutine frame.
  engine_->schedule_callback(engine_->now(), [head]() {
    Awaiter* p = head;
    while (p != nullptr) {
      Awaiter* n = p->next;
      p->handle.resume();
      p = n;
    }
  });
}

namespace detail {

/// Promise of a root coroutine, and the root's record: the engine links it
/// into its live list at start, and the root unlinks itself when it
/// finishes, so the frame is freed without any sweep. A root whose failure
/// has not been observed stays linked (suspended at its final point) until
/// run() reports it or the engine is destroyed.
struct RootPromise {
  struct Handle {
    using promise_type = RootPromise;
    std::coroutine_handle<RootPromise> handle;
  };

  RootPromise(Engine& e, Task<void>&, ProcState* st) : engine(&e), state(st) {}

  static void* operator new(std::size_t n) { return pool_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    pool_free(p, n);
  }

  Handle get_return_object() noexcept {
    return {std::coroutine_handle<RootPromise>::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool keep;
    // Not suspending at the final point destroys the frame.
    bool await_ready() const noexcept { return !keep; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept {
    return FinalAwaiter{engine->finish_root(*this)};
  }
  void return_void() noexcept {}
  void unhandled_exception() noexcept { exception = std::current_exception(); }

  /// The failure run() must report, if any.
  [[nodiscard]] std::exception_ptr unobserved_failure() const {
    if (!state) return exception;
    return state->observed ? nullptr : state->exception;
  }
  /// Not finished; a kept failure is parked at its final point.
  [[nodiscard]] bool blocked() noexcept {
    return !std::coroutine_handle<RootPromise>::from_promise(*this).done();
  }
  void destroy() noexcept {
    std::coroutine_handle<RootPromise>::from_promise(*this).destroy();
  }

  Engine* engine;
  ProcRef state;  ///< join state; null for a launched root
  std::exception_ptr exception;  ///< failure of a launched root
  std::string name;
  RootPromise* prev = nullptr;
  RootPromise* next = nullptr;
};

}  // namespace detail

namespace {

std::string display_name(const std::string& name) {
  return name.empty() ? "<anon>" : name;
}

// A launched root (no join state) lets a failure escape to the promise's
// unhandled_exception; a spawned one hands it to its joiners.
detail::RootPromise::Handle run_root(Engine&, Task<void> inner,
                                     detail::ProcState* state) {
  try {
    co_await std::move(inner);
  } catch (...) {
    if (state == nullptr) throw;
    state->exception = std::current_exception();
  }
  if (state != nullptr) state->done.fire();
}

}  // namespace

Engine::~Engine() {
  // Destroy any still-suspended root frames; that destroys the frames of
  // the tasks they await. The queues may still hold handles into those
  // frames, but they are dropped without resuming anything.
  heap_.clear();
  lane_.clear();
  lane_count_ = 0;
  slots_.clear();
  while (first_root_ != nullptr) {
    detail::RootPromise* r = first_root_;
    first_root_ = r->next;
    r->destroy();
  }
  if (proc_slab_ != nullptr) {
    // Process handles may outlive the engine; the last one frees the slab.
    if (proc_slab_->checked_out == 0) {
      delete proc_slab_;
    } else {
      proc_slab_->orphaned = true;
    }
  }
}

void Engine::push_lane(LaneEntry entry) {
  if (lane_count_ == lane_.size()) {
    // Grow the ring, unwrapping it so the oldest entry lands at index 0.
    std::vector<LaneEntry> grown(std::max<std::size_t>(64, 2 * lane_.size()));
    for (std::size_t i = 0; i < lane_count_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_count_) & (lane_.size() - 1)] = entry;
  ++lane_count_;
}

void Engine::push_event(Time t, std::coroutine_handle<> h, EventFn fn) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (event scheduling)");
  assert(t >= now_ && "cannot schedule in the past");
  const bool due_now = t <= now_;
  if (due_now && h) {
    push_lane(LaneEntry{h, 0});
    return;
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].handle = h;
    slots_[slot].callback = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    if (slot > kSlotMask) {
      throw SimError("Engine: event payload slots exhausted (2^24 in flight)");
    }
    slots_.push_back(EventSlot{h, std::move(fn)});
  }
  if (due_now) {
    push_lane(LaneEntry{nullptr, slot});
    return;
  }
  const std::uint64_t seq = next_seq_++;
  if (seq >= (1ull << (64 - kSlotBits))) {
    throw SimError("Engine: event sequence numbers exhausted");
  }
  heap_.push_back(HeapEntry{t, (seq << kSlotBits) | slot});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

void Engine::schedule_handle(Time t, std::coroutine_handle<> h) {
  push_event(t, h, EventFn{});
}

void Engine::schedule_callback(Time t, EventFn fn) {
  push_event(t, nullptr, std::move(fn));
}

void Engine::defer(EventFn fn) {
  // The same-instant lane is FIFO, so this runs after everything already
  // queued at now() and before later arrivals.
  push_event(now_, nullptr, std::move(fn));
}

void Engine::start_root(Task<void> task, std::string name,
                        detail::ProcState* state) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (spawn)");
  const auto handle = run_root(*this, std::move(task), state).handle;
  detail::RootPromise& root = handle.promise();
  root.name = std::move(name);
  root.prev = last_root_;
  if (last_root_ != nullptr) {
    last_root_->next = &root;
  } else {
    first_root_ = &root;
  }
  last_root_ = &root;
  ++live_roots_;
  schedule_handle(now_, handle);
}

Process Engine::spawn(Task<void> task, std::string name) {
  if (proc_slab_ == nullptr) proc_slab_ = new detail::ProcSlab;
  detail::ProcRef state(proc_slab_->acquire(*this));
  start_root(std::move(task), std::move(name), state.get());
  return Process(std::move(state));
}

void Engine::launch(Task<void> task, std::string name) {
  start_root(std::move(task), std::move(name), nullptr);
}

void Engine::unlink_root(detail::RootPromise& root) noexcept {
  (root.prev != nullptr ? root.prev->next : first_root_) = root.next;
  (root.next != nullptr ? root.next->prev : last_root_) = root.prev;
}

bool Engine::finish_root(detail::RootPromise& root) noexcept {
  --live_roots_;
  // A spawned root's failure may still be observed by a later join(), so
  // it stays until run() decides; a launched one is never observed.
  const bool keep = root.state ? bool(root.state->exception)
                               : bool(root.exception);
  if (!keep) unlink_root(root);
  return keep;
}

void Engine::check_quiescence() {
  if (live_roots_ > 0) {
    detail::RootPromise* first = first_root_;
    while (!first->blocked()) first = first->next;
    throw SimError("simulation deadlock: " + std::to_string(live_roots_) +
                   " process(es) still blocked at t=" + std::to_string(now_) +
                   " (first: " + display_name(first->name) + ")");
  }
  // Every root still linked has finished with a failure. Report the first
  // unobserved one in spawn order (it stays linked, so a later run reports
  // it again); free the ones a join() observed.
  while (first_root_ != nullptr) {
    detail::RootPromise* r = first_root_;
    if (const std::exception_ptr failure = r->unobserved_failure()) {
      const std::string name = display_name(r->name);
      try {
        std::rethrow_exception(failure);
      } catch (const std::exception& e) {
        throw SimError("unjoined process '" + name + "' failed: " + e.what());
      } catch (...) {
        throw SimError("unjoined process '" + name +
                       "' failed with a non-std exception");
      }
    }
    unlink_root(*r);
    r->destroy();
  }
}

void Engine::dispatch(std::coroutine_handle<> h, std::uint32_t slot) {
  if (h) {
    h.resume();
    return;
  }
  // Move the payload out and recycle the slot *before* invoking: the
  // event may schedule new work, which can then reuse this slot.
  const std::coroutine_handle<> handle = slots_[slot].handle;
  EventFn callback = std::move(slots_[slot].callback);
  slots_[slot].handle = nullptr;
  slots_[slot].callback.reset();
  free_slots_.push_back(slot);
  if (handle) {
    handle.resume();
  } else {
    callback();
  }
}

std::uint64_t Engine::run_impl(Time t_limit, bool bounded) {
  MPATH_ASSERT_OWNER(owner_, "sim::Engine (run)");
  std::uint64_t processed = 0;
  for (;;) {
    // Heap entries due now precede every lane entry (they were pushed
    // before the clock reached now); otherwise the lane runs first.
    const bool from_lane =
        lane_count_ > 0 && (heap_.empty() || heap_.front().t > now_);
    if (!from_lane && heap_.empty()) break;
    const Time t = from_lane ? now_ : heap_.front().t;
    if (bounded && t > t_limit) {
      // Advance to the bound, but never move the clock backwards (a limit
      // in the past of the clock is a no-op).
      if (t_limit > now_) now_ = t_limit;
      return processed;
    }
    if (from_lane) {
      const LaneEntry ev = lane_[lane_head_];
      lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
      --lane_count_;
      dispatch(ev.handle, ev.slot);
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
      const HeapEntry ev = heap_.back();
      heap_.pop_back();
      now_ = ev.t;
      dispatch(nullptr, static_cast<std::uint32_t>(ev.key & kSlotMask));
    }
    ++processed;
    if (tracer_ != nullptr && --trace_countdown_ == 0) {
      trace_countdown_ = trace_stride_;
      tracer_->add_counter("engine", "event_queue_depth", now_,
                           static_cast<double>(queued_event_count()));
    }
  }
  check_quiescence();
  return processed;
}

std::uint64_t Engine::run() {
  return run_impl(0.0, /*bounded=*/false);
}

std::uint64_t Engine::run_until(Time t_limit) {
  return run_impl(t_limit, /*bounded=*/true);
}

Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks) {
  std::vector<Process> procs;
  procs.reserve(tasks.size());
  for (auto& t : tasks) {
    procs.push_back(engine.spawn(std::move(t)));
  }
  std::exception_ptr first_error;
  for (auto& p : procs) {
    try {
      co_await p.join();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mpath::sim
