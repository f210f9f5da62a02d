// Coroutine synchronization primitives layered on the Engine:
//   * Semaphore — counting permits (stream slots, staging-buffer pools),
//   * Mailbox<T> — FIFO channel with awaitable receive (op queues, tag
//     matching),
//   * Barrier — N-party rendezvous (MPI_Barrier building block).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "mpath/sim/engine.hpp"

namespace mpath::sim {

/// Counting semaphore with FIFO wakeup order.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : engine_(&engine), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Acquirer {
    Semaphore* sem;
    bool await_ready() {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Acquirer acquire() { return Acquirer{this}; }

  /// Release one permit. If a coroutine is waiting, the permit passes
  /// directly to it (resumed via the event queue at the current time).
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_->schedule_handle(engine_->now(), h);
    } else {
      ++count_;
    }
  }

  [[nodiscard]] std::size_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine* engine_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII permit for Semaphore; use `co_await sem.acquire()` then construct a
/// Permit, or use the `with_permit` helper pattern in call sites.
class Permit {
 public:
  explicit Permit(Semaphore& sem) : sem_(&sem) {}
  Permit(Permit&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
  Permit(const Permit&) = delete;
  Permit& operator=(const Permit&) = delete;
  Permit& operator=(Permit&&) = delete;
  ~Permit() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

/// Unbounded FIFO channel. Multiple receivers are served in FIFO order.
/// Items are handed to a specific waiter at push time, so a later receiver
/// can never steal an item already promised to an earlier one.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  struct Receiver {
    Mailbox* box;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (!box->items_.empty() && box->waiters_.empty()) {
        slot = std::move(box->items_.front());
        box->items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      box->waiters_.push_back(this);
    }
    T await_resume() { return std::move(*slot); }
  };

  void push(T value) {
    if (!waiters_.empty()) {
      Receiver* r = waiters_.front();
      waiters_.pop_front();
      r->slot = std::move(value);
      engine_->schedule_handle(engine_->now(), r->handle);
    } else {
      items_.push_back(std::move(value));
    }
  }

  [[nodiscard]] Receiver receive() { return Receiver{this, std::nullopt, {}}; }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine* engine_;
  std::deque<T> items_;
  std::deque<Receiver*> waiters_;
};

/// N-party reusable barrier: the Nth arrival releases everyone.
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(&engine), parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct Arriver {
    Barrier* barrier;
    bool await_ready() {
      if (barrier->arrived_ + 1 == barrier->parties_) {
        // Last arrival: release the others and pass through.
        barrier->arrived_ = 0;
        for (auto h : barrier->waiters_) {
          barrier->engine_->schedule_handle(barrier->engine_->now(), h);
        }
        barrier->waiters_.clear();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++barrier->arrived_;
      barrier->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] Arriver arrive() { return Arriver{this}; }

 private:
  Engine* engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace mpath::sim
