#include "mpath/sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace ms = mpath::sim;

namespace {

ms::Task<void> record_at(ms::Engine& e, double dt, std::vector<double>& log) {
  co_await e.delay(dt);
  log.push_back(e.now());
}

ms::Task<int> answer(ms::Engine& e) {
  co_await e.delay(1.0);
  co_return 42;
}

ms::Task<void> chain(ms::Engine& e, std::vector<double>& log) {
  const int v = co_await answer(e);
  EXPECT_EQ(v, 42);
  log.push_back(e.now());
  co_await e.delay(0.5);
  log.push_back(e.now());
}

}  // namespace

TEST(Engine, TimeStartsAtZero) {
  ms::Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, DelayAdvancesVirtualClock) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 2.5, log));
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, EventsFireInTimeOrder) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 3.0, log));
  e.spawn(record_at(e, 1.0, log));
  e.spawn(record_at(e, 2.0, log));
  e.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
  EXPECT_DOUBLE_EQ(log[2], 3.0);
}

TEST(Engine, TiesBreakInSpawnOrder) {
  ms::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn([](ms::Engine& eng, std::vector<int>& ord,
               int id) -> ms::Task<void> {
      co_await eng.delay(1.0);
      ord.push_back(id);
    }(e, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedTasksReturnValues) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(chain(e, log));
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 1.5);
}

TEST(Engine, JoinDeliversCompletion) {
  ms::Engine e;
  bool joined = false;
  static std::vector<double> sink;
  auto p = e.spawn(record_at(e, 1.0, sink));
  e.spawn([](ms::Engine&, ms::Process proc,
             bool& flag) -> ms::Task<void> {
    co_await proc.join();
    flag = true;
  }(e, p, joined));
  e.run();
  EXPECT_TRUE(joined);
  EXPECT_TRUE(p.done());
}

TEST(Engine, JoinRethrowsProcessException) {
  ms::Engine e;
  auto failing = e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("boom");
  }(e), "failing");
  bool caught = false;
  e.spawn([](ms::Process p, bool& flag) -> ms::Task<void> {
    try {
      co_await p.join();
    } catch (const std::runtime_error& err) {
      flag = std::string(err.what()) == "boom";
    }
  }(failing, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, UnjoinedFailureSurfacesAtRun) {
  ms::Engine e;
  e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("unseen failure");
  }(e), "fails-silently");
  EXPECT_THROW(e.run(), ms::SimError);
}

// Firing a latch with many waiters resumes them all from ONE engine event
// (batched callback), not one event per waiter — and the batching must not
// change what the waiters observe: same wake time, same FIFO order.
TEST(Engine, LatchFireBatchesWaitersIntoOneEvent) {
  ms::Engine e;
  ms::Latch latch(e);
  const int n = 16;
  std::vector<double> woke_at;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    e.spawn([](ms::Engine& eng, ms::Latch& l, std::vector<double>& at,
               std::vector<int>& ord, int id) -> ms::Task<void> {
      co_await l.wait();
      at.push_back(eng.now());
      ord.push_back(id);
    }(e, latch, woke_at, order, i), "waiter");
  }
  e.spawn([](ms::Engine& eng, ms::Latch& l) -> ms::Task<void> {
    co_await eng.delay(1.0);
    l.fire();
  }(e, latch), "firer");
  const std::uint64_t events = e.run();
  ASSERT_EQ(woke_at.size(), static_cast<std::size_t>(n));
  for (double t : woke_at) EXPECT_DOUBLE_EQ(t, 1.0);
  std::vector<int> expected(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  // n+1 spawn events, one delay, ONE batched resume. Unbatched wakeups
  // would cost an event per waiter (~2n+2 total).
  EXPECT_LE(events, static_cast<std::uint64_t>(n) + 4);
}

TEST(Engine, DeadlockDetected) {
  ms::Engine e;
  auto latch = std::make_unique<ms::Latch>(e);
  e.spawn([](ms::Latch& l) -> ms::Task<void> {
    co_await l.wait();  // never fired
  }(*latch), "stuck");
  EXPECT_THROW(e.run(), ms::SimError);
}

TEST(Engine, RunUntilStopsClock) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 10.0, log));
  e.run_until(4.0);
  EXPECT_TRUE(log.empty());
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  e.run_until(20.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 10.0);
}

TEST(Engine, CallbacksInterleaveWithCoroutines) {
  ms::Engine e;
  std::vector<int> order;
  e.schedule_callback(1.0, [&] { order.push_back(1); });
  e.spawn([](ms::Engine& eng, std::vector<int>& ord) -> ms::Task<void> {
    co_await eng.delay(0.5);
    ord.push_back(0);
    co_await eng.delay(1.0);
    ord.push_back(2);
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, DeferRunsAfterQueuedSameTimeEventsAndBeforeLaterOnes) {
  ms::Engine e;
  std::vector<int> order;
  e.schedule_callback(1.0, [&] { order.push_back(1); });
  e.schedule_callback(1.0, [&] {
    // Deferred work runs after the same-time event queued below (seq
    // order), but before anything queued after the defer call.
    e.defer([&] {
      order.push_back(4);
      e.schedule_callback(e.now(), [&] { order.push_back(5); });
    });
    order.push_back(2);
  });
  e.schedule_callback(1.0, [&] { order.push_back(3); });
  e.schedule_callback(2.0, [&] { order.push_back(6); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, WhenAllWaitsForEverything) {
  ms::Engine e;
  std::vector<double> log;
  std::vector<ms::Task<void>> tasks;
  tasks.push_back(record_at(e, 3.0, log));
  tasks.push_back(record_at(e, 1.0, log));
  bool after = false;
  e.spawn([](ms::Engine& eng, std::vector<ms::Task<void>> ts,
             bool& done) -> ms::Task<void> {
    co_await ms::when_all(eng, std::move(ts));
    done = true;
    EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  }(e, std::move(tasks), after));
  e.run();
  EXPECT_TRUE(after);
  EXPECT_EQ(log.size(), 2u);
}

TEST(Engine, WhenAllPropagatesFirstError) {
  ms::Engine e;
  std::vector<ms::Task<void>> tasks;
  tasks.push_back([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
  }(e));
  tasks.push_back([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(0.5);
    throw std::runtime_error("first");
  }(e));
  bool caught = false;
  e.spawn([](ms::Engine& eng, std::vector<ms::Task<void>> ts,
             bool& flag) -> ms::Task<void> {
    try {
      co_await ms::when_all(eng, std::move(ts));
    } catch (const std::runtime_error& err) {
      flag = std::string(err.what()) == "first";
      // All tasks completed before the rethrow.
      EXPECT_DOUBLE_EQ(eng.now(), 1.0);
    }
  }(e, std::move(tasks), caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, ManySpawnsSweepCleanly) {
  ms::Engine e;
  // Many short-lived roots: each frees itself when it finishes.
  std::vector<double> log;
  for (int i = 0; i < 10000; ++i) {
    e.spawn([](ms::Engine& eng) -> ms::Task<void> {
      co_await eng.delay(0.001);
    }(e));
  }
  EXPECT_NO_THROW(e.run());
  EXPECT_EQ(e.live_process_count(), 0u);
}

TEST(Engine, RunUntilRunsEventExactlyAtLimit) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 5.0, log));
  e.spawn(record_at(e, 5.0 + 1e-9, log));
  e.run_until(5.0);
  // The boundary is inclusive: an event at exactly t_limit runs; the one
  // just past it stays queued.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 5.0);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  e.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST(Engine, RunUntilClockStopsAtLastEventWhenQueueDrainsEarly) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 3.0, log));
  e.run_until(10.0);
  // Queue drained before the limit: the clock reads the last event time,
  // not the bound (min(t_limit, last event)).
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  ASSERT_EQ(log.size(), 1u);
}

TEST(Engine, RunUntilIsReentrantAfterBoundedStop) {
  ms::Engine e;
  std::vector<double> log;
  e.spawn(record_at(e, 2.0, log));
  e.spawn(record_at(e, 6.0, log));
  e.run_until(4.0);
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  ASSERT_EQ(log.size(), 1u);
  // New work scheduled after a bounded stop interleaves with the leftover
  // queue on the next bounded run.
  e.spawn(record_at(e, 1.0, log));  // 4.0 + 1.0 = 5.0 < 6.0
  e.run_until(6.0);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[1], 5.0);
  EXPECT_DOUBLE_EQ(log[2], 6.0);
  EXPECT_DOUBLE_EQ(e.now(), 6.0);
  // Limit in the past of the clock: nothing to do, clock does not move
  // backwards.
  e.run_until(1.0);
  EXPECT_DOUBLE_EQ(e.now(), 6.0);
}

TEST(Engine, DelayRejectsNegativeAndNaN) {
  ms::Engine e;
  EXPECT_THROW((void)e.delay(-1e-9), ms::SimError);
  EXPECT_THROW((void)e.delay(std::numeric_limits<double>::quiet_NaN()),
               ms::SimError);
  // Zero and positive delays are fine.
  EXPECT_NO_THROW((void)e.delay(0.0));
  EXPECT_NO_THROW((void)e.delay(1.0));
}

// --- same-instant lane --------------------------------------------------

TEST(Engine, TimedEventDueNowRunsBeforeZeroDelayEventsPushedAtThatTime) {
  ms::Engine e;
  std::vector<int> order;
  e.schedule_callback(1.0, [&] {
    order.push_back(1);
    e.defer([&] { order.push_back(4); });
    e.schedule_callback(e.now(), [&] { order.push_back(5); });
  });
  // Queued at t=0 for t=1: runs before both zero-delay events above.
  e.schedule_callback(1.0, [&] { order.push_back(2); });
  e.spawn([](ms::Engine& eng, std::vector<int>& ord) -> ms::Task<void> {
    co_await eng.delay(1.0);
    ord.push_back(3);
    co_await eng.delay(0.0);
    ord.push_back(6);
  }(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Engine, ZeroDelayEventsRunFifoIncludingOnesPushedByLaneEvents) {
  ms::Engine e;
  std::vector<int> order;
  // 100 same-instant events, each pushing a follow-up: enough to grow the
  // lane while its head has wrapped.
  for (int i = 0; i < 100; ++i) {
    e.schedule_callback(0.0, [&e, &order, i] {
      order.push_back(i);
      e.defer([&order, i] { order.push_back(1000 + i); });
    });
  }
  e.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order[static_cast<std::size_t>(100 + i)], 1000 + i);
  }
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

namespace {

// Each event logs its id and schedules 1-2 children at a delay drawn from
// {0, 0, 0, 0.25, 1}; child ids are handed out in scheduling order, so any
// difference in run order shows up in the log.
struct Script {
  static constexpr int kMaxEvents = 3000;
  int next_id = 0;
  std::vector<int> log;

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  template <typename Push>
  void run_event(int id, double now, Push&& push) {
    log.push_back(id);
    const std::uint64_t h = mix(static_cast<std::uint64_t>(id));
    const int children = h % 4 == 0 ? 2 : 1;
    static constexpr double kDelays[] = {0.0, 0.0, 0.0, 0.25, 1.0};
    for (int c = 0; c < children && next_id < kMaxEvents; ++c) {
      push(now + kDelays[(h >> (8 * (c + 1))) % 5], next_id++);
    }
  }
};

}  // namespace

TEST(Engine, RunOrderMatchesSingleTimeSeqHeap) {
  // Reference: one (time, seq) min-heap, the order before the lane split.
  Script ref;
  {
    using Ev = std::tuple<double, std::uint64_t, int>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
    std::uint64_t seq = 0;
    auto push = [&](double t, int id) { q.emplace(t, seq++, id); };
    for (int i = 0; i < 8; ++i) push(0.25 * (i % 3), ref.next_id++);
    while (!q.empty()) {
      const auto [t, s, id] = q.top();
      q.pop();
      ref.run_event(id, t, push);
    }
  }
  Script got;
  ms::Engine e;
  struct Push {
    ms::Engine* e;
    Script* script;
    void operator()(double t, int id) const {
      e->schedule_callback(t, [p = *this, id] {
        p.script->run_event(id, p.e->now(), p);
      });
    }
  };
  const Push push{&e, &got};
  for (int i = 0; i < 8; ++i) push(0.25 * (i % 3), got.next_id++);
  e.run();
  ASSERT_GT(ref.log.size(), 1000u);
  EXPECT_EQ(got.log, ref.log);
}

TEST(Engine, RunUntilRunsLaneEventsAtLimitAndStopsBeforeLaterOnes) {
  ms::Engine e;
  std::vector<std::string> log;
  e.schedule_callback(2.0, [&] {
    log.push_back("a");
    e.defer([&] {
      log.push_back("b");
      e.schedule_callback(e.now(), [&] { log.push_back("c"); });
      e.schedule_callback(e.now() + 1.0, [&] { log.push_back("late"); });
    });
  });
  e.run_until(2.0);
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.queued_event_count(), 1u);
  // A limit behind the clock is a no-op, even with same-instant work
  // pending: nothing runs and the clock stays put.
  e.defer([&] { log.push_back("d"); });
  e.run_until(1.0);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.queued_event_count(), 2u);
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "d", "late"}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, QueuedEventCountCountsHeapAndLane) {
  ms::Engine e;
  EXPECT_EQ(e.queued_event_count(), 0u);
  e.schedule_callback(1.0, [] {});  // heap
  e.schedule_callback(0.0, [] {});  // lane
  e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(2.0);
  }(e));  // lane (start)
  EXPECT_EQ(e.queued_event_count(), 3u);
  std::size_t seen = 0;
  e.schedule_callback(1.5, [&] {
    e.defer([] {});
    // Pending: this defer and the spawned root's wake at t=2.
    seen = e.queued_event_count();
  });
  e.run();
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(e.queued_event_count(), 0u);
}

// --- root records ---------------------------------------------------------

TEST(Engine, LiveProcessCountIsExactMidRun) {
  ms::Engine e;
  auto sleeper = [](ms::Engine& eng, double dt) -> ms::Task<void> {
    co_await eng.delay(dt);
  };
  e.spawn(sleeper(e, 1.0));
  e.spawn(sleeper(e, 2.0));
  e.launch(sleeper(e, 1.5), "op");
  e.spawn(sleeper(e, 3.0));
  EXPECT_EQ(e.live_process_count(), 4u);
  std::vector<std::size_t> seen;
  for (double t : {0.5, 1.25, 1.75, 2.5}) {
    e.schedule_callback(t, [&] { seen.push_back(e.live_process_count()); });
  }
  e.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{4, 3, 2, 1}));
  EXPECT_EQ(e.live_process_count(), 0u);
}

TEST(Engine, DeadlockNamesFirstBlockedRootIncludingLaunchedOps) {
  ms::Engine e;
  auto latch = std::make_unique<ms::Latch>(e);
  auto waiter = [](ms::Latch& l) -> ms::Task<void> { co_await l.wait(); };
  e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
  }(e), "finishes");
  e.launch(waiter(*latch), "stuck-op");
  e.spawn(waiter(*latch), "stuck-proc");
  try {
    e.run();
    FAIL() << "expected a deadlock report";
  } catch (const ms::SimError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("2 process(es) still blocked"), std::string::npos)
        << what;
    EXPECT_NE(what.find("(first: stuck-op)"), std::string::npos) << what;
  }
  EXPECT_EQ(e.live_process_count(), 2u);
}

TEST(Engine, LaunchedOpFailureSurfacesFromRunNamingIt) {
  ms::Engine e;
  e.launch([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("op exploded");
  }(e), "bad-op");
  try {
    e.run();
    FAIL() << "expected the op's failure";
  } catch (const ms::SimError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("'bad-op'"), std::string::npos) << what;
    EXPECT_NE(what.find("op exploded"), std::string::npos) << what;
  }
  EXPECT_EQ(e.live_process_count(), 0u);
}

TEST(Engine, FailureObservedByALaterJoinIsNotReported) {
  ms::Engine e;
  auto failing = e.spawn([](ms::Engine& eng) -> ms::Task<void> {
    co_await eng.delay(1.0);
    throw std::runtime_error("seen later");
  }(e), "fails-first");
  bool caught = false;
  // Joins only after the failed process finished.
  e.spawn([](ms::Engine& eng, ms::Process p, bool& flag) -> ms::Task<void> {
    co_await eng.delay(5.0);
    try {
      co_await p.join();
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(e, failing, caught), "late-joiner");
  EXPECT_NO_THROW(e.run());
  EXPECT_TRUE(caught);
}

namespace {

// Counts live coroutine frames: one guard per frame, destroyed with it.
struct FrameGuard {
  int* live;
  explicit FrameGuard(int& n) : live(&n) { ++*live; }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;
  ~FrameGuard() { --*live; }
};

ms::Task<void> guarded_wait(ms::Latch& l, int& live) {
  FrameGuard guard(live);
  co_await l.wait();
}

ms::Task<void> guarded_sleep(ms::Engine& e, double dt, int& live) {
  FrameGuard guard(live);
  co_await e.delay(dt);
}

}  // namespace

TEST(Engine, DestroyingEngineFreesSuspendedRootsOfBothKinds) {
  int live = 0;
  {
    ms::Engine e;
    ms::Latch gate(e);
    e.spawn(guarded_wait(gate, live), "joinable-waiter");
    e.launch(guarded_wait(gate, live), "op-waiter");
    e.spawn(guarded_sleep(e, 10.0, live), "joinable-sleeper");
    e.launch(guarded_sleep(e, 10.0, live), "op-sleeper");
    e.launch(guarded_sleep(e, 0.5, live), "op-done");
    e.run_until(1.0);
    EXPECT_EQ(live, 4);
    EXPECT_EQ(e.live_process_count(), 4u);
  }
  EXPECT_EQ(live, 0);
}

TEST(Engine, ProcessOutlivesItsEngine) {
  ms::Process finished;
  ms::Process blocked;
  {
    ms::Engine e;
    ms::Latch gate(e);
    finished = e.spawn([](ms::Engine& eng) -> ms::Task<void> {
      co_await eng.delay(1.0);
    }(e));
    blocked = e.spawn([](ms::Latch& l) -> ms::Task<void> {
      co_await l.wait();
    }(gate));
    e.schedule_callback(10.0, [] {});  // keeps run_until from draining
    e.run_until(2.0);
    EXPECT_TRUE(finished.done());
  }
  EXPECT_TRUE(finished.valid());
  EXPECT_TRUE(finished.done());
  EXPECT_TRUE(blocked.valid());
  EXPECT_FALSE(blocked.done());
  // The last handle frees the orphaned state slab.
  finished = ms::Process();
  blocked = ms::Process();
  EXPECT_FALSE(blocked.valid());
}
