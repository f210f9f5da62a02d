#include "mpath/gpusim/runtime.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;
using mpath::util::gbps;

namespace {

// Beluga with all software overheads zeroed for exact-time assertions.
struct CleanFixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs = mt::SoftwareCosts{};
    s.costs.op_launch_s = 0;
    s.costs.event_record_s = 0;
    s.costs.event_wait_s = 0;
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
};

}  // namespace

TEST(GpuRuntime, CopyMovesPayloadAndTakesWireTime) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  src.fill_pattern(7);
  const auto s = f.rt.create_stream(f.gpus[0]);
  double finish = -1;
  f.rt.memcpy_async(dst, 0, src, 0, 1_MiB, s);
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  const double expected = 1e-6 + static_cast<double>(1_MiB) / gbps(46);
  EXPECT_NEAR(finish, expected, 1e-9);
  EXPECT_EQ(f.rt.bytes_copied(), 1_MiB);
}

TEST(GpuRuntime, StreamOpsExecuteInOrder) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[1], 64), c(f.gpus[2], 64);
  a.fill_pattern(1);
  const auto s = f.rt.create_stream(f.gpus[0]);
  // b <- a, then c <- b: only correct if strictly ordered.
  f.rt.memcpy_async(b, 0, a, 0, 64, s);
  f.rt.memcpy_async(c, 0, b, 0, 64, s);
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st) -> ms::Task<void> {
    co_await rt.synchronize(st);
  }(f.rt, s));
  f.engine.run();
  EXPECT_TRUE(c.same_content(a));
}

TEST(GpuRuntime, IndependentStreamsOverlap) {
  CleanFixture f;
  // Two disjoint GPU pairs: copies run concurrently, so both finish in the
  // time of one (plus latency), not 2x.
  mg::DeviceBuffer s0(f.gpus[0], 46_MiB), d0(f.gpus[1], 46_MiB);
  mg::DeviceBuffer s1(f.gpus[2], 46_MiB), d1(f.gpus[3], 46_MiB);
  const auto st0 = f.rt.create_stream(f.gpus[0]);
  const auto st1 = f.rt.create_stream(f.gpus[2]);
  f.rt.memcpy_async(d0, 0, s0, 0, 46_MiB, st0);
  f.rt.memcpy_async(d1, 0, s1, 0, 46_MiB, st1);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, double& out) -> ms::Task<void> {
    co_await rt.device_synchronize();
    out = rt.engine().now();
  }(f.rt, finish));
  f.engine.run();
  const double one_copy = 1e-6 + static_cast<double>(46_MiB) / gbps(46);
  EXPECT_NEAR(finish, one_copy, 1e-6);
}

TEST(GpuRuntime, SameLinkCopiesContend) {
  CleanFixture f;
  // Two concurrent copies over the same NVLink share it: each takes ~2x.
  mg::DeviceBuffer sa(f.gpus[0], 46_MiB), da(f.gpus[1], 46_MiB);
  mg::DeviceBuffer sb(f.gpus[0], 46_MiB), db(f.gpus[1], 46_MiB);
  const auto st0 = f.rt.create_stream(f.gpus[0]);
  const auto st1 = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(da, 0, sa, 0, 46_MiB, st0);
  f.rt.memcpy_async(db, 0, sb, 0, 46_MiB, st1);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, double& out) -> ms::Task<void> {
    co_await rt.device_synchronize();
    out = rt.engine().now();
  }(f.rt, finish));
  f.engine.run();
  const double shared = 1e-6 + 2.0 * static_cast<double>(46_MiB) / gbps(46);
  EXPECT_NEAR(finish, shared, 1e-6);
}

TEST(GpuRuntime, EventsOrderAcrossStreams) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[2], 64), c(f.gpus[1], 64);
  a.fill_pattern(9);
  // Staged: a -> b on stream0; stream1 waits for the event then b -> c.
  const auto s0 = f.rt.create_stream(f.gpus[0]);
  const auto s1 = f.rt.create_stream(f.gpus[2]);
  const auto ev = f.rt.create_event();
  f.rt.memcpy_async(b, 0, a, 0, 64, s0);
  f.rt.record_event(ev, s0);
  f.rt.wait_event(s1, ev);
  f.rt.memcpy_async(c, 0, b, 0, 64, s1);
  f.engine.spawn([](mg::GpuRuntime& rt) -> ms::Task<void> {
    co_await rt.device_synchronize();
  }(f.rt));
  f.engine.run();
  EXPECT_TRUE(c.same_content(a));
}

TEST(GpuRuntime, WaitOnUnrecordedEventIsNoop) {
  CleanFixture f;
  const auto s = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.create_event();
  f.rt.wait_event(s, ev);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_NEAR(finish, 0.0, 1e-12);
}

TEST(GpuRuntime, SameDeviceCopyUsesLocalBandwidth) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[0], 1_MiB);
  src.fill_pattern(3);
  const auto s = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(dst, 0, src, 0, 1_MiB, s);
  double finish = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, finish));
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_NEAR(finish, static_cast<double>(1_MiB) / 600e9, 1e-9);
}

TEST(GpuRuntime, RegionOffsetsRespected) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 256), dst(f.gpus[1], 256);
  src.fill_pattern(5);
  dst.fill_pattern(6);
  const auto s = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(dst, 128, src, 0, 64, s);
  f.engine.spawn([](mg::GpuRuntime& rt) -> ms::Task<void> {
    co_await rt.device_synchronize();
  }(f.rt));
  f.engine.run();
  // dst[128..192) == src[0..64); the rest of dst is untouched.
  EXPECT_TRUE(std::equal(dst.bytes().begin() + 128, dst.bytes().begin() + 192,
                         src.bytes().begin()));
  mg::DeviceBuffer ref(f.gpus[1], 256);
  ref.fill_pattern(6);
  EXPECT_TRUE(std::equal(dst.bytes().begin(), dst.bytes().begin() + 128,
                         ref.bytes().begin()));
}

TEST(GpuRuntime, BadRegionThrowsAtEnqueue) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 64), dst(f.gpus[1], 64);
  const auto s = f.rt.create_stream(f.gpus[0]);
  EXPECT_THROW(f.rt.memcpy_async(dst, 32, src, 0, 64, s), std::out_of_range);
}

TEST(GpuRuntime, IpcOpenPaysOnceThenCached) {
  CleanFixture f;
  // Re-enable the IPC cost for this test.
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer buf(gpus[1], 64);
  double first = -1, second = -1;
  engine.spawn([](mg::GpuRuntime& r, mt::DeviceId opener,
                  mg::DeviceBuffer& b, double& t1,
                  double& t2) -> ms::Task<void> {
    co_await r.ipc_open(opener, b);
    t1 = r.engine().now();
    co_await r.ipc_open(opener, b);
    t2 = r.engine().now();
  }(rt, gpus[0], buf, first, second));
  engine.run();
  EXPECT_NEAR(first, sys.costs.ipc_open_s, 1e-9);
  EXPECT_DOUBLE_EQ(second, first);  // cached: no extra time
  EXPECT_TRUE(rt.ipc_cached(gpus[0], buf));
  EXPECT_FALSE(rt.ipc_cached(gpus[2], buf));
  rt.ipc_cache_clear();
  EXPECT_EQ(rt.ipc_cache_size(), 0u);
}

TEST(GpuRuntime, OpCountsTracked) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 64), dst(f.gpus[1], 64);
  const auto s = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.create_event();
  f.rt.memcpy_async(dst, 0, src, 0, 64, s);
  f.rt.record_event(ev, s);
  f.rt.wait_event(s, ev);
  EXPECT_EQ(f.rt.ops_issued(), 3u);
  f.engine.spawn([](mg::GpuRuntime& rt) -> ms::Task<void> {
    co_await rt.device_synchronize();
  }(f.rt));
  f.engine.run();
}

TEST(GpuRuntime, EventFreeListRecyclesReservations) {
  CleanFixture f;
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  const auto e0 = f.rt.acquire_event();  // free list empty: freshly minted
  const auto e1 = f.rt.acquire_event();
  EXPECT_NE(e0, e1);
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  f.rt.release_event(e0);
  f.rt.release_event(e1);
  EXPECT_EQ(f.rt.events_pooled(), 2u);
  // LIFO reuse: the pool hands back released ids instead of minting more.
  const auto r0 = f.rt.acquire_event();
  const auto r1 = f.rt.acquire_event();
  EXPECT_EQ(f.rt.events_pooled(), 0u);
  EXPECT_TRUE((r0 == e0 && r1 == e1) || (r0 == e1 && r1 == e0));
  f.rt.release_event(r0);
  f.rt.release_event(r1);
}

TEST(GpuRuntime, ReacquiredEventRearmsAtRecord) {
  // An event that already fired, was released, and is then reacquired must
  // behave like a fresh event: record re-arms the latch at enqueue, so a
  // cross-stream wait on the recycled id observes the NEW recording, not
  // the stale completed state.
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 1_MiB), b(f.gpus[2], 1_MiB), c(f.gpus[1], 1_MiB);
  a.fill_pattern(5);
  const auto s0 = f.rt.create_stream(f.gpus[0]);
  const auto ev = f.rt.acquire_event();
  f.rt.memcpy_async(b, 0, a, 0, 1_MiB, s0);
  f.rt.record_event(ev, s0);
  f.engine.spawn([](mg::GpuRuntime& rt) -> ms::Task<void> {
    co_await rt.device_synchronize();
  }(f.rt));
  f.engine.run();
  f.rt.release_event(ev);

  const auto ev2 = f.rt.acquire_event();
  EXPECT_EQ(ev2, ev);  // recycled id
  const auto s2 = f.rt.create_stream(f.gpus[2]);
  const auto s3 = f.rt.create_stream(f.gpus[2]);
  // s3 waits on the recycled event recorded behind a fresh copy on s2: the
  // dependent copy must see the new payload, proving the latch re-armed.
  b.fill_pattern(7);
  mg::DeviceBuffer d(f.gpus[2], 1_MiB);
  d.fill_pattern(7);
  f.rt.memcpy_async(b, 0, d, 0, 1_MiB, s2);
  f.rt.record_event(ev2, s2);
  f.rt.wait_event(s3, ev2);
  f.rt.memcpy_async(c, 0, b, 0, 1_MiB, s3);
  f.engine.spawn([](mg::GpuRuntime& rt) -> ms::Task<void> {
    co_await rt.device_synchronize();
  }(f.rt));
  f.engine.run();
  EXPECT_TRUE(c.same_content(d));
  f.rt.release_event(ev2);
}

// -- stream contract ---------------------------------------------------------

TEST(GpuRuntime, SynchronizeIgnoresOpsEnqueuedAfterTheCall) {
  CleanFixture f;
  mg::DeviceBuffer src(f.gpus[0], 1_MiB), dst(f.gpus[1], 1_MiB);
  const auto s = f.rt.create_stream(f.gpus[0]);
  f.rt.memcpy_async(dst, 0, src, 0, 1_MiB, s);
  double synced = -1, second_done = -1;
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st,
                    double& out) -> ms::Task<void> {
    co_await rt.synchronize(st);
    out = rt.engine().now();
  }(f.rt, s, synced));
  // Starts after the waiter above, so this copy is enqueued after the
  // synchronize call.
  f.engine.spawn([](mg::GpuRuntime& rt, mg::StreamId st, mg::DeviceBuffer& d,
                    const mg::DeviceBuffer& sr,
                    double& out) -> ms::Task<void> {
    rt.memcpy_async(d, 0, sr, 0, 1_MiB, st, nullptr,
                    [&rt, &out](bool) { out = rt.engine().now(); });
    co_return;
  }(f.rt, s, dst, src, second_done));
  f.engine.run();
  const double one_copy = 1e-6 + static_cast<double>(1_MiB) / gbps(46);
  EXPECT_NEAR(synced, one_copy, 1e-9);
  EXPECT_NEAR(second_done, 2 * one_copy, 1e-9);
}

TEST(GpuRuntime, CancelDrainsQueuedGovernedCopiesThenRunsNextOp) {
  auto sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;  // dispatch latency on, but exact
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  const auto gpus = sys.topology.gpus();
  mg::DeviceBuffer src(gpus[0], 46_MiB), dst(gpus[1], 46_MiB);
  const auto s = rt.create_stream(gpus[0]);
  const auto token = rt.make_cancel_token();
  struct Done {
    double at = -1;
    bool delivered = true;
  };
  std::vector<Done> done(4);
  auto hook = [&engine](Done& d) {
    return [&engine, &d](bool delivered) {
      d = Done{engine.now(), delivered};
    };
  };
  for (int i = 0; i < 3; ++i) {
    rt.memcpy_async(dst, 0, src, 0, 46_MiB, s, token, hook(done[i]));
  }
  rt.memcpy_async(dst, 0, src, 0, 64, s, nullptr, hook(done[3]));
  constexpr double kCancelAt = 0.5e-3;  // mid-way through the first copy
  engine.schedule_callback(kCancelAt, [&token] { token->cancel(); });
  engine.run();
  EXPECT_EQ(token->flows_cancelled(), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(done[i].delivered) << i;
    // Queued governed copies drain at the cancel instant: no dispatch
    // latency, no wire time.
    EXPECT_EQ(done[i].at, kCancelAt) << i;
  }
  EXPECT_TRUE(done[3].delivered);
  const double small_copy =
      sys.costs.op_launch_s + 1e-6 + 64.0 / gbps(46);
  EXPECT_NEAR(done[3].at, kCancelAt + small_copy, 1e-9);
  EXPECT_EQ(rt.bytes_copied(), 64u);
}

TEST(GpuRuntime, IdleStreamsLeaveNoLiveProcess) {
  CleanFixture f;
  mg::DeviceBuffer a(f.gpus[0], 64), b(f.gpus[1], 64);
  const auto s0 = f.rt.create_stream(f.gpus[0]);
  const auto s1 = f.rt.create_stream(f.gpus[1]);
  (void)f.rt.create_stream(f.gpus[2]);  // never used
  const auto ev = f.rt.create_event();
  f.rt.memcpy_async(b, 0, a, 0, 64, s0);
  f.rt.record_event(ev, s0);
  f.rt.wait_event(s1, ev);
  f.rt.stream_delay(s1, 1e-6);
  EXPECT_NO_THROW(f.engine.run());
  EXPECT_EQ(f.engine.live_process_count(), 0u);
  // A drained stream takes new work and drains again.
  f.rt.memcpy_async(a, 0, b, 0, 64, s1);
  EXPECT_NO_THROW(f.engine.run());
  EXPECT_EQ(f.engine.live_process_count(), 0u);
  EXPECT_EQ(f.rt.ops_issued(), 5u);
}

// Order pin: four Beluga streams in a ring of copy/record/wait with the
// default jitter. Every op draws its jitter when it starts, in start order,
// so each completion instant and the next RNG draw pin where every op
// starts in the engine's same-instant lane.
TEST(GpuRuntime, RingOfStreamsPinsOpOrder) {
  const auto sys = mt::make_beluga();
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net, /*seed=*/42);
  const auto gpus = sys.topology.gpus();
  ASSERT_EQ(gpus.size(), 4u);
  std::vector<mg::DeviceBuffer> bufs;
  std::vector<mg::StreamId> streams;
  for (const auto g : gpus) {
    bufs.emplace_back(g, 2_MiB);
    streams.push_back(rt.create_stream(g));
  }
  std::vector<double> at;
  // Each round: a copy on every stream (they run concurrently), an event
  // record behind each, and each stream's successor waits on it. Copies
  // are observed by their done hook, records by a waiter on the event.
  auto issue_round = [&](int round) {
    for (std::size_t i = 0; i < 4; ++i) {
      at.push_back(-1);
      rt.memcpy_async(bufs[(i + 1) % 4], 0, bufs[i], 0, 256_KiB << round,
                      streams[i], nullptr,
                      [&engine, &at, k = at.size() - 1](bool) {
                        at[k] = engine.now();
                      });
    }
    std::vector<mg::EventId> evs;
    for (std::size_t i = 0; i < 4; ++i) {
      evs.push_back(rt.acquire_event());
      rt.record_event(evs[i], streams[i]);
      at.push_back(-1);
      engine.spawn([](mg::GpuRuntime& r, mg::EventId e, std::vector<double>& v,
                      std::size_t k) -> ms::Task<void> {
        co_await r.synchronize_event(e);
        v[k] = r.engine().now();
      }(rt, evs[i], at, at.size() - 1));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      rt.wait_event(streams[(i + 1) % 4], evs[i]);
    }
  };
  issue_round(0);
  issue_round(1);
  // A third round issued from the simulation while the ring is still
  // busy, then a fourth once it has drained.
  engine.spawn([](ms::Engine& e, auto& issue) -> ms::Task<void> {
    co_await e.delay(20e-6);
    issue(2);
    co_await e.delay(1e-3);
    issue(3);
  }(engine, issue_round));
  engine.run();
  EXPECT_EQ(engine.live_process_count(), 0u);
  // Captured from the earlier one-coroutine-per-op implementation; they
  // must not move.
  const std::vector<double> want = {
      // round 0 copies
      0x1.0952b212fdc06p-17, 0x1.08ced945e9f27p-17,
      0x1.08457c80899cep-17, 0x1.08bf624a00355p-17,
      // round 0 records
      0x1.13533c234a421p-17, 0x1.12d78bde45a48p-17,
      0x1.1256da84e6545p-17, 0x1.12eb5d07fd804p-17,
      // round 1 copies
      0x1.7b06c995527fcp-16, 0x1.7af83e1283cacp-16,
      0x1.7abed74ff7ce6p-16, 0x1.7ad2c2e3537bbp-16,
      // round 1 records
      0x1.8004320681c2fp-16, 0x1.7ff540e5b2dbap-16,
      0x1.7fcd9723ef0fbp-16, 0x1.7fbc2e989712cp-16,
      // round 2 copies
      0x1.988550c51fc5bp-15, 0x1.9868da35f6546p-15,
      0x1.988e3393aa133p-15, 0x1.97eb7214fe378p-15,
      // round 2 records
      0x1.9b10e9cb70d78p-15, 0x1.9af088c77b9ccp-15,
      0x1.9b16a41fed817p-15, 0x1.9a752dda0c45ep-15,
      // round 3 copies
      0x1.17ec1bfdeea8bp-10, 0x1.17ea0ece62a36p-10,
      0x1.17eabfcdefa25p-10, 0x1.17eaba10b6732p-10,
      // round 3 records
      0x1.18000a26b4553p-10, 0x1.17fe04f78ff76p-10,
      0x1.17febf2354bf1p-10, 0x1.17fea57c590bfp-10,
  };
  ASSERT_EQ(at.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(at[k], want[k]) << "op " << k << ": " << std::hexfloat << at[k];
  }
  const double draw = rt.rng().uniform(0, 1);
  EXPECT_EQ(draw, 0x1.aa1fddf69cc72p-1) << std::hexfloat << draw;
}
