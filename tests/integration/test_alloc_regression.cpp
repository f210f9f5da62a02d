// Regression guard for the zero-allocation steady state: after one warmup
// round fills the event/flow/frame pools and container high-water marks, a
// second identical round of full-stack pipeline transfers must perform zero
// global operator-new calls — fresh executions and compiled-template
// replays alike (a replay acquires its own staging lease and events).
//
// This binary deliberately lives in its own test target: it links
// mpath_alloc_hook, which replaces the global operator new/delete with
// counting versions, and that replacement must not leak into the other test
// executables.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "mpath/benchcore/alloc_hook.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/sim/pool.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

mp::ExecPlan worker_plan(mt::DeviceId stage) {
  return {
      mp::ExecPath{{mt::PathKind::Direct, mt::kInvalidDevice}, 2_MiB, 8},
      mp::ExecPath{{mt::PathKind::GpuStaged, stage}, 2_MiB, 8},
  };
}

/// `repeats` transfers of the worker plan: replays of `graph` when set,
/// fresh executions otherwise.
ms::Task<void> worker_loop(mp::PipelineEngine& pipe, mg::DeviceBuffer& dst,
                           const mg::DeviceBuffer& src, mt::DeviceId stage,
                           int repeats, bool monitored,
                           std::shared_ptr<mp::TransferGraph> graph) {
  for (int r = 0; r < repeats; ++r) {
    mp::PathWatchList watch;
    if (monitored) watch = {{/*deadline_s=*/10.0}, {/*deadline_s=*/10.0}};
    if (graph != nullptr) {
      (void)co_await pipe.replay(graph, dst, 0, src, 0, std::move(watch));
    } else {
      (void)co_await pipe.execute_monitored(dst, 0, src, 0,
                                            worker_plan(stage),
                                            std::move(watch));
    }
  }
}

std::uint64_t steady_state_allocs(int workers, int repeats, bool monitored,
                                  bool compiled = false) {
  mt::System sys = mt::make_beluga();
  sys.costs.jitter_rel = 0;
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  net.set_solver_mode(ms::FluidNetwork::SolverMode::kIncremental);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt, /*staging_buffers_per_device=*/64,
                          mg::Payload::Simulated);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  const int n = static_cast<int>(gpus.size());
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  for (int w = 0; w < workers; ++w) {
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(gpus[w % n], 4_MiB,
                                                      mg::Payload::Simulated));
    bufs.push_back(std::make_unique<mg::DeviceBuffer>(
        gpus[(w + 1) % n], 4_MiB, mg::Payload::Simulated));
  }
  // One template per worker, compiled before the warmup: compiling
  // allocates, replaying must not.
  std::vector<std::shared_ptr<mp::TransferGraph>> graphs(
      static_cast<std::size_t>(workers));
  for (int w = 0; compiled && w < workers; ++w) {
    mpath::model::TransferConfig config;
    for (const mp::ExecPath& p : worker_plan(gpus[(w + 2) % n])) {
      mpath::model::PathShare share;
      share.plan = p.plan;
      share.bytes = p.bytes;
      share.chunks = p.chunks;
      config.paths.push_back(share);
    }
    graphs[static_cast<std::size_t>(w)] = pipe.compile_graph(
        bufs[2 * w]->device(), bufs[2 * w + 1]->device(), config);
  }
  const auto spawn_round = [&] {
    for (int w = 0; w < workers; ++w) {
      engine.spawn(worker_loop(pipe, *bufs[2 * w + 1], *bufs[2 * w],
                               gpus[(w + 2) % n], repeats, monitored,
                               graphs[static_cast<std::size_t>(w)]),
                   "worker");
    }
  };
  spawn_round();
  engine.run();  // warmup: pools and capacities reach their high-water marks
  const mpath::benchcore::AllocScope scope;
  spawn_round();
  engine.run();
  return scope.delta();
}

}  // namespace

TEST(AllocRegression, SteadyStateRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers; "
                  "steady-state allocation counts are meaningless here";
#else
  ASSERT_TRUE(mpath::benchcore::alloc_hook_active());
  EXPECT_EQ(steady_state_allocs(/*workers=*/8, /*repeats=*/4,
                                /*monitored=*/false),
            0u);
#endif
}

TEST(AllocRegression, MonitoredSteadyStateRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(steady_state_allocs(/*workers=*/8, /*repeats=*/4,
                                /*monitored=*/true),
            0u);
#endif
}

TEST(AllocRegression, ReplaySteadyStateRoundIsAllocationFree) {
#if defined(MPATH_POOL_PASSTHROUGH)
  GTEST_SKIP() << "size-bucketed pool is pass-through under sanitizers";
#else
  EXPECT_EQ(steady_state_allocs(/*workers=*/8, /*repeats=*/4,
                                /*monitored=*/true, /*compiled=*/true),
            0u);
#endif
}

// Algorithm 1's "look up config" step on the replay hot path: a plan-cache
// hit probes with a borrowed view of the (src, dst, bytes, path-set) tuple,
// so it performs no allocation at all.
TEST(AllocRegression, PlanCacheLookupHitIsAllocationFree) {
  ASSERT_TRUE(mpath::benchcore::alloc_hook_active());
  mt::System sys = mt::make_beluga();
  ms::Engine engine;
  ms::FluidNetwork net(engine);
  mg::GpuRuntime rt(sys, engine, net);
  mp::PipelineEngine pipe(rt);
  const std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mpath::model::TransferConfig config;
  for (const mp::ExecPath& p : worker_plan(gpus[2])) {
    mpath::model::PathShare share;
    share.plan = p.plan;
    share.bytes = p.bytes;
    share.chunks = p.chunks;
    config.paths.push_back(share);
  }
  config.total_bytes = 4_MiB;
  const auto graph = pipe.compile_graph(gpus[0], gpus[1], config);
  ASSERT_NE(graph, nullptr);
  const std::vector<mt::PathPlan> paths(graph->key_paths().begin(),
                                        graph->key_paths().end());
  mp::GraphCache cache;
  cache.insert(graph, /*cal_version=*/0);
  const mpath::benchcore::AllocScope scope;
  for (int i = 0; i < 64; ++i) {
    const auto hit = cache.lookup(gpus[0], gpus[1], graph->total_bytes(),
                                  paths, /*cal_version=*/0);
    ASSERT_EQ(hit, graph);
  }
  EXPECT_EQ(scope.delta(), 0u);
  EXPECT_EQ(cache.stats().hits, 64u);
}
