// OBS-OVH — google-benchmark microbenchmark backing the paper's claim that
// "the runtime overhead of the model-driven framework is negligible for
// large message sizes (less than 0.1% of the total execution time)".
//
// Measures populate_path_config (Algorithm 1) — a full solve, since the
// configurator keeps no cache — and theta-solver / chunk-optimizer
// internals, and relates the cost to a 64 MB transfer time.
// PR 9 adds the build-vs-replay columns: BM_GraphColdBuild is the full
// per-transfer CPU path a cache miss pays (theta solve + config + template
// compile), BM_GraphReplay is what a cache hit pays instead (the keyed
// lookup). The BENCH_pr9.json gate holds replay to <= 20% of the
// cold build at the same message size.
#include <benchmark/benchmark.h>

#include <span>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/model/configurator.hpp"
#include "mpath/pipeline/engine.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;

namespace {

struct Setup {
  mt::System system = mt::make_beluga();
  mm::ModelRegistry registry = mpath::tuning::registry_from_topology(system);
  std::vector<mt::DeviceId> gpus = system.topology.gpus();
  std::vector<mt::PathPlan> paths = mt::enumerate_paths(
      system.topology, gpus[0], gpus[1],
      mt::PathPolicy::three_gpus_with_host());
};

Setup& setup() {
  static Setup s;
  return s;
}

}  // namespace

static void BM_Configure(benchmark::State& state) {
  auto& s = setup();
  const mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cfg.configure(s.gpus[0], s.gpus[1], bytes, s.paths));
  }
  // For the <0.1% claim: compare the reported ns/op against this transfer
  // time (a 46 GB/s single-lane transfer of the same size).
  state.counters["transfer_us"] = static_cast<double>(bytes) / 46e9 * 1e6;
}
BENCHMARK(BM_Configure)->Arg(2 << 20)->Arg(64 << 20)->Arg(512 << 20);

static void BM_ThetaSolve(benchmark::State& state) {
  auto& s = setup();
  std::vector<mm::PathTerms> terms;
  for (const auto& plan : s.paths) {
    const auto params = s.registry.path_params(s.gpus[0], s.gpus[1], plan);
    terms.push_back(mm::terms_pipelined(
        params, mm::PhiFitter::fit_for_path(params, 64e6, 64e6, 0.25)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mm::ThetaSolver::solve(terms, 64e6));
  }
}
BENCHMARK(BM_ThetaSolve);

static void BM_PhiFit(benchmark::State& state) {
  auto& s = setup();
  const auto params = s.registry.path_params(s.gpus[0], s.gpus[1],
                                             s.paths[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mm::PhiFitter::fit_for_path(params, 64e6, 64e6, 0.25));
  }
}
BENCHMARK(BM_PhiFit);

namespace {

// Compile/replay need the pipeline stack (streams); the engine never
// advances — both paths are host-side only.
struct GraphSetup {
  mt::System system = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{system, engine, net};
  mp::PipelineEngine pipe{rt, /*staging_buffers_per_device=*/16,
                          mg::Payload::Simulated};
  mm::ModelRegistry registry = mpath::tuning::registry_from_topology(system);
  std::vector<mt::DeviceId> gpus = system.topology.gpus();
  std::vector<mt::PathPlan> paths = mt::enumerate_paths(
      system.topology, gpus[0], gpus[1], mt::PathPolicy::three_gpus());
};

GraphSetup& graph_setup() {
  static GraphSetup s;
  return s;
}

}  // namespace

// Cache-miss cost: theta solve + TransferConfig + template compile (stream
// resolution and chunk tables).
static void BM_GraphColdBuild(benchmark::State& state) {
  auto& s = graph_setup();
  const mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const mm::TransferConfig config =
        cfg.compute_config(s.gpus[0], s.gpus[1], bytes, s.paths);
    auto g = s.pipe.compile_graph(s.gpus[0], s.gpus[1], config);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GraphColdBuild)->Arg(2 << 20)->Arg(64 << 20);

// Cache-hit cost: the entire CPU-side work the replay fast path performs
// before issuing — the full-key plan-cache lookup (hash, key compare, LRU
// splice). This is the number the <= 20%-of-cold-build gate holds.
static void BM_GraphReplay(benchmark::State& state) {
  auto& s = graph_setup();
  mm::PathConfigurator cfg(s.registry);
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  mp::GraphCache cache;
  const mm::TransferConfig config =
      cfg.compute_config(s.gpus[0], s.gpus[1], bytes, s.paths);
  cache.insert(s.pipe.compile_graph(s.gpus[0], s.gpus[1], config), 0);
  const std::span<const mt::PathPlan> key{s.paths.data(), s.paths.size()};
  for (auto _ : state) {
    auto g = cache.lookup(s.gpus[0], s.gpus[1], bytes, key, 0);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GraphReplay)->Arg(2 << 20)->Arg(64 << 20);

static void BM_PredictedBandwidth(benchmark::State& state) {
  auto& s = setup();
  mm::PathConfigurator cfg(s.registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpath::benchcore::predicted_bandwidth(
        cfg, s.system.topology, s.gpus[0], s.gpus[1], 64 << 20,
        mt::PathPolicy::three_gpus()));
  }
}
BENCHMARK(BM_PredictedBandwidth);

BENCHMARK_MAIN();
