// Reproduction regression tests: the paper's headline claims, encoded as
// assertions so that a refactor that silently breaks the reproduction
// fails CI. Bands are deliberately loose — they pin the SHAPE of each
// result (who wins, roughly by how much), not exact figures.
#include <gtest/gtest.h>

#include <ctime>

#include "mpath/benchcore/metrics.hpp"
#include "mpath/benchcore/omb.hpp"
#include "mpath/benchcore/stack.hpp"
#include "mpath/mpisim/collectives.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/tuning/static_tuner.hpp"
#include "mpath/util/stats.hpp"
#include "mpath/util/units.hpp"

using namespace mpath;
using namespace mpath::util::literals;

namespace {

struct Calibrated {
  topo::System system;
  model::ModelRegistry registry;
  model::PathConfigurator configurator;
  explicit Calibrated(topo::System sys)
      : system(std::move(sys)),
        registry(tuning::calibrate(system)),
        configurator(registry) {}
};

Calibrated& beluga() {
  static Calibrated c(topo::make_beluga());
  return c;
}

double dyn_bw(Calibrated& cal, std::size_t bytes,
              const topo::PathPolicy& policy, int window = 4) {
  auto stack =
      benchcore::SimStack::model_driven(cal.system, cal.configurator, policy);
  benchcore::P2POptions opt;
  opt.window = window;
  opt.iterations = 3;
  return benchcore::measure_bw(stack.world(), bytes, opt);
}

double direct_bw(Calibrated& cal, std::size_t bytes, int window = 4) {
  auto stack = benchcore::SimStack::direct(cal.system);
  benchcore::P2POptions opt;
  opt.window = window;
  opt.iterations = 3;
  return benchcore::measure_bw(stack.world(), bytes, opt);
}

}  // namespace

TEST(PaperClaims, P2PSpeedupApproachesThreeLanes) {
  // "achieving up to 2.9x speedup over single-path methods"
  auto& cal = beluga();
  const double speedup = dyn_bw(cal, 512_MiB, topo::PathPolicy::three_gpus()) /
                         direct_bw(cal, 512_MiB);
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 3.05);
}

TEST(PaperClaims, PredictionErrorSmallForLargeMessages) {
  // "<6% error in predicting the optimal configuration for messages larger
  // than 4MB" — we accept up to 10% mean on the non-host policies.
  auto& cal = beluga();
  const auto gpus = cal.system.topology.gpus();
  std::vector<std::pair<double, double>> pairs;
  for (std::size_t bytes : {8_MiB, 32_MiB, 128_MiB, 512_MiB}) {
    for (const auto& policy :
         {topo::PathPolicy::two_gpus(), topo::PathPolicy::three_gpus()}) {
      const double predicted = benchcore::predicted_bandwidth(
          cal.configurator, cal.system.topology, gpus[0], gpus[1], bytes,
          policy);
      pairs.emplace_back(predicted, dyn_bw(cal, bytes, policy, 16));
    }
  }
  EXPECT_LT(benchcore::mean_relative_error(pairs), 0.10);
}

TEST(PaperClaims, ErrorsLargerForSmallMessages) {
  // Observation 4: the model overestimates small transfers.
  auto& cal = beluga();
  const auto gpus = cal.system.topology.gpus();
  const auto policy = topo::PathPolicy::three_gpus();
  auto err = [&](std::size_t bytes) {
    const double predicted = benchcore::predicted_bandwidth(
        cal.configurator, cal.system.topology, gpus[0], gpus[1], bytes,
        policy);
    return util::relative_error(predicted, dyn_bw(cal, bytes, policy, 1));
  };
  EXPECT_GT(err(2_MiB), err(256_MiB));
}

TEST(PaperClaims, HostStagedBidirectionalDegrades) {
  // Observation 5: with host staging, BIBW is worse than without, because
  // the four staging streams contend on the host memory channel.
  auto& cal = beluga();
  auto bibw = [&](const topo::PathPolicy& policy) {
    auto stack = benchcore::SimStack::model_driven(cal.system,
                                                   cal.configurator, policy);
    benchcore::P2POptions opt;
    opt.window = 4;
    opt.iterations = 3;
    return benchcore::measure_bibw(stack.world(), 256_MiB, opt);
  };
  EXPECT_LT(bibw(topo::PathPolicy::three_gpus_with_host()),
            bibw(topo::PathPolicy::three_gpus()));
}

TEST(PaperClaims, CollectivesSpeedUp) {
  // "enhances MPI_Allreduce and MPI_Alltoall by up to 1.4x"
  auto& cal = beluga();
  auto latency = [&](bool multipath) {
    auto stack =
        multipath
            ? benchcore::SimStack::model_driven(
                  cal.system, cal.configurator, topo::PathPolicy::three_gpus())
            : benchcore::SimStack::direct(cal.system);
    return benchcore::measure_collective_latency(
        stack.world(),
        [](mpisim::Communicator& comm) -> sim::Task<void> {
          const auto p = static_cast<std::size_t>(comm.size());
          const std::size_t blk = 32_MiB;
          gpusim::DeviceBuffer send(comm.device(), p * blk,
                                    gpusim::Payload::Simulated);
          gpusim::DeviceBuffer recv(comm.device(), p * blk,
                                    gpusim::Payload::Simulated);
          co_await mpisim::alltoall(comm, send, recv, blk);
        },
        {.iterations = 3, .warmup = 1});
  };
  const double speedup = latency(false) / latency(true);
  EXPECT_GT(speedup, 1.05);
  EXPECT_LT(speedup, 1.6);
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MPATH_SANITIZED 1
#endif
#endif
#if !defined(MPATH_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define MPATH_SANITIZED 1
#endif

TEST(PaperClaims, ModelRuntimeOverheadNegligible) {
  // "runtime overhead ... less than 0.1% of the total execution time" for
  // large messages: time 10k configurations and compare with one
  // 64 MB transfer at 46 GB/s.
#ifdef MPATH_SANITIZED
  GTEST_SKIP() << "wall-clock overhead bound is not meaningful under "
                  "sanitizer instrumentation";
#endif
  auto& cal = beluga();
  const auto gpus = cal.system.topology.gpus();
  const auto paths = topo::enumerate_paths(
      cal.system.topology, gpus[0], gpus[1],
      topo::PathPolicy::three_gpus_with_host());
  model::PathConfigurator cfg(cal.registry);
  // Thread CPU time, not wall time: other processes (a parallel ctest run)
  // must not count against the model's cost.
  const auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  };
  const double start = thread_cpu_s();
  constexpr int kIters = 10000;
  for (int i = 0; i < kIters; ++i) {
    (void)cfg.configure(gpus[0], gpus[1], (64u << 20) + i, paths);
  }
  const double per_call = (thread_cpu_s() - start) / kIters;
  const double transfer = static_cast<double>(64_MiB) / 46e9;  // ~1.5 ms
  EXPECT_LT(per_call / transfer, 0.001);
}

TEST(PaperClaims, DynamicMatchesOrBeatsStaticTunedPlan) {
  // Observation 2 (collectives section): the model-driven configuration
  // outperforms the statically tuned one. Checked at the P2P level against
  // a plan tuned at a different size (the realistic deployment gap).
  auto& cal = beluga();
  tuning::StaticTunerOptions topt;
  topt.fraction_step = 0.125;
  topt.chunk_grid = {1, 8, 32};
  topt.iterations = 2;
  tuning::StaticTuner tuner(cal.system, topo::PathPolicy::three_gpus(), topt);
  const auto tuned = tuner.tune(32_MiB);  // tuned for 32MB...
  auto static_stack = benchcore::SimStack::static_plan(cal.system, tuned.plan);
  benchcore::P2POptions opt;
  opt.window = 4;
  opt.iterations = 3;
  const double static_bw =
      benchcore::measure_bw(static_stack.world(), 512_MiB, opt);  // ...run at 512MB
  const double dynamic_bw = dyn_bw(cal, 512_MiB, topo::PathPolicy::three_gpus());
  EXPECT_GE(dynamic_bw, 0.98 * static_bw);
}
