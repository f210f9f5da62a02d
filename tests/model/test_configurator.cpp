#include "mpath/model/configurator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "mpath/topo/system.hpp"

namespace mm = mpath::model;
namespace mt = mpath::topo;

namespace {

// Beluga-flavored registry: NVLink hops at 46 GB/s, PCIe hops at 12 GB/s.
struct Fixture {
  mt::System sys = mt::make_beluga();
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();
  mt::DeviceId host = sys.topology.hosts()[0];
  mm::ModelRegistry reg{"beluga"};

  Fixture() {
    for (auto a : gpus) {
      for (auto b : gpus) {
        if (a != b) reg.set_route_params(a, b, {3e-6, 46e9});
      }
      reg.set_route_params(a, host, {6e-6, 11.5e9});
      reg.set_route_params(host, a, {6e-6, 11.5e9});
    }
    reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);
    reg.set_epsilon(mt::PathKind::HostStaged, 4e-6);
    reg.set_issue_alpha(1.2e-6);
  }

  std::vector<mt::PathPlan> paths(const mt::PathPolicy& policy) {
    return mt::enumerate_paths(sys.topology, gpus[0], gpus[1], policy);
  }
};

std::uint64_t sum_bytes(const mm::TransferConfig& c) {
  std::uint64_t s = 0;
  for (const auto& p : c.paths) s += p.bytes;
  return s;
}

}  // namespace

TEST(Configurator, SharesSumToMessageExactly) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  for (std::uint64_t n : {2u << 20, 17u << 20, 64u << 20, 512u << 20}) {
    const auto paths = f.paths(mt::PathPolicy::three_gpus_with_host());
    const auto& c = cfg.configure(f.gpus[0], f.gpus[1], n, paths);
    EXPECT_EQ(sum_bytes(c), n);
    EXPECT_EQ(c.total_bytes, n);
  }
}

TEST(Configurator, DirectOnlyGetsWholeMessage) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::direct_only());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 64u << 20, paths);
  ASSERT_EQ(c.paths.size(), 1u);
  EXPECT_EQ(c.paths[0].bytes, 64u << 20);
  EXPECT_EQ(c.paths[0].chunks, 1);
  EXPECT_NEAR(c.predicted_bandwidth(), 46e9, 2e9);
}

TEST(Configurator, LargeMessageUsesAllPaths) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 512u << 20, paths);
  for (const auto& share : c.paths) {
    EXPECT_GT(share.bytes, 0u) << mt::describe(share.plan, f.sys.topology);
  }
  // Three ~46 GB/s lanes: aggregate prediction lands well above 2x direct.
  EXPECT_GT(c.predicted_bandwidth(), 2.0 * 46e9);
  EXPECT_LT(c.predicted_bandwidth(), 3.0 * 46e9);
}

TEST(Configurator, TinyMessageStaysOnDirectPath) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus_with_host());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 64u << 10, paths);
  EXPECT_EQ(c.paths[0].bytes, 64u << 10);
  for (std::size_t i = 1; i < c.paths.size(); ++i) {
    EXPECT_EQ(c.paths[i].bytes, 0u);
  }
}

TEST(Configurator, StagedPathsGetMultipleChunks) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 256u << 20, paths);
  EXPECT_EQ(c.paths[0].chunks, 1);  // direct never chunks
  for (std::size_t i = 1; i < c.paths.size(); ++i) {
    EXPECT_GT(c.paths[i].chunks, 1)
        << mt::describe(c.paths[i].plan, f.sys.topology);
    EXPECT_LE(c.paths[i].chunks, cfg.options().max_chunks);
  }
}

TEST(Configurator, HostPathGetsSmallerShareThanNvlinkPaths) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus_with_host());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 512u << 20, paths);
  const auto& host_share = c.paths.back();
  ASSERT_EQ(host_share.plan.kind, mt::PathKind::HostStaged);
  for (std::size_t i = 0; i + 1 < c.paths.size(); ++i) {
    EXPECT_GT(c.paths[i].bytes, host_share.bytes);
  }
  EXPECT_GT(host_share.bytes, 0u);  // but it still contributes at 512MB
}

// The configurator is a pure solver: a repeated request recomputes the
// identical configuration, and the cache counters perfbench reads stay 0.
TEST(Configurator, RepeatedRequestsRecomputeIdentically) {
  Fixture f;
  const mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto a = cfg.configure(f.gpus[0], f.gpus[1], 64u << 20, paths);
  const auto b = cfg.configure(f.gpus[0], f.gpus[1], 64u << 20, paths);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].bytes, b.paths[i].bytes);
    EXPECT_EQ(a.paths[i].chunks, b.paths[i].chunks);
    EXPECT_EQ(a.paths[i].theta, b.paths[i].theta);
  }
  EXPECT_EQ(a.predicted_time, b.predicted_time);
  EXPECT_EQ(cfg.cache_hits(), 0u);
  EXPECT_EQ(cfg.cache_misses(), 0u);
}

// Requests that differ only in size or only in path set once shared a
// truncated cache key and got one another's config. Interleaved, each
// request must still get the config for its own tuple.
TEST(Configurator, HashCollisionDoesNotAliasConfigs) {
  Fixture f;
  const mm::PathConfigurator cfg(f.reg);
  const auto wide = f.paths(mt::PathPolicy::three_gpus());
  const auto narrow = f.paths(mt::PathPolicy::two_gpus());
  ASSERT_NE(wide.size(), narrow.size());
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 1; i <= 8; ++i) {
      const std::uint64_t n = i << 20;
      for (const auto* paths : {&wide, &narrow}) {
        const auto c = cfg.configure(f.gpus[0], f.gpus[1], n, *paths);
        EXPECT_EQ(c.total_bytes, n);
        EXPECT_EQ(sum_bytes(c), n);
        ASSERT_EQ(c.paths.size(), paths->size());
        for (std::size_t p = 0; p < c.paths.size(); ++p) {
          EXPECT_EQ(c.paths[p].plan, (*paths)[p]);
        }
      }
    }
  }
}

TEST(Configurator, SequentialInitiationPenalizesLaterPaths) {
  Fixture f;
  mm::ConfiguratorOptions with;
  mm::ConfiguratorOptions without;
  without.sequential_initiation = false;
  mm::PathConfigurator cfg_with(f.reg, with);
  mm::PathConfigurator cfg_without(f.reg, without);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto& a = cfg_with.configure(f.gpus[0], f.gpus[1], 64u << 20, paths);
  const auto& b =
      cfg_without.configure(f.gpus[0], f.gpus[1], 64u << 20, paths);
  // With accumulation, later paths carry extra Delta and receive less.
  EXPECT_LT(a.paths[2].bytes, b.paths[2].bytes);
  EXPECT_GT(a.paths[0].bytes, b.paths[0].bytes);
}

TEST(Configurator, UnpipelinedModeUsesSection33Terms) {
  Fixture f;
  mm::ConfiguratorOptions opt;
  opt.pipelining = false;
  mm::PathConfigurator cfg(f.reg, opt);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 256u << 20, paths);
  for (const auto& share : c.paths) EXPECT_EQ(share.chunks, 1);
  // Unpipelined staging halves staged-path effectiveness (Omega doubles):
  // staged shares shrink relative to the pipelined configuration.
  mm::PathConfigurator piped(f.reg);
  const auto& cp = piped.configure(f.gpus[0], f.gpus[1], 256u << 20, paths);
  EXPECT_LT(c.paths[1].bytes, cp.paths[1].bytes);
}

TEST(Configurator, InputValidation) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  std::vector<mt::PathPlan> empty;
  EXPECT_THROW((void)cfg.configure(f.gpus[0], f.gpus[1], 1u << 20, empty),
               std::invalid_argument);
  std::vector<mt::PathPlan> staged_first{{mt::PathKind::GpuStaged, f.gpus[2]}};
  EXPECT_THROW(
      (void)cfg.configure(f.gpus[0], f.gpus[1], 1u << 20, staged_first),
      std::invalid_argument);
  const auto paths = f.paths(mt::PathPolicy::two_gpus());
  EXPECT_THROW((void)cfg.configure(f.gpus[0], f.gpus[1], 0, paths),
               std::invalid_argument);
}

TEST(Configurator, PredictedTimeIsMaxOfActivePathTimes) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  const auto& c = cfg.configure(f.gpus[0], f.gpus[1], 128u << 20, paths);
  double max_t = 0;
  for (const auto& share : c.paths) {
    max_t = std::max(max_t, share.predicted_time);
  }
  EXPECT_DOUBLE_EQ(c.predicted_time, max_t);
  EXPECT_GT(c.predicted_time, 0.0);
}

TEST(Configurator, ContentionFactorAppliesOnlyAboveThreshold) {
  Fixture f;
  // Make the first staged path look dramatically slower end to end.
  const auto paths = f.paths(mt::PathPolicy::three_gpus());
  f.reg.set_contention_factor(f.gpus[0], f.gpus[1], paths[1], 4.0);
  mm::PathConfigurator cfg(f.reg);
  // Below the threshold the override is ignored: shares match a fresh
  // registry without the override.
  Fixture g;
  mm::PathConfigurator cfg_clean(g.reg);
  const std::uint64_t small = 4u << 20;
  const auto& with_small =
      cfg.configure(f.gpus[0], f.gpus[1], small, paths);
  const auto& clean_small =
      cfg_clean.configure(g.gpus[0], g.gpus[1], small, paths);
  EXPECT_EQ(with_small.paths[1].bytes, clean_small.paths[1].bytes);
  // Above the threshold the overridden path receives a smaller share.
  const std::uint64_t big = 256u << 20;
  const auto& with_big = cfg.configure(f.gpus[0], f.gpus[1], big, paths);
  const auto& clean_big =
      cfg_clean.configure(g.gpus[0], g.gpus[1], big, paths);
  EXPECT_LT(with_big.paths[1].bytes, clean_big.paths[1].bytes);
}

// compute_config: the recovery re-planner's entry point. It accepts any
// candidate ordering — in particular a staged-only survivor set after the
// direct path died — anchors the rounding remainder on the first candidate,
// and still assigns every byte.
TEST(Configurator, ConfigureOverAcceptsStagedOnlySurvivors) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto all = f.paths(mt::PathPolicy::three_gpus_with_host());
  // Drop the direct path, as the recovery policy does after its watchdog
  // fires; survivors start with a staged path.
  std::vector<mt::PathPlan> survivors(all.begin() + 1, all.end());
  ASSERT_NE(survivors.front().kind, mt::PathKind::Direct);
  // configure() refuses this ordering; compute_config() embraces it.
  EXPECT_THROW(
      (void)cfg.configure(f.gpus[0], f.gpus[1], 64u << 20, survivors),
      std::invalid_argument);
  const auto c =
      cfg.compute_config(f.gpus[0], f.gpus[1], 64u << 20, survivors);
  EXPECT_EQ(sum_bytes(c), 64u << 20);
  EXPECT_GT(c.paths.front().bytes, 0u);
  for (const auto& share : c.paths) {
    EXPECT_EQ(share.plan.kind == mt::PathKind::Direct, false);
  }
  EXPECT_GT(c.predicted_time, 0.0);
}

// compute_config == config_from_theta(prepare(...), ThetaSolver::solve) —
// the split entry points the joint scheduler uses must agree bit-for-bit
// with the monolithic path.
TEST(Configurator, PrepareAndConfigFromThetaMatchCompute) {
  Fixture f;
  mm::PathConfigurator cfg(f.reg);
  const auto paths = f.paths(mt::PathPolicy::three_gpus_with_host());
  for (std::uint64_t n : {64u << 10, 2u << 20, 64u << 20, 512u << 20}) {
    const auto whole = cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    const auto prepared = cfg.prepare(f.gpus[0], f.gpus[1], n, paths);
    const auto sol =
        mm::ThetaSolver::solve(prepared.terms, static_cast<double>(n));
    const auto split = cfg.config_from_theta(prepared, n, paths, sol);
    ASSERT_EQ(split.paths.size(), whole.paths.size());
    EXPECT_EQ(split.total_bytes, whole.total_bytes);
    EXPECT_DOUBLE_EQ(split.predicted_time, whole.predicted_time);
    for (std::size_t i = 0; i < whole.paths.size(); ++i) {
      EXPECT_EQ(split.paths[i].bytes, whole.paths[i].bytes);
      EXPECT_EQ(split.paths[i].chunks, whole.paths[i].chunks);
      EXPECT_DOUBLE_EQ(split.paths[i].theta, whole.paths[i].theta);
      EXPECT_DOUBLE_EQ(split.paths[i].predicted_time,
                       whole.paths[i].predicted_time);
    }
  }
}

// Shared-edge composition rule (the planted-xgmi-ring fix): candidates
// whose hop routes meet on one fluid edge each see only their max-min
// share of it. A ring where the direct path transits the stage GPU shares
// the onward hop with the staged copy, so both omegas derate by the
// distinct-user count at the bottleneck; without an attached topology the
// legacy per-path composition is bit-identical.
TEST(Configurator, SharedEdgeDerateSplitsTheCommonBottleneck) {
  // A --(NVLink4 300G || xGMI 50G)-- B --(xGMI 50G)-- C, no direct A-C
  // edge: the direct A->C route transits B, and staged-via-B crosses the
  // same B->C hop. Both candidates bottleneck on B->C at 50G shared two
  // ways.
  mt::Topology topo("shared-ring");
  const mt::DeviceId a = topo.add_device(mt::DeviceKind::Gpu, 0, "gpuA");
  const mt::DeviceId b = topo.add_device(mt::DeviceKind::Gpu, 0, "gpuB");
  const mt::DeviceId c = topo.add_device(mt::DeviceKind::Gpu, 0, "gpuC");
  topo.connect_duplex(a, b, mt::LinkKind::NVLink4, 300e9, 0.5e-6);
  topo.connect_duplex(a, b, mt::LinkKind::XGMI, 50e9, 1.1e-6);
  topo.connect_duplex(b, c, mt::LinkKind::XGMI, 50e9, 1.1e-6);

  mm::ModelRegistry reg{"shared-ring"};
  for (mt::DeviceId x : {a, b, c}) {
    for (mt::DeviceId y : {a, b, c}) {
      if (x != y) reg.set_route_params(x, y, {3e-6, 46e9});
    }
  }
  reg.set_epsilon(mt::PathKind::GpuStaged, 1.5e-6);

  const std::vector<mt::PathPlan> paths =
      mt::enumerate_paths(topo, a, c, mt::PathPolicy::two_gpus());
  ASSERT_EQ(paths.size(), 2u);
  ASSERT_EQ(paths[0].kind, mt::PathKind::Direct);
  ASSERT_EQ(paths[1].kind, mt::PathKind::GpuStaged);
  ASSERT_EQ(paths[1].stage, b);

  const std::uint64_t n = 8u << 20;
  mm::PathConfigurator cfg(reg);
  const mm::PreparedTransfer legacy = cfg.prepare(a, c, n, paths);
  cfg.set_topology(&topo);
  const mm::PreparedTransfer derated = cfg.prepare(a, c, n, paths);
  ASSERT_EQ(derated.terms.size(), 2u);
  // Both candidates cross the 50G B->C edge (and possibly the same A->B
  // edge): bottleneck halves, so omega exactly doubles. Delta is latency
  // bookkeeping and must not move.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(derated.terms[i].omega, 2.0 * legacy.terms[i].omega);
    EXPECT_DOUBLE_EQ(derated.terms[i].delta, legacy.terms[i].delta);
  }
  // The derated model predicts a strictly slower transfer.
  const auto slow = cfg.compute_config(a, c, n, paths);
  cfg.set_topology(nullptr);
  const auto fast = cfg.compute_config(a, c, n, paths);
  EXPECT_GT(slow.predicted_time, fast.predicted_time);
}

// Disjoint candidates (fully connected NVLink box) have no shared edge:
// attaching the topology must leave every term bit-identical — the derate
// only fires when routes actually collide.
TEST(Configurator, SharedEdgeDerateLeavesDisjointPathsUntouched) {
  Fixture f;
  const auto paths = f.paths(mt::PathPolicy::two_gpus());
  const std::uint64_t n = 32u << 20;
  mm::PathConfigurator cfg(f.reg);
  const mm::PreparedTransfer legacy = cfg.prepare(f.gpus[0], f.gpus[1], n, paths);
  cfg.set_topology(&f.sys.topology);
  const mm::PreparedTransfer attached =
      cfg.prepare(f.gpus[0], f.gpus[1], n, paths);
  ASSERT_EQ(attached.terms.size(), legacy.terms.size());
  for (std::size_t i = 0; i < legacy.terms.size(); ++i) {
    EXPECT_EQ(attached.terms[i].omega, legacy.terms[i].omega);
    EXPECT_EQ(attached.terms[i].delta, legacy.terms[i].delta);
  }
}
