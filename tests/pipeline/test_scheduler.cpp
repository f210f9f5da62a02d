// Node-level TransferScheduler: joint contention-aware admission, the
// contention-misprediction regression (two simultaneous transfers on one
// link — joint predictions track simulated completion where solo planning
// is systematically wrong), and the shared-configurator use-after-free
// regression fixed in this change set.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

struct Fixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt};
  mm::ModelRegistry reg = mpath::tuning::registry_from_topology(sys);
  mm::PathConfigurator cfg{reg};
  std::vector<mt::DeviceId> gpus = sys.topology.gpus();

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }
};

ms::Task<void> plain_transfer(mg::DataChannel& ch, mg::DeviceBuffer& dst,
                              const mg::DeviceBuffer& src, std::size_t bytes) {
  co_await ch.transfer(dst, 0, src, 0, bytes);
}

struct ChannelRun {
  std::optional<mg::TransferError::Info> error;
};

ms::Task<void> guarded_transfer(mg::DataChannel& ch, mg::DeviceBuffer& dst,
                                const mg::DeviceBuffer& src,
                                std::size_t bytes, ChannelRun& run) {
  try {
    co_await ch.transfer(dst, 0, src, 0, bytes);
  } catch (const mg::TransferError& e) {
    run.error = e.info();
  }
}

/// Mean |predicted - simulated| / simulated over completed records.
double mean_rel_error(const std::vector<mp::TransferScheduler::Record>& recs) {
  double sum = 0.0;
  int n = 0;
  for (const auto& r : recs) {
    if (!r.completed()) continue;
    sum += std::abs(r.predicted_s - r.actual_s()) / r.actual_s();
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// Run `k` simultaneous same-pair direct-only transfers through a
/// scheduled channel and return the mean relative prediction error.
double contention_error(bool joint, int k, std::size_t bytes) {
  Fixture f;
  f.net.set_solver_mode(ms::FluidNetwork::SolverMode::kFull);  // oracle
  mp::SchedulerOptions sopt;
  sopt.joint = joint;
  mp::TransferScheduler sched(f.pipe, f.cfg, sopt);
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::direct_only());
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  for (int i = 0; i < k; ++i) {
    bufs.push_back(
        std::make_unique<mg::DeviceBuffer>(f.gpus[0], bytes));
    bufs.push_back(
        std::make_unique<mg::DeviceBuffer>(f.gpus[1], bytes));
    f.engine.spawn(
        plain_transfer(ch, *bufs[bufs.size() - 1], *bufs[bufs.size() - 2],
                       bytes),
        "xfer" + std::to_string(i));
  }
  f.engine.run();
  EXPECT_EQ(sched.history().size(), static_cast<std::size_t>(k));
  EXPECT_EQ(sched.live_count(), 0u);
  for (const auto& r : sched.history()) EXPECT_TRUE(r.completed());
  return mean_rel_error(sched.history());
}

}  // namespace

TEST(Scheduler, AdmitDepartBookkeeping) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = mt::enumerate_paths(f.sys.topology, f.gpus[0], f.gpus[1],
                                         mt::PathPolicy::three_gpus());
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, paths);
  EXPECT_NE(adm.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_EQ(sched.live_count(), 1u);
  EXPECT_EQ(sched.stats().admitted, 1u);
  EXPECT_GT(adm.config.predicted_time, 0.0);
  EXPECT_EQ(adm.config.total_bytes, 64_MiB);

  sched.depart(adm.ticket);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().departed, 1u);
  ASSERT_EQ(sched.history().size(), 1u);
  EXPECT_TRUE(sched.history()[0].completed());
  // Departing twice (stale ticket) is a caller bug and throws.
  EXPECT_THROW(sched.depart(adm.ticket), std::invalid_argument);
}

TEST(Scheduler, FailedTransferRecordedAndReleased) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = mt::enumerate_paths(f.sys.topology, f.gpus[0], f.gpus[1],
                                         mt::PathPolicy::two_gpus());
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 8_MiB, paths);
  sched.fail(adm.ticket);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().failed, 1u);
  ASSERT_EQ(sched.history().size(), 1u);
  EXPECT_TRUE(sched.history()[0].failed);
  EXPECT_FALSE(sched.history()[0].completed());
}

// On an idle network the joint solve must reduce to the single-transfer
// closed form: the scheduled config equals the configurator's exactly.
TEST(Scheduler, IdleNetworkAdmissionMatchesSoloConfig) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = mt::enumerate_paths(f.sys.topology, f.gpus[0], f.gpus[1],
                                         mt::PathPolicy::three_gpus_with_host());
  for (std::uint64_t n : {2u << 20, 64u << 20, 512u << 20}) {
    const auto adm = sched.admit(f.gpus[0], f.gpus[1], n, paths);
    const auto solo = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    ASSERT_EQ(adm.config.paths.size(), solo.paths.size());
    EXPECT_DOUBLE_EQ(adm.config.predicted_time, solo.predicted_time);
    for (std::size_t i = 0; i < solo.paths.size(); ++i) {
      EXPECT_EQ(adm.config.paths[i].bytes, solo.paths[i].bytes);
      EXPECT_EQ(adm.config.paths[i].chunks, solo.paths[i].chunks);
      EXPECT_DOUBLE_EQ(adm.config.paths[i].theta, solo.paths[i].theta);
    }
    sched.depart(adm.ticket);
  }
}

// A batch admission is the K-transfer joint solve: two identical transfers
// squeezing through one link each get half the bandwidth, so both configs
// predict ~2x the solo time already at admission.
TEST(Scheduler, BatchAdmissionIsContentionAware) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = mt::enumerate_paths(f.sys.topology, f.gpus[0], f.gpus[1],
                                         mt::PathPolicy::direct_only());
  const double solo =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths)
          .predicted_time;
  std::vector<mp::TransferScheduler::Request> reqs(2);
  for (auto& r : reqs) {
    r.src = f.gpus[0];
    r.dst = f.gpus[1];
    r.bytes = 64_MiB;
    r.paths = paths;
  }
  const auto adms = sched.admit_batch(reqs);
  ASSERT_EQ(adms.size(), 2u);
  for (const auto& adm : adms) {
    EXPECT_GT(adm.config.predicted_time, 1.8 * solo);
    EXPECT_LT(adm.config.predicted_time, 2.2 * solo);
  }
  EXPECT_EQ(sched.live_count(), 2u);
}

// Sequential same-instant admissions must converge to the same predictions
// as a batch: the second admission refreshes the first's still-unfrozen
// record.
TEST(Scheduler, SameInstantArrivalsRefreshEachOther) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = mt::enumerate_paths(f.sys.topology, f.gpus[0], f.gpus[1],
                                         mt::PathPolicy::direct_only());
  const double solo =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths)
          .predicted_time;
  const auto a = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, paths);
  // First admission sees an empty node: solo prediction.
  EXPECT_NEAR(sched.history()[0].predicted_s, solo, 0.05 * solo);
  const auto b = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, paths);
  // Now both records reflect the shared link.
  EXPECT_GT(sched.history()[0].predicted_s, 1.7 * solo);
  EXPECT_GT(sched.history()[1].predicted_s, 1.7 * solo);
  sched.depart(a.ticket);
  sched.depart(b.ticket);
}

// The contention-misprediction regression (tentpole acceptance): K
// simultaneous transfers share the direct link. Joint planning's predicted
// T tracks the kFull-oracle simulated completion; solo planning (same
// admission machinery, joint=false) is systematically wrong, and the joint
// error is at most a third of it.
TEST(Scheduler, JointPredictionsTrackSimulatedContention) {
  for (int k : {2, 4}) {
    const double joint_err = contention_error(true, k, 64_MiB);
    const double solo_err = contention_error(false, k, 64_MiB);
    EXPECT_LT(joint_err, 0.15) << "k=" << k;
    // Solo plans believe they own the node: error ~ (k-1)/k.
    EXPECT_GT(solo_err, 0.3) << "k=" << k;
    EXPECT_LE(joint_err, solo_err / 3.0) << "k=" << k;
  }
}

// Regression (use-after-free): transfer_with_recovery used to hold a
// reference into the shared configurator's LRU cache across co_await, and a
// second recovering transfer on the same configurator could evict the
// first's entry mid-await; when the first transfer's watchdog then fired,
// it re-read its (freed) config to build the re-plan. The configurator now
// keeps no cache and every attempt holds its config by value; the two
// recovering transfers, one of them severed, must still both complete.
TEST(Scheduler, RecoveringTransfersSurviveSharedCacheEviction) {
  Fixture f;
  mm::PathConfigurator shared_cfg(f.reg);
  mp::ModelDrivenOptions mopt;
  mopt.recovery.enabled = true;
  mopt.recovery.slack = 4.0;
  mp::ModelDrivenChannel ch(f.pipe, shared_cfg, mt::PathPolicy::three_gpus(),
                            mopt);

  constexpr std::size_t kBytes = 8_MiB;
  mg::DeviceBuffer src_a(f.gpus[0], kBytes), dst_a(f.gpus[1], kBytes);
  mg::DeviceBuffer src_b(f.gpus[2], kBytes), dst_b(f.gpus[3], kBytes);
  src_a.fill_pattern(71);
  src_b.fill_pattern(72);

  // Sever the first transfer's direct link mid-flight: its watchdog fires
  // (~1 ms) long after the second transfer planned (at t = 0).
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  f.engine.schedule_callback(60e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });

  ChannelRun run_a, run_b;
  f.engine.spawn(guarded_transfer(ch, dst_a, src_a, kBytes, run_a), "a");
  f.engine.spawn(guarded_transfer(ch, dst_b, src_b, kBytes, run_b), "b");
  f.engine.run();

  EXPECT_FALSE(run_a.error.has_value());
  EXPECT_FALSE(run_b.error.has_value());
  EXPECT_TRUE(dst_a.same_content(src_a));
  EXPECT_TRUE(dst_b.same_content(src_b));
  EXPECT_GE(ch.recovery_stats().replans, 1u);
}

// The small-remainder branch prefers the Direct survivor. When the direct
// path is dead, the remainder goes to the first surviving staged path
// instead — and the transfer still completes intact.
TEST(Scheduler, SmallRemainderPrefersDirectSurvivor) {
  Fixture f;
  mp::ModelDrivenOptions mopt;
  mopt.recovery.enabled = true;
  mopt.recovery.slack = 4.0;
  // A large threshold forces every re-planned remainder through the
  // single-path branch.
  mopt.min_multipath_bytes = 256_MiB;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            mopt);
  constexpr std::size_t kBytes = 8_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(73);
  // Below min_multipath everything starts on the direct path; sever it so
  // the remainder must re-route over a staged survivor.
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  f.engine.schedule_callback(30e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();
  EXPECT_FALSE(run.error.has_value());
  EXPECT_TRUE(dst.same_content(src));
  ASSERT_TRUE(ch.last_config().has_value());
  // The final remainder plan is single-path and NOT on the dead direct.
  EXPECT_EQ(ch.last_config()->paths.size(), 1u);
  EXPECT_NE(ch.last_config()->paths[0].plan.kind, mt::PathKind::Direct);
}

// Recovery through the scheduler: the re-plan goes through
// TransferScheduler::replan, the ticket departs cleanly, and the record
// shows the replans.
TEST(Scheduler, RecoveryReplansThroughScheduler) {
  Fixture f;
  mp::SchedulerOptions sopt;
  mp::TransferScheduler sched(f.pipe, f.cfg, sopt);
  mp::ModelDrivenOptions mopt;
  mopt.recovery.enabled = true;
  mopt.recovery.slack = 4.0;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::three_gpus(), mopt);
  constexpr std::size_t kBytes = 64_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(74);
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  f.engine.schedule_callback(100e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();
  EXPECT_FALSE(run.error.has_value());
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_GE(sched.stats().replans, 1u);
  ASSERT_EQ(sched.history().size(), 1u);
  EXPECT_TRUE(sched.history()[0].completed());
  EXPECT_GE(sched.history()[0].replans, 1);
}

// A transfer that exhausts every path fails through the scheduler: the
// guard marks the ticket failed so the node state stays consistent.
TEST(Scheduler, FailedTransferReleasesTicket) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  mp::ModelDrivenOptions mopt;
  mopt.recovery.enabled = true;
  mopt.recovery.slack = 4.0;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg, mt::PathPolicy::two_gpus(),
                            mopt);
  constexpr std::size_t kBytes = 16_MiB;
  mg::DeviceBuffer src(f.gpus[0], kBytes), dst(f.gpus[1], kBytes);
  src.fill_pattern(75);
  // Sever every outgoing edge of the source: nothing can survive.
  f.engine.schedule_callback(50e-6, [&] {
    for (const auto& e : f.sys.topology.edges()) {
      if (e.from == f.gpus[0]) {
        f.net.set_link_capacity(f.rt.binding().link_for_edge(e.id), 0.0);
      }
    }
  });
  ChannelRun run;
  f.engine.spawn(guarded_transfer(ch, dst, src, kBytes, run), "xfer");
  f.engine.run();
  EXPECT_TRUE(run.error.has_value());
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().failed, 1u);
  ASSERT_EQ(sched.history().size(), 1u);
  EXPECT_TRUE(sched.history()[0].failed);
}
