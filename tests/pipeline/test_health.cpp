// Path health state machine (probation/readmission), watchdog slack
// escalation, and the end-to-end flap scenarios: a severed-then-restored
// path is readmitted via probe slices instead of staying dead forever,
// bytes stay conserved under injected faults, and online recalibration
// shrinks the model error on a drifted link (observing, on the recovery
// path too, each transfer's own configuration). The fluid-network self-check
// (kFull whole-network oracle) is armed for every simulation test here.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/recalibrator.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/health.hpp"
#include "mpath/sim/fault.hpp"
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

mt::PathPlan direct() { return {mt::PathKind::Direct, mt::kInvalidDevice}; }
mt::PathPlan staged(mt::DeviceId via) {
  return {mt::PathKind::GpuStaged, via};
}

mp::HealthOptions health_opts() {
  mp::HealthOptions h;
  h.enabled = true;
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// PathHealthManager state machine (no simulation)
// ---------------------------------------------------------------------------

TEST(Health, UntrackedPathsAreHealthyAndActive) {
  mp::PathHealthManager hm(health_opts());
  const std::vector<mt::PathPlan> cands{direct(), staged(2)};
  std::vector<mt::PathPlan> active, probes;
  hm.partition(0, 1, cands, 0.0, &active, &probes);
  EXPECT_EQ(active.size(), 2u);
  EXPECT_TRUE(probes.empty());
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kHealthy);
  EXPECT_EQ(hm.slack_multiplier(0, 1, direct()), 1.0);
  EXPECT_EQ(hm.tracked_count(), 0u);
}

TEST(Health, TimeoutMakesSuspectAndProbeDue) {
  mp::PathHealthManager hm(health_opts());
  hm.on_timeout(0, 1, direct(), 1.0);
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kSuspect);
  // Excluded from the solve, offered as a probe (suspect_delay_s == 0).
  std::vector<mt::PathPlan> active, probes;
  hm.partition(0, 1, {direct(), staged(2)}, 1.0, &active, &probes);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], staged(2));
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0], direct());
  // The other direction is untouched: health is per (src, dst, path).
  EXPECT_EQ(hm.state(1, 0, direct()), mp::PathHealth::kHealthy);
}

TEST(Health, ProbeSuccessReadmitsToPristine) {
  mp::PathHealthManager hm(health_opts());
  hm.on_timeout(0, 1, direct(), 1.0);
  hm.on_probe_issued(0, 1, direct());
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kProbation);
  hm.on_success(0, 1, direct(), 1.5);
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kHealthy);
  EXPECT_EQ(hm.tracked_count(), 0u);
  EXPECT_EQ(hm.slack_multiplier(0, 1, direct()), 1.0);
  EXPECT_EQ(hm.stats().probes_succeeded, 1u);
  EXPECT_EQ(hm.stats().readmissions, 1u);
  EXPECT_EQ(hm.stats().deaths, 0u);
}

TEST(Health, ConsecutiveFailuresKillWithExponentialCooldown) {
  auto opts = health_opts();
  opts.dead_after = 3;
  opts.backoff = 2.0;
  opts.dead_cooldown_s = 0.020;
  opts.max_cooldown_s = 0.050;
  mp::PathHealthManager hm(opts);
  hm.on_timeout(0, 1, direct(), 1.0);
  hm.on_probe_issued(0, 1, direct());
  hm.on_timeout(0, 1, direct(), 1.1);
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kSuspect);
  hm.on_probe_issued(0, 1, direct());
  hm.on_timeout(0, 1, direct(), 1.2);  // third strike
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kDead);
  EXPECT_EQ(hm.stats().deaths, 1u);
  EXPECT_EQ(hm.stats().probes_failed, 2u);

  // Dead: no probe until the cooldown elapses.
  std::vector<mt::PathPlan> active, probes;
  hm.partition(0, 1, {direct()}, 1.21, &active, &probes);
  EXPECT_TRUE(active.empty());
  EXPECT_TRUE(probes.empty());
  hm.partition(0, 1, {direct()}, 1.2 + 0.021, &active, &probes);
  ASSERT_EQ(probes.size(), 1u);

  // Further failures stretch the cooldown x2 up to the bound, and deaths
  // is a transition counter, not a failure counter.
  hm.on_timeout(0, 1, direct(), 2.0);  // cooldown 40 ms
  hm.partition(0, 1, {direct()}, 2.0 + 0.039, &active, &probes);
  EXPECT_TRUE(probes.empty());
  hm.partition(0, 1, {direct()}, 2.0 + 0.041, &active, &probes);
  EXPECT_EQ(probes.size(), 1u);
  hm.on_timeout(0, 1, direct(), 3.0);  // would be 80 ms, capped at 50 ms
  hm.partition(0, 1, {direct()}, 3.0 + 0.051, &active, &probes);
  EXPECT_EQ(probes.size(), 1u);
  EXPECT_EQ(hm.stats().deaths, 1u);
}

TEST(Health, SlackMultiplierEscalatesBounded) {
  auto opts = health_opts();
  opts.backoff = 2.0;
  opts.max_slack_factor = 8.0;
  mp::PathHealthManager hm(opts);
  double expected = 1.0;
  for (int i = 0; i < 6; ++i) {
    hm.on_timeout(0, 1, direct(), 0.1 * i);
    expected = std::min(expected * 2.0, 8.0);
    EXPECT_DOUBLE_EQ(hm.slack_multiplier(0, 1, direct()), expected);
  }
  EXPECT_DOUBLE_EQ(hm.slack_multiplier(0, 1, direct()), 8.0);
}

TEST(Health, ProbeBytesClampedToSegment) {
  auto opts = health_opts();
  opts.probe_fraction = 0.05;
  opts.min_probe_bytes = 256 * 1024;
  opts.max_probe_bytes = 8_MiB;
  mp::PathHealthManager hm(opts);
  EXPECT_EQ(hm.probe_bytes(64_MiB),
            static_cast<std::uint64_t>(0.05 * (64.0 * 1024 * 1024)));
  EXPECT_EQ(hm.probe_bytes(1_MiB), 256_KiB);   // floor
  EXPECT_EQ(hm.probe_bytes(1_GiB), 8_MiB);     // ceiling
  EXPECT_EQ(hm.probe_bytes(64_KiB), 64_KiB);   // never exceeds the segment
}

TEST(Health, EscalatedSlackGrowsPerReplanBounded) {
  mp::RecoveryOptions rec;
  rec.slack = 4.0;
  rec.retry_backoff = 2.0;
  rec.max_slack_factor = 8.0;
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 0), 4.0);
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 1), 8.0);
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 2), 16.0);
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 3), 32.0);  // capped: 4 * 8
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 10), 32.0);
  rec.retry_backoff = 1.0;  // PR 2 behaviour: fixed slack
  EXPECT_DOUBLE_EQ(mp::escalated_slack(rec, 5), 4.0);
}

// ---------------------------------------------------------------------------
// End-to-end flap scenarios through the model-driven channel
// ---------------------------------------------------------------------------

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

  Fixture() { net.set_self_check(true); }  // kFull whole-network oracle

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }
};

mp::ModelDrivenOptions recovery_health_opts() {
  mp::ModelDrivenOptions o;
  o.recovery.enabled = true;
  o.recovery.slack = 4.0;
  o.recovery.max_replans = 3;
  o.health.enabled = true;
  return o;
}

/// One transfer's outcome inside a multi-transfer driver coroutine.
struct RunRecord {
  bool ok = false;
  bool content_ok = false;
  double elapsed_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t requested = 0;
};

/// Run one full-buffer transfer on freshly sized buffers so the payload
/// check covers exactly the transferred range.
ms::Task<void> one_transfer(Fixture& f, mg::DataChannel& ch,
                            mt::DeviceId sdev, mt::DeviceId ddev,
                            std::size_t bytes, std::uint8_t pattern,
                            RunRecord& rec) {
  mg::DeviceBuffer src(sdev, bytes), dst(ddev, bytes);
  src.fill_pattern(pattern);
  rec.requested = bytes;
  const double t0 = f.engine.now();
  try {
    co_await ch.transfer(dst, 0, src, 0, bytes);
    rec.ok = true;
    rec.delivered = bytes;
    rec.content_ok = dst.same_content(src);
  } catch (const mg::TransferError& e) {
    rec.ok = false;
    rec.delivered = e.info().bytes_delivered;
  }
  rec.elapsed_s = f.engine.now() - t0;
}

/// The flap scenario, parameterized on the health policy so the probation
/// path can be compared head-to-head against PR 2's drop-forever:
///   A: 64 MiB, direct severed mid-flight (recovers via re-plan);
///   B: 32 MiB while the link is still down;
///   restore;  C: 32 MiB (health mode probes + readmits);  D: 16 MiB.
struct FlapResult {
  RunRecord a, b, c, d;
  mp::RecoveryStats rec;
  mp::HealthStats health;
  std::size_t tracked = 0;
};

FlapResult run_flap_scenario(bool health_on) {
  Fixture f;
  auto opts = recovery_health_opts();
  opts.health.enabled = health_on;
  // The probes issued while the link is still down may kill the path; keep
  // the readmission cooldown shorter than the inter-transfer gap so the
  // post-restore transfer gets its probe.
  opts.health.dead_cooldown_s = 0.5e-3;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  const double base = f.net.link(link).capacity_bps;
  f.engine.schedule_callback(100e-6,
                             [&] { f.net.set_link_capacity(link, 0.0); });

  FlapResult r;
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c, ms::LinkId l, double cap,
         FlapResult& out) -> ms::Task<void> {
        const auto g0 = fx.gpus[0], g1 = fx.gpus[1];
        co_await one_transfer(fx, c, g0, g1, 64_MiB, 71, out.a);
        co_await one_transfer(fx, c, g0, g1, 32_MiB, 72, out.b);
        fx.net.set_link_capacity(l, cap);  // restore
        co_await one_transfer(fx, c, g0, g1, 32_MiB, 73, out.c);
        co_await one_transfer(fx, c, g0, g1, 16_MiB, 74, out.d);
      }(f, ch, link, base, r),
      "flap");
  f.engine.run();
  r.rec = ch.recovery_stats();
  r.health = ch.health().stats();
  r.tracked = ch.health().tracked_count();
  return r;
}

}  // namespace

// Satellite acceptance: a flapping path is probed and readmitted, every
// transfer completes with the payload intact, and the probation policy
// strictly beats drop-forever on the transfer that runs while the link is
// still down (no full theta share is wasted on a known-bad path).
TEST(FlapRecovery, ProbationReadmitsAndBeatsDropForever) {
  const FlapResult with_health = run_flap_scenario(true);
  const FlapResult legacy = run_flap_scenario(false);

  for (const auto* rr :
       {&with_health.a, &with_health.b, &with_health.c, &with_health.d,
        &legacy.a, &legacy.b, &legacy.c, &legacy.d}) {
    EXPECT_TRUE(rr->ok);
    EXPECT_TRUE(rr->content_ok);
    EXPECT_EQ(rr->delivered, rr->requested);
  }

  // Health mode probed the suspect path and readmitted it after restore.
  EXPECT_GE(with_health.health.probes_launched, 1u);
  EXPECT_GE(with_health.health.probes_succeeded, 1u);
  EXPECT_GE(with_health.health.readmissions, 1u);
  // By the end the direct path is pristine healthy again.
  EXPECT_EQ(with_health.tracked, 0u);
  // Legacy mode never tracks anything.
  EXPECT_EQ(legacy.health.timeouts, 0u);

  // While the link was still down, drop-forever re-tried the dead path at
  // its full theta share and ate another watchdog stall; probation risked
  // only a probe slice. Health must finish transfer B strictly faster.
  EXPECT_LT(with_health.b.elapsed_s, legacy.b.elapsed_s);
  // And once readmitted, the healthy-path transfer must pay no penalty
  // versus a probe-free plan (same path set, same solve).
  EXPECT_GT(with_health.d.elapsed_s, 0.0);
}

// Byte conservation under seeded flapping faults: every transfer either
// delivers all bytes with the payload intact or reports a delivered count
// no larger than requested; nothing is parked on a stalled flow at the end.
TEST(FlapRecovery, BytesConservedUnderInjectedFlaps) {
  Fixture f;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            recovery_health_opts());
  ms::FaultInjector inj(f.engine, f.net);
  const auto l01 = f.direct_link(f.gpus[0], f.gpus[1]);
  const auto l02 = f.direct_link(f.gpus[0], f.gpus[2]);
  // Downtimes must outlast the watchdog's 1 ms deadline floor, or a
  // stalled flow simply resumes when capacity returns and nothing fails.
  inj.flap(l01, /*first_down=*/50e-6, /*down_for=*/3e-3, /*up_for=*/1e-3,
           /*cycles=*/2);
  inj.flap(l02, /*first_down=*/250e-6, /*down_for=*/200e-6,
           /*up_for=*/500e-6, /*cycles=*/2);

  constexpr int kTransfers = 4;
  std::vector<RunRecord> recs(kTransfers);
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c,
         std::vector<RunRecord>& out) -> ms::Task<void> {
        for (std::size_t i = 0; i < out.size(); ++i) {
          co_await one_transfer(fx, c, fx.gpus[0], fx.gpus[1], 16_MiB,
                                static_cast<std::uint8_t>(80 + i), out[i]);
        }
      }(f, ch, recs),
      "churn");
  f.engine.run();

  for (const auto& rr : recs) {
    EXPECT_LE(rr.delivered, rr.requested);
    if (rr.ok) {
      EXPECT_EQ(rr.delivered, rr.requested);
      EXPECT_TRUE(rr.content_ok);  // every completed payload is intact
    }
  }
  // The last transfer runs after the flap window: it must complete.
  EXPECT_TRUE(recs.back().ok);
  EXPECT_GE(ch.recovery_stats().path_timeouts, 1u);  // the flaps bit
  EXPECT_EQ(f.net.stalled_flow_count(), 0u);
  EXPECT_EQ(f.net.active_flow_count(), 0u);
}

// Online recalibration on a drifted link: the direct link silently delivers
// 40% of its nominal capacity; with a Recalibrator wired in, the model's
// per-transfer prediction error must shrink (windowed, non-increasing) as
// corrected alpha/beta snapshots are published and picked up.
TEST(DriftConvergence, RecalibratedPredictionsConvergeOnDriftedLink) {
  Fixture f;
  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  f.net.set_link_capacity(link, 0.4 * f.net.link(link).capacity_bps);

  mm::CalibrationStore store;
  f.cfg.set_calibration(&store);
  mm::Recalibrator recal(store);
  mp::ModelDrivenOptions opts;  // no recovery: clean observations only
  opts.recalibrator = &recal;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  constexpr int kTransfers = 24;
  std::vector<double> errors;
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c,
         std::vector<double>& errs) -> ms::Task<void> {
        for (int i = 0; i < kTransfers; ++i) {
          RunRecord rr;
          co_await one_transfer(fx, c, fx.gpus[0], fx.gpus[1], 32_MiB,
                                static_cast<std::uint8_t>(90 + i), rr);
          const double predicted = c.last_config()->predicted_time;
          errs.push_back(std::abs(rr.elapsed_s - predicted) / rr.elapsed_s);
        }
      }(f, ch, errors),
      "drift");
  f.engine.run();

  ASSERT_EQ(errors.size(), static_cast<std::size_t>(kTransfers));
  const auto window = [&](int lo, int hi) {
    return std::accumulate(errors.begin() + lo, errors.begin() + hi, 0.0) /
           (hi - lo);
  };
  const double w0 = window(0, 8), w1 = window(8, 16), w2 = window(16, 24);
  EXPECT_LE(w1, w0 + 1e-9);
  EXPECT_LE(w2, w1 + 1e-9);
  EXPECT_LT(w2, 0.5 * w0);  // converged well below the uncorrected error
  EXPECT_LT(w2, 0.15);
  EXPECT_GE(store.version(), 1u);
  EXPECT_GE(recal.stats().publications, 1u);
  // The learned correction says the direct path is slower than fitted.
  const auto* cal = store.snapshot()->find(f.gpus[0], f.gpus[1], direct());
  ASSERT_NE(cal, nullptr);
  EXPECT_LT(cal->beta_scale, 1.0);
}

// The recovery path must report each transfer's own configuration to the
// recalibrator, not whichever transfer last wrote the channel's shared
// last_config(). Two concurrent tenants on disjoint pairs and no faults:
// every transfer completes on its first plan, so the recovery path
// observes exactly what the plain path observes and both publish the same
// calibration.
TEST(DriftConvergence, RecoveryPathObservesItsOwnConfig) {
  struct Learned {
    std::uint64_t version = 0;
    std::map<mm::PathCalKey, mm::PathCalibration> entries;
  };
  const auto learn = [](bool recovery) {
    Fixture f;
    mm::CalibrationStore store;
    f.cfg.set_calibration(&store);
    mm::Recalibrator recal(store);
    mp::ModelDrivenOptions opts;
    opts.recovery.enabled = recovery;
    opts.recalibrator = &recal;
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                              opts);
    const auto tenant = [](Fixture& fx, mp::ModelDrivenChannel& c,
                           mt::DeviceId s, mt::DeviceId d,
                           std::size_t bytes) -> ms::Task<void> {
      for (int i = 0; i < 8; ++i) {
        RunRecord rr;
        co_await one_transfer(fx, c, s, d, bytes,
                              static_cast<std::uint8_t>(40 + i), rr);
        EXPECT_TRUE(rr.ok);
      }
    };
    f.engine.spawn(tenant(f, ch, f.gpus[0], f.gpus[1], 64_MiB), "large");
    f.engine.spawn(tenant(f, ch, f.gpus[2], f.gpus[3], 4_MiB), "small");
    f.engine.run();
    const auto snap = store.snapshot();
    return Learned{snap->version(), snap->entries()};
  };
  const Learned off = learn(false);
  const Learned on = learn(true);
  EXPECT_EQ(on.version, off.version);
  ASSERT_EQ(on.entries.size(), off.entries.size());
  for (auto a = on.entries.begin(), b = off.entries.begin();
       a != on.entries.end(); ++a, ++b) {
    EXPECT_TRUE(a->first == b->first);
    EXPECT_EQ(a->second.alpha_scale, b->second.alpha_scale);
    EXPECT_EQ(a->second.beta_scale, b->second.beta_scale);
    EXPECT_EQ(a->second.samples, b->second.samples);
  }
}

// Paper-faithful guard: with health and recalibration both left disabled
// the channel must not track state or pay any probe/observation work.
TEST(FlapRecovery, DisabledPoliciesStayInert) {
  Fixture f;
  mp::ModelDrivenOptions opts;
  opts.recovery.enabled = true;
  opts.recovery.slack = 4.0;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  RunRecord rr;
  f.engine.spawn(one_transfer(f, ch, f.gpus[0], f.gpus[1], 16_MiB, 99, rr),
                 "inert");
  f.engine.run();
  EXPECT_TRUE(rr.ok);
  EXPECT_TRUE(rr.content_ok);
  const auto& hs = ch.health().stats();
  EXPECT_EQ(hs.probes_launched, 0u);
  EXPECT_EQ(hs.timeouts + hs.readmissions + hs.deaths, 0u);
  EXPECT_EQ(ch.health().tracked_count(), 0u);
}

// ---------------------------------------------------------------------------
// Option validation and the readmission/suspect-clear stat split
// ---------------------------------------------------------------------------

TEST(Health, RejectsInconsistentOptions) {
  // min > max probe bytes would make the probe-size std::clamp UB.
  auto opts = health_opts();
  opts.min_probe_bytes = 8_MiB;
  opts.max_probe_bytes = 1_MiB;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.probe_fraction = 1.5;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);
  opts.probe_fraction = -0.1;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.dead_after = 0;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.backoff = 0.5;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.max_slack_factor = 0.9;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.suspect_delay_s = -1.0;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.dead_cooldown_s = -1e-3;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  opts = health_opts();
  opts.max_cooldown_s = opts.dead_cooldown_s / 2;
  EXPECT_THROW(mp::PathHealthManager{opts}, std::invalid_argument);

  // Defaults (and the boundary probe_fraction values) are valid.
  EXPECT_NO_THROW(mp::PathHealthManager{health_opts()});
  opts = health_opts();
  opts.probe_fraction = 0.0;
  EXPECT_NO_THROW(mp::PathHealthManager{opts});
  opts.probe_fraction = 1.0;
  EXPECT_NO_THROW(mp::PathHealthManager{opts});
}

TEST(Health, EqualProbeBoundsAreValidAndDegenerate) {
  auto opts = health_opts();
  opts.min_probe_bytes = 1_MiB;
  opts.max_probe_bytes = 1_MiB;
  mp::PathHealthManager hm(opts);
  EXPECT_EQ(hm.probe_bytes(64_MiB), 1_MiB);
  EXPECT_EQ(hm.probe_bytes(512_KiB), 512_KiB);  // still capped by segment
}

TEST(Health, SuspectClearedByRegularShareIsNotAReadmission) {
  mp::PathHealthManager hm(health_opts());
  hm.on_timeout(0, 1, direct(), 1.0);
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kSuspect);
  // The path delivers a planned (non-probe) share before any probe was
  // issued: tracked state clears, but the probation machinery proved
  // nothing.
  hm.on_success(0, 1, direct(), 1.5);
  EXPECT_EQ(hm.state(0, 1, direct()), mp::PathHealth::kHealthy);
  EXPECT_EQ(hm.stats().suspect_clears, 1u);
  EXPECT_EQ(hm.stats().readmissions, 0u);
  EXPECT_EQ(hm.stats().probes_succeeded, 0u);

  // The probe-proven flavour increments readmissions, not suspect_clears.
  hm.on_timeout(0, 1, staged(2), 2.0);
  hm.on_probe_issued(0, 1, staged(2));
  hm.on_success(0, 1, staged(2), 2.5);
  EXPECT_EQ(hm.stats().readmissions, 1u);
  EXPECT_EQ(hm.stats().suspect_clears, 1u);

  // Untracked paths stay a no-op for both counters.
  hm.on_success(0, 1, direct(), 3.0);
  EXPECT_EQ(hm.stats().readmissions, 1u);
  EXPECT_EQ(hm.stats().suspect_clears, 1u);
}
