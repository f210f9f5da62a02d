// Compiled transfer graphs (PR 9): compile/replay timing identity with the
// uncompiled path, TransferGraph patching, the GraphCache (LRU, collision,
// calibration-version invalidation), the ModelDrivenChannel fast path with
// its fallback gates, admit_replay ledger equivalence, and the invalidation
// edge cases (calibration publish mid-flight, health probation of a
// template path, LRU eviction while a replay executes).
#include "mpath/pipeline/graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mpath/model/calibration_store.hpp"
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
  mt::System sys;
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt;
  mp::PipelineEngine pipe;
  mm::ModelRegistry reg;
  mm::PathConfigurator cfg;
  std::vector<mt::DeviceId> gpus;

  explicit Fixture(double jitter_rel = 0.0,
                   std::size_t staging_buffers_per_device = 4,
                   mg::Payload staging_payload = mg::Payload::Materialized)
      : sys(make_sys(jitter_rel)),
        rt(sys, engine, net),
        pipe(rt, staging_buffers_per_device, staging_payload),
        reg(mpath::tuning::registry_from_topology(sys)),
        cfg(reg) {
    gpus = sys.topology.gpus();
  }

  static mt::System make_sys(double jitter_rel) {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = jitter_rel;
    return s;
  }

  [[nodiscard]] std::vector<mt::PathPlan> candidates(
      const mt::PathPolicy& policy) {
    return mt::enumerate_paths(sys.topology, gpus[0], gpus[1], policy);
  }

  [[nodiscard]] ms::LinkId direct_link(mt::DeviceId a, mt::DeviceId b) const {
    return rt.binding().link_for_edge(*sys.topology.direct_edge(a, b));
  }
};

// Stream operations one replay issues for path `p`, read off its chunk
// table: one copy per direct chunk; per staged chunk the copy in, both event
// records, the forward wait and the copy out, plus the host-sync delay on
// paths that pay one and the slot wait from chunk 2 on.
std::uint64_t path_ops(const mp::TransferGraph::Path& p) {
  const std::uint64_t k = p.chunk_sizes.size();
  if (!p.staged) return k;
  return k * (p.extra_sync_s > 0.0 ? 6 : 5) + (k > 2 ? k - 2 : 0);
}

std::uint64_t expected_ops(const mp::TransferGraph& g) {
  std::uint64_t n = 0;
  for (const auto& p : g.paths()) n += path_ops(p);
  return n;
}

// Every path's chunk table tiles its slice, and the slices tile the message.
void expect_chunk_tables_tile(const mp::TransferGraph& g) {
  std::uint64_t slice_at = 0;
  for (const auto& p : g.paths()) {
    EXPECT_EQ(p.offset, slice_at);
    ASSERT_EQ(p.chunk_offsets.size(), p.chunk_sizes.size());
    EXPECT_EQ(p.chunk_sizes.size(), static_cast<std::size_t>(p.chunks));
    std::uint64_t at = 0;
    for (std::size_t c = 0; c < p.chunk_sizes.size(); ++c) {
      EXPECT_EQ(p.chunk_offsets[c], at);
      EXPECT_GT(p.chunk_sizes[c], 0u);
      at += p.chunk_sizes[c];
    }
    EXPECT_EQ(at, p.bytes);
    slice_at += p.bytes;
  }
  EXPECT_EQ(slice_at, g.total_bytes());
}

// Replay `g` once over fresh buffers and return the runtime's stream-op
// count delta; the destination must match the source afterwards.
std::uint64_t replay_ops(Fixture& f,
                         const std::shared_ptr<mp::TransferGraph>& g,
                         std::uint64_t seed) {
  mg::DeviceBuffer src(f.gpus[0], g->total_bytes());
  mg::DeviceBuffer dst(f.gpus[1], g->total_bytes());
  src.fill_pattern(seed);
  const std::uint64_t before = f.rt.ops_issued();
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        const auto out =
            co_await fx.pipe.replay(std::move(gr), d, 0, s, 0, {});
        EXPECT_TRUE(out.complete);
      }(f, g, dst, src),
      "replay-ops");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  return f.rt.ops_issued() - before;
}

mp::ExecPlan plan_of(const mm::TransferConfig& config) {
  mp::ExecPlan plan;
  for (const auto& share : config.paths) {
    plan.push_back(mp::ExecPath{share.plan, share.bytes, share.chunks});
  }
  return plan;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compile
// ---------------------------------------------------------------------------

TEST(GraphCompile, ResolvesResourcesWithoutSimulatedTime) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const mm::TransferConfig config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  const double t0 = f.engine.now();
  const auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(f.engine.now(), t0);  // compile is host-side only
  EXPECT_TRUE(g->valid());
  EXPECT_EQ(g->src_device(), f.gpus[0]);
  EXPECT_EQ(g->dst_device(), f.gpus[1]);
  EXPECT_EQ(g->total_bytes(), 64_MiB);
  ASSERT_EQ(g->key_paths().size(), paths.size());
  EXPECT_FALSE(g->busy());
  EXPECT_EQ(g->replays(), 0u);
  // Active shares only; every staged path carries its reserved events and a
  // persistent staging lease.
  std::uint64_t covered = 0;
  for (const auto& p : g->paths()) {
    EXPECT_GT(p.bytes, 0u);
    covered += p.bytes;
    if (p.staged) {
      EXPECT_TRUE(p.lease.valid());
      EXPECT_GT(p.slot_bytes, 0u);
      EXPECT_EQ(p.fwd_events.size(), static_cast<std::size_t>(p.chunks));
      EXPECT_EQ(p.bwd_events.size(), static_cast<std::size_t>(p.chunks));
    }
    EXPECT_EQ(p.chunk_sizes.size(), static_cast<std::size_t>(p.chunks));
  }
  EXPECT_EQ(covered, 64_MiB);
  expect_chunk_tables_tile(*g);
}

TEST(GraphCompile, NullWhenStagingPoolExhausted) {
  // One staging buffer per device: the first template takes the slot on its
  // stage GPU persistently, so a second template over the same stage must
  // fail to compile (nullptr) instead of blocking inside compile.
  Fixture f(0.0, /*staging_buffers_per_device=*/1);
  const auto paths = f.candidates(mt::PathPolicy::two_gpus());
  const mm::TransferConfig config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  const auto g1 = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g1, nullptr);
  const auto g2 = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  EXPECT_EQ(g2, nullptr);
}

TEST(GraphCompile, MirrorsExecuteValidation) {
  Fixture f;
  mm::TransferConfig empty;
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], empty),
               std::invalid_argument);

  mm::TransferConfig bad;
  bad.total_bytes = 1_MiB;
  mm::PathShare share;
  share.plan = {mt::PathKind::GpuStaged, mt::kInvalidDevice};  // no stage
  share.bytes = 1_MiB;
  share.chunks = 4;
  bad.paths.push_back(share);
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], bad),
               std::invalid_argument);

  mm::TransferConfig zero_chunks;
  zero_chunks.total_bytes = 1_MiB;
  mm::PathShare d;
  d.plan = {mt::PathKind::Direct, mt::kInvalidDevice};
  d.bytes = 1_MiB;
  d.chunks = 0;
  zero_chunks.paths.push_back(d);
  EXPECT_THROW((void)f.pipe.compile_graph(f.gpus[0], f.gpus[1], zero_chunks),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay identity
// ---------------------------------------------------------------------------

// The core tentpole invariant, at the engine level and with jitter ON: a
// replay issues the exact same runtime-call + issue-cost sequence as
// execute_monitored on the equivalent plan, so the completion instants (and
// the rng draws behind them) are bit-identical across two fresh engines.
TEST(GraphReplay, BitIdenticalToUncompiledUnderJitter) {
  const std::uint64_t n = 64_MiB;
  double t_classic = 0.0, t_replay = 0.0;
  bool content_classic = false, content_replay = false;

  {
    Fixture f(/*jitter_rel=*/0.02);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(21);
    f.engine.spawn(
        [](Fixture& fx, mg::DeviceBuffer& d, const mg::DeviceBuffer& s,
           mp::ExecPlan plan) -> ms::Task<void> {
          (void)co_await fx.pipe.execute_monitored(d, 0, s, 0,
                                                   std::move(plan), {});
        }(f, dst, src, plan_of(config)),
        "classic");
    f.engine.run();
    t_classic = f.engine.now();
    content_classic = dst.same_content(src);
  }
  {
    Fixture f(/*jitter_rel=*/0.02);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(21);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    ASSERT_NE(g, nullptr);
    f.engine.spawn(
        [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
           mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
          (void)co_await fx.pipe.replay(std::move(gr), d, 0, s, 0, {});
        }(f, g, dst, src),
        "replay");
    f.engine.run();
    t_replay = f.engine.now();
    content_replay = dst.same_content(src);
    EXPECT_EQ(g->replays(), 1u);
    EXPECT_FALSE(g->busy());
  }
  EXPECT_TRUE(content_classic);
  EXPECT_TRUE(content_replay);
  EXPECT_EQ(t_classic, t_replay);  // bit-identical, not just NEAR
}

// Same invariant under a mid-flight link failure with watchdogs armed: the
// timeout instant, the partial-delivery accounting, the destination bytes
// and the surviving paths' completions must all match the uncompiled path
// bit for bit. The severed link is the case input: the direct link, or the
// second hop of a staged path. The staged case runs timing-only staging
// buffers, so its delivered prefix is read from the backward event records
// and landed in bulk.
TEST(GraphReplay, MonitoredTimeoutMatchesUncompiledBitForBit) {
  struct SeverCase {
    const char* name;
    bool staged_hop;  ///< sever stage -> dst of the first staged share
    mg::Payload staging;
  };
  const std::uint64_t n = 64_MiB;
  struct Run {
    mp::TransferOutcome out;
    double t_end = 0.0;
    std::size_t severed = 0;  ///< plan index of the severed path
    std::vector<std::byte> dst_bytes;
  };
  const auto run_one = [n](const SeverCase& sc, bool compiled, Run& run) {
    Fixture f(/*jitter_rel=*/0.01, 4, sc.staging);
    const auto paths = f.candidates(mt::PathPolicy::three_gpus());
    const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], n, paths);
    mp::PathWatchList watch;
    for (const auto& share : config.paths) {
      watch.push_back(
          mp::PathWatch{std::max(1e-3, 4.0 * share.predicted_time)});
    }
    mg::DeviceBuffer src(f.gpus[0], n), dst(f.gpus[1], n);
    src.fill_pattern(22);
    // Sever one path's link mid-transfer; its watchdog fires, the other
    // paths finish normally.
    ms::LinkId link = f.direct_link(f.gpus[0], f.gpus[1]);
    double sever_at = 100e-6;
    run.severed = 0;
    if (sc.staged_hop) {
      for (std::size_t i = 0; i < config.paths.size(); ++i) {
        const auto& share = config.paths[i];
        if (share.plan.kind != mt::PathKind::GpuStaged || share.bytes == 0) {
          continue;
        }
        link = f.direct_link(share.plan.stage, f.gpus[1]);
        sever_at = 0.5 * share.predicted_time;  // a partial prefix landed
        run.severed = i;
        break;
      }
      ASSERT_GT(run.severed, 0u) << "no staged share to sever";
    }
    f.engine.schedule_callback(
        sever_at, [&f, link] { f.net.set_link_capacity(link, 0.0); });
    std::shared_ptr<mp::TransferGraph> g;
    if (compiled) {
      g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
      ASSERT_NE(g, nullptr);
    }
    f.engine.spawn(
        [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
           mm::TransferConfig cf, mg::DeviceBuffer& d,
           const mg::DeviceBuffer& s, mp::PathWatchList w,
           mp::TransferOutcome& res) -> ms::Task<void> {
          if (gr != nullptr) {
            res = co_await fx.pipe.replay(std::move(gr), d, 0, s, 0,
                                          std::move(w));
          } else {
            res = co_await fx.pipe.execute_monitored(
                d, 0, s, 0, plan_of(cf), std::move(w));
          }
        }(f, g, config, dst, src, watch, run.out),
        compiled ? "replay" : "classic");
    f.engine.run();
    run.t_end = f.engine.now();
    const auto bytes = dst.region(0, n);
    run.dst_bytes.assign(bytes.begin(), bytes.end());
  };
  for (const SeverCase& sc :
       {SeverCase{"direct link", false, mg::Payload::Materialized},
        SeverCase{"staged second hop", true, mg::Payload::Simulated}}) {
    SCOPED_TRACE(sc.name);
    Run classic, replayed;
    {
      SCOPED_TRACE("classic");
      run_one(sc, false, classic);
    }
    {
      SCOPED_TRACE("replay");
      run_one(sc, true, replayed);
    }
    EXPECT_EQ(classic.t_end, replayed.t_end);
    ASSERT_EQ(classic.out.paths.size(), replayed.out.paths.size());
    EXPECT_EQ(classic.out.complete, replayed.out.complete);
    EXPECT_FALSE(classic.out.complete);  // the severed path timed out
    for (std::size_t i = 0; i < classic.out.paths.size(); ++i) {
      EXPECT_EQ(classic.out.paths[i].bytes, replayed.out.paths[i].bytes);
      EXPECT_EQ(classic.out.paths[i].bytes_delivered,
                replayed.out.paths[i].bytes_delivered);
      EXPECT_EQ(classic.out.paths[i].timed_out,
                replayed.out.paths[i].timed_out);
    }
    ASSERT_LT(classic.severed, classic.out.paths.size());
    const mp::PathOutcome& cut = classic.out.paths[classic.severed];
    EXPECT_TRUE(cut.timed_out);
    if (sc.staged_hop) {
      // A partial prefix: some chunks landed before the cut, not all.
      EXPECT_GT(cut.bytes_delivered, 0u);
      EXPECT_LT(cut.bytes_delivered, cut.bytes);
    }
    EXPECT_TRUE(classic.dst_bytes == replayed.dst_bytes)
        << "destination bytes differ";
  }
}

TEST(GraphReplay, SteadyStateReplaysReuseResources) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 32_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  mg::DeviceBuffer src(f.gpus[0], 32_MiB), dst(f.gpus[1], 32_MiB);
  src.fill_pattern(23);
  const auto pooled_before = f.rt.events_pooled();
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        for (int i = 0; i < 3; ++i) {
          const auto out = co_await fx.pipe.replay(gr, d, 0, s, 0, {});
          EXPECT_TRUE(out.complete);
        }
      }(f, g, dst, src),
      "steady");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_EQ(g->replays(), 3u);
  EXPECT_EQ(f.pipe.transfers_executed(), 3u);
  // Replays never touch the event free-list: the template owns its events.
  EXPECT_EQ(f.rt.events_pooled(), pooled_before);
}

TEST(GraphReplay, BusyTemplateIsRejected) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 32_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  mg::DeviceBuffer src(f.gpus[0], 32_MiB), dst(f.gpus[1], 32_MiB);
  src.fill_pattern(24);
  bool second_rejected = false;
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        (void)co_await fx.pipe.replay(gr, d, 0, s, 0, {});
      }(f, g, dst, src),
      "first");
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s,
         bool& rejected) -> ms::Task<void> {
        try {
          (void)co_await fx.pipe.replay(gr, d, 0, s, 0, {});
        } catch (const std::logic_error&) {
          rejected = true;
        }
      }(f, g, dst, src, second_rejected),
      "second");
  f.engine.run();
  EXPECT_TRUE(second_rejected);
  EXPECT_EQ(g->replays(), 1u);
  EXPECT_FALSE(g->busy());
}

// ---------------------------------------------------------------------------
// Patch
// ---------------------------------------------------------------------------

TEST(GraphPatch, ResplitsKeepingThetaAndDelivers) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  const std::vector<double> thetas = [&] {
    std::vector<double> t;
    for (const auto& s : g->config().paths) t.push_back(s.theta);
    return t;
  }();

  ASSERT_TRUE(g->patch(48_MiB));
  EXPECT_EQ(g->total_bytes(), 48_MiB);
  EXPECT_EQ(g->config().total_bytes, 48_MiB);
  std::uint64_t covered = 0;
  for (const auto& s : g->config().paths) covered += s.bytes;
  EXPECT_EQ(covered, 48_MiB);
  // Non-anchor shares follow the compiled theta exactly.
  for (std::size_t i = 1; i < g->config().paths.size(); ++i) {
    EXPECT_EQ(g->config().paths[i].bytes,
              static_cast<std::uint64_t>(
                  std::floor(thetas[i] * static_cast<double>(48_MiB))));
  }

  mg::DeviceBuffer src(f.gpus[0], 48_MiB), dst(f.gpus[1], 48_MiB);
  src.fill_pattern(25);
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        const auto out = co_await fx.pipe.replay(gr, d, 0, s, 0, {});
        EXPECT_TRUE(out.complete);
      }(f, g, dst, src),
      "patched");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));

  // patch(total_bytes()) is a no-op; zero bytes is rejected.
  EXPECT_TRUE(g->patch(48_MiB));
  EXPECT_FALSE(g->patch(0));
  EXPECT_EQ(g->total_bytes(), 48_MiB);
}

TEST(GraphPatch, OneBytePatchCollapsesOntoTheAnchor) {
  // The smallest legal patch: every non-anchor share floors to zero bytes
  // (floor(theta * 1) == 0 for theta < 1), the remainder — the whole byte —
  // lands on the anchor, and the issue rounds degenerate to the anchor's path
  // alone. The graph must still replay and deliver that byte.
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  ASSERT_GT(g->config().paths.size(), 1u);

  ASSERT_TRUE(g->patch(1));
  EXPECT_EQ(g->total_bytes(), 1u);
  EXPECT_EQ(g->config().paths[0].bytes, 1u);
  EXPECT_EQ(g->config().paths[0].theta, 1.0);
  for (std::size_t i = 1; i < g->config().paths.size(); ++i) {
    EXPECT_EQ(g->config().paths[i].bytes, 0u);
  }
  // Zero-byte paths contribute no chunks and no ops.
  std::size_t carrying = 0;
  for (const auto& p : g->paths()) {
    if (p.bytes == 0) {
      EXPECT_EQ(p.chunks, 0);
      EXPECT_TRUE(p.chunk_sizes.empty());
    } else {
      ++carrying;
      EXPECT_EQ(p.chunks, 1);
      ASSERT_EQ(p.chunk_sizes.size(), 1u);
      EXPECT_EQ(p.chunk_sizes[0], 1u);
    }
  }
  EXPECT_EQ(carrying, 1u);

  mg::DeviceBuffer src(f.gpus[0], 1), dst(f.gpus[1], 1);
  src.fill_pattern(31);
  f.engine.spawn(
      [](Fixture& fx, std::shared_ptr<mp::TransferGraph> gr,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        const auto out = co_await fx.pipe.replay(gr, d, 0, s, 0, {});
        EXPECT_TRUE(out.complete);
      }(f, g, dst, src),
      "one-byte");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
}

TEST(GraphPatch, PatchingBackToCompiledBytesRestoresExactShares) {
  // Non-anchor thetas are never rewritten by patch, and the share bytes are
  // re-derived with the same floor/anchor-remainder arithmetic the original
  // compile used — so patching away and back must reproduce the compiled
  // split bit for bit, including the per-chunk splits.
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);

  struct Snap {
    std::vector<std::uint64_t> share_bytes;
    std::vector<double> thetas;
    std::vector<std::vector<std::size_t>> chunk_sizes;
    std::vector<std::vector<std::size_t>> chunk_offsets;
    std::uint64_t ops = 0;
  };
  const auto snapshot = [&] {
    Snap s;
    for (const auto& share : g->config().paths) {
      s.share_bytes.push_back(share.bytes);
      s.thetas.push_back(share.theta);
    }
    for (const auto& p : g->paths()) {
      s.chunk_sizes.emplace_back(p.chunk_sizes.begin(), p.chunk_sizes.end());
      s.chunk_offsets.emplace_back(p.chunk_offsets.begin(),
                                   p.chunk_offsets.end());
    }
    s.ops = replay_ops(f, g, 26);
    EXPECT_EQ(s.ops, expected_ops(*g));
    return s;
  };
  const Snap before = snapshot();

  ASSERT_TRUE(g->patch(48_MiB));
  ASSERT_TRUE(g->patch(1));
  ASSERT_TRUE(g->patch(64_MiB));

  const Snap after = snapshot();
  EXPECT_EQ(after.share_bytes, before.share_bytes);
  EXPECT_EQ(after.thetas, before.thetas);
  EXPECT_EQ(after.chunk_sizes, before.chunk_sizes);
  EXPECT_EQ(after.chunk_offsets, before.chunk_offsets);
  EXPECT_EQ(after.ops, before.ops);
  EXPECT_EQ(g->total_bytes(), 64_MiB);
}

TEST(GraphPatch, StagedShareDegeneratesToSingleChunk) {
  // Shrink until a staged share carries exactly one byte: its chunk count
  // clamps to min(compiled chunks, bytes) == 1, so the re-split emits a
  // single chunk and none of the in-flight pipelining ops (no slot wait,
  // which only exists from chunk index 2 on). Replay must still deliver.
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 64_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);

  // Find a non-anchor staged share and the size at which it gets 1 byte.
  std::size_t staged_idx = 0;
  for (std::size_t i = 1; i < g->config().paths.size(); ++i) {
    if (g->config().paths[i].plan.kind == mt::PathKind::GpuStaged) {
      staged_idx = i;
      break;
    }
  }
  ASSERT_GT(staged_idx, 0u) << "topology offers no non-anchor staged path";
  ASSERT_GT(g->config().paths[staged_idx].chunks, 1);
  const double theta = g->config().paths[staged_idx].theta;
  const auto new_bytes =
      static_cast<std::uint64_t>(std::ceil(1.0 / theta));
  ASSERT_EQ(static_cast<std::uint64_t>(
                std::floor(theta * static_cast<double>(new_bytes))),
            1u);

  ASSERT_TRUE(g->patch(new_bytes));
  std::size_t staged_pidx = g->paths().size();
  for (std::size_t i = 0; i < g->paths().size(); ++i) {
    if (g->paths()[i].staged && g->paths()[i].plan_index == staged_idx) {
      staged_pidx = i;
      break;
    }
  }
  ASSERT_LT(staged_pidx, g->paths().size());
  const auto& staged_path = g->paths()[staged_pidx];
  EXPECT_EQ(staged_path.bytes, 1u);
  EXPECT_EQ(staged_path.chunks, 1);
  ASSERT_EQ(staged_path.chunk_sizes.size(), 1u);
  EXPECT_EQ(staged_path.chunk_sizes[0], 1u);

  // The single staged chunk issues no slot wait, and one replay issues
  // exactly the stream ops the chunk tables call for.
  EXPECT_EQ(path_ops(staged_path), staged_path.extra_sync_s > 0.0 ? 6u : 5u);
  EXPECT_EQ(replay_ops(f, g, 87), expected_ops(*g));
}

TEST(GraphPatch, RejectsSizesThatOverflowCompiledResources) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::two_gpus());
  const auto config = f.cfg.compute_config(f.gpus[0], f.gpus[1], 8_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  const std::uint64_t before = g->total_bytes();
  // 64x the compiled size: a staged chunk would exceed its staging slot (the
  // slot was sized for the compile-time chunk), so the patch must refuse and
  // leave the template untouched.
  EXPECT_FALSE(g->patch(512_MiB));
  EXPECT_EQ(g->total_bytes(), before);
  EXPECT_EQ(g->config().total_bytes, before);
}

// ---------------------------------------------------------------------------
// GraphCache
// ---------------------------------------------------------------------------

TEST(GraphCache, HitMissLruEvictionAndRemove) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  mp::GraphCacheOptions opt;
  opt.capacity = 2;
  mp::GraphCache cache(opt);

  const auto compile_for = [&](std::uint64_t bytes) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], bytes, paths);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    EXPECT_NE(g, nullptr);
    return g;
  };
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};

  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto g8 = compile_for(8_MiB);
  cache.insert(g8, 0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0), g8);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Different bytes = different tuple = miss.
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 16_MiB, key, 0), nullptr);

  auto g16 = compile_for(16_MiB);
  cache.insert(g16, 0);
  // Touch 8 MiB so 16 MiB is the LRU victim when a third template arrives.
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0), g8);
  auto g32 = compile_for(32_MiB);
  cache.insert(g32, 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 16_MiB, key, 0), nullptr);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0), g8);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 32_MiB, key, 0), g32);

  EXPECT_TRUE(cache.remove(f.gpus[0], f.gpus[1], 8_MiB, key));
  EXPECT_FALSE(cache.remove(f.gpus[0], f.gpus[1], 8_MiB, key));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(GraphCache, StaleCalibrationVersionInvalidates) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  mp::GraphCache cache;
  const auto config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 8_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);
  cache.insert(g, /*cal_version=*/1);
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 1), g);
  // A publication bumped the version: the entry is dropped, not returned.
  EXPECT_EQ(cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(GraphCache, NarrowKeyCollisionsMissInsteadOfAliasing) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  mp::GraphCacheOptions opt;
  opt.key_bits = 1;  // every tuple lands on one of two buckets
  mp::GraphCache cache(opt);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], i << 20, paths);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    ASSERT_NE(g, nullptr);
    cache.insert(std::move(g), 0);
    // Whatever is resident, a lookup must only ever return ITS tuple.
    const auto hit = cache.lookup(f.gpus[0], f.gpus[1], i << 20, key, 0);
    if (hit != nullptr) EXPECT_EQ(hit->total_bytes(), i << 20);
  }
  EXPECT_LE(cache.size(), 2u);
  // Probe every tuple again: displaced ones land on a bucket owned by a
  // later collider and must miss (never alias), bumping the counter.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto hit = cache.lookup(f.gpus[0], f.gpus[1], i << 20, key, 0);
    if (hit != nullptr) EXPECT_EQ(hit->total_bytes(), i << 20);
  }
  EXPECT_GE(cache.stats().collisions, 1u);
}

// ---------------------------------------------------------------------------
// GraphCache under threads (TSan-covered via the CI concurrency regex)
// ---------------------------------------------------------------------------

// Templates are compiled up front on the main thread (compile itself is
// engine-affine and single-threaded by design); only the cache — the one
// shared mutable structure — is hammered from worker threads. Main keeps a
// strong reference to every graph so worker-side evictions never run a
// TransferGraph destructor off the engine thread.
TEST(GraphCacheConcurrent, ParallelLookupInsertRemoveAgree) {
  // Enough staging slots for eight live templates per stage device.
  Fixture f(/*jitter_rel=*/0.0, /*staging_buffers_per_device=*/16);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  std::vector<mp::GraphPtr> graphs;
  constexpr std::uint64_t kSizes = 8;
  for (std::uint64_t i = 1; i <= kSizes; ++i) {
    const auto config =
        f.cfg.compute_config(f.gpus[0], f.gpus[1], i << 20, paths);
    auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
    ASSERT_NE(g, nullptr);
    graphs.push_back(std::move(g));
  }

  mp::GraphCacheOptions opt;
  opt.capacity = 4;  // smaller than the working set: eviction races too
  mp::GraphCache cache(opt);
  std::atomic<bool> aliased{false};
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const std::uint64_t i = 1 + ((t + it) % kSizes);
        const std::uint64_t bytes = i << 20;
        switch ((t + it) % 4) {
          case 0:
            cache.insert(graphs[i - 1], /*cal_version=*/0);
            break;
          case 1:
            cache.remove(f.gpus[0], f.gpus[1], bytes, key);
            break;
          default: {
            const auto hit =
                cache.lookup(f.gpus[0], f.gpus[1], bytes, key, 0);
            if (hit != nullptr && hit->total_bytes() != bytes) {
              aliased.store(true, std::memory_order_relaxed);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(aliased.load());
  EXPECT_LE(cache.size(), 4u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * kIters / 2);
}

TEST(GraphCacheConcurrent, ClearRacesLookupsWithoutTearing) {
  Fixture f;
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto config =
      f.cfg.compute_config(f.gpus[0], f.gpus[1], 8_MiB, paths);
  auto g = f.pipe.compile_graph(f.gpus[0], f.gpus[1], config);
  ASSERT_NE(g, nullptr);

  mp::GraphCache cache;
  std::atomic<bool> stop{false};
  std::atomic<bool> aliased{false};
  std::thread churn([&] {
    for (int i = 0; i < 4000; ++i) {
      cache.insert(g, 0);
      cache.clear();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto hit = cache.lookup(f.gpus[0], f.gpus[1], 8_MiB, key, 0);
        if (hit != nullptr && hit->total_bytes() != 8_MiB) {
          aliased.store(true);
        }
      }
    });
  }
  churn.join();
  for (auto& r : readers) r.join();
  EXPECT_FALSE(aliased.load());
  EXPECT_LE(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// admit_replay (scheduler ledger equivalence)
// ---------------------------------------------------------------------------

TEST(Scheduler, AdmitReplayRegistersTheCompiledLedgerEntry) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};

  // A fresh uncontended admission (the compile source)...
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  ASSERT_NE(adm.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_TRUE(adm.uncontended);
  sched.depart(adm.ticket);

  // ...whose config a later replay re-registers identically.
  const auto rep = sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key,
                                      adm.config);
  ASSERT_NE(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_TRUE(rep.uncontended);
  EXPECT_EQ(sched.live_count(), 1u);
  sched.depart(rep.ticket);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_EQ(sched.stats().replay_admits, 1u);
  EXPECT_GE(sched.stats().footprint_checks, 2u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
}

TEST(Scheduler, AdmitReplayRejectsMismatchedTemplate) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  sched.depart(adm.ticket);

  // Wrong size for the compiled config: the template no longer describes
  // the request, so the scheduler demands a recompile.
  const auto rep =
      sched.admit_replay(f.gpus[0], f.gpus[1], 32_MiB, key, adm.config);
  EXPECT_EQ(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_EQ(sched.stats().replay_plan_mismatches, 1u);
  EXPECT_EQ(sched.live_count(), 0u);
}

TEST(Scheduler, AdmitReplayRejectsWhenLinksAreContended) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  const auto paths = f.candidates(mt::PathPolicy::three_gpus());
  const std::span<const mt::PathPlan> key{paths.data(), paths.size()};
  const auto adm = sched.admit(f.gpus[0], f.gpus[1], 64_MiB, key);
  sched.depart(adm.ticket);

  // A live flow now occupies the direct link (gpu0 -> gpu1 is also a hop of
  // the staged candidates' link set): the compiled solo split would be
  // wrong, so the replay is refused and the caller must plan fresh.
  const mt::PathPlan direct_only[] = {{mt::PathKind::Direct,
                                       mt::kInvalidDevice}};
  const auto blocker = sched.admit(f.gpus[0], f.gpus[1], 64_MiB,
                                   std::span<const mt::PathPlan>(direct_only));
  ASSERT_NE(blocker.ticket, mp::TransferScheduler::kInvalidTicket);
  const auto rep =
      sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key, adm.config);
  EXPECT_EQ(rep.ticket, mp::TransferScheduler::kInvalidTicket);
  EXPECT_GE(sched.stats().replay_rejects, 1u);
  sched.depart(blocker.ticket);

  // Links free again: the same template is admissible.
  const auto again =
      sched.admit_replay(f.gpus[0], f.gpus[1], 64_MiB, key, adm.config);
  ASSERT_NE(again.ticket, mp::TransferScheduler::kInvalidTicket);
  sched.depart(again.ticket);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Channel fast path
// ---------------------------------------------------------------------------

namespace {

/// Run `count` identical sequential transfers through a channel, recording
/// each completion instant.
std::vector<double> run_series(Fixture& f, mg::DataChannel& ch,
                               std::uint64_t bytes, int count) {
  std::vector<double> finish;
  finish.reserve(static_cast<std::size_t>(count));
  mg::DeviceBuffer src(f.gpus[0], bytes), dst(f.gpus[1], bytes);
  src.fill_pattern(31);
  f.engine.spawn(
      [](Fixture& fx, mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s, std::uint64_t n, int k,
         std::vector<double>& out) -> ms::Task<void> {
        for (int i = 0; i < k; ++i) {
          co_await c.transfer(d, 0, s, 0, n);
          out.push_back(fx.engine.now());
          EXPECT_TRUE(d.same_content(s));
        }
      }(f, ch, dst, src, bytes, count, finish),
      "series");
  f.engine.run();
  return finish;
}

}  // namespace

// The CI gate in miniature: the same transfer series through the same
// channel, with and without a GraphCache, completes at bit-identical
// instants — under jitter, so the rng draw sequence is verified too.
TEST(ChannelGraphs, FastPathFingerprintsAreBitIdentical) {
  const std::uint64_t n = 48_MiB;
  std::vector<double> base, compiled;
  {
    Fixture f(/*jitter_rel=*/0.02);
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus());
    base = run_series(f, ch, n, 4);
  }
  {
    Fixture f(/*jitter_rel=*/0.02);
    mp::GraphCache cache;
    mp::ModelDrivenOptions opts;
    opts.graphs = &cache;
    mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                              opts);
    compiled = run_series(f, ch, n, 4);
    EXPECT_EQ(ch.graph_stats().compiles, 1u);
    EXPECT_EQ(ch.graph_stats().replays_fresh, 1u);
    EXPECT_EQ(ch.graph_stats().replays, 3u);
    EXPECT_EQ(cache.stats().hits, 3u);
  }
  ASSERT_EQ(base.size(), compiled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i], compiled[i]) << "transfer " << i;
  }
}

TEST(ChannelGraphs, ScheduledFastPathAdmitsReplaysAndBalancesLedger) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::three_gpus(), opts);
  run_series(f, ch, 48_MiB, 4);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
  EXPECT_EQ(ch.graph_stats().replays_fresh, 1u);
  EXPECT_EQ(ch.graph_stats().replays, 3u);
  EXPECT_EQ(sched.stats().replay_admits, 3u);
  EXPECT_EQ(sched.live_count(), 0u);
  EXPECT_GE(sched.stats().footprint_checks, 4u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
}

TEST(ChannelGraphs, ContendedReplayFallsBackToFreshPlan) {
  Fixture f;
  mp::TransferScheduler sched(f.pipe, f.cfg);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, sched, f.cfg,
                            mt::PathPolicy::three_gpus(), opts);
  mp::ModelDrivenChannel other(f.pipe, sched, f.cfg,
                               mt::PathPolicy::three_gpus(), opts);

  // Warm the template with an uncontended transfer.
  run_series(f, ch, 48_MiB, 1);
  ASSERT_EQ(ch.graph_stats().compiles, 1u);

  // Now run the same tuple while another scheduled transfer occupies
  // overlapping links: the replay must be refused and planned fresh.
  mg::DeviceBuffer src_a(f.gpus[0], 256_MiB), dst_a(f.gpus[2], 256_MiB);
  mg::DeviceBuffer src_b(f.gpus[0], 48_MiB), dst_b(f.gpus[1], 48_MiB);
  src_a.fill_pattern(32);
  src_b.fill_pattern(33);
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 256_MiB);
      }(other, dst_a, src_a),
      "blocker");
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(ch, dst_b, src_b),
      "contended");
  f.engine.run();
  EXPECT_TRUE(dst_a.same_content(src_a));
  EXPECT_TRUE(dst_b.same_content(src_b));
  EXPECT_GE(ch.graph_stats().contended_rejects, 1u);
  EXPECT_EQ(sched.stats().footprint_mismatches, 0u);
  EXPECT_EQ(sched.live_count(), 0u);
}

// ---------------------------------------------------------------------------
// Invalidation edges (the satellite coverage)
// ---------------------------------------------------------------------------

TEST(ChannelGraphs, CalibrationPublishInvalidatesTemplates) {
  Fixture f;
  mm::CalibrationStore store;
  f.cfg.set_calibration(&store);
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);
  run_series(f, ch, 48_MiB, 2);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
  EXPECT_EQ(ch.graph_stats().replays, 1u);

  // Publish a recalibration: the cached template was compiled under the old
  // snapshot, so the next transfer must recompile, not replay stale state.
  store.publish(mm::PathCalKey::of(f.gpus[0], f.gpus[1],
                                   {mt::PathKind::Direct, mt::kInvalidDevice}),
                mm::PathCalibration{1.0, 1.25});
  run_series(f, ch, 48_MiB, 2);
  EXPECT_EQ(ch.graph_stats().compiles, 2u);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(ChannelGraphs, HealthProbationBlocksReplayOfTemplatePath) {
  Fixture f;
  mp::GraphCache cache;
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  opts.recovery.enabled = true;
  opts.recovery.slack = 4.0;
  opts.health.enabled = true;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  const auto link = f.direct_link(f.gpus[0], f.gpus[1]);
  mg::DeviceBuffer src(f.gpus[0], 48_MiB), dst(f.gpus[1], 48_MiB);
  src.fill_pattern(34);
  f.engine.spawn(
      [](Fixture& fx, mp::ModelDrivenChannel& c, ms::LinkId l,
         mg::DeviceBuffer& d, const mg::DeviceBuffer& s) -> ms::Task<void> {
        // Healthy transfer compiles the template.
        co_await c.transfer(d, 0, s, 0, 48_MiB);
        // Sever the direct link: this transfer times out mid-flight (the
        // template path goes into probation via the watchdog) and recovers
        // over the survivors.
        fx.net.set_link_capacity(l, 0.0);
        co_await c.transfer(d, 0, s, 0, 48_MiB);
        // The direct path is now suspect: the cached template (which
        // carries it) must NOT be replayed.
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(f, ch, link, dst, src),
      "flap");
  f.engine.run();
  EXPECT_TRUE(dst.same_content(src));
  EXPECT_GE(ch.recovery_stats().path_timeouts, 1u);
  EXPECT_GE(ch.graph_stats().health_fallbacks, 1u);
  EXPECT_EQ(ch.graph_stats().compiles, 1u);
}

// ASan coverage for the by-value snapshot semantics: evicting a template
// from the cache while its replay is still executing must be safe — the
// replay frame's shared_ptr keeps the graph (and its staging lease and
// events) alive until the frame completes.
TEST(ChannelGraphs, LruEvictionDuringReplayIsSafe) {
  Fixture f;
  mp::GraphCacheOptions copt;
  copt.capacity = 1;  // any second tuple evicts the first
  mp::GraphCache cache(copt);
  mp::ModelDrivenOptions opts;
  opts.graphs = &cache;
  mp::ModelDrivenChannel ch(f.pipe, f.cfg, mt::PathPolicy::three_gpus(),
                            opts);

  // Warm the 48 MiB template.
  run_series(f, ch, 48_MiB, 1);
  ASSERT_EQ(cache.size(), 1u);

  mg::DeviceBuffer src_a(f.gpus[0], 48_MiB), dst_a(f.gpus[1], 48_MiB);
  mg::DeviceBuffer src_b(f.gpus[0], 32_MiB), dst_b(f.gpus[1], 32_MiB);
  src_a.fill_pattern(35);
  src_b.fill_pattern(36);
  // Task 1 replays the 48 MiB template; task 2 (same instant) compiles a
  // 32 MiB template whose insert evicts the 48 MiB entry mid-replay.
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 48_MiB);
      }(ch, dst_a, src_a),
      "replaying");
  f.engine.spawn(
      [](mg::DataChannel& c, mg::DeviceBuffer& d,
         const mg::DeviceBuffer& s) -> ms::Task<void> {
        co_await c.transfer(d, 0, s, 0, 32_MiB);
      }(ch, dst_b, src_b),
      "evictor");
  f.engine.run();
  EXPECT_TRUE(dst_a.same_content(src_a));
  EXPECT_TRUE(dst_b.same_content(src_b));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GE(ch.graph_stats().replays, 1u);
}
