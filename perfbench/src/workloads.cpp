#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mpath/benchcore/stack.hpp"
#include "mpath/benchcore/traffic.hpp"
#include "mpath/gpusim/channel.hpp"
#include "mpath/mpisim/collectives.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/collective_graph.hpp"
#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/rng.hpp"

namespace perfbench {

namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
namespace mi = mpath::mpisim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kKiB = 1ull << 10;
/// Largest request the Payload::Materialized pass copies (host memory).
constexpr std::uint64_t kMaterializedMax = 16 * kMiB;

std::unique_ptr<Calibration> calibrated(mt::System system, Tracer& tracer) {
  const SpanScope span(tracer, "tuning::calibrate");
  auto registry = mpath::tuning::calibrate(system);
  return std::make_unique<Calibration>(
      Calibration{std::move(system), std::move(registry)});
}

/// Per-stream seed, decorrelated from its neighbours (splitmix64).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double rel_err(double predicted, double simulated) {
  return std::abs(predicted - simulated) / simulated;
}

/// Every counter the benchmark reads from the stack's layers.
Counters stack_counters(bc::SimStack& stack, const mm::PathConfigurator& cfg) {
  Counters c;
  const auto& f = stack.network().stats();
  c["fluid.resolve_requests"] = static_cast<double>(f.resolve_requests);
  c["fluid.coalesced"] = static_cast<double>(f.coalesced);
  c["fluid.resolves"] = static_cast<double>(f.resolves);
  c["fluid.flows_resolved"] = static_cast<double>(f.flows_resolved);
  c["fluid.timers_fired"] = static_cast<double>(f.timers_fired);
  c["fluid.timers_stale"] = static_cast<double>(f.timers_stale);
  c["gpusim.ops"] = static_cast<double>(stack.runtime().ops_issued());
  c["gpusim.bytes_copied"] = static_cast<double>(stack.runtime().bytes_copied());
  const auto& ch = dynamic_cast<mp::ModelDrivenChannel&>(stack.channel());
  const mp::GraphUseStats& g = ch.graph_stats();
  c["graph.compiles"] = static_cast<double>(g.compiles);
  c["graph.replays"] = static_cast<double>(g.replays + g.replays_fresh);
  c["graph.busy_fallbacks"] = static_cast<double>(g.busy_fallbacks);
  c["graph.plan_ns"] = static_cast<double>(g.plan_ns);
  mp::ChainStats cs;
  if (const mp::ChainController* ctl = stack.chain()) cs = ctl->stats();
  c["chain.replayed_steps"] = static_cast<double>(cs.replayed_steps);
  c["chain.passthrough_steps"] = static_cast<double>(cs.passthrough_steps);
  c["chain.kills"] = static_cast<double>(cs.epoch_kills + cs.stale_cal_kills +
                                         cs.mismatch_kills);
  c["chain.bypasses"] = static_cast<double>(cs.bypasses);
  mp::TransferScheduler::Stats ss;
  if (const mp::TransferScheduler* s = stack.scheduler()) ss = s->stats();
  c["sched.admitted"] = static_cast<double>(ss.admitted);
  c["sched.joint_iterations"] = static_cast<double>(ss.joint_iterations);
  c["sched.replay_rejects"] = static_cast<double>(ss.replay_rejects);
  c["sched.footprint_mismatches"] =
      static_cast<double>(ss.footprint_mismatches);
  c["model.cache_hits"] = static_cast<double>(cfg.cache_hits());
  c["model.cache_misses"] = static_cast<double>(cfg.cache_misses());
  const auto& fab = stack.world().fabric();
  c["transport.messages"] = static_cast<double>(fab.messages_sent());
  c["transport.eager"] = static_cast<double>(fab.eager_count());
  c["transport.rendezvous"] = static_cast<double>(fab.rendezvous_count());
  c["transport.wakeups_scheduled"] =
      static_cast<double>(fab.wakeups_scheduled());
  c["transport.wakeups_coalesced"] =
      static_cast<double>(fab.wakeups_coalesced());
  return c;
}

/// Accounting every workload keeps for the transfers it issues.
struct Ledger {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  void add_to(Counters& c) const {
    c["sim.events"] += static_cast<double>(events);
    c["issued"] += static_cast<double>(issued);
    c["completed"] += static_cast<double>(completed);
    c["failed"] += static_cast<double>(failed);
  }
  [[nodiscard]] std::string check() const {
    if (completed + failed != issued) {
      return "transfers unaccounted: issued " + std::to_string(issued) +
             ", completed " + std::to_string(completed) + ", failed " +
             std::to_string(failed);
    }
    return {};
  }
};

/// One materialized transfer: a pattern-filled source and its destination.
struct PayloadPair {
  std::unique_ptr<mg::DeviceBuffer> src;
  std::unique_ptr<mg::DeviceBuffer> dst;
  PayloadPair(mt::DeviceId s, mt::DeviceId d, std::uint64_t bytes,
              std::uint64_t pattern)
      : src(std::make_unique<mg::DeviceBuffer>(s, bytes)),
        dst(std::make_unique<mg::DeviceBuffer>(d, bytes)) {
    src->fill_pattern(pattern);
  }
};

std::string compare_pairs(const std::vector<PayloadPair>& pairs) {
  if (pairs.empty()) return "materialized pass issued no transfer";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!pairs[i].dst->same_content(*pairs[i].src)) {
      return "materialized transfer " + std::to_string(i) +
             ": destination differs from source";
    }
  }
  return {};
}

ms::Task<void> copy_after(ms::Engine& engine, mg::DataChannel& channel,
                          PayloadPair& pair, double at) {
  if (at > engine.now()) co_await engine.delay(at - engine.now());
  co_await channel.transfer(*pair.dst, 0, *pair.src, 0, pair.src->size());
}

// ---------------------------------------------------------------------------
// p2p_churn: closed loop on Beluga. Eight tenants, two per GPU pair, each
// issue kPerRound transfers of {4, 16, 64} MiB per round through one
// ModelDrivenChannel with the graph cache on.
class P2pChurn final : public Workload {
 public:
  explicit P2pChurn(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    cal_ = calibrated(mt::make_beluga(), tracer);
    {
      const SpanScope span(tracer, "stack.build");
      cfg_ = std::make_unique<mm::PathConfigurator>(cal_->registry);
      cache_ = std::make_unique<mp::GraphCache>();
      bc::StackOptions opt;
      opt.seed = seed_;
      opt.staging_buffers_per_device = 64;
      opt.model.graphs = cache_.get();
      stack_ = std::make_unique<bc::SimStack>(
          bc::SimStack::model_driven(cal_->system, *cfg_, policy(), opt));
      const auto gpus = cal_->system.topology.gpus();
      const auto n = gpus.size();
      for (std::size_t w = 0; w < kTenants; ++w) {
        Tenant t{gpus[w % n], gpus[(w + 1) % n], nullptr, nullptr,
                 mpath::util::Rng(mix(seed_, w))};
        t.src_buf = std::make_unique<mg::DeviceBuffer>(t.src, kSizes.back(),
                                                       mg::Payload::Simulated);
        t.dst_buf = std::make_unique<mg::DeviceBuffer>(t.dst, kSizes.back(),
                                                       mg::Payload::Simulated);
        tenants_.push_back(std::move(t));
      }
    }
    const SpanScope span(tracer, "warm-up");
    for (int r = 0; r < kWarmRounds; ++r) (void)iterate(nullptr);
    outstanding_baseline_ = stack_->runtime().events_outstanding();
  }

  IterWork iterate(SimRecord* record) override {
    ms::Engine& engine = stack_->engine();
    const double t0 = engine.now();
    const Ledger before = ledger_;
    for (Tenant& t : tenants_) {
      engine.spawn(tenant_round(t, record), "tenant");
    }
    const std::uint64_t events = engine.run();
    ledger_.events += events;
    const double sim_s = engine.now() - t0;
    if (record != nullptr) record->iter_s.push_back(sim_s);
    const std::uint64_t issued = ledger_.issued - before.issued;
    return {issued, ledger_.failed - before.failed, issued, events, sim_s};
  }

  [[nodiscard]] int reference_iterations() const override { return 128; }
  [[nodiscard]] const char* iteration_call() const override {
    return "Engine::run";
  }

  [[nodiscard]] Counters counters() const override {
    Counters c = stack_counters(*stack_, *cfg_);
    ledger_.add_to(c);
    return c;
  }

  [[nodiscard]] std::string check_quiescent() const override {
    if (std::string why = ledger_.check(); !why.empty()) return why;
    const std::uint64_t out = stack_->runtime().events_outstanding();
    if (out != outstanding_baseline_) {
      return "events_outstanding " + std::to_string(out) +
             " at quiescence, baseline " +
             std::to_string(outstanding_baseline_);
    }
    return {};
  }

  [[nodiscard]] std::string check_payload() const override {
    // Four tenants (one per GPU pair), each sending its first request of at
    // most kMaterializedMax twice: a compile, then a template replay.
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime runtime(cal_->system, engine, net, seed_);
    mp::PipelineEngine pipe(runtime, 8, mg::Payload::Materialized);
    mm::PathConfigurator cfg(cal_->registry);
    mp::GraphCache cache;
    mp::ModelDrivenOptions opt;
    opt.graphs = &cache;
    mp::ModelDrivenChannel channel(pipe, cfg, policy(), opt);
    std::vector<PayloadPair> pairs;
    pairs.reserve(8);
    for (std::size_t w = 0; w < 4; ++w) {
      mpath::util::Rng rng(mix(seed_, w));
      std::uint64_t bytes = 0;
      for (int i = 0; i < 64 && (bytes == 0 || bytes > kMaterializedMax);
           ++i) {
        bytes = draw_size(rng);
      }
      if (bytes > kMaterializedMax) continue;
      for (int rep = 0; rep < 2; ++rep) {
        pairs.emplace_back(tenants_[w].src, tenants_[w].dst, bytes,
                           mix(seed_, 100 + pairs.size()));
      }
    }
    for (std::size_t i = 0; i < pairs.size(); i += 2) {
      engine.spawn(copy_twice(engine, channel, pairs[i], pairs[i + 1]),
                   "payload");
    }
    engine.run();
    if (channel.graph_stats().replays == 0) {
      return "materialized pass never replayed a template";
    }
    return compare_pairs(pairs);
  }

  [[nodiscard]] std::vector<Request> requests() const override {
    return requests_;
  }
  [[nodiscard]] mt::PathPolicy policy() const override {
    return mt::PathPolicy::three_gpus();
  }
  [[nodiscard]] bool uses_config_cache() const override { return true; }

 private:
  static constexpr std::size_t kTenants = 8;
  static constexpr int kPerRound = 4;
  static constexpr int kWarmRounds = 4;
  static constexpr std::array<std::uint64_t, 3> kSizes = {4 * kMiB, 16 * kMiB,
                                                          64 * kMiB};

  struct Tenant {
    mt::DeviceId src;
    mt::DeviceId dst;
    std::unique_ptr<mg::DeviceBuffer> src_buf;
    std::unique_ptr<mg::DeviceBuffer> dst_buf;
    mpath::util::Rng rng;
  };

  static std::uint64_t draw_size(mpath::util::Rng& rng) {
    return kSizes[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  }

  /// The solo model's predicted duration for a request (computed once per
  /// key, outside the channel's cache).
  double predicted(mt::DeviceId src, mt::DeviceId dst, std::uint64_t bytes) {
    const auto key = std::make_tuple(src, dst, bytes);
    auto it = predicted_.find(key);
    if (it == predicted_.end()) {
      const auto paths = mt::enumerate_paths(cal_->system.topology, src, dst,
                                             policy());
      it = predicted_
               .emplace(key,
                        cfg_->compute_config(src, dst, bytes, paths)
                            .predicted_time)
               .first;
    }
    return it->second;
  }

  ms::Task<void> tenant_round(Tenant& t, SimRecord* record) {
    ms::Engine& engine = stack_->engine();
    for (int i = 0; i < kPerRound; ++i) {
      const std::uint64_t bytes = draw_size(t.rng);
      const double t0 = engine.now();
      ++ledger_.issued;
      try {
        co_await stack_->channel().transfer(*t.dst_buf, 0, *t.src_buf, 0,
                                            bytes);
      } catch (const mg::TransferError&) {
        ++ledger_.failed;
        continue;
      }
      ++ledger_.completed;
      if (record != nullptr) {
        const double lat = engine.now() - t0;
        record->latency_s.push_back(lat);
        record->pred_err.push_back(rel_err(predicted(t.src, t.dst, bytes), lat));
        record->payload_bytes += bytes;
        requests_.push_back({t.src, t.dst, bytes});
      }
    }
  }

  static ms::Task<void> copy_twice(ms::Engine& engine, mg::DataChannel& ch,
                                   PayloadPair& first, PayloadPair& second) {
    co_await copy_after(engine, ch, first, 0.0);
    co_await copy_after(engine, ch, second, 0.0);
  }

  std::uint64_t seed_;
  std::unique_ptr<mm::PathConfigurator> cfg_;
  std::unique_ptr<bc::SimStack> stack_;
  // Declared after the stack: templates release their events and staging
  // leases into the stack's runtime, so the cache must go first.
  std::unique_ptr<mp::GraphCache> cache_;
  std::vector<Tenant> tenants_;
  std::map<std::tuple<mt::DeviceId, mt::DeviceId, std::uint64_t>, double>
      predicted_;
  std::vector<Request> requests_;
  Ledger ledger_;
  std::uint64_t outstanding_baseline_ = 0;
};

// ---------------------------------------------------------------------------
// collective_loop: closed loop on Narval, 4 ranks, collective graphs on.
// One iteration is one training step: allreduce-rhd 32 MiB, alltoall-bruck
// 8 MiB and an eager 64 KiB allreduce.
class CollectiveLoop final : public Workload {
 public:
  explicit CollectiveLoop(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    cal_ = calibrated(mt::make_narval(), tracer);
    {
      const SpanScope span(tracer, "stack.build");
      cfg_ = std::make_unique<mm::PathConfigurator>(cal_->registry);
      bc::StackOptions opt;
      opt.seed = seed_;
      opt.nranks = kRanks;
      opt.collective_graphs = true;
      stack_ = std::make_unique<bc::SimStack>(
          bc::SimStack::model_driven(cal_->system, *cfg_, policy(), opt));
      for (int r = 0; r < kRanks; ++r) {
        const mt::DeviceId dev = stack_->world().comm(r).device();
        bufs_.push_back(make_buffers(dev, 1, mg::Payload::Simulated));
      }
    }
    const SpanScope span(tracer, "warm-up");
    for (int i = 0; i < kWarmIterations; ++i) (void)iterate(nullptr);
    outstanding_baseline_ = stack_->runtime().events_outstanding();
  }

  IterWork iterate(SimRecord* record) override {
    ms::Engine& engine = stack_->engine();
    const double t0 = engine.now();
    const auto& fab = stack_->world().fabric();
    const std::uint64_t msgs0 = fab.messages_sent();
    const std::uint64_t bytes0 = fab.bytes_sent();
    ++ledger_.issued;
    std::uint64_t events = 0;
    bool failed = false;
    // World::run is launch + Engine::run; calling the two directly keeps
    // the engine's event count.
    mi::World::RankMain main(
        [this](mi::Communicator& comm) { return rank_step(comm); });
    try {
      const auto ranks = stack_->world().launch(main);
      events = engine.run();
      ++ledger_.completed;
    } catch (const std::exception&) {
      ++ledger_.failed;
      failed = true;
    }
    ledger_.events += events;
    const double sim_s = engine.now() - t0;
    if (record != nullptr) {
      record->iter_s.push_back(sim_s);
      double prev = t0;
      for (std::size_t c = 0; c < kCollectives; ++c) {
        double end = prev;
        for (int r = 0; r < kRanks; ++r) {
          end = std::max(end, ends_[static_cast<std::size_t>(r) * kCollectives + c]);
        }
        record->latency_s.push_back(end - prev);
        prev = end;
      }
      record->payload_bytes += fab.bytes_sent() - bytes0;
    }
    return {1, failed ? 1u : 0u, fab.messages_sent() - msgs0, events, sim_s};
  }

  [[nodiscard]] int reference_iterations() const override { return 100; }
  [[nodiscard]] const char* iteration_call() const override {
    return "World::run";
  }

  [[nodiscard]] Counters counters() const override {
    Counters c = stack_counters(*stack_, *cfg_);
    ledger_.add_to(c);
    return c;
  }

  [[nodiscard]] std::string check_quiescent() const override {
    if (std::string why = ledger_.check(); !why.empty()) return why;
    const std::uint64_t out = stack_->runtime().events_outstanding();
    if (out != outstanding_baseline_) {
      return "events_outstanding " + std::to_string(out) +
             " at quiescence, baseline " +
             std::to_string(outstanding_baseline_);
    }
    return {};
  }

  [[nodiscard]] std::string check_payload() const override {
    // The same step at 1/8 scale (the protocols and the multi-path split
    // still engage), run twice: a capture, then a chained replay.
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime runtime(cal_->system, engine, net, seed_);
    mp::PipelineEngine pipe(runtime, 16, mg::Payload::Materialized);
    mm::PathConfigurator cfg(cal_->registry);
    mp::ModelDrivenChannel channel(pipe, cfg, policy());
    mp::ChainController chain(channel);
    mi::World world(runtime, channel, kRanks);
    world.set_chain_controller(&chain);
    std::vector<Buffers> bufs;
    for (int r = 0; r < kRanks; ++r) {
      bufs.push_back(make_buffers(world.comm(r).device(), 8,
                                  mg::Payload::Materialized));
    }
    for (int it = 0; it < 2; ++it) {
      for (int r = 0; r < kRanks; ++r) fill(bufs[static_cast<std::size_t>(r)], r);
      world.run([&bufs](mi::Communicator& comm) {
        return step(comm, bufs[static_cast<std::size_t>(comm.rank())],
                    nullptr);
      });
      for (int r = 0; r < kRanks; ++r) {
        if (std::string why = verify(bufs, r); !why.empty()) {
          return "iteration " + std::to_string(it) + ": " + why;
        }
      }
    }
    if (chain.stats().replayed_steps == 0) {
      return "materialized pass never replayed a chain step";
    }
    return {};
  }

  [[nodiscard]] std::vector<Request> requests() const override { return {}; }
  [[nodiscard]] mt::PathPolicy policy() const override {
    return mt::PathPolicy::three_gpus();
  }
  [[nodiscard]] bool uses_config_cache() const override { return true; }

 private:
  static constexpr int kRanks = 4;
  static constexpr std::size_t kCollectives = 3;
  static constexpr int kWarmIterations = 2;

  struct Buffers {
    std::unique_ptr<mg::DeviceBuffer> big;    ///< allreduce-rhd
    std::unique_ptr<mg::DeviceBuffer> send;   ///< alltoall-bruck
    std::unique_ptr<mg::DeviceBuffer> recv;
    std::unique_ptr<mg::DeviceBuffer> small;  ///< eager allreduce
  };

  static Buffers make_buffers(mt::DeviceId dev, std::uint64_t divisor,
                              mg::Payload payload) {
    return {std::make_unique<mg::DeviceBuffer>(dev, 32 * kMiB / divisor,
                                               payload),
            std::make_unique<mg::DeviceBuffer>(dev, 8 * kMiB / divisor,
                                               payload),
            std::make_unique<mg::DeviceBuffer>(dev, 8 * kMiB / divisor,
                                               payload),
            std::make_unique<mg::DeviceBuffer>(dev, 64 * kKiB, payload)};
  }

  /// One training step on one rank; `ends` (if set) receives the simulated
  /// instant this rank left each collective.
  static ms::Task<void> step(mi::Communicator& comm, Buffers& b,
                             double* ends) {
    ms::Engine& engine = comm.world().engine();
    co_await mi::allreduce_sum(comm, *b.big,
                               mi::AllreduceAlgo::RecursiveHalvingDoubling);
    if (ends != nullptr) ends[0] = engine.now();
    co_await mi::alltoall(comm, *b.send, *b.recv,
                          b.send->size() / static_cast<std::size_t>(kRanks),
                          mi::AlltoallAlgo::Bruck);
    if (ends != nullptr) ends[1] = engine.now();
    co_await mi::allreduce_sum(comm, *b.small,
                               mi::AllreduceAlgo::RecursiveHalvingDoubling);
    if (ends != nullptr) ends[2] = engine.now();
  }

  ms::Task<void> rank_step(mi::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    return step(comm, bufs_[r], &ends_[r * kCollectives]);
  }

  static std::uint32_t a2a_value(int from, int to, std::size_t i) {
    return static_cast<std::uint32_t>(from * 977 + to * 131) * 65536u +
           static_cast<std::uint32_t>(i & 0xFFFF);
  }
  static float reduce_value(int rank, std::size_t i) {
    return static_cast<float>(rank + 1) * static_cast<float>(i % 5 + 1);
  }

  static void fill(Buffers& b, int rank) {
    for (mg::DeviceBuffer* buf : {b.big.get(), b.small.get()}) {
      auto v = buf->as<float>();
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = reduce_value(rank, i);
    }
    auto send = b.send->as<std::uint32_t>();
    const std::size_t blk = send.size() / kRanks;
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = a2a_value(rank, static_cast<int>(i / blk), i % blk);
    }
    std::fill(b.recv->bytes().begin(), b.recv->bytes().end(), std::byte{0});
  }

  static std::string verify(const std::vector<Buffers>& bufs, int rank) {
    const Buffers& b = bufs[static_cast<std::size_t>(rank)];
    for (const mg::DeviceBuffer* buf : {b.big.get(), b.small.get()}) {
      const auto v = std::as_const(*buf).as<float>();
      for (std::size_t i = 0; i < v.size(); ++i) {
        float want = 0.0f;
        for (int r = 0; r < kRanks; ++r) want += reduce_value(r, i);
        if (v[i] != want) {
          return "rank " + std::to_string(rank) + ": allreduce element " +
                 std::to_string(i) + " is wrong";
        }
      }
    }
    const auto recv = std::as_const(*b.recv).as<std::uint32_t>();
    const std::size_t blk = recv.size() / kRanks;
    for (std::size_t i = 0; i < recv.size(); ++i) {
      if (recv[i] != a2a_value(static_cast<int>(i / blk), rank, i % blk)) {
        return "rank " + std::to_string(rank) + ": alltoall element " +
               std::to_string(i) + " is wrong";
      }
    }
    return {};
  }

  std::uint64_t seed_;
  std::unique_ptr<mm::PathConfigurator> cfg_;
  std::unique_ptr<bc::SimStack> stack_;
  std::vector<Buffers> bufs_;
  std::array<double, kRanks * kCollectives> ends_{};
  Ledger ledger_;
  std::uint64_t outstanding_baseline_ = 0;
};

// ---------------------------------------------------------------------------
// openloop_sched: open loop in simulated time on Narval. Poisson arrivals
// (200 us mean gap) to random GPU pairs, 32 log-spaced sizes, admitted
// through the joint scheduler with host staging and graphs off. A trace of
// kArrivals runs on a fresh stack, cut into segments of kSegment arrivals.
class OpenloopSched final : public Workload {
 public:
  explicit OpenloopSched(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer& tracer) override {
    cal_ = calibrated(mt::make_narval(), tracer);
    {
      const SpanScope span(tracer, "stack.build");
      cfg_ = std::make_unique<mm::PathConfigurator>(cal_->registry);
      arrivals_ = make_trace(cal_->system.topology, seed_);
      start_trace();
    }
    // Warm-up: a short prefix of the trace on a stack of its own (nothing
    // here caches across admissions; this settles allocator pools).
    const SpanScope span(tracer, "warm-up");
    auto warm = make_stack();
    warm->engine().spawn(generate(*warm, std::span(arrivals_).first(kWarm),
                                  nullptr, nullptr),
                         "warm-up");
    warm->engine().run();
  }

  IterWork iterate(SimRecord* record) override {
    if (stack_ == nullptr) start_trace();
    ms::Engine& engine = stack_->engine();
    const double t0 = engine.now();
    const std::uint64_t issued0 = ledger_.issued;
    const std::uint64_t failed0 = ledger_.failed;
    const std::size_t last =
        std::min((segment_ + 1) * kSegment, arrivals_.size()) - 1;
    ++segment_;
    const bool final = last + 1 == arrivals_.size();
    const std::uint64_t events =
        final ? engine.run() : engine.run_until(arrivals_[last].t);
    ledger_.events += events;
    const double sim_s = engine.now() - t0;
    if (record != nullptr) record->iter_s.push_back(sim_s);
    if (final) finish_trace(record);
    const std::uint64_t issued = ledger_.issued - issued0;
    return {issued, ledger_.failed - failed0, issued, events, sim_s};
  }

  [[nodiscard]] int reference_iterations() const override {
    return static_cast<int>((kArrivals + kSegment - 1) / kSegment);
  }

  [[nodiscard]] const char* iteration_call() const override {
    return "Engine::run_until";
  }

  void drain() override {
    if (stack_ == nullptr) return;
    ledger_.events += stack_->engine().run();
    finish_trace(nullptr);
  }

  [[nodiscard]] Counters counters() const override {
    Counters c = retired_;
    if (stack_ != nullptr) {
      for (const auto& [k, v] : stack_counters(*stack_, *cfg_)) c[k] += v;
    }
    ledger_.add_to(c);
    return c;
  }

  [[nodiscard]] std::string check_quiescent() const override {
    if (!violation_.empty()) return violation_;
    return ledger_.check();
  }

  [[nodiscard]] std::string check_payload() const override {
    ms::Engine engine;
    ms::FluidNetwork net(engine);
    mg::GpuRuntime runtime(cal_->system, engine, net, seed_);
    mp::PipelineEngine pipe(runtime, 16, mg::Payload::Materialized);
    mm::PathConfigurator cfg(cal_->registry);
    mp::TransferScheduler sched(pipe, cfg);
    mp::ModelDrivenChannel channel(pipe, sched, cfg, policy());
    std::vector<PayloadPair> pairs;
    pairs.reserve(8);
    std::vector<double> due;
    for (const bc::Arrival& a : arrivals_) {
      if (pairs.size() == 8) break;
      if (a.bytes > kMaterializedMax) continue;
      pairs.emplace_back(a.src, a.dst, a.bytes, mix(seed_, 200 + pairs.size()));
      due.push_back(a.t);
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      engine.spawn(copy_after(engine, channel, pairs[i], due[i]), "payload");
    }
    engine.run();
    return compare_pairs(pairs);
  }

  [[nodiscard]] std::vector<Request> requests() const override {
    std::vector<Request> out;
    out.reserve(arrivals_.size());
    for (const bc::Arrival& a : arrivals_) out.push_back({a.src, a.dst, a.bytes});
    return out;
  }
  [[nodiscard]] mt::PathPolicy policy() const override {
    return mt::PathPolicy::three_gpus_with_host();
  }
  [[nodiscard]] bool uses_config_cache() const override { return false; }

 private:
  static constexpr std::size_t kArrivals = 16000;
  static constexpr double kMeanGapS = 200e-6;
  static constexpr std::size_t kSegment = 16;
  static constexpr std::size_t kWarm = 256;

  /// 32 log-spaced sizes from 512 KiB to 256 MiB, 4 KiB aligned.
  static std::vector<std::uint64_t> sizes() {
    std::vector<std::uint64_t> out;
    for (int k = 0; k < 32; ++k) {
      const double b = std::exp2(19.0 + 9.0 * k / 31.0);
      out.push_back(static_cast<std::uint64_t>(std::llround(b / 4096.0)) *
                    4096);
    }
    return out;
  }

  /// A Poisson process conditioned on kArrivals arrivals in kArrivals
  /// mean gaps (sorted uniform instants), each size exactly kArrivals / 32
  /// times in seeded order, uniformly random pairs. The seed moves the
  /// instants, the order and the pairs but not the offered load: near
  /// saturation a few percent more bytes would move the latency tail more
  /// than any change to the program.
  static std::vector<bc::Arrival> make_trace(const mt::Topology& topo,
                                             std::uint64_t seed) {
    mpath::util::Rng rng(seed);
    const std::vector<mt::DeviceId> gpus = topo.gpus();
    const auto last = static_cast<std::int64_t>(gpus.size()) - 1;
    const std::vector<std::uint64_t> sz = sizes();
    std::vector<double> t(kArrivals);
    for (double& x : t) x = rng.uniform(0.0, kArrivals * kMeanGapS);
    std::sort(t.begin(), t.end());
    std::vector<std::uint64_t> bytes(kArrivals);
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = sz[i % sz.size()];
    std::shuffle(bytes.begin(), bytes.end(), rng.engine());
    std::vector<bc::Arrival> out(kArrivals);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::int64_t src = rng.uniform_int(0, last);
      std::int64_t dst = rng.uniform_int(0, last - 1);
      if (dst >= src) ++dst;
      out[i] = {t[i], gpus[static_cast<std::size_t>(src)],
                gpus[static_cast<std::size_t>(dst)], bytes[i]};
    }
    return out;
  }

  std::unique_ptr<bc::SimStack> make_stack() const {
    bc::StackOptions opt;
    opt.seed = seed_;
    return std::make_unique<bc::SimStack>(bc::SimStack::model_driven_scheduled(
        cal_->system, *cfg_, policy(), {}, opt));
  }

  void start_trace() {
    stack_ = make_stack();
    segment_ = 0;
    latency_.assign(arrivals_.size(), -1.0);
    stack_->engine().spawn(generate(*stack_, arrivals_, &latency_, &ledger_),
                           "generator");
  }

  void finish_trace(SimRecord* record) {
    const auto& sched = *stack_->scheduler();
    if (violation_.empty()) {
      if (sched.live_count() != 0) {
        violation_ = "scheduler holds " + std::to_string(sched.live_count()) +
                     " live tickets at quiescence";
      } else if (sched.stats().footprint_mismatches != 0) {
        violation_ = "footprint_mismatches = " +
                     std::to_string(sched.stats().footprint_mismatches);
      } else if (stack_->runtime().events_outstanding() != 0) {
        violation_ = "events_outstanding " +
                     std::to_string(stack_->runtime().events_outstanding()) +
                     " at quiescence";
      } else if (std::string why = ledger_.check(); !why.empty()) {
        violation_ = why;
      }
    }
    if (record != nullptr) {
      for (std::size_t i = 0; i < latency_.size(); ++i) {
        if (latency_[i] < 0.0) continue;  // failed
        record->latency_s.push_back(latency_[i]);
        record->payload_bytes += arrivals_[i].bytes;
      }
      for (const auto& rec : sched.history()) {
        if (rec.completed() && rec.actual_s() > 0.0) {
          record->pred_err.push_back(rel_err(rec.predicted_s, rec.actual_s()));
        }
      }
    }
    for (const auto& [k, v] : stack_counters(*stack_, *cfg_)) retired_[k] += v;
    stack_.reset();
  }

  /// Spawn each arrival at its due instant; one pending delay at a time.
  static ms::Task<void> generate(bc::SimStack& stack,
                                 std::span<const bc::Arrival> arrivals,
                                 std::vector<double>* latency,
                                 Ledger* ledger) {
    ms::Engine& engine = stack.engine();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const bc::Arrival& a = arrivals[i];
      if (a.t > engine.now()) co_await engine.delay(a.t - engine.now());
      engine.spawn(arrive(stack, a, latency != nullptr ? &(*latency)[i] : nullptr,
                          ledger),
                   "arrival");
    }
  }

  static ms::Task<void> arrive(bc::SimStack& stack, bc::Arrival a,
                               double* latency, Ledger* ledger) {
    mg::DeviceBuffer src(a.src, a.bytes, mg::Payload::Simulated);
    mg::DeviceBuffer dst(a.dst, a.bytes, mg::Payload::Simulated);
    if (ledger != nullptr) ++ledger->issued;
    try {
      co_await stack.channel().transfer(dst, 0, src, 0, a.bytes);
    } catch (const mg::TransferError&) {
      if (ledger != nullptr) ++ledger->failed;
      co_return;
    }
    if (ledger != nullptr) ++ledger->completed;
    // Timed from the instant the arrival was due, not when it was served.
    if (latency != nullptr) *latency = stack.engine().now() - a.t;
  }

  std::uint64_t seed_;
  std::unique_ptr<mm::PathConfigurator> cfg_;
  std::vector<bc::Arrival> arrivals_;
  std::unique_ptr<bc::SimStack> stack_;
  std::size_t segment_ = 0;
  std::vector<double> latency_;
  Counters retired_;
  Ledger ledger_;
  std::string violation_;
};

}  // namespace

Counters operator-(const Counters& a, const Counters& b) {
  Counters out = a;
  for (const auto& [k, v] : b) out[k] -= v;
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "p2p_churn") return std::make_unique<P2pChurn>(seed);
  if (name == "collective_loop") return std::make_unique<CollectiveLoop>(seed);
  if (name == "openloop_sched") return std::make_unique<OpenloopSched>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
