// COLLECTIVE LOOP — collective graph chaining as a gated benchmark (the
// steady-state replay economics the chaining PR claims).
//
// Part 1 (host-cost gate, hard): each of the four chained collectives
// (allreduce-rhd, alltoall-bruck, allgather-ring, bcast-binomial) runs N
// iterations on a fresh model-driven Beluga stack with chaining on. Every
// iteration is one World::run, wall-clocked on the host. Iteration 0 pays
// capture: per-step theta solves + path configuration + template
// compilation at seal. Steady iterations replay the sealed chain — index
// lookup + template replay, zero solves. The bench fails (exit 1) unless
// the mean steady-state iteration costs at most 10% of the capture
// iteration for every collective.
//
// Part 2 (identity gate, hard): the same loops re-run with chaining off on
// an identically seeded stack; the per-iteration simulated completion
// instants must match the chained run bit for bit (the replay fast path
// must be invisible in simulated time).
//
// Part 3 (batched admission gate, hard): a 2-rank *scheduled* stack — whose
// allreduce rounds use directed-disjoint links, so batched admission can
// accept them — replays through TransferScheduler::admit_chain. Requires at
// least one admitted round, at least one chain-registered ticket, and a
// clean departure ledger (footprint_mismatches == 0).
//
// Part 4 (fault soak, MPATH_NIGHTLY_SOAK=1 only): chained replay while a
// seeded FaultInjector degradation plan (sever_probability = 0) churns the
// GPU links. Capacity events supersede the chain's epoch, killing it;
// every iteration must still complete (fallback to fresh admission), and
// once the plan is exhausted re-capture must converge back to replaying.
//
// Writes BENCH_pr10.json (override with --out=PATH or MPATH_BENCH_OUT).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mpath/mpisim/collectives.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/sim/fault.hpp"

namespace mb = mpath::bench;
namespace bc = mpath::benchcore;
namespace mg = mpath::gpusim;
namespace mi = mpath::mpisim;
namespace mm = mpath::model;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

std::string out_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a.rfind("--out=", 0) == 0) return a.substr(6);
  }
  if (const char* env = std::getenv("MPATH_BENCH_OUT")) return env;
  return "BENCH_pr10.json";
}

enum class Coll { AllreduceRhd, AlltoallBruck, AllgatherRing, BcastBinomial };

constexpr const char* coll_name(Coll c) {
  switch (c) {
    case Coll::AllreduceRhd: return "allreduce-rhd";
    case Coll::AlltoallBruck: return "alltoall-bruck";
    case Coll::AllgatherRing: return "allgather-ring";
    case Coll::BcastBinomial: return "bcast-binomial";
  }
  return "?";
}

/// One invocation of `c` at `bytes` per rank (buffers are allocated fresh
/// per iteration in both modes, so allocation cost cancels in the ratio).
ms::Task<void> run_once(mi::Communicator& comm, Coll c, std::size_t bytes) {
  const auto p = static_cast<std::size_t>(comm.size());
  switch (c) {
    case Coll::AllreduceRhd: {
      const std::size_t floats = bytes / sizeof(float) / p * p;
      mg::DeviceBuffer data(comm.device(), floats * sizeof(float),
                            mg::Payload::Simulated);
      co_await mi::allreduce_sum(comm, data,
                                 mi::AllreduceAlgo::RecursiveHalvingDoubling);
      break;
    }
    case Coll::AlltoallBruck: {
      const std::size_t blk = bytes / p;
      mg::DeviceBuffer send(comm.device(), p * blk, mg::Payload::Simulated);
      mg::DeviceBuffer recv(comm.device(), p * blk, mg::Payload::Simulated);
      co_await mi::alltoall(comm, send, recv, blk, mi::AlltoallAlgo::Bruck);
      break;
    }
    case Coll::AllgatherRing: {
      const std::size_t blk = bytes / p;
      mg::DeviceBuffer data(comm.device(), p * blk, mg::Payload::Simulated);
      co_await mi::allgather(comm, data, blk);
      break;
    }
    case Coll::BcastBinomial: {
      mg::DeviceBuffer data(comm.device(), bytes, mg::Payload::Simulated);
      co_await mi::broadcast(comm, data, bytes, 0);
      break;
    }
  }
}

struct LoopRun {
  std::vector<double> wall_s;  ///< host wall-clock per iteration
  std::vector<double> sim_t;   ///< engine clock after each iteration
  /// Cumulative GraphUseStats::plan_ns after each iteration: the host
  /// nanoseconds the channel spent in synchronous planning sections
  /// (configure solves, admissions, template compiles, chain claims) —
  /// simulated device/network time excluded. Per-iteration deltas of this
  /// are the "host-side CPU cost" the steady-state gate compares.
  std::vector<std::uint64_t> plan_ns;
};

/// Per-iteration planning cost from the cumulative snapshots.
double plan_delta_ns(const LoopRun& r, std::size_t i) {
  const std::uint64_t prev = i == 0 ? 0 : r.plan_ns[i - 1];
  return static_cast<double>(r.plan_ns[i] - prev);
}

/// N barrier-free iterations, one World::run each: the wall-clock of a run
/// is exactly that iteration's host cost (planning + simulation), with no
/// cross-iteration attribution smear. The engine clock persists across
/// runs, so sim_t is a cumulative timeline fingerprint.
LoopRun run_loop(bc::SimStack& stack, Coll c, std::size_t bytes, int iters) {
  LoopRun r;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
      co_await run_once(comm, c, bytes);
    });
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    r.sim_t.push_back(stack.engine().now());
    r.plan_ns.push_back(
        static_cast<mp::ModelDrivenChannel&>(stack.channel())
            .graph_stats()
            .plan_ns);
    if (std::getenv("MPATH_LOOP_DEBUG") != nullptr) {
      auto& ch = static_cast<mp::ModelDrivenChannel&>(stack.channel());
      const auto& gs = ch.graph_stats();
      std::printf("    iter %d: now=%.17g replays=%llu fresh=%llu\n", i,
                  stack.engine().now(),
                  static_cast<unsigned long long>(gs.replays),
                  static_cast<unsigned long long>(gs.replays_fresh));
    }
  }
  return r;
}

double mean(const std::vector<double>& v, std::size_t lo, std::size_t hi) {
  if (hi <= lo || hi > v.size()) return 0.0;
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = mb::quick_mode(argc, argv);
  const bool soak = [] {
    const char* env = std::getenv("MPATH_NIGHTLY_SOAK");
    return env != nullptr && std::string(env) == "1";
  }();
  std::printf("COLLECTIVE LOOP: chained-replay steady-state gates\n\n");

  const int iters = quick ? 12 : 40;
  const std::size_t bytes = 32_MiB;
  constexpr double kMaxSteadyFraction = 0.10;
  const std::vector<Coll> colls = {Coll::AllreduceRhd, Coll::AlltoallBruck,
                                   Coll::AllgatherRing, Coll::BcastBinomial};
  bool gate_failed = false;
  std::ostringstream json;
  json.precision(6);
  json << "{\n  \"host_cost\": {\n";

  // -- Parts 1 + 2: host-cost ratio and timeline identity per collective --
  mb::CalibratedSystem cal(mt::make_system("beluga"));
  bool identity_ok = true;
  for (std::size_t ci = 0; ci < colls.size(); ++ci) {
    const Coll c = colls[ci];

    mm::PathConfigurator cfg_on(cal.registry);
    bc::StackOptions opt_on;
    opt_on.collective_graphs = true;
    auto on = bc::SimStack::model_driven(cal.system, cfg_on,
                                         mt::PathPolicy::three_gpus(), opt_on);
    const LoopRun chained = run_loop(on, c, bytes, iters);
    const mp::ChainStats st = on.chain()->stats();

    mm::PathConfigurator cfg_off(cal.registry);
    bc::StackOptions opt_off;
    auto off = bc::SimStack::model_driven(cal.system, cfg_off,
                                          mt::PathPolicy::three_gpus(),
                                          opt_off);
    const LoopRun fresh = run_loop(off, c, bytes, iters);

    // Host planning cost, not whole-iteration wall-clock: simulating the
    // transfers costs the same host time captured or chained (the event
    // timeline is bit-identical, gated below), so the wall ratio only
    // measures how much of an iteration the simulator spends on physics.
    // What chaining amortises is the planning layer — solves, compiles,
    // admissions — and that is what plan_ns isolates.
    const double capture = plan_delta_ns(chained, 0);
    double steady = 0.0;
    for (std::size_t i = 2; i < chained.plan_ns.size(); ++i) {
      steady += plan_delta_ns(chained, i);
    }
    steady /= static_cast<double>(chained.plan_ns.size() - 2);
    const double ratio = steady / capture;
    const double capture_wall = chained.wall_s[0];
    const double steady_wall = mean(chained.wall_s, 2, chained.wall_s.size());
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < chained.sim_t.size(); ++i) {
      if (chained.sim_t[i] != fresh.sim_t[i]) ++diverged;
    }
    const bool chained_ok = st.captures >= 1 && st.replayed_steps > 0 &&
                            st.mismatch_kills == 0 && st.capture_aborts == 0;
    const bool ratio_ok = ratio <= kMaxSteadyFraction;
    std::printf(
        "%-15s plan: capture %8.1f us, steady %7.2f us (ratio %.4f)  "
        "wall %.2f/%.2f ms  replayed %llu, passthrough %llu%s\n",
        coll_name(c), 1e-3 * capture, 1e-3 * steady, ratio,
        1e3 * capture_wall, 1e3 * steady_wall,
        static_cast<unsigned long long>(st.replayed_steps),
        static_cast<unsigned long long>(st.passthrough_steps),
        diverged == 0 ? "" : "  [TIMELINE DIVERGED]");
    if (!ratio_ok) {
      std::printf("::error::%s: steady-state planning cost is %.1f%% of the "
                  "capture iteration's (gate: <= %.0f%%)\n",
                  coll_name(c), 100.0 * ratio, 100.0 * kMaxSteadyFraction);
      gate_failed = true;
    }
    if (!chained_ok) {
      std::printf("::error::%s: chaining did not engage cleanly "
                  "(captures %llu, replayed %llu, mismatch kills %llu, "
                  "aborts %llu)\n",
                  coll_name(c), static_cast<unsigned long long>(st.captures),
                  static_cast<unsigned long long>(st.replayed_steps),
                  static_cast<unsigned long long>(st.mismatch_kills),
                  static_cast<unsigned long long>(st.capture_aborts));
      gate_failed = true;
    }
    if (diverged != 0) {
      std::printf("::error::%s: %zu of %d chained iterations diverged from "
                  "the uncaptured timeline\n",
                  coll_name(c), diverged, iters);
      identity_ok = false;
      gate_failed = true;
    }
    json << "    \"" << coll_name(c)
         << "\": {\"capture_plan_ns\": " << capture
         << ", \"steady_plan_ns\": " << steady << ", \"ratio\": " << ratio
         << ", \"capture_wall_s\": " << capture_wall
         << ", \"steady_wall_s\": " << steady_wall
         << ", \"iterations\": " << iters
         << ", \"replayed_steps\": " << st.replayed_steps
         << ", \"passthrough_steps\": " << st.passthrough_steps
         << ", \"timeline_identical\": " << (diverged == 0 ? "true" : "false")
         << ", \"passed\": "
         << (ratio_ok && chained_ok && diverged == 0 ? "true" : "false")
         << "}" << (ci + 1 < colls.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"max_steady_fraction\": " << kMaxSteadyFraction << ",\n"
       << "  \"timeline_identical\": " << (identity_ok ? "true" : "false")
       << ",\n";

  // -- Part 3: batched admission on a scheduled 2-rank stack --------------
  {
    mm::PathConfigurator cfg(cal.registry);
    bc::StackOptions opt;
    opt.collective_graphs = true;
    opt.nranks = 2;
    auto stack = bc::SimStack::model_driven_scheduled(
        cal.system, cfg, mt::PathPolicy::two_gpus(), {}, opt);
    const int sched_iters = quick ? 8 : 16;
    (void)run_loop(stack, Coll::AllreduceRhd, bytes, sched_iters);
    const auto& ss = stack.scheduler()->stats();
    const mp::ChainStats cs = stack.chain()->stats();
    const bool admitted = ss.chain_round_admits >= 1 &&
                          ss.chain_step_admits >= 1 && cs.replayed_steps > 0;
    const bool ledger_ok = ss.footprint_mismatches == 0;
    std::printf(
        "\nscheduled p=2: %llu rounds admitted (%llu tickets), %llu refused, "
        "%llu contended fallbacks, %llu unwound, footprint mismatches %llu\n",
        static_cast<unsigned long long>(ss.chain_round_admits),
        static_cast<unsigned long long>(ss.chain_step_admits),
        static_cast<unsigned long long>(ss.chain_round_rejects),
        static_cast<unsigned long long>(cs.contended_rounds),
        static_cast<unsigned long long>(ss.chain_unwound),
        static_cast<unsigned long long>(ss.footprint_mismatches));
    if (!admitted) {
      std::printf("::error::scheduled: batched admission never accepted a "
                  "round — admit_chain is not engaging\n");
      gate_failed = true;
    }
    if (!ledger_ok) {
      std::printf("::error::scheduled: %llu footprint mismatches — chain "
                  "tickets and fresh admissions disagree on link charges\n",
                  static_cast<unsigned long long>(ss.footprint_mismatches));
      gate_failed = true;
    }
    json << "  \"scheduled\": {\"chain_round_admits\": "
         << ss.chain_round_admits
         << ", \"chain_step_admits\": " << ss.chain_step_admits
         << ", \"chain_round_rejects\": " << ss.chain_round_rejects
         << ", \"contended_rounds\": " << cs.contended_rounds
         << ", \"chain_unwound\": " << ss.chain_unwound
         << ", \"footprint_mismatches\": " << ss.footprint_mismatches
         << ", \"passed\": " << (admitted && ledger_ok ? "true" : "false")
         << "},\n";
  }

  // -- Part 4: degradation soak (nightly) ---------------------------------
  if (soak) {
    mm::PathConfigurator cfg(cal.registry);
    bc::StackOptions opt;
    opt.collective_graphs = true;
    opt.nranks = 2;
    auto stack = bc::SimStack::model_driven_scheduled(
        cal.system, cfg, mt::PathPolicy::two_gpus(), {}, opt);
    const auto& topo = stack.system().topology;
    std::vector<ms::LinkId> links;
    for (const auto& e : topo.edges()) {
      if (topo.device(e.from).kind == mt::DeviceKind::Gpu &&
          topo.device(e.to).kind == mt::DeviceKind::Gpu &&
          !e.is_memory_channel) {
        links.push_back(stack.runtime().binding().link_for_edge(e.id));
      }
    }
    ms::FaultInjector inj(stack.engine(), stack.network());
    ms::FaultInjector::RandomPlanOptions fopt;
    fopt.horizon = 40e-3;
    fopt.faults = quick ? 8 : 16;
    fopt.sever_probability = 0.0;  // degrade only: every transfer completes
    fopt.min_duration = 1e-3;
    fopt.max_duration = 5e-3;
    inj.random_plan(links, fopt, 83);
    const int churn_iters = quick ? 24 : 64;
    // World::run drains the engine, so the first run would fast-forward
    // through the whole fault plan; instead the churn loop runs inside one
    // engine drain with barrier-separated iterations.
    int completed = 0;
    stack.world().run([&](mi::Communicator& comm) -> ms::Task<void> {
      for (int i = 0; i < churn_iters; ++i) {
        co_await comm.barrier();
        co_await run_once(comm, Coll::AllreduceRhd, bytes);
        co_await comm.barrier();
        if (comm.rank() == 0) ++completed;
      }
    });
    const std::uint64_t replayed_mid = stack.chain()->stats().replayed_steps;
    // The plan is exhausted (the churn loop's sim extent far outruns the
    // horizon); a few more iterations must land back on the replay path.
    (void)run_loop(stack, Coll::AllreduceRhd, bytes, 4);
    const mp::ChainStats cs = stack.chain()->stats();
    const auto& ss = stack.scheduler()->stats();
    const bool accounted = completed == churn_iters;
    const bool invalidated = cs.epoch_kills + cs.contended_rounds > 0;
    const bool converged = cs.replayed_steps > replayed_mid;
    std::printf(
        "\nsoak: %d/%d iterations, %llu captures, %llu epoch kills, "
        "%llu contended fallbacks, %llu unwound, %llu replayed steps, "
        "footprint mismatches %llu — %s\n",
        completed, churn_iters, static_cast<unsigned long long>(cs.captures),
        static_cast<unsigned long long>(cs.epoch_kills),
        static_cast<unsigned long long>(cs.contended_rounds),
        static_cast<unsigned long long>(cs.unwound_tickets),
        static_cast<unsigned long long>(cs.replayed_steps),
        static_cast<unsigned long long>(ss.footprint_mismatches),
        accounted ? "all accounted" : "LOST ITERATIONS");
    const bool soak_ok = accounted && invalidated && converged &&
                         ss.footprint_mismatches == 0;
    if (!soak_ok) {
      std::printf("::error::soak gate: accounted=%d invalidated=%d "
                  "reconverged=%d ledger_ok=%d\n",
                  accounted ? 1 : 0, invalidated ? 1 : 0, converged ? 1 : 0,
                  ss.footprint_mismatches == 0 ? 1 : 0);
      gate_failed = true;
    }
    json << "  \"soak\": {\"iterations\": " << churn_iters
         << ", \"completed\": " << completed
         << ", \"captures\": " << cs.captures
         << ", \"epoch_kills\": " << cs.epoch_kills
         << ", \"contended_rounds\": " << cs.contended_rounds
         << ", \"unwound_tickets\": " << cs.unwound_tickets
         << ", \"footprint_mismatches\": " << ss.footprint_mismatches
         << ", \"reconverged\": " << (converged ? "true" : "false")
         << ", \"passed\": " << (soak_ok ? "true" : "false") << "},\n";
  } else {
    json << "  \"soak\": null,\n";
  }

  json << "  \"gate_passed\": " << (gate_failed ? "false" : "true") << "\n}\n";
  const std::string path = out_path(argc, argv);
  mpath::util::write_file_atomic(path, json.str());
  std::printf("\nwrote %s\n", path.c_str());
  if (gate_failed) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("gate passed: steady-state chained replay <= %.0f%% of capture "
              "cost; timelines bit-identical; batched admission clean\n",
              100.0 * kMaxSteadyFraction);
  return 0;
}
