// mpath_perfbench: the end-to-end and per-layer benchmark of mpath.
//
//   mpath_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>]
//
// Sets the workload up kSetups times (set-up time is their median), runs
// iterations on the first stack for --seconds of wall time, then repeats
// the deterministic reference portion on the second stack and requires
// identical simulated outputs and counts. With --trace 1 every other
// iteration after the reference portion records a span (the untraced ones
// in between give the tracing overhead), a probe pass times the
// model layer on the workload's recorded requests, and the per-layer
// metrics are printed instead of the end-to-end ones.
//
// Host time is thread CPU time, rescaled to a nominal machine speed: a
// fixed reference kernel runs after every iteration (and around every
// set-up), and each host time is multiplied by kNominalReferenceS over the
// kernel's median time nearby. The shared host this runs on changes speed
// by tens of percent within seconds; the rescaled figures do not.
//
// Output: diagnostics on stderr; on stdout a "counts" line with the
// deterministic per-layer counts and the unscaled host times, then the
// result JSON as the last line. Exits 1 (after printing the result with
// "correct": false) when a correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpath/model/configurator.hpp"
#include "mpath/util/stats.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using mpath::util::mean;
using mpath::util::median;
using mpath::util::percentile;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Set-ups per run; the first two stacks are kept (measured, twin).
constexpr int kSetups = 7;

Args parse(int argc, char** argv) {
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Median time of `n` reference-kernel runs, seconds.
double reference_now(int n) {
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(reference_kernel_s());
  return median(xs);
}

/// One timed iteration.
struct Sample {
  HostTime host;
  double scaled_s = 0.0;  ///< CPU time at nominal speed
  IterWork work;
  bool traced = false;
};

/// Rescale each sample's CPU time by the median reference time of the 33
/// iterations around it.
void rescale(std::vector<Sample>& xs, const std::vector<double>& refs) {
  constexpr std::size_t kHalf = 16;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i > kHalf ? i - kHalf : 0;
    const std::size_t hi = std::min(refs.size(), i + kHalf + 1);
    const double speed = median(std::vector<double>(
        refs.begin() + static_cast<std::ptrdiff_t>(lo),
        refs.begin() + static_cast<std::ptrdiff_t>(hi)));
    xs[i].scaled_s = xs[i].host.cpu * kNominalReferenceS / speed;
  }
}

/// Host time of each iteration in microseconds (scaled or raw CPU).
std::vector<double> iter_us(const std::vector<Sample>& xs, bool traced,
                            bool scaled = true) {
  std::vector<double> out;
  for (const Sample& x : xs) {
    if (x.traced == traced) {
      out.push_back(1e6 * (scaled ? x.scaled_s : x.host.cpu));
    }
  }
  return out;
}

/// Median over the untraced iterations of work done per scaled host
/// second: a slow stretch moves a few iterations, not the whole figure.
template <typename Work>
double median_rate(const std::vector<Sample>& xs, Work work) {
  std::vector<double> rates;
  for (const Sample& x : xs) {
    if (!x.traced) rates.push_back(work(x.work) / x.scaled_s);
  }
  return median(rates);
}

/// Per-layer counts of the reference portion: deterministic for a seed.
Metrics layer_counts(const Counters& d, const SimRecord& rec, double iters) {
  const auto at = [&d](const char* k) {
    const auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const double transfers = at("transfers");
  Metrics m;
  m["sim.events_per_transfer"] = {ratio(at("sim.events"), transfers), "count"};
  m["sim.resolves_per_transfer"] = {ratio(at("fluid.resolves"), transfers),
                                    "count"};
  m["sim.coalesced_ratio"] = {
      ratio(at("fluid.coalesced"), at("fluid.resolve_requests")), "ratio"};
  m["sim.flows_per_resolve"] = {
      ratio(at("fluid.flows_resolved"), at("fluid.resolves")), "count"};
  m["sim.stale_timer_ratio"] = {
      ratio(at("fluid.timers_stale"),
            at("fluid.timers_fired") + at("fluid.timers_stale")),
      "ratio"};
  m["gpusim.ops_per_transfer"] = {ratio(at("gpusim.ops"), transfers), "count"};
  m["gpusim.copy_amplification"] = {
      ratio(at("gpusim.bytes_copied"), static_cast<double>(rec.payload_bytes)),
      "ratio"};
  m["pipeline.graph.replays_per_transfer"] = {
      ratio(at("graph.replays"), transfers), "count"};
  m["pipeline.graph.compiles_per_transfer"] = {
      ratio(at("graph.compiles"), transfers), "count"};
  m["pipeline.graph.busy_fallbacks_per_transfer"] = {
      ratio(at("graph.busy_fallbacks"), transfers), "count"};
  m["pipeline.chain.replayed_steps_per_iter"] = {
      ratio(at("chain.replayed_steps"), iters), "count"};
  m["pipeline.chain.passthrough_steps_per_iter"] = {
      ratio(at("chain.passthrough_steps"), iters), "count"};
  m["pipeline.chain.kills"] = {at("chain.kills"), "count"};
  m["pipeline.sched.joint_iterations_per_admit"] = {
      ratio(at("sched.joint_iterations"), at("sched.admitted")), "count"};
  m["pipeline.sched.replay_rejects"] = {at("sched.replay_rejects"), "count"};
  m["model.cache_hit_ratio"] = {
      ratio(at("model.cache_hits"),
            at("model.cache_hits") + at("model.cache_misses")),
      "ratio"};
  m["model.pred_err_mean"] = {mean(rec.pred_err), "ratio"};
  m["transport.eager_per_iter"] = {ratio(at("transport.eager"), iters),
                                   "count"};
  m["transport.rendezvous_per_iter"] = {
      ratio(at("transport.rendezvous"), iters), "count"};
  m["transport.wakeup_coalesced_ratio"] = {
      ratio(at("transport.wakeups_coalesced"),
            at("transport.wakeups_scheduled") +
                at("transport.wakeups_coalesced")),
      "ratio"};
  return m;
}

/// Model-layer probe: re-issue the workload's recorded requests to the
/// configurator's public functions, the way its channel reaches them.
/// Returns CPU nanoseconds per call at nominal speed.
Metrics probe_model(const Workload& wl, Tracer& tracer) {
  const std::vector<Request> reqs = wl.requests();
  Metrics m;
  m["model.configure_ns"] = {0.0, "ns"};
  m["model.prepare_ns"] = {0.0, "ns"};
  if (reqs.empty()) return m;
  const auto& topo = wl.calibration().system.topology;
  std::map<std::pair<mpath::topo::DeviceId, mpath::topo::DeviceId>,
           std::vector<mpath::topo::PathPlan>>
      paths;
  for (const Request& r : reqs) {
    auto& p = paths[{r.src, r.dst}];
    if (p.empty()) {
      p = mpath::topo::enumerate_paths(topo, r.src, r.dst, wl.policy());
    }
  }
  mpath::model::PathConfigurator cfg(wl.calibration().registry);
  const auto time_calls = [&](const char* name, auto&& call) {
    const double speed = reference_now(9);
    const SpanScope span(tracer, name);
    const HostTime t0 = host_now();
    double sink = 0.0;
    for (const Request& r : reqs) sink += call(r, paths.at({r.src, r.dst}));
    const HostTime dt = host_now() - t0;
    if (!(sink > 0.0)) {
      throw std::logic_error(std::string(name) + " did no work");
    }
    return 1e9 * dt.cpu * kNominalReferenceS / speed /
           static_cast<double>(reqs.size());
  };
  m["model.configure_ns"].value = time_calls(
      "probe:PathConfigurator::configure",
      [&](const Request& r, const auto& p) {
        return wl.uses_config_cache()
                   ? cfg.configure(r.src, r.dst, r.bytes, p).predicted_time
                   : cfg.compute_config(r.src, r.dst, r.bytes, p)
                         .predicted_time;
      });
  m["model.prepare_ns"].value = time_calls(
      "probe:PathConfigurator::prepare", [&](const Request& r, const auto& p) {
        return static_cast<double>(
            cfg.prepare(r.src, r.dst, r.bytes, p).terms.size());
      });
  return m;
}

std::string counts_json(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
  }
  return out + "}";
}

int run(const Args& args) {
  Tracer tracer(args.trace);
  std::vector<std::unique_ptr<Workload>> stacks;
  std::vector<double> setup_s;      // scaled
  std::vector<double> setup_speed;  // reference seconds around each set-up
  for (int i = 0; i < kSetups; ++i) {
    auto wl = make_workload(args.workload, args.seed);
    const double before = reference_now(5);
    HostTime dt;
    {
      const SpanScope span(tracer, "setup");
      const HostTime t0 = host_now();
      wl->setup(tracer);
      dt = host_now() - t0;
    }
    const double speed = 0.5 * (before + reference_now(5));
    setup_s.push_back(dt.cpu * kNominalReferenceS / speed);
    setup_speed.push_back(speed);
    if (stacks.size() < 2) stacks.push_back(std::move(wl));
  }
  Workload& wl = *stacks[0];
  Workload& twin = *stacks[1];
  std::vector<std::string> violations;
  const auto check = [&violations](const std::string& what, std::string why) {
    if (!why.empty()) violations.push_back(what + ": " + why);
  };

  // Timed loop. The first reference_iterations() also form the reference
  // portion whatever the time budget; with tracing, every other iteration
  // after them records a span.
  const int ref = wl.reference_iterations();
  SimRecord rec;
  Counters ref_counts;
  std::vector<Sample> samples;
  std::vector<double> speed;  // reference seconds after each iteration
  double rss = 0.0;           // peak RSS after the reference portion
  const Counters c0 = wl.counters();
  tracer.set_enabled(false);
  const HostTime start = host_now();
  for (int it = 0;; ++it) {
    const double elapsed = (host_now() - start).wall;
    if (it >= ref && elapsed >= args.seconds) break;
    Sample s;
    s.traced = args.trace && it >= ref && it % 2 == 1;
    tracer.set_enabled(s.traced);
    {
      const SpanScope span(tracer, wl.iteration_call());
      const HostTime t0 = host_now();
      s.work = wl.iterate(it < ref ? &rec : nullptr);
      s.host = host_now() - t0;
    }
    samples.push_back(s);
    speed.push_back(reference_kernel_s());
    if (it + 1 == ref) {
      ref_counts = wl.counters() - c0;
      check("reference", wl.check_quiescent());
      rss = peak_rss_mb();
    }
  }
  const double wall_s = (host_now() - start).wall;
  const Counters loop_counts = wl.counters() - c0;
  wl.drain();
  check("timed loop", wl.check_quiescent());
  const double rss_growth_kib = ratio(1024.0 * (peak_rss_mb() - rss),
                                     static_cast<double>(samples.size()) - ref);
  rescale(samples, speed);
  const double run_speed = median(speed);

  // Determinism: the same seed on another stack gives the same simulated
  // outputs and counts.
  SimRecord twin_rec;
  const Counters t0 = twin.counters();
  for (int it = 0; it < ref; ++it) (void)twin.iterate(&twin_rec);
  Counters twin_counts = twin.counters() - t0;
  check("twin", twin.check_quiescent());
  ref_counts.erase("graph.plan_ns");  // host time, not a count
  twin_counts.erase("graph.plan_ns");
  if (!(rec == twin_rec) || ref_counts != twin_counts) {
    violations.push_back(
        "determinism: a second stack with the same seed gave different "
        "simulated outputs or counts");
  }
  check("payload", wl.check_payload());

  // Summaries.
  std::uint64_t attempted = 0, failed = 0, transfers = 0;
  for (const Sample& s : samples) {
    attempted += s.work.attempted;
    failed += s.work.failed;
    transfers += s.work.transfers;
  }
  for (int it = 0; it < ref; ++it) {
    ref_counts["transfers"] += static_cast<double>(
        samples[static_cast<std::size_t>(it)].work.transfers);
  }
  std::vector<double> lat_us;
  for (double x : rec.latency_s) lat_us.push_back(1e6 * x);
  double rec_sim_s = 0.0;
  for (double x : rec.iter_s) rec_sim_s += x;
  const std::vector<double> untraced_us = iter_us(samples, false);

  Metrics metrics;
  if (!args.trace) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["host_transfers_per_s"] = {
        median_rate(samples,
                    [](const IterWork& w) {
                      return static_cast<double>(w.transfers);
                    }),
        "1/s"};
    metrics["host_iter_us_p50"] = {percentile(untraced_us, 50), "us"};
    // p90, not p99: on a shared host the p99 of iteration time moved by
    // up to 20% between runs even after rescaling.
    metrics["host_iter_us_p90"] = {percentile(untraced_us, 90), "us"};
    metrics["sim_s_per_host_s"] = {
        median_rate(samples, [](const IterWork& w) { return w.sim_s; }),
        "s/s"};
    metrics["sim_latency_us_p50"] = {percentile(lat_us, 50), "us"};
    metrics["sim_latency_us_p99"] = {percentile(lat_us, 99), "us"};
    metrics["sim_iter_us"] = {1e6 * mean(rec.iter_s), "us"};
    metrics["sim_bw_gbps"] = {
        1e-9 * static_cast<double>(rec.payload_bytes) / rec_sim_s, "GB/s"};
    metrics["peak_rss_mb"] = {rss, "MiB"};
  } else {
    metrics = layer_counts(ref_counts, rec, ref);
    for (auto& [k, v] : probe_model(wl, tracer)) metrics[k] = v;
    // Engine host time per event over the traced iterations (it includes
    // the channel's planning, reported on its own below).
    std::vector<double> ns_per_event;
    for (const Sample& s : samples) {
      if (s.traced && s.work.events > 0) {
        ns_per_event.push_back(1e9 * s.scaled_s /
                               static_cast<double>(s.work.events));
      }
    }
    metrics["sim.host_ns_per_event"] = {median(ns_per_event), "ns"};
    metrics["pipeline.plan_ns_per_transfer"] = {
        ratio(loop_counts.at("graph.plan_ns") * kNominalReferenceS / run_speed,
              static_cast<double>(transfers)),
        "ns"};
    metrics["tuning.calibrate_s"] = {
        median(tracer.durations("tuning::calibrate")) * kNominalReferenceS /
            median(setup_speed),
        "s"};
    metrics["host.rss_growth_kib_per_iter"] = {rss_growth_kib, "KiB"};
    metrics["trace.overhead_us_per_iter"] = {
        median(iter_us(samples, true)) - median(untraced_us), "us"};
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << tracer.chrome_json();
      if (!out) violations.push_back("cannot write " + args.trace_out);
    }
  }
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) violations.push_back(name + " is not finite");
  }

  std::fprintf(stderr,
               "%s seed %llu: %zu iterations (%d reference), %llu transfers "
               "in %.3f s wall; reference kernel median %.1f us\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), samples.size(), ref,
               static_cast<unsigned long long>(transfers), wall_s,
               1e6 * run_speed);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "CHECK FAILED %s\n", v.c_str());
  }
  Metrics counts = layer_counts(ref_counts, rec, ref);
  counts["sim_latency_us_p50"] = {percentile(lat_us, 50), "us"};
  counts["sim_latency_us_p99"] = {percentile(lat_us, 99), "us"};
  counts["sim_iter_us"] = {1e6 * mean(rec.iter_s), "us"};
  counts["raw.host_iter_us_p50"] = {
      percentile(iter_us(samples, false, false), 50), "us"};
  counts["raw.reference_us"] = {1e6 * run_speed, "us"};
  std::printf("counts %s\n", counts_json(counts).c_str());
  std::printf("%s\n",
              result_json(violations.empty(), attempted, failed, metrics)
                  .c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpath_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpath_perfbench: %s\n", e.what());
    return 1;
  }
}
