// The benchmark's three workloads. Each one owns a calibrated SimStack and
// runs a seeded, fixed amount of simulated work per iteration; one
// iteration is one Engine::run / World::run call (an open-loop trace is cut
// into Engine::run_until segments). The inputs depend only on the seed, so
// the simulated outputs of the first reference_iterations() repeat exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpath/model/registry.hpp"
#include "mpath/topo/paths.hpp"
#include "mpath/topo/system.hpp"
#include "report.hpp"

namespace perfbench {

/// A system and its measured model parameters (Fig. 2a Steps 1-2).
struct Calibration {
  mpath::topo::System system;
  mpath::model::ModelRegistry registry;
};

/// One point-to-point request the workload issued.
struct Request {
  mpath::topo::DeviceId src = 0;
  mpath::topo::DeviceId dst = 0;
  std::uint64_t bytes = 0;
};

/// Simulated outputs of the reference iterations, compared exactly between
/// two stacks built from the same seed.
struct SimRecord {
  std::vector<double> latency_s;  ///< per transfer (per collective call)
  std::vector<double> iter_s;     ///< simulated time per iteration
  std::vector<double> pred_err;   ///< |predicted - simulated| / simulated
  std::uint64_t payload_bytes = 0;
  bool operator==(const SimRecord&) const = default;
};

/// Work done by one iteration.
struct IterWork {
  std::uint64_t attempted = 0;  ///< transfers issued (iterations run)
  std::uint64_t failed = 0;     ///< ended in gpusim::TransferError
  std::uint64_t transfers = 0;  ///< point-to-point transfers issued
  std::uint64_t events = 0;     ///< engine events processed
  double sim_s = 0.0;           ///< simulated time advanced
};

/// Cumulative counters read from every layer's public stats.
using Counters = std::map<std::string, double>;
[[nodiscard]] Counters operator-(const Counters& a, const Counters& b);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Calibrate, build the stack and warm it until the caches are filled
  /// and the chains captured. Spans go to `tracer`.
  virtual void setup(Tracer& tracer) = 0;
  /// Run one iteration; with `record` set, append its simulated outputs.
  virtual IterWork iterate(SimRecord* record) = 0;
  /// The public call one iteration makes (the name of its span).
  [[nodiscard]] virtual const char* iteration_call() const = 0;
  /// Run to quiescence (an open-loop trace cut short by the time budget).
  virtual void drain() {}
  /// Iterations that make up the deterministic reference portion.
  [[nodiscard]] virtual int reference_iterations() const = 0;
  /// Counters as of now, including stacks the workload has retired.
  [[nodiscard]] virtual Counters counters() const = 0;
  /// Invariants at quiescence; an empty string when they hold.
  [[nodiscard]] virtual std::string check_quiescent() const = 0;
  /// A short Payload::Materialized pass over the workload's first
  /// requests; an empty string when every destination matches its source.
  [[nodiscard]] virtual std::string check_payload() const = 0;
  /// Requests of the reference portion and their candidate-path policy,
  /// for the probe pass (empty when the transport picks them).
  [[nodiscard]] virtual std::vector<Request> requests() const = 0;
  [[nodiscard]] virtual mpath::topo::PathPolicy policy() const = 0;
  /// Whether the channel consults the configuration cache (configure)
  /// rather than solving afresh on every admission (compute_config).
  [[nodiscard]] virtual bool uses_config_cache() const = 0;
  [[nodiscard]] const Calibration& calibration() const { return *cal_; }

 protected:
  std::unique_ptr<Calibration> cal_;
};

/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
