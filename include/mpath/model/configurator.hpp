// Algorithm 1 of the paper: populate_path_config.
//
// Given (src, dst, message size, candidate paths), compute the optimal
// multi-path configuration — per-path byte shares and chunk counts — from
// the fitted model parameters. The configurator is a pure solver: the
// "look up config" step of Algorithm 1 is the plan cache
// (pipeline::GraphCache), whose cached entry is the compiled template, so
// without one every call solves theta.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpath/model/calibration_store.hpp"
#include "mpath/model/chunking.hpp"
#include "mpath/model/registry.hpp"
#include "mpath/model/theta.hpp"

namespace mpath::model {

struct ConfiguratorOptions {
  /// Model pipelined staged transfers (Section 3.4). When false, staged
  /// paths are modeled as two sequential transfers (Section 3.3) and always
  /// use one chunk.
  bool pipelining = true;
  /// How chunk counts are derived for staged paths.
  ChunkMode chunk_mode = ChunkMode::LinearPhi;
  int max_chunks = 64;
  /// Accumulate host-side issue latency of earlier paths into Delta of
  /// later paths (Algorithm 1, line 18).
  bool sequential_initiation = true;
  /// The paper's topology constants have the form c*f(n). When true
  /// (default), phi is refit at each request's message size — the tangent
  /// construction phi(n) = 1/sqrt(X(theta_hint, n)), which keeps Eq. 19
  /// exact at the operating point while remaining linear in theta. When
  /// false, one global phi is least-squares fit over
  /// [phi_fit_n_min, phi_fit_n_max] (ablation: substantially less accurate).
  bool phi_per_message = true;
  /// Operating range used to fit global phi constants (Eq. 19) when
  /// phi_per_message is false.
  double phi_fit_n_min = 2.0 * (1 << 20);
  double phi_fit_n_max = 512.0 * (1 << 20);
  /// Contention factors are measured in the large-message regime; below
  /// this size the per-hop composition is more faithful, so factors are
  /// ignored.
  std::uint64_t omega_override_min_bytes = 16u << 20;
};

/// The model-side half of Algorithm 1 (lines 7-21): per-path link
/// parameters, topology constants, and fully adjusted (Omega, Delta) terms
/// for one transfer request, before any theta solve. Exposed so the joint
/// scheduler can run its own contention-aware solve over these terms and
/// still share the config-building code with the solo path.
struct PreparedTransfer {
  std::vector<PathParams> params;
  std::vector<PhiConstants> phis;  ///< empty slots when not pipelining
  std::vector<PathTerms> terms;
};

/// One path's slice of the transfer.
struct PathShare {
  topo::PathPlan plan;
  double theta = 0.0;          ///< fraction of the message
  std::uint64_t bytes = 0;     ///< rounded byte share
  int chunks = 1;              ///< pipeline chunk count k_i
  double predicted_time = 0.0; ///< model time for this share
  PathTerms terms;             ///< (Omega, Delta) used for this path
};

struct TransferConfig {
  std::vector<PathShare> paths;  ///< same order as the input candidates
  std::uint64_t total_bytes = 0;
  double predicted_time = 0.0;   ///< max over active paths
  /// Predicted aggregate bandwidth n / T, bytes per second.
  [[nodiscard]] double predicted_bandwidth() const {
    return predicted_time > 0.0
               ? static_cast<double>(total_bytes) / predicted_time
               : 0.0;
  }
};

class PathConfigurator {
 public:
  /// `registry` must hold parameters for every hop of every candidate path
  /// passed to configure(); both references must outlive the configurator.
  PathConfigurator(const ModelRegistry& registry,
                   ConfiguratorOptions options = {});

  /// Attach (or detach, with nullptr) a calibration store. prepare() then
  /// applies the current snapshot's per-path {alpha_scale, beta_scale} on
  /// top of the registry parameters; paths with no learned entry are left
  /// untouched, so an empty store is bit-identical to running without one.
  /// The store must outlive the configurator.
  void set_calibration(const CalibrationStore* store) { calibration_ = store; }
  [[nodiscard]] const CalibrationStore* calibration() const {
    return calibration_;
  }

  /// Attach (or detach, with nullptr) the topology the candidate paths are
  /// routed over. prepare() then derates paths whose hop routes share a
  /// fluid edge with another candidate: per-path composition alone treats
  /// each candidate's bottleneck as private, but when e.g. a transit-routed
  /// direct path and a staged copy both cross the same link of a parallel
  /// duplicate pair, max-min arbitration splits that link between them.
  /// Without a topology (default) the composition is unchanged — the legacy
  /// per-path model. The topology must outlive the configurator.
  void set_topology(const topo::Topology* topo) { topology_ = topo; }
  [[nodiscard]] const topo::Topology* topology() const { return topology_; }

  /// Algorithm 1: the optimal configuration. `paths` must be non-empty
  /// with the direct path first.
  [[nodiscard]] TransferConfig configure(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const;

  /// Like configure(), but over an arbitrary non-empty path subset: the
  /// first candidate plays the anchor role (absorbs the rounding remainder
  /// and is never excluded by the theta solver) regardless of its kind.
  /// Used by the recovery re-planner when the direct path itself is dead
  /// and the remainder must be re-split over the surviving paths. Const
  /// and stateless, so many threads may call it concurrently on one
  /// configurator over an immutable ModelRegistry.
  [[nodiscard]] TransferConfig compute_config(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const;

  /// Algorithm 1 lines 7-21 only: resolve parameters and adjusted terms,
  /// no theta solve.
  [[nodiscard]] PreparedTransfer prepare(
      topo::DeviceId src, topo::DeviceId dst, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths) const;

  /// Algorithm 1 lines 22-29 from an externally supplied theta solution
  /// (e.g. the joint scheduler's contention-aware solve): integer byte
  /// shares with the remainder on paths[0], chunk counts, and per-path
  /// predicted times from `prepared.terms`.
  /// compute_config(...) == config_from_theta(prepare(...), solve(...)).
  [[nodiscard]] TransferConfig config_from_theta(
      const PreparedTransfer& prepared, std::uint64_t bytes,
      std::span<const topo::PathPlan> paths, const ThetaSolution& sol) const;

  /// Always 0: the configurator keeps no cache (the plan cache is
  /// pipeline::GraphCache). Kept because the perfbench report reads them
  /// (model.cache_hit_ratio).
  [[nodiscard]] std::uint64_t cache_hits() const { return 0; }
  [[nodiscard]] std::uint64_t cache_misses() const { return 0; }

  [[nodiscard]] const ConfiguratorOptions& options() const { return options_; }

 private:
  /// Shared-edge bandwidth derates for one request's candidate set: 1.0
  /// for paths whose hop routes touch no edge used by another candidate,
  /// else bottleneck(cap_e) / bottleneck(cap_e / users_e) >= 1.
  [[nodiscard]] std::vector<double> shared_edge_derates(
      topo::DeviceId src, topo::DeviceId dst,
      std::span<const topo::PathPlan> paths) const;

  const ModelRegistry* registry_;
  ConfiguratorOptions options_;
  const CalibrationStore* calibration_ = nullptr;
  const topo::Topology* topology_ = nullptr;
};

}  // namespace mpath::model
