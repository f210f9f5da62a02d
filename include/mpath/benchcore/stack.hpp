// SimStack: one self-contained simulated system — engine, fluid network,
// GPU runtime, pipeline engine, data channel, MPI world — used as the unit
// of measurement. Every benchmark point runs on a fresh stack so that
// stream queues, caches and clocks never leak between measurements.
#pragma once

#include <memory>

#include "mpath/mpisim/world.hpp"
#include "mpath/pipeline/channels.hpp"
#include "mpath/pipeline/collective_graph.hpp"
#include "mpath/pipeline/scheduler.hpp"

namespace mpath::benchcore {

struct StackOptions {
  std::uint64_t seed = 7;
  std::size_t staging_buffers_per_device = 16;
  pipeline::ModelDrivenOptions model;
  mpisim::WorldOptions world;
  int nranks = 0;  ///< 0 = one rank per GPU
  /// Collective graph chaining: capture each collective's whole transfer
  /// DAG on first invocation, replay it (with batched joint-theta
  /// admission on scheduled stacks) on later ones. Model-driven stacks
  /// only; ignored (with recovery enabled: rejected) elsewhere.
  bool collective_graphs = false;
  pipeline::ChainOptions chain;
};

class SimStack {
 public:
  /// Baseline: all traffic on the direct path (UCX default).
  [[nodiscard]] static SimStack direct(topo::System system,
                                       StackOptions options = {});
  /// The paper's dynamic configuration: model invoked per transfer.
  /// `configurator` must outlive the stack.
  [[nodiscard]] static SimStack model_driven(topo::System system,
                                             model::PathConfigurator& configurator,
                                             topo::PathPolicy policy,
                                             StackOptions options = {});
  /// The paper's statically-tuned baseline: a fixed offline plan.
  [[nodiscard]] static SimStack static_plan(topo::System system,
                                            pipeline::StaticPlan plan,
                                            StackOptions options = {});
  /// Model-driven with a node-level TransferScheduler: every transfer is
  /// admitted through a joint contention-aware planner (the stack owns the
  /// scheduler; reach it via scheduler()). With `sched.joint = false` the
  /// admission machinery records the same history but plans solo — the
  /// misprediction baseline multi-tenant benchmarks compare against.
  [[nodiscard]] static SimStack model_driven_scheduled(
      topo::System system, model::PathConfigurator& configurator,
      topo::PathPolicy policy, pipeline::SchedulerOptions sched = {},
      StackOptions options = {});

  SimStack(SimStack&&) noexcept = default;
  SimStack& operator=(SimStack&&) noexcept = default;

  [[nodiscard]] mpisim::World& world() { return *world_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] gpusim::GpuRuntime& runtime() { return *runtime_; }
  [[nodiscard]] pipeline::PipelineEngine& pipeline_engine() {
    return *pipeline_;
  }
  [[nodiscard]] gpusim::DataChannel& channel() { return *channel_; }
  /// The fluid network under the stack — the seam where fault injection
  /// (sim::FaultInjector) degrades or severs links mid-run.
  [[nodiscard]] sim::FluidNetwork& network() { return *network_; }
  [[nodiscard]] const topo::System& system() const { return *system_; }
  /// Non-null only for model_driven_scheduled stacks.
  [[nodiscard]] pipeline::TransferScheduler* scheduler() {
    return scheduler_.get();
  }
  /// Non-null only when StackOptions::collective_graphs was set on a
  /// model-driven stack.
  [[nodiscard]] pipeline::ChainController* chain() { return chain_.get(); }

 private:
  SimStack(topo::System system, StackOptions options);
  void finish(std::unique_ptr<gpusim::DataChannel> channel,
              const StackOptions& options);

  std::unique_ptr<topo::System> system_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<sim::FluidNetwork> network_;
  std::unique_ptr<gpusim::GpuRuntime> runtime_;
  std::unique_ptr<pipeline::PipelineEngine> pipeline_;
  std::unique_ptr<pipeline::TransferScheduler> scheduler_;
  std::unique_ptr<gpusim::DataChannel> channel_;
  // Declared after scheduler_/channel_ and before world_: the World
  // detaches the tap first, then the controller unwinds any unclaimed round
  // tickets while the channel and scheduler still live.
  std::unique_ptr<pipeline::ChainController> chain_;
  std::unique_ptr<mpisim::World> world_;
};

}  // namespace mpath::benchcore
