// Collective graph chaining: compile a whole collective once, replay it
// every iteration.
//
// PR 9 made single transfers replayable (TransferGraph); a collective still
// paid per-round, per-iteration admission + lookup + theta churn. This
// module captures the *entire* collective — every per-rank transfer of
// every round, identified by (tag, src_rank, dst_rank) at the transport
// tap — into one CollectiveGraph: a chained template of TransferGraph
// steps grouped into rounds. The first invocation records the transfer DAG
// (capture), the seal compiles one private graph per step, and later
// invocations with the same payload replay step graphs as each message
// reaches the channel. The payload is part of the chain's identity: a new
// payload captures a chain of its own, so every replayed split is the one
// a fresh plan would pick at that size.
//
// Scheduled stacks admit a replayed round through
// TransferScheduler::admit_chain: ONE JointThetaSolver water-fill over the
// round's compiled carrying paths plus every live flow (PR 6's same-instant
// storm machinery inverted into a gate) instead of K independent
// admit_replay probes. Acceptance requires every flow at its solo cap — the
// exact condition under which any fresh solve during the round would
// reproduce the compiled splits — and registers the K tickets from the
// compiled shares, so departures are ledger-indistinguishable from fresh
// admissions. Tickets a dying chain never claims are unwound through
// depart_chain before any fallback admission can water-fill against them.
//
// Replay is bit-identical to the uncaptured collective by construction on
// unscheduled channels: each step replay issues the same runtime-call /
// issue-cost sequence (same rng draws under jitter) as the uncompiled
// channel path, and capture/claim bookkeeping takes no simulated time. On
// scheduled channels the same holds whenever rounds admit (nothing is
// squeezed, so fresh solves equal compiled solos); refused rounds fall back
// to per-step fresh admission with per-cause stats.
//
// Invalidation causes (per-cause counters in ChainStats): link-capacity
// epoch superseded, calibration version superseded, step-key/size mismatch
// (algorithm drift), and contended round (admit_chain refusal — round
// falls back, chain survives). A killed chain is removed from the cache and
// recaptured on the next invocation. The cache is a util::LruCache keyed by
// ChainKey and stamped with the calibration version — the plan cache's
// mechanism one level up. Step templates are plans only: every
// step replay acquires and returns its own staging lease and events, so
// steps sharing a template may replay concurrently.
//
// Lifetime: on scheduled channels a controller unwinds unclaimed round
// tickets when it is cleared or destroyed — destroy it before the
// scheduler, and clear the World's transfer tap (destroy the World) before
// the controller. Single-threaded like the rest of the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "mpath/pipeline/graph.hpp"
#include "mpath/pipeline/scheduler.hpp"
#include "mpath/transport/fabric.hpp"
#include "mpath/util/lru_cache.hpp"

namespace mpath::pipeline {

class ModelDrivenChannel;
class ChainController;

/// Identity of a captured collective: one cache entry per tuple. The
/// payload is part of the key, so one collective alternating two payloads
/// keeps one chain per payload instead of recapturing on every switch.
struct ChainKey {
  std::string name;           ///< collective name ("allreduce-rhd", ...)
  int world = 0;              ///< communicator size
  int algo = 0;               ///< algorithm id (disambiguates same name)
  int variant = 0;            ///< extra identity (e.g. broadcast root)
  std::uint64_t payload = 0;  ///< the collective's byte size
  friend bool operator==(const ChainKey&, const ChainKey&) = default;
};

struct ChainKeyHash {
  [[nodiscard]] std::size_t operator()(const ChainKey& k) const;
};

struct ChainStats {
  std::uint64_t captures = 0;            ///< chains sealed Ready
  std::uint64_t capture_aborts = 0;      ///< capture gave up (overflow/dup)
  std::uint64_t iterations_captured = 0;  ///< invocations spent capturing
  std::uint64_t iterations_replayed = 0;  ///< invocations entered Ready
  std::uint64_t bypasses = 0;            ///< enter() during another chain
  std::uint64_t replayed_steps = 0;      ///< steps run via chain fast path
  std::uint64_t passthrough_steps = 0;   ///< chain steps with no template
  // -- invalidation causes --------------------------------------------------
  std::uint64_t epoch_kills = 0;         ///< link capacities changed
  std::uint64_t stale_cal_kills = 0;     ///< calibration superseded
  std::uint64_t mismatch_kills = 0;      ///< step key/size drifted
  std::uint64_t contended_rounds = 0;    ///< admit_chain refused a round
  std::uint64_t unwound_tickets = 0;     ///< pre-admitted, never claimed
};

/// One captured collective: steps keyed by (rel_tag, src_rank, dst_rank),
/// rounds grouped by relative tag. Owned by the ChainController's cache and
/// shared with in-flight iterations.
class CollectiveGraph {
 public:
  enum class State : std::uint8_t { kCapturing, kReady, kDead };

  struct Step {
    std::uint64_t key = 0;  ///< packed (rel_tag, src_rank, dst_rank)
    topo::DeviceId src_dev = topo::kInvalidDevice;
    topo::DeviceId dst_dev = topo::kInvalidDevice;
    std::uint64_t bytes = 0;
    int rel_tag = 0;
    std::uint32_t round = 0;  ///< index into rounds() (assigned at seal)
    /// Compiled template; null = passthrough (small message or
    /// non-reproducible capture). Steps with identical (src_dev, dst_dev,
    /// bytes) share one template.
    GraphPtr graph;
    model::TransferConfig config;  ///< recorded at capture (if has_config)
    bool has_config = false;
  };

  /// One round (relative tag) of the collective, with its per-iteration
  /// batched-admission state. `steps` lists only template-carrying steps.
  struct Round {
    int rel_tag = 0;
    util::SmallVec<std::uint32_t, 8> steps;
    // Per-iteration admission state (reset by begin_iteration):
    bool attempted = false;
    bool admitted = false;
    util::SmallVec<TransferScheduler::TicketId, 8> tickets;
    util::SmallVec<std::uint8_t, 8> claimed;
  };

  [[nodiscard]] static std::uint64_t step_key(int rel_tag, int src_rank,
                                              int dst_rank) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rel_tag))
            << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank) &
                                       0xfffffu)
            << 20) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_rank) &
                                       0xfffffu));
  }

  [[nodiscard]] const ChainKey& key() const { return key_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }
  [[nodiscard]] std::size_t round_count() const { return rounds_.size(); }
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  [[nodiscard]] const std::vector<Round>& rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t capacity_epoch() const {
    return capacity_epoch_;
  }
  [[nodiscard]] std::uint64_t cal_version() const { return cal_version_; }

 private:
  friend class ChainController;

  ChainKey key_;
  State state_ = State::kCapturing;
  std::vector<Step> steps_;
  std::vector<Round> rounds_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  ///< key -> step
  std::uint64_t capacity_epoch_ = 0;  ///< scheduler epoch at seal
  std::uint64_t cal_version_ = 0;     ///< calibration version at seal
  bool aborted_ = false;              ///< capture overflow / duplicate key
};

struct ChainOptions {
  std::size_t cache_capacity = 8;  ///< cached chains (LRU)
  std::size_t max_steps = 4096;    ///< capture safety valve per chain
};

/// Capture/replay orchestrator. Owns the chain cache, observes every
/// matched message through the transport tap (World::set_chain_controller
/// installs it), and hands the attached ModelDrivenChannel pending replay
/// steps. One controller per channel; requires recovery disabled (chained
/// replay cannot express partial-segment re-plans).
class ChainController {
 public:
  /// What the tap staged for the channel transfer that is about to run.
  struct Pending {
    CollectiveGraph* chain = nullptr;
    std::uint32_t step = 0;
    bool capture = false;  ///< record the step's config after the transfer
    bool replay = false;   ///< try the chain fast path first
  };
  /// A successfully claimed replay step: the template to replay and (on
  /// scheduled channels) the round-admission ticket the channel must
  /// depart (or fail) exactly like a fresh admission's.
  struct Claim {
    GraphPtr graph;
    TransferScheduler::TicketId ticket = TransferScheduler::kInvalidTicket;
  };

  explicit ChainController(ModelDrivenChannel& channel,
                           ChainOptions options = {});
  ChainController(const ChainController&) = delete;
  ChainController& operator=(const ChainController&) = delete;
  ~ChainController();

  // -- collective scope (called by the collectives via ChainScope) ---------
  /// A rank is entering the named collective whose tags start at
  /// `base_tag`. The first rank in resolves the chain for (name, world,
  /// algo, variant, payload) (cached -> replay iteration; otherwise a
  /// fresh capture); later ranks join. Returns false — an inert scope — when a
  /// different collective invocation is already active (overlap is not
  /// chainable) or chaining is disabled for this channel shape.
  [[nodiscard]] bool enter(const char* name, int world, std::uint64_t payload,
                           int algo, int variant, int base_tag);
  /// The matching rank left. The last rank out seals a capture (compiles
  /// the step templates) or closes a replay iteration (unwinding any
  /// pre-admitted tickets no replay claimed).
  void leave();

  // -- transport tap --------------------------------------------------------
  /// Invoked synchronously immediately before every channel transfer.
  void on_transfer(const transport::TransferSite& site);

  // -- channel side ---------------------------------------------------------
  /// Consume the pending step staged by the tap for the transfer that is
  /// now executing (empty when no chain invocation is active).
  [[nodiscard]] Pending take_pending();
  /// Gate + claim a replay step: checks the epoch, and on scheduled
  /// channels admits the step's whole round through admit_chain on first
  /// touch. A null graph means the caller takes the normal path (cause
  /// already counted; the chain may have been killed).
  [[nodiscard]] Claim claim_step(const Pending& p);
  /// Record the capture-iteration outcome of a step: `config` is the
  /// reproducible compiled-eligible configuration, or null when the step
  /// must stay passthrough (small, contended, or otherwise unreproducible).
  void record_step(const Pending& p, const model::TransferConfig* config);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] const ChainStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] const ChainOptions& options() const { return options_; }
  /// Drop every cached chain (unwinding any unclaimed round tickets).
  void clear();

 private:
  using ChainPtr = std::shared_ptr<CollectiveGraph>;

  /// The cached chain for `key`, or null (capture needed). Stale
  /// calibration / superseded capacity epochs kill the resident entry.
  [[nodiscard]] ChainPtr resolve(const ChainKey& key);
  /// Compile per-step templates, group rounds, stamp versions, and publish
  /// the chain as Ready.
  void seal(const ChainPtr& chain);
  /// Group template-carrying steps into rounds by relative tag.
  void build_rounds(CollectiveGraph& chain);
  /// Mark the chain dead for `cause` (a ChainStats member), unwind every
  /// pre-admitted unclaimed ticket, and drop it from the cache.
  void kill(CollectiveGraph& chain, std::uint64_t ChainStats::* cause);
  /// Unwind the unclaimed tickets of every admitted round (chain death or
  /// iteration end).
  void unwind_unclaimed(CollectiveGraph& chain);
  void reset_iteration(CollectiveGraph& chain);
  [[nodiscard]] std::uint64_t scheduler_epoch() const;

  ModelDrivenChannel* channel_;
  ChainOptions options_;
  ChainStats stats_;
  /// Chain cache keyed by ChainKey and stamped with the calibration
  /// version each chain was sealed under.
  util::LruCache<ChainKey, ChainPtr, ChainKeyHash> cache_;

  // Active invocation state.
  bool active_ = false;
  bool capturing_ = false;
  int base_tag_ = 0;
  int refcount_ = 0;
  ChainKey inv_key_;
  ChainPtr inv_chain_;
  Pending pending_;
};

/// RAII collective scope: enter on construction, leave on destruction.
/// Null controller (chaining not wired) makes the scope inert.
class ChainScope {
 public:
  ChainScope(ChainController* ctl, const char* name, int world,
             std::uint64_t payload, int algo, int variant, int base_tag)
      : ctl_(ctl) {
    if (ctl_ != nullptr) {
      active_ = ctl_->enter(name, world, payload, algo, variant, base_tag);
    }
  }
  ChainScope(const ChainScope&) = delete;
  ChainScope& operator=(const ChainScope&) = delete;
  ~ChainScope() {
    if (active_) ctl_->leave();
  }

 private:
  ChainController* ctl_;
  bool active_ = false;
};

}  // namespace mpath::pipeline
