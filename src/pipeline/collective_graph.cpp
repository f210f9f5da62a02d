#include "mpath/pipeline/collective_graph.hpp"

#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mpath/pipeline/channels.hpp"

namespace mpath::pipeline {

std::size_t ChainKeyHash::operator()(const ChainKey& k) const {
  std::size_t h = std::hash<std::string>{}(k.name);
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(k.world), static_cast<std::uint64_t>(k.algo),
        static_cast<std::uint64_t>(k.variant), k.payload}) {
    h = (h ^ v) * 1099511628211ull;
  }
  return h;
}

ChainController::ChainController(ModelDrivenChannel& channel,
                                 ChainOptions options)
    : channel_(&channel), options_(options), cache_(options.cache_capacity) {
  if (channel.options().recovery.enabled) {
    throw std::invalid_argument(
        "ChainController: recovery-enabled channels cannot chain (partial "
        "re-plans are not expressible as a frozen template)");
  }
  if (options_.cache_capacity == 0) {
    throw std::invalid_argument(
        "ChainController: cache_capacity must be positive");
  }
}

ChainController::~ChainController() { clear(); }

std::uint64_t ChainController::scheduler_epoch() const {
  TransferScheduler* sched = channel_->scheduler();
  return sched != nullptr ? sched->stats().capacity_events : 0;
}

bool ChainController::enter(const char* name, int world, std::uint64_t payload,
                            int algo, int variant, int base_tag) {
  if (active_) {
    if (base_tag == base_tag_) {
      ++refcount_;
      return true;
    }
    // Overlapping invocation of a *different* collective (no barrier
    // between them): the tap could not attribute messages, so the newcomer
    // runs unchained. Its own next non-overlapping invocation chains fine.
    ++stats_.bypasses;
    return false;
  }
  ChainKey key{name, world, algo, variant, payload};
  ChainPtr chain = resolve(key);
  if (chain != nullptr) {
    reset_iteration(*chain);
    capturing_ = false;
    ++stats_.iterations_replayed;
  } else {
    chain = std::make_shared<CollectiveGraph>();
    chain->key_ = std::move(key);
    chain->state_ = CollectiveGraph::State::kCapturing;
    capturing_ = true;
    ++stats_.iterations_captured;
  }
  active_ = true;
  base_tag_ = base_tag;
  refcount_ = 1;
  inv_chain_ = std::move(chain);
  pending_ = {};
  return true;
}

void ChainController::leave() {
  if (!active_ || --refcount_ > 0) return;
  if (inv_chain_ != nullptr) {
    if (capturing_) {
      seal(inv_chain_);
    } else {
      // Close the replay iteration: depart every pre-admitted ticket no
      // replay claimed (round fell back mid-way, or a step stayed
      // passthrough after its round was batch-admitted).
      unwind_unclaimed(*inv_chain_);
    }
  }
  active_ = false;
  capturing_ = false;
  inv_chain_ = nullptr;
  pending_ = {};
}

ChainController::ChainPtr ChainController::resolve(const ChainKey& key) {
  // Between invocations no round holds admitted tickets (leave and kill
  // unwind them), so a chain the cache drops here needs no unwinding.
  const auto found = cache_.find(key, channel_->graph_cal_version());
  if (found.stale) {
    // Calibration superseded: every compiled split is stale.
    ++stats_.stale_cal_kills;
    return nullptr;
  }
  if (found.value == nullptr) return nullptr;
  ChainPtr chain = *found.value;
  if (channel_->scheduler() != nullptr &&
      chain->capacity_epoch_ != scheduler_epoch()) {
    kill(*chain, &ChainStats::epoch_kills);
    return nullptr;
  }
  return chain;
}

void ChainController::seal(const ChainPtr& chain) {
  CollectiveGraph& c = *chain;
  if (c.aborted_ || c.steps_.empty()) return;  // nothing usable; discard
  // One private template per distinct (src, dst, bytes) among the
  // reproducible steps; identical steps share it (templates are reentrant,
  // so a same-instant collision replays it twice). A recorded config has
  // already executed, so it compiles; only an empty one would not.
  std::map<std::tuple<topo::DeviceId, topo::DeviceId, std::uint64_t>, GraphPtr>
      dedupe;
  for (CollectiveGraph::Step& step : c.steps_) {
    if (!step.has_config || step.bytes == 0) continue;
    const auto key = std::make_tuple(step.src_dev, step.dst_dev, step.bytes);
    auto it = dedupe.find(key);
    if (it != dedupe.end()) {
      step.graph = it->second;
      continue;
    }
    step.graph = channel_->engine_->compile_graph(step.src_dev, step.dst_dev,
                                                  step.config);
    dedupe.emplace(key, step.graph);
  }
  build_rounds(c);
  c.cal_version_ = channel_->graph_cal_version();
  c.capacity_epoch_ = scheduler_epoch();
  c.state_ = CollectiveGraph::State::kReady;
  ++stats_.captures;
  cache_.insert(c.key_, chain, c.cal_version_);
}

void ChainController::build_rounds(CollectiveGraph& chain) {
  std::map<int, std::uint32_t> round_of;
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(chain.steps_.size()); ++i) {
    CollectiveGraph::Step& step = chain.steps_[i];
    if (step.graph == nullptr) continue;
    const auto [it, fresh] = round_of.emplace(
        step.rel_tag, static_cast<std::uint32_t>(chain.rounds_.size()));
    if (fresh) {
      chain.rounds_.emplace_back();
      chain.rounds_.back().rel_tag = step.rel_tag;
    }
    step.round = it->second;
    chain.rounds_[it->second].steps.push_back(i);
  }
}

void ChainController::kill(CollectiveGraph& chain,
                           std::uint64_t ChainStats::* cause) {
  ++(stats_.*cause);
  // Unwind *synchronously*, before any fallback fresh admission can
  // water-fill against tickets no replay will ever claim.
  unwind_unclaimed(chain);
  chain.state_ = CollectiveGraph::State::kDead;
  // Only a cached chain replays, and nothing is sealed mid-invocation, so
  // the entry under this key is this chain. Last: erasing may drop the
  // cache's reference to it.
  cache_.erase(chain.key_);
}

void ChainController::unwind_unclaimed(CollectiveGraph& chain) {
  TransferScheduler* sched = channel_->scheduler();
  if (sched == nullptr) return;
  std::vector<TransferScheduler::TicketId> victims;
  for (CollectiveGraph::Round& round : chain.rounds_) {
    if (!round.admitted) continue;
    for (std::size_t i = 0; i < round.tickets.size(); ++i) {
      if (round.claimed[i] == 0 &&
          round.tickets[i] != TransferScheduler::kInvalidTicket) {
        victims.push_back(round.tickets[i]);
        round.claimed[i] = 1;
      }
    }
    round.admitted = false;
  }
  if (!victims.empty()) {
    sched->depart_chain(
        std::span<const TransferScheduler::TicketId>(victims));
    stats_.unwound_tickets += victims.size();
  }
}

void ChainController::reset_iteration(CollectiveGraph& chain) {
  for (CollectiveGraph::Round& round : chain.rounds_) {
    round.attempted = false;
    round.admitted = false;
    round.tickets.clear();
    round.claimed.clear();
  }
}

void ChainController::on_transfer(const transport::TransferSite& site) {
  pending_ = {};
  if (!active_ || inv_chain_ == nullptr) return;
  const int rel = site.tag - base_tag_;
  if (rel < 0 || rel >= 64) return;  // not this collective's message
  CollectiveGraph& chain = *inv_chain_;
  const std::uint64_t key =
      CollectiveGraph::step_key(rel, site.src_rank, site.dst_rank);
  if (capturing_) {
    if (chain.aborted_) return;
    if (chain.steps_.size() >= options_.max_steps ||
        !chain.index_
             .emplace(key, static_cast<std::uint32_t>(chain.steps_.size()))
             .second) {
      // Overflow, or two messages with identical (tag, src, dst) in one
      // invocation — replay could not tell them apart. Give up; the
      // collective keeps running uncaptured.
      chain.aborted_ = true;
      ++stats_.capture_aborts;
      return;
    }
    CollectiveGraph::Step step;
    step.key = key;
    step.src_dev = site.src_device;
    step.dst_dev = site.dst_device;
    step.bytes = site.bytes;
    step.rel_tag = rel;
    chain.steps_.push_back(std::move(step));
    pending_.chain = &chain;
    pending_.step = static_cast<std::uint32_t>(chain.steps_.size() - 1);
    pending_.capture = true;
    return;
  }
  if (chain.state_ != CollectiveGraph::State::kReady) return;
  const auto it = chain.index_.find(key);
  if (it == chain.index_.end()) {
    // The algorithm produced a message the capture never saw: the chain no
    // longer describes this collective.
    kill(chain, &ChainStats::mismatch_kills);
    return;
  }
  const CollectiveGraph::Step& step = chain.steps_[it->second];
  if (step.bytes != site.bytes || step.src_dev != site.src_device ||
      step.dst_dev != site.dst_device) {
    kill(chain, &ChainStats::mismatch_kills);
    return;
  }
  pending_.chain = &chain;
  pending_.step = it->second;
  pending_.replay = true;
}

ChainController::Pending ChainController::take_pending() {
  return std::exchange(pending_, Pending{});
}

void ChainController::record_step(const Pending& p,
                                  const model::TransferConfig* config) {
  if (p.chain == nullptr || !p.capture) return;
  CollectiveGraph& chain = *p.chain;
  if (chain.aborted_ || p.step >= chain.steps_.size()) return;
  if (config != nullptr) {
    chain.steps_[p.step].config = *config;
    chain.steps_[p.step].has_config = true;
  }
}

ChainController::Claim ChainController::claim_step(const Pending& p) {
  Claim claim;
  if (p.chain == nullptr || !p.replay) return claim;
  CollectiveGraph& chain = *p.chain;
  if (chain.state_ != CollectiveGraph::State::kReady) return claim;
  CollectiveGraph::Step& step = chain.steps_[p.step];
  if (step.graph == nullptr) {
    ++stats_.passthrough_steps;
    return claim;
  }
  TransferScheduler* sched = channel_->scheduler();
  if (sched != nullptr) {
    if (chain.capacity_epoch_ != sched->stats().capacity_events) {
      kill(chain, &ChainStats::epoch_kills);
      return claim;
    }
    CollectiveGraph::Round& round = chain.rounds_[step.round];
    if (!round.attempted) {
      // First touch of this round this iteration: admit the whole round as
      // one batch — a single joint water-fill over every compiled carrying
      // path plus all live flows, accepted only if nothing is squeezed.
      round.attempted = true;
      std::vector<TransferScheduler::ChainStepRequest> reqs;
      reqs.reserve(round.steps.size());
      for (const std::uint32_t si : round.steps) {
        const CollectiveGraph::Step& s = chain.steps_[si];
        TransferScheduler::ChainStepRequest req;
        req.src = s.src_dev;
        req.dst = s.dst_dev;
        req.bytes = s.bytes;
        req.paths = std::span<const topo::PathPlan>(s.graph->key_paths());
        req.compiled = &s.graph->config();
        reqs.push_back(req);
      }
      std::vector<TransferScheduler::TicketId> tickets =
          sched->admit_chain(reqs);
      if (tickets.empty()) {
        ++stats_.contended_rounds;
      } else {
        round.admitted = true;
        round.tickets.clear();
        round.claimed.clear();
        for (const TransferScheduler::TicketId t : tickets) {
          round.tickets.push_back(t);
          round.claimed.push_back(0);
        }
      }
    }
    if (!round.admitted) return claim;  // contended round: fresh per step
    for (std::size_t i = 0; i < round.steps.size(); ++i) {
      if (round.steps[i] == p.step) {
        round.claimed[i] = 1;
        claim.ticket = round.tickets[i];
        break;
      }
    }
    if (claim.ticket == TransferScheduler::kInvalidTicket) return claim;
  }
  ++stats_.replayed_steps;
  claim.graph = step.graph;
  return claim;
}

void ChainController::clear() {
  if (inv_chain_ != nullptr) unwind_unclaimed(*inv_chain_);
  cache_.for_each([this](const ChainPtr& c) { unwind_unclaimed(*c); });
  cache_.clear();
  inv_chain_ = nullptr;
  capturing_ = false;
  pending_ = {};
}

}  // namespace mpath::pipeline
