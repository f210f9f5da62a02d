#include "mpath/transport/fabric.hpp"

#include <stdexcept>
#include <string>

namespace mpath::transport {

Fabric::Fabric(gpusim::GpuRuntime& runtime, gpusim::DataChannel& channel,
               TransportOptions options)
    : runtime_(&runtime), channel_(&channel), options_(options) {}

Fabric::~Fabric() = default;

Worker& Fabric::add_worker(int rank, topo::DeviceId device) {
  if (rank != static_cast<int>(workers_.size())) {
    throw std::invalid_argument(
        "Fabric::add_worker: ranks must be added densely from 0");
  }
  workers_.push_back(std::make_unique<Worker>(*this, rank, device));
  return *workers_.back();
}

Worker& Fabric::worker(int rank) {
  if (rank < 0 || rank >= worker_count()) {
    throw std::out_of_range("Fabric::worker: bad rank");
  }
  return *workers_[static_cast<std::size_t>(rank)];
}

Fabric::Wake& Fabric::wake_slot(double t) {
  auto [it, inserted] = wakes_.try_emplace(t);
  if (inserted) {
    ++wakeups_scheduled_;
    // One engine event serves every waiter and callback that lands on this
    // exact deadline: eager deliveries and rendezvous handshake delays are
    // fixed offsets from their trigger instant, so bursts pile onto the
    // same absolute time and previously cost one queue event each.
    runtime_->engine().schedule_callback(t, [this, t] {
      auto node = wakes_.extract(t);
      if (node.empty()) return;
      Wake& w = node.mapped();
      if (w.latch) w.latch->fire();
      for (auto& fn : w.fns) fn();
    });
  } else {
    ++wakeups_coalesced_;
  }
  return it->second;
}

sim::Task<void> Fabric::wake_at(double t) {
  Wake& w = wake_slot(t);
  if (!w.latch) w.latch = sim::make_pooled<sim::Latch>(runtime_->engine());
  auto latch = w.latch;  // keep alive across the wake_slot erase
  co_await latch->wait();
}

void Fabric::call_at(double t, sim::EventFn fn) {
  wake_slot(t).fns.push_back(std::move(fn));
}

namespace {
bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

[[noreturn]] void throw_nacked(const char* what, int peer, int tag,
                               std::size_t bytes, double elapsed) {
  gpusim::TransferError::Info info;
  info.detail = std::string(what) + " rank " + std::to_string(peer) +
                " tag " + std::to_string(tag) +
                ": peer aborted (rendezvous NACK)";
  info.bytes_requested = bytes;
  info.bytes_delivered = 0;
  info.elapsed_s = elapsed;
  throw gpusim::TransferError("Worker: peer rendezvous failure",
                              std::move(info));
}
}  // namespace

void Worker::note_matched(int src, int tag, std::uint64_t seq) {
  // Only NACKs read the marks, and only rendezvous timeouts send NACKs; the
  // timeout is fixed for the fabric's lifetime, so without one there is
  // nothing to track. (With timeouts on, the map still grows by one entry
  // per (src, tag) ever matched.)
  if (!(fabric_->options_.rendezvous_timeout_s > 0.0)) return;
  auto& hwm = matched_hwm_[{src, tag}];
  if (seq > hwm) hwm = seq;
  // A live match supersedes any older failure notice for the channel.
  std::erase_if(nacks_, [&](const Nack& n) {
    return n.src_rank == src && n.tag == tag && n.seq <= hwm;
  });
}

bool Worker::nack_is_stale(const Nack& n) const {
  const auto it = matched_hwm_.find({n.src_rank, n.tag});
  return it != matched_hwm_.end() && n.seq <= it->second;
}

void Worker::deliver_nack(Nack n) {
  if (nack_is_stale(n)) {
    ++fabric_->nacks_stale_;
    return;
  }
  if (n.from_send) {
    // The send side of the channel died: fail a parked matching recv now.
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (!matches(it->src_rank, it->tag, n.src_rank, n.tag)) continue;
      *it->nacked = true;
      sim::Latch* done = it->done;
      posted_.erase(it);
      done->fire();
      return;
    }
  } else {
    // The recv side died; a matching send cannot be parked here (it would
    // have matched the recv), but check anyway for robustness.
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!matches(n.src_rank, n.tag, it->src_rank, it->tag)) continue;
      *it->nacked = true;
      sim::Latch* done = it->done;
      unexpected_.erase(it);
      done->fire();
      return;
    }
  }
  // Nobody to fail yet: record it so the next matching operation fails
  // fast instead of parking for a full timeout of its own.
  nacks_.push_back(n);
}

sim::Task<void> Worker::send(int dst_rank, const gpusim::DeviceBuffer& buf,
                             std::size_t offset, std::size_t bytes, int tag) {
  buf.check_region(offset, bytes);  // validate eagerly
  if (tag < 0) {
    throw std::invalid_argument("Worker::send: tag must be non-negative");
  }
  Worker& receiver = fabric_->worker(dst_rank);
  ++fabric_->messages_;
  fabric_->bytes_ += bytes;

  // A recorded peer failure on this channel fails the send immediately —
  // the symmetric counterpart of the recv-side NACK below.
  for (auto it = receiver.nacks_.begin(); it != receiver.nacks_.end(); ++it) {
    if (it->from_send || !matches(it->src_rank, it->tag, rank_, tag)) {
      continue;
    }
    receiver.nacks_.erase(it);
    throw_nacked("Worker::send: to", dst_rank, tag, bytes, 0.0);
  }

  SendEntry entry{rank_, tag, bytes, &buf, offset, device_, nullptr};

  // Second arrival drives the transfer: look for a matching posted recv.
  for (auto it = receiver.posted_.begin(); it != receiver.posted_.end();
       ++it) {
    if (!matches(it->src_rank, it->tag, rank_, tag)) continue;
    if (it->bytes < bytes) {
      throw std::runtime_error("Worker::send: receive buffer too small");
    }
    RecvEntry recv = *it;
    receiver.posted_.erase(it);
    receiver.note_matched(rank_, tag, recv.seq);
    co_await receiver.do_transfer(entry, recv);
    recv.done->fire();
    co_return;
  }

  // No recv posted yet: park in the receiver's unexpected queue.
  sim::Engine& engine = fabric_->runtime_->engine();
  sim::Latch done(engine);
  bool nacked = false;
  entry.done = &done;
  entry.nacked = &nacked;
  entry.seq = ++receiver.next_seq_;
  receiver.unexpected_.push_back(entry);
  // Rendezvous watchdog: a peer that never posts the matching recv would
  // otherwise park this coroutine forever. The timer resolves the entry by
  // its unique seq; if the entry already matched, the callback finds
  // nothing and must not touch the (then dead) stack frame. On abort, a
  // NACK makes the failure symmetric: the recv side of the channel fails
  // too instead of parking through its own full timeout.
  const double timeout = fabric_->options_.rendezvous_timeout_s;
  const double t0 = engine.now();
  bool timed_out = false;
  if (timeout > 0.0 && bytes > fabric_->options_.eager_threshold) {
    Worker* r = &receiver;
    Fabric* fabric = fabric_;
    const std::uint64_t seq = entry.seq;
    const int src = rank_;
    fabric_->call_at(engine.now() + timeout,
                     [r, fabric, seq, src, tag, &done, &timed_out] {
      for (auto it = r->unexpected_.begin(); it != r->unexpected_.end();
           ++it) {
        if (it->seq != seq) continue;
        r->unexpected_.erase(it);
        timed_out = true;
        ++fabric->nacks_sent_;
        fabric->call_at(
            fabric->runtime_->engine().now() + fabric->options_.eager_overhead_s,
            [r, n = Nack{src, tag, seq, /*from_send=*/true}] {
              r->deliver_nack(n);
            });
        done.fire();
        return;
      }
    });
  }
  co_await done.wait();
  if (nacked) {
    throw_nacked("Worker::send: to", dst_rank, tag, bytes, engine.now() - t0);
  }
  if (timed_out) {
    ++fabric_->rendezvous_timeouts_;
    gpusim::TransferError::Info info;
    info.detail = "rendezvous send to rank " + std::to_string(dst_rank) +
                  " tag " + std::to_string(tag) + ": no matching recv";
    info.bytes_requested = bytes;
    info.bytes_delivered = 0;
    info.elapsed_s = timeout;
    throw gpusim::TransferError("Worker::send: rendezvous timeout",
                                std::move(info));
  }
}

sim::Task<void> Worker::recv(int src_rank, gpusim::DeviceBuffer& buf,
                             std::size_t offset, std::size_t bytes, int tag) {
  buf.check_region(offset, bytes);

  // Fail fast on a recorded peer failure (the send side of this channel
  // already aborted and NACKed).
  for (auto it = nacks_.begin(); it != nacks_.end(); ++it) {
    if (!it->from_send || !matches(src_rank, tag, it->src_rank, it->tag)) {
      continue;
    }
    const int peer = it->src_rank;
    nacks_.erase(it);
    throw_nacked("Worker::recv: from", peer, tag, bytes, 0.0);
  }

  RecvEntry entry{src_rank, tag, bytes, &buf, offset, nullptr};

  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(src_rank, tag, it->src_rank, it->tag)) continue;
    if (bytes < it->bytes) {
      throw std::runtime_error("Worker::recv: receive buffer too small");
    }
    SendEntry send = *it;
    unexpected_.erase(it);
    note_matched(send.src_rank, send.tag, send.seq);
    co_await do_transfer(send, entry);
    send.done->fire();
    co_return;
  }

  sim::Engine& engine = fabric_->runtime_->engine();
  sim::Latch done(engine);
  bool nacked = false;
  entry.done = &done;
  entry.nacked = &nacked;
  entry.seq = ++next_seq_;
  posted_.push_back(entry);
  const double timeout = fabric_->options_.rendezvous_timeout_s;
  const double t0 = engine.now();
  bool timed_out = false;
  if (timeout > 0.0 && bytes > fabric_->options_.eager_threshold) {
    Fabric* fabric = fabric_;
    const std::uint64_t seq = entry.seq;
    fabric_->call_at(engine.now() + timeout,
                     [this, fabric, seq, src_rank, tag, &done, &timed_out] {
      for (auto it = posted_.begin(); it != posted_.end(); ++it) {
        if (it->seq != seq) continue;
        posted_.erase(it);
        timed_out = true;
        // NACK the sender side — only possible for a concrete channel; a
        // wildcard recv names no peer to notify.
        if (src_rank != kAnySource && tag != kAnyTag) {
          ++fabric->nacks_sent_;
          fabric->call_at(fabric->runtime_->engine().now() +
                              fabric->options_.eager_overhead_s,
                          [w = this, n = Nack{src_rank, tag, seq,
                                              /*from_send=*/false}] {
                            w->deliver_nack(n);
                          });
        }
        done.fire();
        return;
      }
    });
  }
  co_await done.wait();
  if (nacked) {
    throw_nacked("Worker::recv: from", src_rank, tag, bytes,
                 engine.now() - t0);
  }
  if (timed_out) {
    ++fabric_->rendezvous_timeouts_;
    gpusim::TransferError::Info info;
    info.detail = "rendezvous recv from rank " + std::to_string(src_rank) +
                  " tag " + std::to_string(tag) + ": no matching send";
    info.bytes_requested = bytes;
    info.bytes_delivered = 0;
    info.elapsed_s = timeout;
    throw gpusim::TransferError("Worker::recv: rendezvous timeout",
                                std::move(info));
  }
}

sim::Task<void> Worker::do_transfer(const SendEntry& send,
                                    const RecvEntry& recv) {
  gpusim::GpuRuntime& rt = *fabric_->runtime_;
  const TransportOptions& opt = fabric_->options_;
  if (send.bytes <= opt.eager_threshold) {
    ++fabric_->eager_;
    // Same-deadline eager deliveries share one engine event (a burst of k
    // small messages matched at one instant previously cost k timers).
    co_await fabric_->wake_at(rt.engine().now() + opt.eager_overhead_s);
  } else {
    ++fabric_->rendezvous_;
    // RTS/CTS handshake, then the sender maps the receiver's buffer via
    // CUDA IPC (cached after the first open) and PUTs into it. The
    // handshake delay coalesces per deadline like eager delivery.
    co_await fabric_->wake_at(rt.engine().now() + rt.costs().rendezvous_s);
    co_await rt.ipc_open(send.src_device, *recv.buf);
  }
  if (fabric_->tap_) {
    // Synchronous prefix of the channel transfer (no suspension between the
    // tap and the transfer call): a chained-collective controller can stage
    // a pending replay step here and the channel consumes it first thing.
    fabric_->tap_(TransferSite{send.src_rank, rank_, send.tag, send.bytes,
                               send.src_device, recv.buf->device()});
  }
  co_await fabric_->channel_->transfer(*recv.buf, recv.offset, *send.buf,
                                       send.offset, send.bytes);
}

}  // namespace mpath::transport
