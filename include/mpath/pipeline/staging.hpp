// Staging buffer pool. Staged paths bounce chunks through an intermediate
// device; the pool bounds concurrent staging buffers per device (as the
// real engine pre-allocates them) and recycles buffers across transfers.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mpath/gpusim/buffer.hpp"
#include "mpath/gpusim/runtime.hpp"
#include "mpath/sim/sync.hpp"

namespace mpath::pipeline {

class StagingPool {
 public:
  /// At most `buffers_per_device` staging buffers may be live on one device
  /// at a time; further acquisitions wait. `payload` controls whether
  /// staging buffers carry real bytes (needed when the transfer endpoints
  /// are materialized) or are timing-only.
  explicit StagingPool(gpusim::GpuRuntime& runtime,
                       std::size_t buffers_per_device = 4,
                       gpusim::Payload payload = gpusim::Payload::Materialized);
  StagingPool(const StagingPool&) = delete;
  StagingPool& operator=(const StagingPool&) = delete;

  using PoolKey = std::pair<topo::DeviceId, topo::DeviceId>;

  class Lease {
   public:
    Lease() = default;
    Lease(StagingPool* pool, PoolKey key,
          std::unique_ptr<gpusim::DeviceBuffer> buffer)
        : pool_(pool), key_(key), buffer_(std::move(buffer)) {}
    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          key_(o.key_),
          buffer_(std::move(o.buffer_)) {}
    Lease& operator=(Lease&& o) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] gpusim::DeviceBuffer& buffer() { return *buffer_; }
    [[nodiscard]] bool valid() const { return buffer_ != nullptr; }
    void release();

   private:
    StagingPool* pool_ = nullptr;
    PoolKey key_{topo::kInvalidDevice, topo::kInvalidDevice};
    std::unique_ptr<gpusim::DeviceBuffer> buffer_;
  };

  /// Acquire a staging buffer of at least `bytes` on `device`, on behalf
  /// of `initiator` (the transfer's source device). Pools are partitioned
  /// per (initiator, device) because real staging buffers live in the
  /// sending process: independent senders never contend for each other's
  /// buffers.
  [[nodiscard]] sim::Task<Lease> acquire(topo::DeviceId device,
                                         std::size_t bytes,
                                         topo::DeviceId initiator);

  [[nodiscard]] std::size_t buffers_per_device() const { return capacity_; }
  /// Buffers currently leased on `device` by `initiator`.
  [[nodiscard]] std::size_t in_use(topo::DeviceId device,
                                   topo::DeviceId initiator) const;

 private:
  struct PerDevice {
    std::unique_ptr<sim::Semaphore> slots;
    std::vector<std::unique_ptr<gpusim::DeviceBuffer>> free_buffers;
    std::size_t leased = 0;
  };
  PerDevice& per_pool(PoolKey key);
  void give_back(PoolKey key,
                 std::unique_ptr<gpusim::DeviceBuffer> buffer);

  gpusim::GpuRuntime* runtime_;
  std::size_t capacity_;
  gpusim::Payload payload_;
  std::map<PoolKey, PerDevice> pools_;
};

}  // namespace mpath::pipeline
