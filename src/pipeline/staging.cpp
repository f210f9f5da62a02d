#include "mpath/pipeline/staging.hpp"

namespace mpath::pipeline {

StagingPool::StagingPool(gpusim::GpuRuntime& runtime,
                         std::size_t buffers_per_device,
                         gpusim::Payload payload)
    : runtime_(&runtime),
      capacity_(buffers_per_device == 0 ? 1 : buffers_per_device),
      payload_(payload) {}

StagingPool::Lease& StagingPool::Lease::operator=(Lease&& o) noexcept {
  if (this != &o) {
    release();
    pool_ = std::exchange(o.pool_, nullptr);
    key_ = o.key_;
    buffer_ = std::move(o.buffer_);
  }
  return *this;
}

void StagingPool::Lease::release() {
  if (pool_ != nullptr) {
    pool_->give_back(key_, std::move(buffer_));
    pool_ = nullptr;
  }
}

StagingPool::PerDevice& StagingPool::per_pool(PoolKey key) {
  auto it = pools_.find(key);
  if (it == pools_.end()) {
    it = pools_.emplace(key, PerDevice{}).first;
    it->second.slots =
        std::make_unique<sim::Semaphore>(runtime_->engine(), capacity_);
  }
  return it->second;
}

sim::Task<StagingPool::Lease> StagingPool::acquire(topo::DeviceId device,
                                                   std::size_t bytes,
                                                   topo::DeviceId initiator) {
  const PoolKey key{initiator, device};
  PerDevice& pd = per_pool(key);
  co_await pd.slots->acquire();
  std::unique_ptr<gpusim::DeviceBuffer> buffer;
  if (!pd.free_buffers.empty()) {
    buffer = std::move(pd.free_buffers.back());
    pd.free_buffers.pop_back();
  }
  if (!buffer || buffer->size() < bytes) {
    // Grow: simulated allocation is free; the real engine would size its
    // pre-allocated staging buffers to the pipeline chunk size.
    buffer = std::make_unique<gpusim::DeviceBuffer>(device, bytes, payload_);
  }
  ++pd.leased;
  co_return Lease(this, key, std::move(buffer));
}

void StagingPool::give_back(PoolKey key,
                            std::unique_ptr<gpusim::DeviceBuffer> buffer) {
  PerDevice& pd = per_pool(key);
  pd.free_buffers.push_back(std::move(buffer));
  --pd.leased;
  pd.slots->release();
}

std::size_t StagingPool::in_use(topo::DeviceId device,
                                topo::DeviceId initiator) const {
  auto it = pools_.find(PoolKey{initiator, device});
  return it == pools_.end() ? 0 : it->second.leased;
}

}  // namespace mpath::pipeline
