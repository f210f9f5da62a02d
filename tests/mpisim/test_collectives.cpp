#include "mpath/mpisim/collectives.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "mpath/pipeline/channels.hpp"
#include "mpath/topo/system.hpp"
#include "mpath/tuning/calibration.hpp"
#include "mpath/util/units.hpp"

namespace mg = mpath::gpusim;
namespace mi = mpath::mpisim;
namespace mp = mpath::pipeline;
namespace ms = mpath::sim;
namespace mt = mpath::topo;
using namespace mpath::util::literals;

namespace {

struct Fixture {
  mt::System sys = [] {
    auto s = mt::make_beluga();
    s.costs.jitter_rel = 0;
    return s;
  }();
  ms::Engine engine;
  ms::FluidNetwork net{engine};
  mg::GpuRuntime rt{sys, engine, net};
  mp::PipelineEngine pipe{rt};
  mp::SinglePathChannel channel{pipe};
  mi::World world{rt, channel};
};

/// Per-rank float buffers with rank-dependent contents; expected allreduce
/// result computed on the host.
struct AllreduceData {
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  std::vector<float> expected;

  AllreduceData(mi::World& world, std::size_t count) {
    expected.assign(count, 0.0f);
    for (int r = 0; r < world.size(); ++r) {
      auto buf = std::make_unique<mg::DeviceBuffer>(world.comm(r).device(),
                                                    count * sizeof(float));
      auto v = buf->as<float>();
      for (std::size_t i = 0; i < count; ++i) {
        v[i] = static_cast<float>((r + 1) * 1000 + static_cast<int>(i % 97));
        expected[i] += v[i];
      }
      bufs.push_back(std::move(buf));
    }
  }

  [[nodiscard]] bool verify() const {
    for (const auto& buf : bufs) {
      auto v = buf->as<const float>();
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (v[i] != expected[i]) return false;
      }
    }
    return true;
  }
};

}  // namespace

TEST(Allreduce, RecursiveHalvingDoublingIsCorrect) {
  Fixture f;
  AllreduceData data(f.world, 1024);
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    co_await mi::allreduce_sum(
        comm, *data.bufs[static_cast<std::size_t>(comm.rank())],
        mi::AllreduceAlgo::RecursiveHalvingDoubling);
  });
  EXPECT_TRUE(data.verify());
}

TEST(Allreduce, RingIsCorrect) {
  Fixture f;
  AllreduceData data(f.world, 2048);
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    co_await mi::allreduce_sum(
        comm, *data.bufs[static_cast<std::size_t>(comm.rank())],
        mi::AllreduceAlgo::Ring);
  });
  EXPECT_TRUE(data.verify());
}

TEST(Allreduce, RingWorksOnNonPowerOfTwoWorlds) {
  Fixture f;
  mi::World world3(f.rt, f.channel, 3);
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  std::vector<float> expected(999, 0.0f);
  for (int r = 0; r < 3; ++r) {
    auto buf = std::make_unique<mg::DeviceBuffer>(world3.comm(r).device(),
                                                  999 * sizeof(float));
    auto v = buf->as<float>();
    for (std::size_t i = 0; i < 999; ++i) {
      v[i] = static_cast<float>(r + 1);
      expected[i] += v[i];
    }
    bufs.push_back(std::move(buf));
  }
  world3.run([&](mi::Communicator& comm) -> ms::Task<void> {
    co_await mi::allreduce_sum(comm,
                               *bufs[static_cast<std::size_t>(comm.rank())],
                               mi::AllreduceAlgo::Ring);
  });
  for (const auto& buf : bufs) {
    auto v = buf->as<const float>();
    for (std::size_t i = 0; i < 999; ++i) {
      ASSERT_EQ(v[i], expected[i]);
    }
  }
}

TEST(Allreduce, RhdRejectsNonPowerOfTwo) {
  Fixture f;
  mi::World world3(f.rt, f.channel, 3);
  EXPECT_THROW(
      world3.run([](mi::Communicator& comm) -> ms::Task<void> {
        mg::DeviceBuffer buf(comm.device(), 96 * sizeof(float));
        co_await mi::allreduce_sum(
            comm, buf, mi::AllreduceAlgo::RecursiveHalvingDoubling);
      }),
      ms::SimError);
}

TEST(Allreduce, RejectsUnevenElementCounts) {
  Fixture f;
  EXPECT_THROW(
      f.world.run([](mi::Communicator& comm) -> ms::Task<void> {
        mg::DeviceBuffer buf(comm.device(), 6 * sizeof(float));  // 6 % 4 != 0
        co_await mi::allreduce_sum(comm, buf);
      }),
      ms::SimError);
}

namespace {

/// Alltoall buffers: block j of rank r's send buffer is pattern(r*64+j).
struct AlltoallData {
  std::vector<std::unique_ptr<mg::DeviceBuffer>> send, recv;
  std::size_t blk;
  int p;

  AlltoallData(mi::World& world, std::size_t block_bytes)
      : blk(block_bytes), p(world.size()) {
    for (int r = 0; r < p; ++r) {
      auto s = std::make_unique<mg::DeviceBuffer>(
          world.comm(r).device(), static_cast<std::size_t>(p) * blk);
      auto d = std::make_unique<mg::DeviceBuffer>(
          world.comm(r).device(), static_cast<std::size_t>(p) * blk);
      for (int j = 0; j < p; ++j) {
        mg::DeviceBuffer pattern(world.comm(r).device(), blk);
        pattern.fill_pattern(static_cast<std::uint64_t>(r * 64 + j));
        std::memcpy(s->region(static_cast<std::size_t>(j) * blk, blk).data(),
                    pattern.bytes().data(), blk);
      }
      send.push_back(std::move(s));
      recv.push_back(std::move(d));
    }
  }

  /// After alltoall, rank r's block i must equal pattern(i*64+r).
  [[nodiscard]] bool verify() const {
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < p; ++i) {
        mg::DeviceBuffer pattern(0, blk);
        pattern.fill_pattern(static_cast<std::uint64_t>(i * 64 + r));
        const auto got =
            recv[static_cast<std::size_t>(r)]->region(
                static_cast<std::size_t>(i) * blk, blk);
        if (std::memcmp(got.data(), pattern.bytes().data(), blk) != 0) {
          return false;
        }
      }
    }
    return true;
  }
};

}  // namespace

TEST(Alltoall, PairwiseIsCorrect) {
  Fixture f;
  AlltoallData data(f.world, 64_KiB);
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    const auto r = static_cast<std::size_t>(comm.rank());
    co_await mi::alltoall(comm, *data.send[r], *data.recv[r], data.blk,
                          mi::AlltoallAlgo::Pairwise);
  });
  EXPECT_TRUE(data.verify());
}

TEST(Alltoall, BruckIsCorrect) {
  Fixture f;
  AlltoallData data(f.world, 64_KiB);
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    const auto r = static_cast<std::size_t>(comm.rank());
    co_await mi::alltoall(comm, *data.send[r], *data.recv[r], data.blk,
                          mi::AlltoallAlgo::Bruck);
  });
  EXPECT_TRUE(data.verify());
}

TEST(Alltoall, BruckWorksOnNonPowerOfTwoWorlds) {
  Fixture f;
  mi::World world3(f.rt, f.channel, 3);
  AlltoallData data(world3, 32_KiB);
  world3.run([&](mi::Communicator& comm) -> ms::Task<void> {
    const auto r = static_cast<std::size_t>(comm.rank());
    co_await mi::alltoall(comm, *data.send[r], *data.recv[r], data.blk,
                          mi::AlltoallAlgo::Bruck);
  });
  EXPECT_TRUE(data.verify());
}

TEST(Alltoall, RejectsUndersizedBuffers) {
  Fixture f;
  EXPECT_THROW(
      f.world.run([](mi::Communicator& comm) -> ms::Task<void> {
        mg::DeviceBuffer s(comm.device(), 3 * 64);  // 3 blocks, need 4
        mg::DeviceBuffer d(comm.device(), 4 * 64);
        co_await mi::alltoall(comm, s, d, 64);
      }),
      ms::SimError);
}

TEST(Allgather, RingIsCorrect) {
  Fixture f;
  constexpr std::size_t kBlk = 32_KiB;
  std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
  std::vector<mg::DeviceBuffer> patterns;
  for (int r = 0; r < 4; ++r) {
    auto buf = std::make_unique<mg::DeviceBuffer>(f.world.comm(r).device(),
                                                  4 * kBlk);
    patterns.emplace_back(f.world.comm(r).device(), kBlk);
    patterns.back().fill_pattern(static_cast<std::uint64_t>(900 + r));
    std::memcpy(buf->region(static_cast<std::size_t>(r) * kBlk, kBlk).data(),
                patterns.back().bytes().data(), kBlk);
    bufs.push_back(std::move(buf));
  }
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    co_await mi::allgather(comm,
                           *bufs[static_cast<std::size_t>(comm.rank())],
                           kBlk);
  });
  for (int r = 0; r < 4; ++r) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(
          std::memcmp(bufs[static_cast<std::size_t>(r)]
                          ->region(static_cast<std::size_t>(b) * kBlk, kBlk)
                          .data(),
                      patterns[static_cast<std::size_t>(b)].bytes().data(),
                      kBlk),
          0)
          << "rank " << r << " block " << b;
    }
  }
}

TEST(Broadcast, BinomialDeliversFromEveryRoot) {
  Fixture f;
  for (int root = 0; root < 4; ++root) {
    std::vector<std::unique_ptr<mg::DeviceBuffer>> bufs;
    for (int r = 0; r < 4; ++r) {
      bufs.push_back(std::make_unique<mg::DeviceBuffer>(
          f.world.comm(r).device(), 256_KiB));
      if (r == root) {
        bufs.back()->fill_pattern(static_cast<std::uint64_t>(500 + root));
      }
    }
    mi::World world(f.rt, f.channel);  // fresh world per root
    world.run([&](mi::Communicator& comm) -> ms::Task<void> {
      co_await mi::broadcast(comm,
                             *bufs[static_cast<std::size_t>(comm.rank())],
                             256_KiB, root);
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_TRUE(bufs[static_cast<std::size_t>(r)]->same_content(
          *bufs[static_cast<std::size_t>(root)]))
          << "root " << root << " rank " << r;
    }
  }
}

TEST(Collectives, MultiPathChannelSpeedsUpAlltoall) {
  // The Fig. 7 effect in miniature: Alltoall over the model-driven channel
  // beats Alltoall over the direct channel for large blocks.
  auto run_alltoall = [](mg::DataChannel& channel, mg::GpuRuntime& rt) {
    mi::World world(rt, channel);
    AlltoallData data(world, 16_MiB);
    double elapsed = 0.0;
    const double start = rt.engine().now();
    world.run([&](mi::Communicator& comm) -> ms::Task<void> {
      const auto r = static_cast<std::size_t>(comm.rank());
      co_await mi::alltoall(comm, *data.send[r], *data.recv[r], data.blk,
                            mi::AlltoallAlgo::Bruck);
    });
    elapsed = rt.engine().now() - start;
    EXPECT_TRUE(data.verify());
    return elapsed;
  };

  Fixture a;
  const double t_direct = run_alltoall(a.channel, a.rt);

  Fixture b;
  auto reg = std::make_unique<mpath::model::ModelRegistry>();
  // Analytic registry for the three_gpus policy.
  *reg = mpath::tuning::registry_from_topology(b.sys);
  mpath::model::PathConfigurator cfg(*reg);
  mp::ModelDrivenChannel multi(b.pipe, cfg, mt::PathPolicy::two_gpus());
  const double t_multi = run_alltoall(multi, b.rt);

  EXPECT_LT(t_multi, t_direct);
}

// Without rendezvous timeouts no NACK can ever arrive, so the workers keep
// no per-(src, tag) match marks. Collective tags only grow, so tracking them
// would add one map node per message for the life of the world.
TEST(Collectives, TimeoutsOffTrackNoMatchedChannels) {
  Fixture f;
  ASSERT_EQ(f.world.options().transport.rendezvous_timeout_s, 0.0);
  AllreduceData data(f.world, 1024);
  f.world.run([&](mi::Communicator& comm) -> ms::Task<void> {
    for (int round = 0; round < 16; ++round) {
      co_await mi::allreduce_sum(
          comm, *data.bufs[static_cast<std::size_t>(comm.rank())],
          mi::AllreduceAlgo::Ring);
    }
  });
  EXPECT_GT(f.world.fabric().messages_sent(), 0u);
  for (int r = 0; r < f.world.size(); ++r) {
    EXPECT_EQ(f.world.fabric().worker(r).tracked_channel_count(), 0u) << r;
    EXPECT_EQ(f.world.fabric().worker(r).pending_nack_count(), 0u) << r;
  }
}
