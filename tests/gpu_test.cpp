#include <gtest/gtest.h>

#include "src/coll/library.hpp"
#include "src/gpu/device.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace adapt::gpu {
namespace {

using runtime::Context;
using runtime::SimEngine;

topo::Machine gpu_machine(int nodes) {
  return topo::Machine(topo::psg(nodes), nodes * 4,
                       topo::PlacementPolicy::kByGpu);
}

TEST(GpuRuntime, DevicesOnlyOnGpuRanks) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  for (Rank r = 0; r < m.nranks(); ++r) {
    EXPECT_NE(engine.context(r).gpu(), nullptr) << "rank " << r;
  }
  topo::Machine cpu_machine(topo::cori(1), 4);
  SimEngine cpu_engine(cpu_machine);
  EXPECT_EQ(cpu_engine.context(0).gpu(), nullptr);
}

TEST(Stream, KernelsSerialiseOnDeviceEngine) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  std::vector<TimeNs> done;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    Device* dev = ctx.gpu();
    auto trigger = std::make_shared<sim::Trigger>();
    auto remaining = std::make_shared<int>(2);
    auto on_done = [&, trigger, remaining] {
      done.push_back(ctx.now());
      if (--*remaining == 0) trigger->fire();
    };
    // Two kernels on different streams still share the device engine.
    dev->stream(0).launch(microseconds(100), on_done);
    dev->stream(1).launch(microseconds(100), on_done);
    co_await *trigger;
  };
  engine.run(program);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GE(done[1] - done[0], microseconds(100));
}

TEST(Stream, OpsWithinOneStreamAreOrdered) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  std::vector<int> order;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    Stream& s = ctx.gpu()->stream(0);
    s.memcpy_async(MemSpace::kDevice, MemSpace::kHost, kib(256),
                   [&] { order.push_back(1); });
    s.launch(microseconds(10), [&] { order.push_back(2); });
    s.memcpy_async(MemSpace::kHost, MemSpace::kDevice, kib(256),
                   [&] { order.push_back(3); });
    co_await s.synchronize();
    order.push_back(4);
  };
  engine.run(program);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Stream, SynchronizeOnIdleStreamReturnsImmediately) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    const TimeNs t0 = ctx.now();
    co_await ctx.gpu()->stream(2).synchronize();
    EXPECT_EQ(ctx.now(), t0);
  };
  engine.run(program);
}

TEST(Stream, MemcpyCrossesPcie) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  TimeNs elapsed = 0;
  const Bytes bytes = mib(8);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    const TimeNs t0 = ctx.now();
    Stream& s = ctx.gpu()->stream(0);
    s.memcpy_async(MemSpace::kDevice, MemSpace::kHost, bytes);
    co_await s.synchronize();
    elapsed = ctx.now() - t0;
  };
  engine.run(program);
  // At least the PCIe wire time for 8 MB.
  EXPECT_GE(elapsed, m.spec().pcie.time(bytes));
}

TEST(Device, ReduceCostModel) {
  topo::Machine m = gpu_machine(1);
  SimEngine engine(m);
  Device* dev = engine.context(0).gpu();
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(dev->reduce_cost(0), m.spec().gpu_kernel_launch);
  EXPECT_GT(dev->reduce_cost(mib(1)), dev->reduce_cost(kib(1)));
}

// ----------------------------------------------------------- collectives ---

class GpuLibraryCorrectness : public testing::TestWithParam<std::string> {};

TEST_P(GpuLibraryCorrectness, BcastAndReduceRealData) {
  const std::string name = GetParam();
  topo::Machine m = gpu_machine(2);  // 8 GPUs over 2 nodes
  const int n = m.nranks();
  const mpi::Comm world = mpi::Comm::world(n);
  auto lib = coll::make_library(name, m);

  {
    runtime::SimEngineOptions options;
    options.gpu = lib->gpu_config();
    SimEngine engine(m, options);
    const Bytes bytes = 4096;
    Rng rng(5);
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(n),
        std::vector<std::byte>(static_cast<std::size_t>(bytes)));
    for (auto& b : bufs[0]) b = std::byte(rng.next_below(256));
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await lib->bcast(ctx, world, mpi::MutView{mine.data(), bytes}, 0);
    };
    engine.run(program);
    for (int r = 0; r < n; ++r) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)], bufs[0])
          << name << " bcast rank " << r;
    }
  }
  {
    runtime::SimEngineOptions options;
    options.gpu = lib->gpu_config();
    SimEngine engine(m, options);
    std::vector<std::vector<float>> contrib(static_cast<std::size_t>(n));
    std::vector<float> expected(256, 0.f);
    for (int r = 0; r < n; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(256);
      for (std::size_t i = 0; i < 256; ++i) {
        v[i] = static_cast<float>(r + 1);
        expected[i] += v[i];
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await lib->reduce(
          ctx, world,
          mpi::MutView{reinterpret_cast<std::byte*>(mine.data()), 1024},
          mpi::ReduceOp::kSum, mpi::Datatype::kFloat, 0);
    };
    engine.run(program);
    EXPECT_EQ(contrib[0], expected) << name << " reduce";
  }
}

INSTANTIATE_TEST_SUITE_P(AllGpuPersonalities, GpuLibraryCorrectness,
                         testing::Values("mvapich-gpu", "ompi-default-gpu",
                                         "ompi-adapt-gpu"),
                         [](const auto& param_info) {
                           std::string s = param_info.param;
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

/// Slowest rank's simulated time for one synthetic `msg`-byte bcast (or
/// reduce) from root 0 under personality `name` on `m`.
TimeNs gpu_coll_time(const std::string& name, const topo::Machine& m,
                     Bytes msg, bool reduce) {
  const mpi::Comm world = mpi::Comm::world(m.nranks());
  auto lib = coll::make_library(name, m);
  runtime::SimEngineOptions options;
  options.gpu = lib->gpu_config();
  SimEngine engine(m, options);
  TimeNs worst = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    const TimeNs t0 = ctx.now();
    mpi::MutView buffer{nullptr, msg};
    if (reduce) {
      co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                           mpi::Datatype::kFloat, 0);
    } else {
      co_await lib->bcast(ctx, world, buffer, 0);
    }
    worst = std::max(worst, ctx.now() - t0);
  };
  engine.run(program);
  return worst;
}

TEST(GpuColl, AdaptBeatsNaiveBaselines) {
  // The §4 optimisations must show: adapt-gpu faster than both baselines for
  // a large broadcast AND reduce on 2 nodes.
  topo::Machine m = gpu_machine(2);
  const Bytes msg = mib(16);
  std::map<std::string, double> bcast_ms, reduce_ms;
  for (const std::string& name : coll::gpu_libraries()) {
    bcast_ms[name] = to_ms(gpu_coll_time(name, m, msg, /*reduce=*/false));
    reduce_ms[name] = to_ms(gpu_coll_time(name, m, msg, /*reduce=*/true));
  }
  EXPECT_LT(bcast_ms["ompi-adapt-gpu"], bcast_ms["mvapich-gpu"]);
  EXPECT_LT(bcast_ms["ompi-adapt-gpu"], bcast_ms["ompi-default-gpu"]);
  // §4.2's offload is worth several x on reduce.
  EXPECT_LT(reduce_ms["ompi-adapt-gpu"] * 2, reduce_ms["mvapich-gpu"]);
  EXPECT_LT(reduce_ms["ompi-adapt-gpu"] * 2, reduce_ms["ompi-default-gpu"]);
}

TEST(GpuColl, AdaptFinishTimesPinned) {
  // Exact simulated times of the three GPU personalities at 16 MiB. For
  // ADAPT: the §4.1 host-cache staging copies (bcast) and the §4.2 stream
  // folds (reduce); any change to how the segment machine drives them moves
  // these. The two baselines pin their trees, segments, memory spaces and
  // CPU-fold γ scale.
  topo::Machine m = gpu_machine(2);
  EXPECT_EQ(gpu_coll_time("ompi-adapt-gpu", m, mib(16), /*reduce=*/false),
            TimeNs{4119686});
  EXPECT_EQ(gpu_coll_time("ompi-adapt-gpu", m, mib(16), /*reduce=*/true),
            TimeNs{3835168});
  EXPECT_EQ(gpu_coll_time("mvapich-gpu", m, mib(16), /*reduce=*/false),
            TimeNs{6977693});
  EXPECT_EQ(gpu_coll_time("mvapich-gpu", m, mib(16), /*reduce=*/true),
            TimeNs{34121561});
  EXPECT_EQ(gpu_coll_time("ompi-default-gpu", m, mib(16), /*reduce=*/false),
            TimeNs{8311687});
  EXPECT_EQ(gpu_coll_time("ompi-default-gpu", m, mib(16), /*reduce=*/true),
            TimeNs{26325413});
}

TEST(GpuColl, TreeCacheKeysOnCommunicator) {
  // One library object serves the world and then a smaller sub-communicator
  // with the same root: the second call needs a tree of its own.
  topo::Machine m = gpu_machine(2);
  const int n = m.nranks();
  const mpi::Comm world = mpi::Comm::world(n);
  const mpi::Comm half(std::vector<Rank>{0, 1, 4, 5});  // spans both nodes
  for (const std::string name : {"mvapich-gpu", "ompi-adapt-gpu"}) {
    auto lib = coll::make_library(name, m);
    runtime::SimEngineOptions options;
    options.gpu = lib->gpu_config();
    SimEngine engine(m, options);
    const Bytes bytes = 4096;
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(n),
        std::vector<std::byte>(static_cast<std::size_t>(bytes)));
    std::vector<std::byte> second(static_cast<std::size_t>(bytes));
    Rng rng(11);
    for (auto& b : bufs[0]) b = std::byte(rng.next_below(256));
    for (auto& b : second) b = std::byte(rng.next_below(256));
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await lib->bcast(ctx, world, mpi::MutView{mine.data(), bytes}, 0);
      if (!half.contains(ctx.rank())) co_return;
      if (ctx.rank() == 0) mine = second;
      co_await lib->bcast(ctx, half, mpi::MutView{mine.data(), bytes}, 0);
    };
    engine.run(program);
    for (const Rank r : half.members()) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], second)
          << name << " sub-communicator bcast, rank " << r;
    }
  }
}

TEST(GpuColl, RejectsCpuOnlyMachine) {
  topo::Machine m(topo::cori(1), 8);
  EXPECT_THROW(coll::make_library("ompi-adapt-gpu", m), Error);
}

}  // namespace
}  // namespace adapt::gpu
