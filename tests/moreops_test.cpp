#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "src/coll/hierarchical.hpp"
#include "src/coll/library.hpp"
#include "src/coll/moreops.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"
#include "tests/engine_matrix.hpp"

namespace adapt::coll {
namespace {

using runtime::Context;
using runtime::SimEngine;

std::vector<std::byte> pattern(Bytes n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  for (auto& b : v) b = std::byte(rng.next_below(256));
  return v;
}

class ScatterGather : public testing::TestWithParam<int> {};

TEST_P(ScatterGather, ScatterDeliversBlocks) {
  const int n = GetParam();
  topo::Machine m(topo::cori(2), n);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const Rank root = n / 3;
  const Bytes block = 96;
  const auto sendbuf = pattern(block * n, 11);
  std::vector<std::vector<std::byte>> out(
      static_cast<std::size_t>(n),
      std::vector<std::byte>(static_cast<std::size_t>(block)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = out[static_cast<std::size_t>(ctx.rank())];
    co_await scatter(ctx, world,
                     mpi::ConstView{ctx.rank() == root ? sendbuf.data()
                                                       : nullptr,
                                    ctx.rank() == root ? block * n : 0},
                     mpi::MutView{mine.data(), block}, block, root);
  };
  engine.run(program);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(std::memcmp(out[static_cast<std::size_t>(r)].data(),
                          sendbuf.data() + r * block,
                          static_cast<std::size_t>(block)),
              0)
        << "rank " << r;
  }
}

TEST_P(ScatterGather, GatherCollectsBlocks) {
  const int n = GetParam();
  topo::Machine m(topo::cori(2), n);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const Rank root = n - 1;
  const Bytes block = 64;
  std::vector<std::vector<std::byte>> in;
  in.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    in.push_back(pattern(block, 100 + static_cast<std::uint64_t>(r)));
  }
  std::vector<std::byte> recvbuf(static_cast<std::size_t>(block * n));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = in[static_cast<std::size_t>(ctx.rank())];
    co_await gather(ctx, world, mpi::ConstView{mine.data(), block},
                    mpi::MutView{ctx.rank() == root ? recvbuf.data() : nullptr,
                                 ctx.rank() == root ? block * n : 0},
                    block, root);
  };
  engine.run(program);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(std::memcmp(recvbuf.data() + r * block,
                          in[static_cast<std::size_t>(r)].data(),
                          static_cast<std::size_t>(block)),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScatterGather,
                         testing::Values(1, 2, 3, 4, 7, 16, 33));

class AllgatherTest
    : public testing::TestWithParam<std::pair<int, AllgatherAlgo>> {};

TEST_P(AllgatherTest, EveryRankGetsEveryBlock) {
  const auto [n, algo] = GetParam();
  topo::Machine m(topo::cori(2), n);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const Bytes block = 80;
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(n),
      std::vector<std::byte>(static_cast<std::size_t>(block * n)));
  std::vector<std::byte> expected(static_cast<std::size_t>(block * n));
  for (int r = 0; r < n; ++r) {
    const auto mine = pattern(block, 7 + static_cast<std::uint64_t>(r));
    std::memcpy(bufs[static_cast<std::size_t>(r)].data() + r * block,
                mine.data(), static_cast<std::size_t>(block));
    std::memcpy(expected.data() + r * block, mine.data(),
                static_cast<std::size_t>(block));
  }
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await allgather(ctx, world, mpi::MutView{mine.data(), block * n},
                       block, algo);
  };
  engine.run(program);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                          expected.data(), expected.size()),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgos, AllgatherTest,
    testing::Values(std::pair{2, AllgatherAlgo::kRing},
                    std::pair{5, AllgatherAlgo::kRing},
                    std::pair{16, AllgatherAlgo::kRing},
                    std::pair{2, AllgatherAlgo::kRecursiveDoubling},
                    std::pair{8, AllgatherAlgo::kRecursiveDoubling},
                    std::pair{32, AllgatherAlgo::kRecursiveDoubling},
                    // non-power-of-two falls back to ring
                    std::pair{6, AllgatherAlgo::kRecursiveDoubling}));

TEST(BcastScatterAllgather, MatchesTreeBcast) {
  for (int n : {4, 7, 16}) {
    for (AllgatherAlgo algo :
         {AllgatherAlgo::kRing, AllgatherAlgo::kRecursiveDoubling}) {
      topo::Machine m(topo::cori(2), n);
      SimEngine engine(m);
      const mpi::Comm world = mpi::Comm::world(n);
      const Rank root = 1 % n;
      const Bytes bytes = 1000;  // not divisible by n: ragged tail
      const auto golden = pattern(bytes, 3);
      std::vector<std::vector<std::byte>> bufs(
          static_cast<std::size_t>(n),
          std::vector<std::byte>(static_cast<std::size_t>(bytes)));
      bufs[static_cast<std::size_t>(root)] = golden;
      auto program = [&](Context& ctx) -> sim::Task<> {
        auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
        co_await bcast_scatter_allgather(
            ctx, world, mpi::MutView{mine.data(), bytes}, root, algo);
      };
      engine.run(program);
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                              golden.data(), golden.size()),
                  0)
            << "n=" << n << " rank " << r;
      }
    }
  }
}

TEST(Rabenseifner, MatchesSerialSum) {
  for (int n : {2, 3, 4, 6, 8, 13, 16}) {
    topo::Machine m(topo::cori(2), n);
    SimEngine engine(m);
    const mpi::Comm world = mpi::Comm::world(n);
    const Rank root = n / 2;
    const std::size_t elems = 250;
    Rng rng(19);
    std::vector<std::vector<std::int32_t>> contrib(
        static_cast<std::size_t>(n));
    std::vector<std::int32_t> expected(elems, 0);
    for (int r = 0; r < n; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(elems);
      for (auto& x : v) {
        x = static_cast<std::int32_t>(rng.next_in(-50, 50));
      }
      for (std::size_t i = 0; i < elems; ++i) expected[i] += v[i];
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await reduce_rabenseifner(
          ctx, world,
          mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                       static_cast<Bytes>(elems * 4)},
          mpi::ReduceOp::kSum, mpi::Datatype::kInt32, root);
    };
    engine.run(program);
    EXPECT_EQ(contrib[static_cast<std::size_t>(root)], expected)
        << "n=" << n;
  }
}

TEST(Allreduce, EveryRankHasTheSum) {
  const int n = 12;
  topo::Machine m(topo::cori(2), n);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  std::vector<std::vector<std::int64_t>> contrib(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    contrib[static_cast<std::size_t>(r)] = {r + 1, 2 * r, -r};
  }
  const Tree rt = binomial_tree(n, 0);
  const Tree bt = binomial_tree(n, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await allreduce(ctx, world,
                       mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                    24},
                       mpi::ReduceOp::kSum, mpi::Datatype::kInt64, rt, bt,
                       Style::kAdapt, CollOpts{.segment_size = 8});
  };
  engine.run(program);
  const std::int64_t s1 = n * (n + 1) / 2;
  const std::int64_t s2 = n * (n - 1);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(contrib[static_cast<std::size_t>(r)][0], s1);
    EXPECT_EQ(contrib[static_cast<std::size_t>(r)][1], s2);
    EXPECT_EQ(contrib[static_cast<std::size_t>(r)][2], -s2 / 2);
  }
}


TEST(AllreduceRing, MatchesSerialSumAllSizes) {
  for (int n : {2, 3, 5, 8, 16}) {
    topo::Machine m(topo::cori(2), n);
    SimEngine engine(m);
    const mpi::Comm world = mpi::Comm::world(n);
    const std::size_t elems = 301;  // deliberately not divisible by n
    Rng rng(23);
    std::vector<std::vector<std::int32_t>> contrib(
        static_cast<std::size_t>(n));
    std::vector<std::int32_t> expected(elems, 0);
    for (int r = 0; r < n; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(elems);
      for (std::size_t i = 0; i < elems; ++i) {
        v[i] = static_cast<std::int32_t>(rng.next_in(-30, 30));
        expected[i] += v[i];
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await allreduce_ring(
          ctx, world,
          mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                       static_cast<Bytes>(elems * 4)},
          mpi::ReduceOp::kSum, mpi::Datatype::kInt32);
    };
    engine.run(program);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(contrib[static_cast<std::size_t>(r)], expected)
          << "n=" << n << " rank " << r;
    }
  }
}

TEST(AllreduceRing, SingleRankNoop) {
  topo::Machine m(topo::cori(1), 1);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(1);
  std::vector<std::int32_t> v = {1, 2, 3};
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await allreduce_ring(ctx, world,
                            mpi::MutView{reinterpret_cast<std::byte*>(v.data()),
                                         12},
                            mpi::ReduceOp::kSum, mpi::Datatype::kInt32);
  };
  engine.run(program);
  EXPECT_EQ(v, (std::vector<std::int32_t>{1, 2, 3}));
}

TEST(Alltoall, PersonalisedExchange) {
  for (int n : {2, 4, 6, 8}) {  // both power-of-two and not
    topo::Machine m(topo::cori(2), n);
    SimEngine engine(m);
    const mpi::Comm world = mpi::Comm::world(n);
    const Bytes block = 32;
    // sendbuf of rank i, block j = pattern(i, j).
    auto cell = [&](int i, int j) { return std::byte((i * 31 + j * 7) % 251); };
    std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(n)),
        recv(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      send[static_cast<std::size_t>(i)].resize(
          static_cast<std::size_t>(block * n));
      recv[static_cast<std::size_t>(i)].assign(
          static_cast<std::size_t>(block * n), std::byte(0));
      for (int j = 0; j < n; ++j) {
        for (Bytes b = 0; b < block; ++b) {
          send[static_cast<std::size_t>(i)]
              [static_cast<std::size_t>(j * block + b)] = cell(i, j);
        }
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      const auto me = static_cast<std::size_t>(ctx.rank());
      co_await alltoall(ctx, world,
                        mpi::ConstView{send[me].data(), block * n},
                        mpi::MutView{recv[me].data(), block * n}, block);
    };
    engine.run(program);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        // Rank j's block i must be what rank i sent to j.
        EXPECT_EQ(recv[static_cast<std::size_t>(j)]
                      [static_cast<std::size_t>(i * block)],
                  cell(i, j))
            << "n=" << n << " i=" << i << " j=" << j;
      }
    }
  }
}


// The nonblocking requests run on every engine: completion callbacks drive
// the round on the simulated engines' progress context and on the
// ThreadEngine's rank threads alike.
TEST(NonblockingColl, IbcastOverlapsComputeAndDeliversData) {
  for (const runtime::EngineKind kind : runtime::kAllEngines) {
    SCOPED_TRACE(runtime::engine_label(kind));
    topo::Machine m(topo::cori(2), 32);
    const auto engine = runtime::make_engine(kind, m);
    const mpi::Comm world = mpi::Comm::world(32);
    const Tree tree = binomial_tree(32, 0);
    const Bytes bytes = 4096;
    const auto golden = pattern(bytes, 9);
    std::vector<std::vector<std::byte>> bufs(
        32, std::vector<std::byte>(static_cast<std::size_t>(bytes)));
    bufs[0] = golden;
    std::vector<TimeNs> issue_latency(32, -1);
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      const TimeNs t0 = ctx.now();
      auto req = ibcast(ctx, world, mpi::MutView{mine.data(), bytes}, 0, tree,
                        CollOpts{.segment_size = 1024});
      issue_latency[static_cast<std::size_t>(ctx.rank())] = ctx.now() - t0;
      // Overlapped application compute while the collective progresses.
      co_await ctx.compute(microseconds(200));
      co_await req.wait(ctx);
    };
    engine->run(program);
    for (int r = 0; r < 32; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)], golden) << "rank " << r;
      // Issuing is immediate -- the collective runs asynchronously. The
      // ThreadEngine's clock is the host's, which moves while a rank works.
      if (kind == runtime::EngineKind::kThread) continue;
      EXPECT_EQ(issue_latency[static_cast<std::size_t>(r)], 0) << "rank " << r;
    }
  }
}

TEST(NonblockingColl, IreduceMatchesSerialSum) {
  for (const runtime::EngineKind kind : runtime::kAllEngines) {
    SCOPED_TRACE(runtime::engine_label(kind));
    topo::Machine m(topo::cori(1), 8);
    const auto engine = runtime::make_engine(kind, m);
    const mpi::Comm world = mpi::Comm::world(8);
    const Tree tree = chain_tree(8, 0);
    std::vector<std::vector<std::int32_t>> contrib(8);
    std::vector<std::int32_t> expected(128, 0);
    Rng rng(14);
    for (int r = 0; r < 8; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(128);
      for (std::size_t i = 0; i < 128; ++i) {
        v[i] = static_cast<std::int32_t>(rng.next_in(-5, 5));
        expected[i] += v[i];
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      auto req = ireduce(
          ctx, world,
          mpi::MutView{reinterpret_cast<std::byte*>(mine.data()), 512},
          mpi::ReduceOp::kSum, mpi::Datatype::kInt32, 0, tree,
          CollOpts{.segment_size = 128});
      co_await ctx.compute(microseconds(50));
      co_await req.wait(ctx);
    };
    engine->run(program);
    EXPECT_EQ(contrib[0], expected);
  }
}

TEST(NonblockingColl, SeveralInFlightCollectivesPipeline) {
  // Two ibcasts issued back to back progress concurrently; both complete.
  for (const runtime::EngineKind kind : runtime::kAllEngines) {
    SCOPED_TRACE(runtime::engine_label(kind));
    topo::Machine m(topo::cori(1), 16);
    const auto engine = runtime::make_engine(kind, m);
    const mpi::Comm world = mpi::Comm::world(16);
    const Tree tree = chain_tree(16, 0);
    std::vector<std::vector<std::byte>> a(16, std::vector<std::byte>(2048)),
        b(16, std::vector<std::byte>(2048));
    a[0].assign(2048, std::byte(0xA1));
    b[0].assign(2048, std::byte(0xB2));
    auto program = [&](Context& ctx) -> sim::Task<> {
      const auto me = static_cast<std::size_t>(ctx.rank());
      auto ra = ibcast(ctx, world, mpi::MutView{a[me].data(), 2048}, 0, tree,
                       CollOpts{.segment_size = 512});
      auto rb = ibcast(ctx, world, mpi::MutView{b[me].data(), 2048}, 0, tree,
                       CollOpts{.segment_size = 512});
      co_await ra.wait(ctx);
      co_await rb.wait(ctx);
    };
    engine->run(program);
    for (int r = 0; r < 16; ++r) {
      EXPECT_EQ(a[static_cast<std::size_t>(r)][2047], std::byte(0xA1));
      EXPECT_EQ(b[static_cast<std::size_t>(r)][2047], std::byte(0xB2));
    }
  }
}

TEST(Hierarchical, BcastAcrossNodes) {
  topo::Machine m(topo::cori(4), 64);  // 16 ranks per node
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(64);
  const Rank root = 20;  // node 1
  const Bytes bytes = 4096;
  const auto golden = pattern(bytes, 77);
  std::vector<std::vector<std::byte>> bufs(
      64, std::vector<std::byte>(static_cast<std::size_t>(bytes)));
  bufs[20] = golden;
  const HierLevels levels = hier_levels(m, world, root, TwoLevelShape{});
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await hier_bcast(ctx, world, mpi::MutView{mine.data(), bytes}, levels,
                        Style::kNonblocking, CollOpts{});
  };
  engine.run(program);
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                          golden.data(), golden.size()),
              0)
        << "rank " << r;
  }
}

TEST(Hierarchical, ReduceAcrossNodes) {
  topo::Machine m(topo::cori(4), 64);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(64);
  const Rank root = 5;
  std::vector<std::vector<std::int32_t>> contrib(64);
  std::vector<std::int32_t> expected(100, 0);
  Rng rng(5);
  for (int r = 0; r < 64; ++r) {
    auto& v = contrib[static_cast<std::size_t>(r)];
    v.resize(100);
    for (std::size_t i = 0; i < 100; ++i) {
      v[i] = static_cast<std::int32_t>(rng.next_in(0, 99));
      expected[i] += v[i];
    }
  }
  const HierLevels levels = hier_levels(m, world, root, TwoLevelShape{});
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await hier_reduce(ctx, world,
                         mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                      400},
                         mpi::ReduceOp::kSum, mpi::Datatype::kInt32, levels,
                         Style::kNonblocking, CollOpts{});
  };
  engine.run(program);
  EXPECT_EQ(contrib[5], expected);
}

// Every personality must produce correct results, whatever its structure.
class LibraryCorrectness : public testing::TestWithParam<std::string> {};

TEST_P(LibraryCorrectness, BcastAndReduce) {
  const std::string name = GetParam();
  topo::Machine m(topo::cori(4), 64);
  const mpi::Comm world = mpi::Comm::world(64);
  auto lib = make_library(name, m);

  const bool has_bcast = !(name == "intel-topo-shumilin" ||
                           name == "intel-topo-rabenseifner" ||
                           name == "intel-topo-shm-binomial");
  const bool has_reduce =
      !(name == "intel-topo-recdbl" || name == "intel-topo-ring");

  if (has_bcast) {
    SimEngine engine(m);
    const Bytes bytes = 6000;
    const auto golden = pattern(bytes, 1);
    std::vector<std::vector<std::byte>> bufs(
        64, std::vector<std::byte>(static_cast<std::size_t>(bytes)));
    bufs[0] = golden;
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await lib->bcast(ctx, world, mpi::MutView{mine.data(), bytes}, 0);
    };
    engine.run(program);
    for (int r = 0; r < 64; ++r) {
      ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                            golden.data(), golden.size()),
                0)
          << name << " bcast rank " << r;
    }
  }
  if (has_reduce) {
    SimEngine engine(m);
    std::vector<std::vector<std::int32_t>> contrib(64);
    std::vector<std::int32_t> expected(500, 0);
    Rng rng(2);
    for (int r = 0; r < 64; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(500);
      for (std::size_t i = 0; i < 500; ++i) {
        v[i] = static_cast<std::int32_t>(rng.next_in(-9, 9));
        expected[i] += v[i];
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await lib->reduce(
          ctx, world,
          mpi::MutView{reinterpret_cast<std::byte*>(mine.data()), 2000},
          mpi::ReduceOp::kSum, mpi::Datatype::kInt32, 0);
    };
    engine.run(program);
    EXPECT_EQ(contrib[0], expected) << name << " reduce";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPersonalities, LibraryCorrectness,
    testing::Values("ompi-adapt", "ompi-default", "ompi-default-topo", "cray",
                    "mvapich", "intel", "intel-topo-binomial",
                    "intel-topo-recdbl", "intel-topo-ring",
                    "intel-topo-shm-flat", "intel-topo-shm-knomial",
                    "intel-topo-shm-knary", "intel-topo-shm-binomial",
                    "intel-topo-shumilin", "intel-topo-rabenseifner"),
    [](const testing::TestParamInfo<std::string>& param_info) {
      std::string s = param_info.param;
      for (char& c : s)
        if (c == '-') c = '_';
      return s;
    });

TEST(Library, UnknownNameThrows) {
  topo::Machine m(topo::cori(1), 4);
  EXPECT_THROW(make_library("lam-mpi", m), Error);
}

TEST(Library, DefaultSegmentSizePolicy) {
  EXPECT_EQ(default_segment_size(0), 1);
  EXPECT_EQ(default_segment_size(kib(32)), kib(32));
  EXPECT_EQ(default_segment_size(kib(64)), kib(64));
  EXPECT_EQ(default_segment_size(kib(256)), kib(16));
  EXPECT_EQ(default_segment_size(mib(4)), kib(128));
  EXPECT_EQ(default_segment_size(mib(64)), kib(128));
}

TEST(Library, EndToEndSetsMatchPaper) {
  const auto cori = end_to_end_libraries("cori");
  EXPECT_EQ(cori.size(), 4u);
  EXPECT_TRUE(std::find(cori.begin(), cori.end(), "cray") != cori.end());
  const auto stampede = end_to_end_libraries("stampede2");
  EXPECT_TRUE(std::find(stampede.begin(), stampede.end(), "mvapich") !=
              stampede.end());
}

}  // namespace
}  // namespace adapt::coll
