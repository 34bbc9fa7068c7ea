// The ThreadEngine runs the same rank programs as the SimEngine, but on real
// OS threads with real byte movement — these tests exercise the framework's
// concurrency for real (mailbox hand-off, rank-confined endpoints, coroutine
// resumption on owner threads).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <utility>

#include "src/coll/coll.hpp"
#include "src/coll/library.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace adapt::runtime {
namespace {

topo::Machine small_machine(int ranks) {
  static topo::MachineSpec spec = topo::cori(2);
  return topo::Machine(spec, ranks);
}

TEST(ThreadEngine, PingPong) {
  topo::Machine m = small_machine(2);
  ThreadEngine engine(m);
  std::vector<std::byte> ping(256), pong(256), got_ping(256), got_pong(256);
  ping.assign(256, std::byte(0x11));
  pong.assign(256, std::byte(0x22));
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, mpi::ConstView{ping.data(), 256});
      co_await ctx.recv(1, 2, mpi::MutView{got_pong.data(), 256});
    } else {
      co_await ctx.recv(0, 1, mpi::MutView{got_ping.data(), 256});
      co_await ctx.send(0, 2, mpi::ConstView{pong.data(), 256});
    }
  };
  engine.run(program);
  EXPECT_EQ(std::memcmp(got_ping.data(), ping.data(), 256), 0);
  EXPECT_EQ(std::memcmp(got_pong.data(), pong.data(), 256), 0);
}

TEST(ThreadEngine, ManyConcurrentSendsComplete) {
  topo::Machine m = small_machine(8);
  ThreadEngine engine(m);
  std::atomic<int> received{0};
  auto program = [&](Context& ctx) -> sim::Task<> {
    const int kMsgs = 20;
    if (ctx.rank() == 0) {
      std::vector<mpi::RequestPtr> sends;
      for (int i = 0; i < kMsgs; ++i) {
        for (Rank r = 1; r < 8; ++r) {
          sends.push_back(ctx.isend(r, i, mpi::ConstView{nullptr, 64}));
        }
      }
      co_await mpi::wait_all(sends);
    } else {
      std::vector<mpi::RequestPtr> recvs;
      for (int i = 0; i < kMsgs; ++i) {
        recvs.push_back(ctx.irecv(0, i, mpi::MutView{nullptr, 64}));
      }
      co_await mpi::wait_all(recvs);
      received += kMsgs;
    }
  };
  engine.run(program);
  EXPECT_EQ(received.load(), 7 * 20);
}

TEST(ThreadEngine, BarrierSynchronises) {
  topo::Machine m = small_machine(8);
  ThreadEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(8);
  std::atomic<int> entered{0};
  std::atomic<bool> violated{false};
  auto program = [&](Context& ctx) -> sim::Task<> {
    ++entered;
    co_await coll::barrier(ctx, world);
    if (entered.load() != 8) violated = true;
  };
  engine.run(program);
  EXPECT_FALSE(violated.load());
}

class ThreadEngineColl : public testing::TestWithParam<coll::Style> {};

TEST_P(ThreadEngineColl, BcastDeliversRealBytes) {
  const coll::Style style = GetParam();
  const int n = 12;
  topo::Machine m = small_machine(n);
  ThreadEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const coll::Tree tree = coll::build_topo_tree(m, world, 0);
  const Bytes bytes = 8192;
  Rng rng(4);
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(n),
      std::vector<std::byte>(static_cast<std::size_t>(bytes)));
  for (auto& b : bufs[0]) b = std::byte(rng.next_below(256));
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await coll::bcast(ctx, world, mpi::MutView{mine.data(), bytes}, 0,
                         tree, style, coll::CollOpts{.segment_size = 1024});
  };
  engine.run(program);
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                          bufs[0].data(), static_cast<std::size_t>(bytes)),
              0)
        << "rank " << r;
  }
}

TEST_P(ThreadEngineColl, ReduceMatchesSerialSum) {
  const coll::Style style = GetParam();
  const int n = 9;
  topo::Machine m = small_machine(n);
  ThreadEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const coll::Tree tree = coll::binomial_tree(n, 2);
  std::vector<std::vector<std::int64_t>> contrib(static_cast<std::size_t>(n));
  std::vector<std::int64_t> expected(64, 0);
  Rng rng(8);
  for (int r = 0; r < n; ++r) {
    auto& v = contrib[static_cast<std::size_t>(r)];
    v.resize(64);
    for (std::size_t i = 0; i < 64; ++i) {
      v[i] = rng.next_in(-100, 100);
      expected[i] += v[i];
    }
  }
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await coll::reduce(
        ctx, world,
        mpi::MutView{reinterpret_cast<std::byte*>(mine.data()), 512},
        mpi::ReduceOp::kSum, mpi::Datatype::kInt64, 2, tree, style,
        coll::CollOpts{.segment_size = 128});
  };
  engine.run(program);
  EXPECT_EQ(contrib[2], expected);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, ThreadEngineColl,
                         testing::Values(coll::Style::kBlocking,
                                         coll::Style::kNonblocking,
                                         coll::Style::kAdapt),
                         [](const auto& param_info) {
                           return std::string(coll::style_name(param_info.param));
                         });

// ADAPT's event-driven pipelines (Alg. 3) under real threads, across the N/M
// flow-control corners: deep pipelines (many small segments), M > N (the
// intended configuration), and M < N (sends overrun posted receives, forcing
// the unexpected-message path on a live mailbox).
class ThreadEngineAdaptPipeline
    : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ThreadEngineAdaptPipeline, DeepPipelineBcast) {
  const auto [n_out, m_out] = GetParam();
  const int n = 12;
  topo::Machine m = small_machine(n);
  ThreadEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const coll::Tree tree = coll::build_topo_tree(m, world, 2);
  const Bytes bytes = 16384;
  Rng rng(31);
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(n),
      std::vector<std::byte>(static_cast<std::size_t>(bytes)));
  for (auto& b : bufs[2]) b = std::byte(rng.next_below(256));
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await coll::bcast(ctx, world, mpi::MutView{mine.data(), bytes}, 2,
                         tree, coll::Style::kAdapt,
                         coll::CollOpts{.segment_size = 256,  // 64 segments
                                        .outstanding_sends = n_out,
                                        .outstanding_recvs = m_out});
  };
  engine.run(program);
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(bufs[static_cast<std::size_t>(r)], bufs[2]) << "rank " << r;
  }
}

TEST_P(ThreadEngineAdaptPipeline, DeepPipelineReduce) {
  const auto [n_out, m_out] = GetParam();
  const int n = 10;
  topo::Machine m = small_machine(n);
  ThreadEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(n);
  const coll::Tree tree = coll::build_topo_tree(m, world, 0);
  const std::size_t elems = 1024;  // 32 segments of 128 B
  std::vector<std::vector<std::int32_t>> contrib(static_cast<std::size_t>(n));
  std::vector<std::int32_t> expected(elems, 0);
  Rng rng(77);
  for (int r = 0; r < n; ++r) {
    auto& v = contrib[static_cast<std::size_t>(r)];
    v.resize(elems);
    for (std::size_t i = 0; i < elems; ++i) {
      v[i] = static_cast<std::int32_t>(rng.next_in(-500, 500));
      expected[i] += v[i];
    }
  }
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await coll::reduce(
        ctx, world,
        mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                     static_cast<Bytes>(elems * 4)},
        mpi::ReduceOp::kSum, mpi::Datatype::kInt32, 0, tree,
        coll::Style::kAdapt,
        coll::CollOpts{.segment_size = 128,
                       .outstanding_sends = n_out,
                       .outstanding_recvs = m_out});
  };
  engine.run(program);
  EXPECT_EQ(contrib[0], expected);
}

INSTANTIATE_TEST_SUITE_P(
    FlowControl, ThreadEngineAdaptPipeline,
    testing::Values(std::pair<int, int>{1, 2}, std::pair<int, int>{2, 4},
                    std::pair<int, int>{4, 8}, std::pair<int, int>{3, 2}),
    [](const auto& param_info) {
      return "N" + std::to_string(param_info.param.first) + "M" +
             std::to_string(param_info.param.second);
    });

TEST(ThreadEngine, LibraryPersonalityRunsForReal) {
  const int n = 8;
  // Four ranks on each of two nodes, so both levels of intel's hierarchy
  // and of ompi-han's fused tree run, and the world's tree cache is
  // filled from concurrent rank threads.
  const topo::Machine m(topo::cori(2),
                        std::vector<int>{0, 1, 2, 3, 32, 33, 34, 35});
  const mpi::Comm world = mpi::Comm::world(n);
  for (const char* name : {"ompi-adapt", "intel", "ompi-han"}) {
    ThreadEngine engine(m);
    auto lib = coll::make_library(name, m);
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(n), std::vector<std::byte>(4096));
    bufs[3].assign(4096, std::byte(0x7E));
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await lib->bcast(ctx, world, mpi::MutView{mine.data(), 4096}, 3);
    };
    engine.run(program);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)][4095], std::byte(0x7E))
          << name << " rank " << r;
    }
  }
}

TEST(ThreadEngine, PropagatesProgramException) {
  topo::Machine m = small_machine(2);
  ThreadEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 1) throw Error("rank 1 exploded");
    co_return;
  };
  EXPECT_THROW(engine.run(program), Error);
}

TEST(ThreadEngine, ComputeAdvancesClock) {
  topo::Machine m = small_machine(1);
  ThreadEngine engine(m);
  TimeNs elapsed = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    const TimeNs t0 = ctx.now();
    co_await ctx.compute(milliseconds(2));
    elapsed = ctx.now() - t0;
  };
  engine.run(program);
  EXPECT_GE(elapsed, milliseconds(2));
}

}  // namespace
}  // namespace adapt::runtime
