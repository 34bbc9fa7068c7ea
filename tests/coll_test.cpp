#include <gtest/gtest.h>

#include <cstring>

#include "src/coll/coll.hpp"
#include "src/coll/library.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace adapt::coll {
namespace {

using runtime::Context;
using runtime::SimEngine;

struct Case {
  Style style;
  TreeKind kind;
  int nranks;
  Bytes bytes;
  Bytes seg;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return std::string(style_name(c.style)) + "_" + tree_kind_name(c.kind) +
         "_p" + std::to_string(c.nranks) + "_b" + std::to_string(c.bytes) +
         "_s" + std::to_string(c.seg);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (Style style : {Style::kBlocking, Style::kNonblocking, Style::kAdapt}) {
    for (TreeKind kind : {TreeKind::kChain, TreeKind::kFlat, TreeKind::kBinary,
                          TreeKind::kBinomial, TreeKind::kKNomial}) {
      for (int nranks : {1, 2, 5, 16}) {
        cases.push_back({style, kind, nranks, 4096, 1024});
      }
      // Non-divisible segmentation and sub-segment messages.
      cases.push_back({style, kind, 7, 1000, 384});
      cases.push_back({style, kind, 4, 100, 4096});
      // Zero-byte collective still completes.
      cases.push_back({style, kind, 3, 0, 256});
    }
  }
  return cases;
}

class BcastCorrectness : public testing::TestWithParam<Case> {};

TEST_P(BcastCorrectness, DeliversRootBytesEverywhere) {
  const Case c = GetParam();
  topo::Machine m(topo::cori(4), std::max(c.nranks, 1));
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(c.nranks);
  const Rank root = c.nranks / 3;
  const Tree tree = build_tree(c.kind, c.nranks, root, 3);

  Rng rng(42);
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(c.nranks));
  for (auto& b : bufs) b.resize(static_cast<std::size_t>(c.bytes));
  for (auto& byte : bufs[static_cast<std::size_t>(root)]) {
    byte = std::byte(rng.next_below(256));
  }

  CollOpts opts;
  opts.segment_size = c.seg;
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await bcast(ctx, world, mpi::MutView{mine.data(), c.bytes}, root, tree,
                   c.style, opts);
  };
  engine.run(program);

  if (c.bytes == 0) return;  // memcmp on the null data() of empty buffers is UB
  for (int r = 0; r < c.nranks; ++r) {
    ASSERT_EQ(std::memcmp(bufs[static_cast<std::size_t>(r)].data(),
                          bufs[static_cast<std::size_t>(root)].data(),
                          static_cast<std::size_t>(c.bytes)),
              0)
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStylesTreesSizes, BcastCorrectness,
                         testing::ValuesIn(all_cases()), case_name);

class ReduceCorrectness : public testing::TestWithParam<Case> {};

TEST_P(ReduceCorrectness, MatchesSerialFold) {
  const Case c = GetParam();
  if (c.bytes % 4 != 0) GTEST_SKIP() << "int32 payloads only";
  topo::Machine m(topo::cori(4), std::max(c.nranks, 1));
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(c.nranks);
  const Rank root = c.nranks / 2;
  const Tree tree = build_tree(c.kind, c.nranks, root, 3);

  const std::size_t n_elems = static_cast<std::size_t>(c.bytes) / 4;
  Rng rng(7);
  std::vector<std::vector<std::int32_t>> contrib(
      static_cast<std::size_t>(c.nranks));
  std::vector<std::int32_t> expected(n_elems, 0);
  for (int r = 0; r < c.nranks; ++r) {
    auto& v = contrib[static_cast<std::size_t>(r)];
    v.resize(n_elems);
    for (std::size_t i = 0; i < n_elems; ++i) {
      v[i] = static_cast<std::int32_t>(rng.next_in(-1000, 1000));
      expected[i] += v[i];
    }
  }

  CollOpts opts;
  opts.segment_size = c.seg;
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await reduce(ctx, world,
                    mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                 c.bytes},
                    mpi::ReduceOp::kSum, mpi::Datatype::kInt32, root, tree,
                    c.style, opts);
  };
  engine.run(program);

  EXPECT_EQ(contrib[static_cast<std::size_t>(root)],
            expected);
}

INSTANTIATE_TEST_SUITE_P(AllStylesTreesSizes, ReduceCorrectness,
                         testing::ValuesIn(all_cases()), case_name);

// --------------------------------------------------------------- extras ---

TEST(Bcast, TopoAwareTreeWorksWithEveryStyle) {
  topo::Machine m(topo::cori(2), 64);
  const mpi::Comm world = mpi::Comm::world(64);
  const Tree tree = build_topo_tree(m, world, 0);
  for (Style style :
       {Style::kBlocking, Style::kNonblocking, Style::kAdapt}) {
    SimEngine engine(m);
    std::vector<std::vector<std::byte>> bufs(64);
    for (auto& b : bufs) b.resize(2048);
    bufs[0].assign(2048, std::byte(0xAB));
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await bcast(ctx, world, mpi::MutView{mine.data(), 2048}, 0, tree,
                     style, CollOpts{.segment_size = 512});
    };
    engine.run(program);
    for (int r = 0; r < 64; ++r) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(r)][2047], std::byte(0xAB))
          << style_name(style) << " rank " << r;
    }
  }
}

TEST(Bcast, SyntheticPayloadTakesSamePath) {
  topo::Machine m(topo::cori(1), 16);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(16);
  const Tree tree = chain_tree(16, 0);
  TimeNs finish = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                   Style::kAdapt, CollOpts{.segment_size = kib(128)});
    finish = std::max(finish, ctx.now());
  };
  engine.run(program);
  EXPECT_GT(finish, 0);
}

TEST(Bcast, SubCommunicator) {
  topo::Machine m(topo::cori(1), 16);
  SimEngine engine(m);
  const mpi::Comm sub({2, 3, 5, 7, 11});
  const Tree tree = binomial_tree(5, 0);
  std::vector<std::vector<std::byte>> bufs(16);
  for (auto& b : bufs) b.assign(128, std::byte(0));
  bufs[2].assign(128, std::byte(0x5C));
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (!sub.contains(ctx.rank())) co_return;
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    co_await bcast(ctx, sub, mpi::MutView{mine.data(), 128}, 0, tree,
                   Style::kNonblocking, CollOpts{.segment_size = 64});
  };
  engine.run(program);
  for (Rank r : sub.members()) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)][100], std::byte(0x5C));
  }
  EXPECT_EQ(bufs[4][100], std::byte(0));  // non-member untouched
}

// The topology trees a library runs are cached on the communicator. Two
// communicators of the same size and first member but different membership
// need different trees: B spans four nodes, A one. Running A first must not
// hand B A's tree, in one library object or across two.
TEST(Library, TreeCacheKeysOnFullMembership) {
  const topo::Machine m(topo::cori(4), 128);
  const mpi::Comm a({0, 1, 2, 3, 4, 5, 6, 7});
  const mpi::Comm b({0, 32, 64, 96, 1, 33, 65, 97});
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.global(0), b.global(0));
  const auto bcast_on = [&](MpiLibrary& lib, const mpi::Comm& comm) {
    SimEngine engine(m);
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (!comm.contains(ctx.rank())) co_return;
      co_await lib.bcast(ctx, comm, mpi::MutView{nullptr, mib(1)}, 0);
    };
    return engine.run(program).total_time;
  };

  const auto fresh = make_library("ompi-adapt", m);
  const TimeNs b_fresh = bcast_on(*fresh, b);
  const auto shared = make_library("ompi-adapt", m);
  bcast_on(*shared, a);
  EXPECT_EQ(bcast_on(*shared, b), b_fresh);
  const TreeShape shape = TopoTreeSpec{};
  EXPECT_NE(cached_tree(m, a, 0, shape).parent,
            cached_tree(m, b, 0, shape).parent);
  EXPECT_EQ(cached_tree(m, b, 0, shape).parent,
            build_tree(m, b, 0, shape).parent);
}

TEST(Reduce, NonCommutativeSafetyViaMax) {
  topo::Machine m(topo::cori(1), 8);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(8);
  const Tree tree = binomial_tree(8, 0);
  std::vector<std::vector<double>> contrib(8);
  for (int r = 0; r < 8; ++r) {
    contrib[static_cast<std::size_t>(r)] = {static_cast<double>(r),
                                            static_cast<double>(-r)};
  }
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
    co_await reduce(ctx, world,
                    mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                 16},
                    mpi::ReduceOp::kMax, mpi::Datatype::kDouble, 0, tree,
                    Style::kAdapt, CollOpts{.segment_size = 8});
  };
  engine.run(program);
  EXPECT_DOUBLE_EQ(contrib[0][0], 7.0);
  EXPECT_DOUBLE_EQ(contrib[0][1], 0.0);
}

TEST(Barrier, AllRanksLeaveAfterLastEnters) {
  topo::Machine m(topo::cori(1), 16);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(16);
  TimeNs last_enter = 0;
  TimeNs first_leave = std::numeric_limits<TimeNs>::max();
  auto program = [&](Context& ctx) -> sim::Task<> {
    // Stagger entry: rank r arrives at r * 10us.
    co_await ctx.sleep_for(microseconds(10) * ctx.rank());
    last_enter = std::max(last_enter, ctx.now());
    co_await barrier(ctx, world);
    first_leave = std::min(first_leave, ctx.now());
  };
  engine.run(program);
  EXPECT_GE(first_leave, last_enter);
}

TEST(Barrier, SingleRankIsNoop) {
  topo::Machine m(topo::cori(1), 1);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(1);
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await barrier(ctx, world);
  };
  EXPECT_NO_THROW(engine.run(program));
}

TEST(Coll, MismatchedRootAndTreeRejected) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(4);
  const Tree tree = chain_tree(4, 1);
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await bcast(ctx, world, mpi::MutView{nullptr, 64}, 0, tree,
                   Style::kAdapt, CollOpts{.segment_size = 64});
  };
  EXPECT_THROW(engine.run(program), Error);
}

TEST(Segmenter, CountsAndLengths) {
  const Segmenter s(1000, 384);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.offset(0), 0);
  EXPECT_EQ(s.length(0), 384);
  EXPECT_EQ(s.offset(2), 768);
  EXPECT_EQ(s.length(2), 232);
  const Segmenter zero(0, 64);
  EXPECT_EQ(zero.count(), 1);
  EXPECT_EQ(zero.length(0), 0);
  const Segmenter exact(512, 128);
  EXPECT_EQ(exact.count(), 4);
  EXPECT_EQ(exact.length(3), 128);
}

}  // namespace
}  // namespace adapt::coll
