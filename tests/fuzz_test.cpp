// Randomised property tests: the collectives must deliver correct data over
// ARBITRARY spanning trees (not just the named builders), arbitrary segment
// sizes, pipeline depths, roots, communicator subsets and machine shapes.
// Each case draws its configuration from a seeded generator, so failures
// reproduce exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "src/coll/coll.hpp"
#include "src/coll/persistent.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace adapt::coll {
namespace {

using runtime::Context;
using runtime::SimEngine;
using runtime::ThreadEngine;

/// A uniformly random spanning tree over [0, n) rooted at `root`: nodes are
/// attached in random order to a random already-attached parent.
Tree random_tree(int n, Rank root, Rng& rng) {
  std::vector<Rank> order;
  order.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    if (r != root) order.push_back(r);
  }
  // Fisher-Yates shuffle with our deterministic generator.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  TreeBuilder b(n, root);
  std::vector<Rank> attached = {root};
  for (Rank r : order) {
    b.edge(attached[rng.next_below(attached.size())], r);
    attached.push_back(r);
  }
  return std::move(b).finish();
}

struct FuzzConfig {
  int nranks;
  Rank root;
  Bytes bytes;
  Bytes segment;
  int n_out;
  int m_out;
  Style style;
  std::uint64_t tree_seed;
};

FuzzConfig draw(Rng& rng) {
  FuzzConfig c;
  c.nranks = static_cast<int>(rng.next_in(2, 40));
  c.root = static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(c.nranks)));
  c.bytes = rng.next_in(0, 6000);
  c.bytes -= c.bytes % 4;  // int32 payloads
  c.segment = rng.next_in(1, 2048);
  c.segment -= c.segment % 4;
  if (c.segment == 0) c.segment = 4;
  c.n_out = static_cast<int>(rng.next_in(1, 6));
  c.m_out = static_cast<int>(rng.next_in(1, 8));
  const auto s = rng.next_below(3);
  c.style = s == 0 ? Style::kBlocking
                   : (s == 1 ? Style::kNonblocking : Style::kAdapt);
  c.tree_seed = rng.next_u64();
  return c;
}

std::string describe(const FuzzConfig& c) {
  return std::string(style_name(c.style)) + " n=" + std::to_string(c.nranks) +
         " root=" + std::to_string(c.root) +
         " bytes=" + std::to_string(c.bytes) +
         " seg=" + std::to_string(c.segment) +
         " N=" + std::to_string(c.n_out) + " M=" + std::to_string(c.m_out) +
         " tree_seed=" + std::to_string(c.tree_seed);
}

class CollectiveFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CollectiveFuzz, BcastOnRandomTrees) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 6; ++iter) {
    const FuzzConfig c = draw(rng);
    Rng tree_rng(c.tree_seed);
    const Tree tree = random_tree(c.nranks, c.root, tree_rng);
    topo::Machine m(topo::cori(2), c.nranks);
    SimEngine engine(m);
    const mpi::Comm world = mpi::Comm::world(c.nranks);

    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(c.nranks),
        std::vector<std::byte>(static_cast<std::size_t>(c.bytes)));
    for (auto& b : bufs[static_cast<std::size_t>(c.root)]) {
      b = std::byte(rng.next_below(256));
    }
    CollOpts opts;
    opts.segment_size = c.segment;
    opts.outstanding_sends = c.n_out;
    opts.outstanding_recvs = c.m_out;
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await bcast(ctx, world, mpi::MutView{mine.data(), c.bytes}, c.root,
                     tree, c.style, opts);
    };
    ASSERT_NO_THROW(engine.run(program)) << describe(c);
    for (int r = 0; r < c.nranks; ++r) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
                bufs[static_cast<std::size_t>(c.root)])
          << describe(c) << " rank " << r;
    }
  }
}

TEST_P(CollectiveFuzz, ReduceOnRandomTrees) {
  Rng rng(GetParam() ^ 0x5eed);
  for (int iter = 0; iter < 6; ++iter) {
    const FuzzConfig c = draw(rng);
    Rng tree_rng(c.tree_seed);
    const Tree tree = random_tree(c.nranks, c.root, tree_rng);
    topo::Machine m(topo::cori(2), c.nranks);
    SimEngine engine(m);
    const mpi::Comm world = mpi::Comm::world(c.nranks);

    const std::size_t elems = static_cast<std::size_t>(c.bytes) / 4;
    std::vector<std::vector<std::int32_t>> contrib(
        static_cast<std::size_t>(c.nranks));
    std::vector<std::int32_t> expected(elems, 0);
    for (int r = 0; r < c.nranks; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(elems);
      for (std::size_t i = 0; i < elems; ++i) {
        v[i] = static_cast<std::int32_t>(rng.next_in(-1000, 1000));
        expected[i] += v[i];
      }
    }
    CollOpts opts;
    opts.segment_size = c.segment;
    opts.outstanding_sends = c.n_out;
    opts.outstanding_recvs = c.m_out;
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await reduce(ctx, world,
                      mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                   c.bytes},
                      mpi::ReduceOp::kSum, mpi::Datatype::kInt32, c.root,
                      tree, c.style, opts);
    };
    ASSERT_NO_THROW(engine.run(program)) << describe(c);
    EXPECT_EQ(contrib[static_cast<std::size_t>(c.root)], expected)
        << describe(c);
  }
}

TEST_P(CollectiveFuzz, BcastOnRandomSubCommunicators) {
  Rng rng(GetParam() ^ 0xc0de);
  for (int iter = 0; iter < 4; ++iter) {
    const int world_n = static_cast<int>(rng.next_in(8, 48));
    topo::Machine m(topo::cori(2), world_n);
    // Random subset of at least 2 members.
    std::vector<Rank> members;
    for (Rank r = 0; r < world_n; ++r) {
      if (rng.next_double() < 0.5) members.push_back(r);
    }
    if (members.size() < 2) members = {0, static_cast<Rank>(world_n - 1)};
    const mpi::Comm sub(members);
    const Rank root =
        static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(sub.size())));
    Rng tree_rng(rng.next_u64());
    const Tree tree = random_tree(sub.size(), root, tree_rng);

    SimEngine engine(m);
    const Bytes bytes = 512;
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(world_n), std::vector<std::byte>(512));
    bufs[static_cast<std::size_t>(sub.global(root))].assign(512,
                                                            std::byte(0x3C));
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (!sub.contains(ctx.rank())) co_return;
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await bcast(ctx, sub, mpi::MutView{mine.data(), bytes}, root, tree,
                     Style::kAdapt, CollOpts{.segment_size = 128});
    };
    engine.run(program);
    for (Rank g : sub.members()) {
      EXPECT_EQ(bufs[static_cast<std::size_t>(g)][511], std::byte(0x3C));
    }
  }
}

TEST_P(CollectiveFuzz, AdaptBcastUnderPerturbedSchedules) {
  // The fuzzed configurations again, but each run on a randomly perturbed
  // event schedule (seeded tie-shuffling + delivery jitter): payload
  // correctness may not depend on which legal schedule the engine picks.
  Rng rng(GetParam() ^ 0x9e57);
  for (int iter = 0; iter < 4; ++iter) {
    const FuzzConfig c = draw(rng);
    const std::uint64_t perturb_seed = rng.next_u64() | 1;  // never 0
    Rng tree_rng(c.tree_seed);
    const Tree tree = random_tree(c.nranks, c.root, tree_rng);
    topo::Machine m(topo::cori(2), c.nranks);
    runtime::SimEngineOptions engine_opts;
    engine_opts.perturb = sim::PerturbConfig{
        .seed = perturb_seed, .max_jitter = microseconds(5)};
    SimEngine engine(m, engine_opts);
    const mpi::Comm world = mpi::Comm::world(c.nranks);

    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(c.nranks),
        std::vector<std::byte>(static_cast<std::size_t>(c.bytes)));
    for (auto& b : bufs[static_cast<std::size_t>(c.root)]) {
      b = std::byte(rng.next_below(256));
    }
    CollOpts opts;
    opts.segment_size = c.segment;
    opts.outstanding_sends = c.n_out;
    opts.outstanding_recvs = c.m_out;
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await bcast(ctx, world, mpi::MutView{mine.data(), c.bytes}, c.root,
                     tree, Style::kAdapt, opts);
    };
    ASSERT_NO_THROW(engine.run(program))
        << describe(c) << " perturb_seed=" << perturb_seed;
    for (int r = 0; r < c.nranks; ++r) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)],
                bufs[static_cast<std::size_t>(c.root)])
          << describe(c) << " perturb_seed=" << perturb_seed << " rank " << r;
    }
  }
}

TEST_P(CollectiveFuzz, AdaptReduceUnderPerturbedSchedules) {
  Rng rng(GetParam() ^ 0x7a1e);
  for (int iter = 0; iter < 3; ++iter) {
    const FuzzConfig c = draw(rng);
    const std::uint64_t perturb_seed = rng.next_u64() | 1;
    Rng tree_rng(c.tree_seed);
    const Tree tree = random_tree(c.nranks, c.root, tree_rng);
    topo::Machine m(topo::cori(2), c.nranks);
    runtime::SimEngineOptions engine_opts;
    engine_opts.perturb = sim::PerturbConfig{
        .seed = perturb_seed, .max_jitter = microseconds(5)};
    SimEngine engine(m, engine_opts);
    const mpi::Comm world = mpi::Comm::world(c.nranks);

    const std::size_t elems = static_cast<std::size_t>(c.bytes) / 4;
    std::vector<std::vector<std::int32_t>> contrib(
        static_cast<std::size_t>(c.nranks));
    std::vector<std::int32_t> expected(elems, 0);
    for (int r = 0; r < c.nranks; ++r) {
      auto& v = contrib[static_cast<std::size_t>(r)];
      v.resize(elems);
      for (std::size_t i = 0; i < elems; ++i) {
        v[i] = static_cast<std::int32_t>(rng.next_in(-1000, 1000));
        expected[i] += v[i];
      }
    }
    CollOpts opts;
    opts.segment_size = c.segment;
    opts.outstanding_sends = c.n_out;
    opts.outstanding_recvs = c.m_out;
    auto program = [&](Context& ctx) -> sim::Task<> {
      auto& mine = contrib[static_cast<std::size_t>(ctx.rank())];
      co_await reduce(ctx, world,
                      mpi::MutView{reinterpret_cast<std::byte*>(mine.data()),
                                   c.bytes},
                      mpi::ReduceOp::kSum, mpi::Datatype::kInt32, c.root,
                      tree, Style::kAdapt, opts);
    };
    ASSERT_NO_THROW(engine.run(program))
        << describe(c) << " perturb_seed=" << perturb_seed;
    EXPECT_EQ(contrib[static_cast<std::size_t>(c.root)], expected)
        << describe(c) << " perturb_seed=" << perturb_seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Persistent-collective lifecycle fuzz: several independent handles per rank,
// every round interleaving start / pready / wait in a seeded per-rank order.
// start() and pready() never suspend, so any per-rank ordering that keeps
// start -> pready -> wait per handle is deadlock-free by construction — the
// property this fuzz hammers on is that arbitrary interleavings (including
// out-of-order and duplicate pready) still deliver correct payloads.
// ---------------------------------------------------------------------------

struct PersistentHandleCfg {
  PersistentOp::Kind kind;
  Rank root;
  Bytes bytes;
  Bytes segment;
  int partitions;  // 0 = non-partitioned
};

struct PersistentFuzzConfig {
  int nranks;
  int rounds;
  std::vector<PersistentHandleCfg> handles;
};

PersistentFuzzConfig draw_persistent(Rng& rng, int max_ranks, int rounds) {
  PersistentFuzzConfig c;
  c.nranks = static_cast<int>(rng.next_in(2, max_ranks));
  c.rounds = rounds;
  const int n_handles = static_cast<int>(rng.next_in(2, 4));
  for (int h = 0; h < n_handles; ++h) {
    PersistentHandleCfg hc;
    const auto k = rng.next_below(4);
    hc.kind = k == 0   ? PersistentOp::Kind::kBcast
              : k == 1 ? PersistentOp::Kind::kReduce
              : k == 2 ? PersistentOp::Kind::kAllreduce
                       : PersistentOp::Kind::kBarrier;
    hc.root =
        static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(c.nranks)));
    hc.bytes = rng.next_in(4, 3000);
    hc.bytes -= hc.bytes % 4;
    hc.segment = rng.next_in(4, 512);
    hc.segment -= hc.segment % 4;
    hc.partitions = 0;
    if (hc.kind == PersistentOp::Kind::kBarrier) {
      hc.bytes = 0;
    } else if (rng.next_below(2) == 0) {
      hc.partitions = static_cast<int>(rng.next_in(2, 6));
    }
    c.handles.push_back(hc);
  }
  return c;
}

std::string describe(const PersistentFuzzConfig& c) {
  std::string s = "n=" + std::to_string(c.nranks) +
                  " rounds=" + std::to_string(c.rounds);
  for (const PersistentHandleCfg& h : c.handles) {
    const char* kind = h.kind == PersistentOp::Kind::kBcast      ? "bcast"
                       : h.kind == PersistentOp::Kind::kReduce   ? "reduce"
                       : h.kind == PersistentOp::Kind::kAllreduce
                           ? "allreduce"
                           : "barrier";
    s += std::string(" [") + kind + " root=" + std::to_string(h.root) +
         " bytes=" + std::to_string(h.bytes) +
         " seg=" + std::to_string(h.segment) +
         " P=" + std::to_string(h.partitions) + "]";
  }
  return s;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// Per-element int32 contribution: small magnitudes so sums never overflow.
std::int32_t contrib_val(int rank, int h, int round, std::size_t i) {
  return static_cast<std::int32_t>(
      (rank * 31 + h * 17 + round * 7 + static_cast<int>(i % 97)) % 201 - 100);
}

std::byte bcast_val(const PersistentHandleCfg& h, int hi, int round,
                    std::size_t i) {
  return std::byte((static_cast<std::size_t>(h.root) * 131 +
                    static_cast<std::size_t>(hi) * 29 +
                    static_cast<std::size_t>(round) * 17 + i * 7) &
                   0xff);
}

/// Runs `c` on `engine`, reporting the first per-rank failure into
/// `errs[rank]` (string-based so the program body is thread-safe under the
/// ThreadEngine — gtest assertions are not).
void run_persistent_case(runtime::Engine& engine, const PersistentFuzzConfig& c,
                         std::uint64_t seed, std::vector<std::string>& errs) {
  const std::size_t n_handles = c.handles.size();
  const mpi::Comm world = mpi::Comm::world(c.nranks);
  errs.assign(static_cast<std::size_t>(c.nranks), "");
  // bufs[h][rank]: each handle binds its own per-rank buffer at init.
  std::vector<std::vector<std::vector<std::byte>>> bufs(n_handles);
  for (std::size_t h = 0; h < n_handles; ++h) {
    bufs[h].assign(static_cast<std::size_t>(c.nranks),
                   std::vector<std::byte>(
                       static_cast<std::size_t>(c.handles[h].bytes)));
  }

  auto program = [&](Context& ctx) -> sim::Task<> {
    const int me = ctx.rank();
    std::string& err = errs[static_cast<std::size_t>(me)];
    auto note = [&](std::string what) {
      if (err.empty()) err = std::move(what);
    };
    std::vector<PersistentOpPtr> ops;
    for (std::size_t h = 0; h < n_handles; ++h) {
      const PersistentHandleCfg& hc = c.handles[h];
      PersistentOpts popts;
      popts.coll.segment_size = hc.segment;
      popts.partitions = hc.partitions;
      mpi::MutView view{bufs[h][static_cast<std::size_t>(me)].data(),
                        hc.bytes};
      switch (hc.kind) {
        case PersistentOp::Kind::kBcast:
          ops.push_back(bcast_init(ctx, world, view, hc.root, popts));
          break;
        case PersistentOp::Kind::kReduce:
          ops.push_back(reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                    mpi::Datatype::kInt32, hc.root, popts));
          break;
        case PersistentOp::Kind::kAllreduce:
          ops.push_back(allreduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                       mpi::Datatype::kInt32, popts));
          break;
        case PersistentOp::Kind::kBarrier:
          ops.push_back(barrier_init(ctx, world, popts));
          break;
      }
    }
    // Per-rank interleaving stream: different ranks issue their starts and
    // preadys in different orders, so cross-rank interleavings vary too.
    Rng prng(seed ^ (static_cast<std::uint64_t>(me) * 0x9e3779b97f4a7c15ull));
    std::vector<int> order(n_handles);
    for (int r = 0; r < c.rounds; ++r) {
      // Refill every handle's local data for this round.
      for (std::size_t h = 0; h < n_handles; ++h) {
        const PersistentHandleCfg& hc = c.handles[h];
        auto& mine = bufs[h][static_cast<std::size_t>(me)];
        if (hc.kind == PersistentOp::Kind::kBcast) {
          if (me == hc.root) {
            for (std::size_t i = 0; i < mine.size(); ++i) {
              mine[i] = bcast_val(hc, static_cast<int>(h), r, i);
            }
          }
        } else if (hc.kind != PersistentOp::Kind::kBarrier) {
          auto* v = reinterpret_cast<std::int32_t*>(mine.data());
          for (std::size_t i = 0; i < mine.size() / 4; ++i) {
            v[i] = contrib_val(me, static_cast<int>(h), r, i);
          }
        }
      }
      // Phase 1: start every handle, in a per-rank random order.
      for (std::size_t h = 0; h < n_handles; ++h) order[h] = static_cast<int>(h);
      shuffle(order, prng);
      for (int h : order) {
        if (ops[static_cast<std::size_t>(h)]->start() != mpi::ErrCode::kOk) {
          note("start failed, " + describe(c));
        }
      }
      // Phase 2: all (handle, partition) preadys shuffled together — out of
      // order within a handle AND interleaved across handles — plus seeded
      // duplicate preadys that must report kErrPartition without damage.
      std::vector<std::pair<int, int>> pre;
      for (std::size_t h = 0; h < n_handles; ++h) {
        for (int p = 0; p < c.handles[h].partitions; ++p) {
          pre.emplace_back(static_cast<int>(h), p);
        }
      }
      shuffle(pre, prng);
      for (const auto& [h, p] : pre) {
        if (ops[static_cast<std::size_t>(h)]->pready(p) != mpi::ErrCode::kOk) {
          note("pready failed, " + describe(c));
        }
        if (prng.next_below(4) == 0 &&
            ops[static_cast<std::size_t>(h)]->pready(p) !=
                mpi::ErrCode::kErrPartition) {
          note("duplicate pready not rejected, " + describe(c));
        }
      }
      // Phase 3: wait for every round, again in random order.
      shuffle(order, prng);
      for (int h : order) co_await ops[static_cast<std::size_t>(h)]->wait();
      // Verify this round's payloads.
      for (std::size_t h = 0; h < n_handles; ++h) {
        const PersistentHandleCfg& hc = c.handles[h];
        const auto& mine = bufs[h][static_cast<std::size_t>(me)];
        if (hc.kind == PersistentOp::Kind::kBcast) {
          for (std::size_t i = 0; i < mine.size(); ++i) {
            if (mine[i] != bcast_val(hc, static_cast<int>(h), r, i)) {
              note("bcast payload mismatch round " + std::to_string(r) +
                   ", " + describe(c));
              break;
            }
          }
        } else if (hc.kind == PersistentOp::Kind::kReduce ||
                   hc.kind == PersistentOp::Kind::kAllreduce) {
          if (hc.kind == PersistentOp::Kind::kReduce && me != hc.root) {
            continue;  // non-root reduce buffers hold partial folds
          }
          const auto* v =
              reinterpret_cast<const std::int32_t*>(mine.data());
          for (std::size_t i = 0; i < mine.size() / 4; ++i) {
            std::int32_t want = 0;
            for (int rank = 0; rank < c.nranks; ++rank) {
              want += contrib_val(rank, static_cast<int>(h), r, i);
            }
            if (v[i] != want) {
              note("reduction mismatch round " + std::to_string(r) + ", " +
                   describe(c));
              break;
            }
          }
        }
      }
    }
    for (std::size_t h = 0; h < n_handles; ++h) {
      if (ops[h]->rounds_completed() != c.rounds) {
        note("rounds_completed=" +
             std::to_string(ops[h]->rounds_completed()) + " want " +
             std::to_string(c.rounds) + ", " + describe(c));
      }
    }
  };
  engine.run(program);
}

class PersistentFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PersistentFuzz, InterleavedRoundsOnSimEngine) {
  Rng rng(GetParam() ^ 0x9e125);
  for (int iter = 0; iter < 4; ++iter) {
    const PersistentFuzzConfig c =
        draw_persistent(rng, /*max_ranks=*/16, /*rounds=*/3);
    topo::Machine m(topo::cori(2), c.nranks);
    SimEngine engine(m);
    std::vector<std::string> errs;
    const std::uint64_t seed = rng.next_u64();
    run_persistent_case(engine, c, seed, errs);
    for (int r = 0; r < c.nranks; ++r) {
      EXPECT_TRUE(errs[static_cast<std::size_t>(r)].empty())
          << "rank " << r << ": " << errs[static_cast<std::size_t>(r)]
          << " seed=" << seed;
    }
  }
}

TEST_P(PersistentFuzz, InterleavedRoundsOnThreadEngine) {
  Rng rng(GetParam() ^ 0x7712ead);
  for (int iter = 0; iter < 2; ++iter) {
    const PersistentFuzzConfig c =
        draw_persistent(rng, /*max_ranks=*/6, /*rounds=*/2);
    topo::Machine m(topo::cori(2), c.nranks);
    ThreadEngine engine(m);
    std::vector<std::string> errs;
    const std::uint64_t seed = rng.next_u64();
    run_persistent_case(engine, c, seed, errs);
    for (int r = 0; r < c.nranks; ++r) {
      EXPECT_TRUE(errs[static_cast<std::size_t>(r)].empty())
          << "rank " << r << ": " << errs[static_cast<std::size_t>(r)]
          << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistentFuzz,
                         testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace adapt::coll
