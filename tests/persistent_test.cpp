// Persistent-collective lifecycle tests: the MPI-4 shaped error contract
// (double start, start after comm free, pready misuse), plan-cache sharing
// and fingerprint-guarded invalidation, overlapping starts of independent
// handles, per-start schedule identity, the steady-state allocation-freedom
// the cached schedule exists to deliver (100 starts, zero heap traffic
// after warm-up, and a whole warm engine run that allocates nothing but its
// result, proven by a counting global operator new), and the segment
// machine's callers: a request waited at once replays the blocking
// one-shot simulation exactly, as does a persistent round, and both reduce
// exactly with 300 posted receives. A dropped request still delivers and
// frees its machine; a failed one throws from its wait.
// Reduce receives fold where they land; a partitioned round lends fold
// windows only to receives posted before their segment's release: idle
// handles hold no pool block, and the unzeroed windows never leak a stale
// byte into a sum. A one-shot reduce that failed leaves no fold landing in
// its caller's buffer after the caller resumed.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/coll/moreops.hpp"
#include "src/coll/persistent.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/mpi/comm_ft.hpp"
#include "src/mpi/errors.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/topo/presets.hpp"
#include "src/tune/tuner.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator (same scheme as hotpath_test): every path into
// the heap bumps one counter; the steady-state test snapshots it around the
// measured rounds and asserts the delta is zero.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace adapt::coll {
namespace {

using mpi::ErrCode;
using runtime::Context;
using runtime::SimEngine;

constexpr int kRanks = 8;

topo::Machine test_machine() { return topo::Machine(topo::cori(2), kRanks); }

/// Deterministic per-(rank, round) byte pattern.
void fill(std::vector<std::byte>& buf, int rank, int round) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((rank * 131 + round * 17 + i * 7) & 0xff);
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Coroutine programs use EXPECT_* only: gtest ASSERT_* expands to a plain
// `return`, which is ill-formed inside a coroutine.

// ------------------------------------------------------------------ lifecycle

TEST(Lifecycle, DoubleStartReturnsPendingAndHandleRestarts) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 2048;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto op = bcast_init(ctx, world, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);
    for (int round = 0; round < 2; ++round) {
      if (ctx.rank() == 0) fill(mine, 0, round);
      EXPECT_EQ(op->start(), ErrCode::kOk);
      EXPECT_TRUE(op->in_flight());
      // A second start before wait() is the MPI-4 "operation still pending"
      // misuse, reported as an error code instead of UB.
      EXPECT_EQ(op->start(), ErrCode::kErrPending);
      co_await op->wait();
      EXPECT_EQ(op->rounds_completed(), round + 1);
      EXPECT_EQ(op->last_error(), ErrCode::kOk);
    }
  };
  ASSERT_NO_THROW(engine.run(program));

  std::vector<std::byte> expected(static_cast<std::size_t>(kBytes));
  fill(expected, 0, 1);  // last round's root payload
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(Lifecycle, PreadyMisuseReturnsPartitionError) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  constexpr int kParts = 4;
  std::vector<std::vector<std::byte>> plain(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::vector<std::vector<std::byte>> parted(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 256;

    // pready on a non-partitioned handle is always misuse.
    auto op = bcast_init(ctx, world, mpi::MutView{plain[me].data(), kBytes},
                         /*root=*/0, popts);
    EXPECT_EQ(op->pready(0), ErrCode::kErrPartition);

    PersistentOpts parts = popts;
    parts.partitions = kParts;
    auto pop = bcast_init(ctx, world, mpi::MutView{parted[me].data(), kBytes},
                          /*root=*/0, parts);
    EXPECT_EQ(pop->partitions(), kParts);
    // Inactive handle: the round has not started yet.
    EXPECT_EQ(pop->pready(0), ErrCode::kErrPartition);

    if (ctx.rank() == 0) fill(parted[me], 0, 0);
    EXPECT_EQ(pop->start(), ErrCode::kOk);
    EXPECT_EQ(pop->pready(-1), ErrCode::kErrPartition);     // bad index
    EXPECT_EQ(pop->pready(kParts), ErrCode::kErrPartition); // bad index
    EXPECT_EQ(pop->pready(1), ErrCode::kOk);
    EXPECT_EQ(pop->pready(1), ErrCode::kErrPartition);      // duplicate
    EXPECT_EQ(pop->pready(0), ErrCode::kOk);
    EXPECT_EQ(pop->pready(3), ErrCode::kOk);
    EXPECT_EQ(pop->pready(2), ErrCode::kOk);
    co_await pop->wait();
    EXPECT_EQ(pop->last_error(), ErrCode::kOk);
  };
  ASSERT_NO_THROW(engine.run(program));

  std::vector<std::byte> expected(static_cast<std::size_t>(kBytes));
  fill(expected, 0, 0);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(parted[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(Lifecycle, ParrivedTracksPartitionArrival) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  constexpr int kParts = 4;
  std::vector<std::vector<std::byte>> plain(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::vector<std::vector<std::byte>> parted(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    bool flag = true;

    // Validation mirrors pready: non-partitioned handle is always misuse.
    auto op = bcast_init(ctx, world, mpi::MutView{plain[me].data(), kBytes},
                         /*root=*/0, popts);
    EXPECT_EQ(op->parrived(0, &flag), ErrCode::kErrPartition);
    EXPECT_FALSE(flag);

    PersistentOpts parts = popts;
    parts.partitions = kParts;
    auto pop = bcast_init(ctx, world, mpi::MutView{parted[me].data(), kBytes},
                          /*root=*/0, parts);
    // Inactive handle and bad indices.
    EXPECT_EQ(pop->parrived(0, &flag), ErrCode::kErrPartition);
    if (ctx.rank() == 0) fill(parted[me], 0, 0);
    EXPECT_EQ(pop->start(), ErrCode::kOk);
    EXPECT_EQ(pop->parrived(-1, &flag), ErrCode::kErrPartition);
    EXPECT_EQ(pop->parrived(kParts, &flag), ErrCode::kErrPartition);

    if (ctx.rank() == 0) {
      // The root's partition "arrives" the moment its own pready lands —
      // the data is local by definition.
      EXPECT_EQ(pop->parrived(2, &flag), ErrCode::kOk);
      EXPECT_FALSE(flag);
      EXPECT_EQ(pop->pready(2), ErrCode::kOk);
      EXPECT_EQ(pop->parrived(2, &flag), ErrCode::kOk);
      EXPECT_TRUE(flag);
      for (int p = 0; p < kParts; ++p) {
        if (p != 2) {
          EXPECT_EQ(pop->pready(p), ErrCode::kOk);
        }
      }
    } else {
      for (int p = 0; p < kParts; ++p) EXPECT_EQ(pop->pready(p), ErrCode::kOk);
      // Poll arrival: every partition must flip to arrived before (or as)
      // the round completes. No co_await between parrived calls, so
      // in_flight cannot change under the inner loop.
      while (pop->in_flight()) {
        bool all = true;
        for (int p = 0; p < kParts; ++p) {
          flag = false;
          EXPECT_EQ(pop->parrived(p, &flag), ErrCode::kOk);
          all = all && flag;
        }
        if (all) break;
        co_await ctx.sleep_for(microseconds(5));
      }
    }
    co_await pop->wait();
    // Completed round: the handle is inactive again.
    EXPECT_EQ(pop->parrived(0, &flag), ErrCode::kErrPartition);
  };
  ASSERT_NO_THROW(engine.run(program));

  std::vector<std::byte> expected(static_cast<std::size_t>(kBytes));
  fill(expected, 0, 0);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(parted[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

TEST(Lifecycle, ParrivedReduceWaitsForChildContributions) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm pair(std::vector<Rank>{0, 1});
  constexpr Bytes kBytes = 1024;
  constexpr int kParts = 2;
  std::vector<std::vector<std::byte>> bufs(
      2, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    if (!pair.contains(ctx.rank())) co_return;
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    std::fill(bufs[me].begin(), bufs[me].end(),
              static_cast<std::byte>(1 << ctx.rank()));
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    popts.partitions = kParts;
    auto op = reduce_init(ctx, pair, mpi::MutView{bufs[me].data(), kBytes},
                          mpi::ReduceOp::kBor, mpi::Datatype::kUint8,
                          /*root=*/0, popts);
    EXPECT_EQ(op->start(), ErrCode::kOk);
    bool flag = true;
    if (ctx.rank() == 1) {
      // Leaf: a partition has "arrived" exactly when its own pready lands.
      EXPECT_EQ(op->parrived(0, &flag), ErrCode::kOk);
      EXPECT_FALSE(flag);
      EXPECT_EQ(op->pready(0), ErrCode::kOk);
      EXPECT_EQ(op->parrived(0, &flag), ErrCode::kOk);
      EXPECT_TRUE(flag);
      EXPECT_EQ(op->pready(1), ErrCode::kOk);
    } else {
      // Root with one child: arrival requires the child's fold, which
      // cannot have happened synchronously at start.
      EXPECT_EQ(op->parrived(0, &flag), ErrCode::kOk);
      EXPECT_FALSE(flag);
      EXPECT_EQ(op->pready(0), ErrCode::kOk);
      EXPECT_EQ(op->pready(1), ErrCode::kOk);
      while (op->in_flight()) {
        bool all = true;
        for (int p = 0; p < kParts; ++p) {
          flag = false;
          EXPECT_EQ(op->parrived(p, &flag), ErrCode::kOk);
          all = all && flag;
        }
        if (all) break;
        co_await ctx.sleep_for(microseconds(5));
      }
    }
    co_await op->wait();
    EXPECT_EQ(op->last_error(), ErrCode::kOk);
  };
  ASSERT_NO_THROW(engine.run(program));
  // kBor over {0b01, 0b10} — the root's accumulator holds the fold.
  EXPECT_EQ(bufs[0][0], static_cast<std::byte>(0b11));
}

TEST(Lifecycle, StartOnRevokedCommReturnsRevokedNotFreed) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  std::vector<Rank> members{0, 1, 2, 3, 4, 5};
  const mpi::Comm comm(members);
  constexpr Bytes kBytes = 1024;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    if (!comm.contains(ctx.rank())) co_return;
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto op = bcast_init(ctx, comm, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);
    if (ctx.rank() == 0) fill(mine, 0, 0);
    EXPECT_EQ(op->start(), ErrCode::kOk);
    co_await op->wait();
    EXPECT_EQ(op->rounds_completed(), 1);

    // ULFM revocation: recoverable, so the code is kErrRevoked — distinct
    // from the freed-handle programming error — and cached plans drop.
    mpi::comm_revoke(ctx, comm);
    EXPECT_EQ(op->start(), ErrCode::kErrRevoked);
    EXPECT_EQ(op->rounds_completed(), 1);
  };
  ASSERT_NO_THROW(engine.run(program));
  EXPECT_EQ(engine.plan_cache().size(), 0);
}

TEST(Lifecycle, StartAfterFreeCommFailsAndDropsCachedPlan) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  std::vector<Rank> members{0, 1, 2, 3, 4, 5};
  const mpi::Comm comm(members);
  constexpr Bytes kBytes = 1024;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    if (!comm.contains(ctx.rank())) co_return;
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto op = bcast_init(ctx, comm, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);
    if (ctx.rank() == 0) fill(mine, 0, 0);
    EXPECT_EQ(op->start(), ErrCode::kOk);
    co_await op->wait();
    EXPECT_EQ(op->rounds_completed(), 1);

    // MPI_Comm_free: eagerly invalidates the comm's plan-cache entries and
    // fails every later start with a specific code — never a stale replay.
    free_comm(ctx, comm);
    EXPECT_EQ(op->start(), ErrCode::kErrCommFreed);
    EXPECT_EQ(op->rounds_completed(), 1);
  };
  ASSERT_NO_THROW(engine.run(program));
  EXPECT_EQ(engine.plan_cache().size(), 0);

  std::vector<std::byte> expected(static_cast<std::size_t>(kBytes));
  fill(expected, 0, 0);
  for (const Rank r : members) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

// ----------------------------------------------------------------- plan cache

TEST(PlanCacheTest, HandlesWithEqualKeysShareOnePlan) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  std::vector<std::vector<std::byte>> a(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::vector<std::vector<std::byte>> b = a;

  auto program = [&](Context& ctx) -> sim::Task<> {
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 512;
    auto h1 = bcast_init(ctx, world, mpi::MutView{a[me].data(), kBytes},
                         /*root=*/0, popts);
    auto h2 = bcast_init(ctx, world, mpi::MutView{b[me].data(), kBytes},
                         /*root=*/0, popts);
    auto h3 = bcast_init(ctx, world, mpi::MutView{b[me].data(), kBytes},
                         /*root=*/1, popts);
    // Same (op, membership, size bucket, root): one shared immutable plan.
    EXPECT_EQ(&h1->plan(), &h2->plan());
    // A different root is a different schedule.
    EXPECT_NE(&h1->plan(), &h3->plan());
    co_return;
  };
  ASSERT_NO_THROW(engine.run(program));

  // Two keys; rank 0 populates each (2 misses), everyone else hits. The sim
  // is deterministic, so the counters are exact: 8 ranks x 3 lookups.
  EXPECT_EQ(engine.plan_cache().size(), 2);
  EXPECT_EQ(engine.plan_cache().misses(), 2u);
  EXPECT_EQ(engine.plan_cache().hits(), 22u);
}

// With a recorder attached the same counters land in the MetricsRegistry
// (plus the tuner's decision-table traffic), so `adaptsim --metrics` and the
// flight recorder surface the cache behaviour without PlanCache accessors.
// Deterministic sim, exact pins: cold start = one miss, every warm handle
// init = a hit, comm free = one invalidation.
TEST(PlanCacheTest, RecorderMetricsCountHitsMissesInvalidations) {
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions options;
  options.recorder = std::make_shared<obs::Recorder>();
  options.tuning = std::make_shared<tune::Tuner>(machine);
  SimEngine engine(machine, options);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  std::vector<std::vector<std::byte>> a(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::vector<std::vector<std::byte>> b = a;

  auto program = [&](Context& ctx) -> sim::Task<> {
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 512;
    // Cold init misses once engine-wide; the second handle (and every other
    // rank's init) replays the shared plan.
    auto h1 = bcast_init(ctx, world, mpi::MutView{a[me].data(), kBytes},
                         /*root=*/0, popts);
    auto h2 = bcast_init(ctx, world, mpi::MutView{b[me].data(), kBytes},
                         /*root=*/0, popts);
    EXPECT_EQ(&h1->plan(), &h2->plan());
    // Fence before freeing: without it the first rank's free_comm kills the
    // shared comm state while later ranks have yet to init, and every one of
    // their lookups would miss on the dead liveness guard.
    co_await barrier(ctx, world);
    free_comm(ctx, world);
    co_return;
  };
  ASSERT_NO_THROW(engine.run(program));

  const obs::MetricsRegistry& m = options.recorder->metrics();
  // 8 ranks x 2 lookups on one key: the first populates, 15 replay.
  EXPECT_EQ(m.counter_value("plan_cache.misses"), 1);
  EXPECT_EQ(m.counter_value("plan_cache.hits"), 15);
  // free_comm eagerly drops the comm's single cached plan.
  EXPECT_EQ(m.counter_value("plan_cache.invalidations"), 1);
  EXPECT_EQ(m.counter_value("plan_cache.evictions"), 0);
  // The tuner is consulted only on the plan-cache miss; its own decision
  // table is cold at that point.
  EXPECT_EQ(m.counter_value("tuner.misses"), 1);
  EXPECT_EQ(m.counter_value("tuner.hits"), 0);
  ASSERT_TRUE(m.histograms().contains("tuner.bucket"));
  EXPECT_EQ(m.histograms().at("tuner.bucket").count, 1u);

  // The same stream exists on the timeline as kCache instants.
  int hits = 0, misses = 0, invalidations = 0;
  for (const auto& i : options.recorder->instants()) {
    if (i.cat != obs::Cat::kCache) continue;
    if (i.name == "plan_hit") ++hits;
    if (i.name == "plan_miss") ++misses;
    if (i.name == "plan_invalidate") ++invalidations;
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(hits, 15);
  EXPECT_EQ(invalidations, kRanks);  // every rank's free_comm emits one
}

TEST(PlanCacheTest, FreedCommWithSameFingerprintNeverServesStalePlan) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  std::vector<Rank> members;
  for (Rank r = 0; r < kRanks; ++r) members.push_back(r);
  const mpi::Comm comm_a(members);
  const mpi::Comm comm_b(members);   // same ordered members, new state
  const mpi::Comm comm_sync(members);
  // The cache key carries the membership fingerprint; identical member lists
  // collide on purpose (that is the sharing). Staleness is caught by the
  // weak CommState guard, which this test drives through the lazy path.
  ASSERT_EQ(comm_a.fingerprint(), comm_b.fingerprint());
  constexpr Bytes kBytes = 2048;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto bar = barrier_init(ctx, comm_sync);
    auto h1 = bcast_init(ctx, comm_a, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);

    // Make sure every rank built h1 before anyone frees the communicator.
    EXPECT_EQ(bar->start(), ErrCode::kOk);
    co_await bar->wait();

    // Plain Comm::free (NOT coll::free_comm): the cache entry survives until
    // a lookup revalidates it — the lazy invalidation path.
    comm_a.free();
    auto h2 = bcast_init(ctx, comm_b, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);
    EXPECT_NE(&h1->plan(), &h2->plan());
    EXPECT_EQ(h1->start(), ErrCode::kErrCommFreed);

    if (ctx.rank() == 0) fill(mine, 0, 7);
    EXPECT_EQ(h2->start(), ErrCode::kOk);
    co_await h2->wait();
    EXPECT_EQ(h2->last_error(), ErrCode::kOk);
  };
  ASSERT_NO_THROW(engine.run(program));

  std::vector<std::byte> expected(static_cast<std::size_t>(kBytes));
  fill(expected, 0, 7);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

// -------------------------------------------------------------- interleaving

TEST(Overlap, IndependentHandlesPipelineAcrossStarts) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBcastBytes = 4096;
  constexpr std::size_t kElems = 256;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBcastBytes)));
  std::vector<std::vector<std::int32_t>> accum(
      kRanks, std::vector<std::int32_t>(kElems));

  auto program = [&](Context& ctx) -> sim::Task<> {
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto bc = bcast_init(ctx, world, mpi::MutView{bufs[me].data(), kBcastBytes},
                         /*root=*/0, popts);
    auto ar = allreduce_init(
        ctx, world,
        mpi::MutView{reinterpret_cast<std::byte*>(accum[me].data()),
                     static_cast<Bytes>(kElems * 4)},
        mpi::ReduceOp::kSum, mpi::Datatype::kInt32, popts);

    for (int round = 0; round < kRounds; ++round) {
      if (ctx.rank() == 0) fill(bufs[me], 0, round);
      for (std::size_t i = 0; i < kElems; ++i) {
        accum[me][i] =
            static_cast<std::int32_t>(ctx.rank() + round * 1000 + i);
      }
      // Both rounds in flight at once: independent handles own disjoint tag
      // blocks, so overlapping starts pipeline instead of cross-matching.
      EXPECT_EQ(bc->start(), ErrCode::kOk);
      EXPECT_EQ(ar->start(), ErrCode::kOk);
      EXPECT_TRUE(bc->in_flight());
      EXPECT_TRUE(ar->in_flight());
      co_await bc->wait();
      co_await ar->wait();
      EXPECT_EQ(bc->rounds_completed(), round + 1);
      EXPECT_EQ(ar->rounds_completed(), round + 1);

      // Check this round's allreduce result right away (every round has a
      // different expected sum).
      for (std::size_t i = 0; i < kElems; ++i) {
        const std::int32_t want = static_cast<std::int32_t>(
            kRanks * (kRanks - 1) / 2 + kRanks * (round * 1000) +
            kRanks * static_cast<std::int32_t>(i));
        EXPECT_EQ(accum[me][i], want) << "round " << round << " elem " << i;
        if (accum[me][i] != want) co_return;
      }
    }
  };
  ASSERT_NO_THROW(engine.run(program));

  std::vector<std::byte> expected(static_cast<std::size_t>(kBcastBytes));
  fill(expected, 0, kRounds - 1);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], expected) << "rank " << r;
  }
}

// --------------------------------------------------------- schedule identity

TEST(ScheduleIdentity, EveryStartReplaysTheSameTransferSchedule) {
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions options;
  options.recorder = std::make_shared<obs::Recorder>();
  SimEngine engine(machine, options);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 512;
    auto op = bcast_init(ctx, world, mpi::MutView{mine.data(), kBytes},
                         /*root=*/0, popts);
    auto bar = barrier_init(ctx, world);
    for (int round = 0; round < kRounds; ++round) {
      if (ctx.rank() == 0) fill(mine, 0, round);
      EXPECT_EQ(op->start(), ErrCode::kOk);
      co_await op->wait();
      // The barrier fences rounds: every round-r data transfer is posted
      // (and delivered) before any rank can post a round-r+1 transfer, so
      // the recorder's chronological transfer list chunks cleanly by round.
      EXPECT_EQ(bar->start(), ErrCode::kOk);
      co_await bar->wait();
    }
  };
  ASSERT_NO_THROW(engine.run(program));

  // Data transfers only: the barrier's zero-byte frames are the fences, not
  // part of the replayed payload schedule.
  std::size_t count = 0;
  for (const auto& t : options.recorder->transfers()) {
    if (t.bytes > 0) ++count;
  }
  ASSERT_GT(count, 0u);
  ASSERT_EQ(count % kRounds, 0u) << "rounds posted different transfer counts";
  // Chunk into per-round signatures of (src, dst, bytes, kind) sequences.
  const std::size_t per_round = count / kRounds;
  std::vector<std::string> sigs;
  std::size_t i = 0;
  std::string chunk;
  for (const auto& t : options.recorder->transfers()) {
    if (t.bytes == 0) continue;
    chunk += std::to_string(t.src) + ">" + std::to_string(t.dst) + ":" +
             std::to_string(t.bytes) + "/" + std::to_string(t.kind) + ";";
    if (++i % per_round == 0) {
      sigs.push_back(chunk);
      chunk.clear();
    }
  }
  ASSERT_EQ(sigs.size(), static_cast<std::size_t>(kRounds));
  // Round 0 starts from a cold, perfectly synchronised state; rounds 1+ are
  // the steady state and must replay the identical schedule hash-for-hash.
  for (std::size_t r = 2; r < sigs.size(); ++r) {
    EXPECT_EQ(fnv1a64(sigs[r]), fnv1a64(sigs[1]))
        << "round " << r << " diverged from round 1";
  }
}

// ------------------------------------------------------- allocation freedom

TEST(AllocationFree, HundredStartsAllocateNothingAfterWarmup) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);  // no recorder: tracing buffers would allocate
  const mpi::Comm world = mpi::Comm::world(kRanks);
  constexpr Bytes kBytes = 4096;
  constexpr int kWarm = 120;
  constexpr int kMeasured = 100;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::uint64_t before = 0;
  std::uint64_t after = 0;

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    PersistentOpts popts;
    popts.coll.segment_size = 256;
    const mpi::MutView view{mine.data(), kBytes};
    auto op = bcast_init(ctx, world, view, /*root=*/0, popts);
    // Reduce rounds borrow their fold windows from the engine pool and
    // return them when they drain; the pool's free lists absorb that.
    auto red = reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                           mpi::Datatype::kInt32, /*root=*/0, popts);
    auto ar = allreduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                             mpi::Datatype::kInt32, popts);
    auto bar = barrier_init(ctx, world);
    // One flat loop, no helper coroutine: a nested coroutine frame would
    // itself heap-allocate per call and poison the measurement. Rounds
    // 0..kWarm-1 warm the event slab, the flow/pending/request pools, the
    // route cache, and the matcher buckets to steady-state depth; the
    // counter snapshots bracket the measured rounds.
    for (int r = 0; r < kWarm + kMeasured; ++r) {
      if (r == kWarm && ctx.rank() == 0) before = g_alloc_count.load();
      if (ctx.rank() == 0) fill(mine, 0, 0);
      EXPECT_EQ(op->start(), ErrCode::kOk);
      co_await op->wait();
      EXPECT_EQ(red->start(), ErrCode::kOk);
      co_await red->wait();
      EXPECT_EQ(ar->start(), ErrCode::kOk);
      co_await ar->wait();
      EXPECT_EQ(bar->start(), ErrCode::kOk);
      co_await bar->wait();
    }
    // Rank 0 exits the final barrier only after every rank entered it, so
    // everything between the snapshots is steady-state replay.
    if (ctx.rank() == 0) after = g_alloc_count.load();
  };
  ASSERT_NO_THROW(engine.run(program));
  EXPECT_EQ(after - before, 0u)
      << "persistent start/wait rounds touched the heap in steady state";
}

// A whole warm engine run allocates nothing either, beyond the per-rank
// finish vector it returns: not launching the rank programs (each one's
// detached driver frame and its completion callback), not the collectives
// they replay. 64 ranks, each with a persistent bcast and reduce handle
// built in a first run; the third run is counted from before engine.run()
// to after it returns.
TEST(AllocationFree, WarmEngineRunAllocatesNothing) {
  constexpr int kWideRanks = 64;
  constexpr Bytes kBytes = 4096;
  topo::Machine machine(topo::cori(2), kWideRanks);
  SimEngine engine(machine);  // no recorder: tracing buffers would allocate
  const mpi::Comm world = mpi::Comm::world(kWideRanks);
  std::vector<std::vector<std::byte>> bufs(
      kWideRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  std::vector<PersistentOpPtr> bcasts(kWideRanks);
  std::vector<PersistentOpPtr> reduces(kWideRanks);
  const runtime::RankProgram init = [&](Context& ctx) -> sim::Task<> {
    const auto me = static_cast<std::size_t>(ctx.rank());
    PersistentOpts popts;
    popts.coll.segment_size = 1024;
    const mpi::MutView view{bufs[me].data(), kBytes};
    bcasts[me] = bcast_init(ctx, world, view, /*root=*/0, popts);
    reduces[me] = reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                              mpi::Datatype::kInt32, /*root=*/0, popts);
    co_return;
  };
  const runtime::RankProgram rounds = [&](Context& ctx) -> sim::Task<> {
    const auto me = static_cast<std::size_t>(ctx.rank());
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(bcasts[me]->start(), ErrCode::kOk);
      co_await bcasts[me]->wait();
      EXPECT_EQ(reduces[me]->start(), ErrCode::kOk);
      co_await reduces[me]->wait();
    }
  };
  ASSERT_NO_THROW(engine.run(init));
  ASSERT_NO_THROW(engine.run(rounds));  // warms every pool and slab
  constexpr std::uint64_t kFinishVector = 1;  // RunResult::rank_finish
  const std::uint64_t before = g_alloc_count.load();
  const runtime::RunResult result = engine.run(rounds);
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(result.rank_finish.size(), std::size_t{kWideRanks});
  EXPECT_EQ(after - before, kFinishVector)
      << "a warm engine run touched the heap beyond its result";
}

// ------------------------------------------------------- one-shot parity
//
// One-shot Style::kAdapt bcast/reduce, an ibcast/ireduce request waited at
// once, and one persistent round over the same explicit tree and CollOpts
// drive the same segment machine, so they must produce the same simulation:
// per-rank finish times, the recorder's transfer list, and every rank's
// seg_* instants, event for event.

enum class Caller { kBlocking, kRequest, kPersistent };

struct ParityRun {
  std::vector<TimeNs> finish;                 // per rank
  std::vector<std::string> transfers;         // chronological
  std::vector<std::vector<std::string>> seg;  // per rank, chronological
};

ParityRun run_parity(bool reduce, Caller caller, Bytes bytes,
                     Bytes segment, bool perturbed) {
  constexpr int kParityRanks = 64;
  topo::Machine machine(topo::cori(2), kParityRanks);
  const mpi::Comm world = mpi::Comm::world(kParityRanks);
  const Tree tree = build_topo_tree(machine, world, 0);
  runtime::SimEngineOptions options;
  if (perturbed) {
    options.perturb =
        sim::PerturbConfig{11, /*shuffle_ties=*/true, microseconds(5)};
  }
  options.recorder = std::make_shared<obs::Recorder>();
  SimEngine engine(machine, options);
  std::vector<std::vector<std::byte>> bufs(
      kParityRanks, std::vector<std::byte>(static_cast<std::size_t>(bytes)));
  for (int r = 0; r < kParityRanks; ++r) {
    fill(bufs[static_cast<std::size_t>(r)], r, 0);
  }
  const CollOpts opts{.segment_size = segment};

  ParityRun run;
  run.finish.assign(kParityRanks, -1);
  auto program = [&](Context& ctx) -> sim::Task<> {
    const auto me = static_cast<std::size_t>(ctx.rank());
    const mpi::MutView view{bufs[me].data(), bytes};
    if (caller == Caller::kPersistent) {
      PersistentOpts popts;
      popts.coll = opts;
      popts.tree = &tree;
      auto op = reduce ? reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                     mpi::Datatype::kInt32, 0, popts)
                       : bcast_init(ctx, world, view, 0, popts);
      EXPECT_EQ(op->start(), ErrCode::kOk);
      co_await op->wait();
    } else if (caller == Caller::kRequest) {
      CollRequest req = reduce ? ireduce(ctx, world, view, mpi::ReduceOp::kSum,
                                         mpi::Datatype::kInt32, 0, tree, opts)
                               : ibcast(ctx, world, view, 0, tree, opts);
      co_await req.wait(ctx);
    } else if (reduce) {
      co_await coll::reduce(ctx, world, view, mpi::ReduceOp::kSum,
                            mpi::Datatype::kInt32, 0, tree, Style::kAdapt,
                            opts);
    } else {
      co_await coll::bcast(ctx, world, view, 0, tree, Style::kAdapt, opts);
    }
    run.finish[me] = ctx.now();
  };
  engine.run(program);

  for (const auto& t : options.recorder->transfers()) {
    run.transfers.push_back(
        std::to_string(t.src) + ">" + std::to_string(t.dst) + ":" +
        std::to_string(t.bytes) + "/" + std::to_string(t.kind) + "@" +
        std::to_string(t.t_post) + "," + std::to_string(t.t_active) + "," +
        std::to_string(t.t_end) + (t.delivered ? "" : "!"));
  }
  run.seg.resize(kParityRanks);
  for (const auto& i : options.recorder->instants()) {
    if (i.name.rfind("seg_", 0) != 0) continue;
    for (Rank r = 0; r < kParityRanks; ++r) {
      if (obs::rank_pid(r) != i.pid) continue;
      run.seg[static_cast<std::size_t>(r)].push_back(
          i.name + "#" + std::to_string(i.arg) + "@" + std::to_string(i.t));
    }
  }
  return run;
}

/// Index of the first differing element (or the shorter length).
std::size_t first_diff(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

struct ParityCase {
  bool reduce;
  Bytes bytes;
  Bytes segment;
  bool perturbed;
};

void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << (c.reduce ? "reduce " : "bcast ") << c.bytes << "/" << c.segment
      << (c.perturbed ? " perturbed" : " stable");
}

class OneShotParity : public testing::TestWithParam<ParityCase> {};

/// `replay` must be `once`'s simulation event for event.
void expect_same_simulation(const ParityRun& once, const ParityRun& replay) {
  EXPECT_EQ(once.finish, replay.finish);
  ASSERT_FALSE(once.transfers.empty());
  const std::size_t t = first_diff(once.transfers, replay.transfers);
  EXPECT_TRUE(t == once.transfers.size() && t == replay.transfers.size())
      << "transfer " << t << " of " << once.transfers.size() << " / "
      << replay.transfers.size() << " differs";
  for (std::size_t r = 0; r < once.seg.size(); ++r) {
    ASSERT_FALSE(once.seg[r].empty()) << "rank " << r;
    const std::size_t i = first_diff(once.seg[r], replay.seg[r]);
    EXPECT_TRUE(i == once.seg[r].size() && i == replay.seg[r].size())
        << "rank " << r << " seg instant " << i << " differs: "
        << (i < once.seg[r].size() ? once.seg[r][i] : "<end>") << " vs "
        << (i < replay.seg[r].size() ? replay.seg[r][i] : "<end>");
  }
}

TEST_P(OneShotParity, PersistentRoundReplaysTheOneShotSimulation) {
  const ParityCase c = GetParam();
  expect_same_simulation(
      run_parity(c.reduce, Caller::kBlocking, c.bytes, c.segment,
                 c.perturbed),
      run_parity(c.reduce, Caller::kPersistent, c.bytes, c.segment,
                 c.perturbed));
}

// The blocking call is the request plus a wait.
TEST_P(OneShotParity, RequestPlusWaitReplaysTheBlockingCall) {
  const ParityCase c = GetParam();
  expect_same_simulation(
      run_parity(c.reduce, Caller::kBlocking, c.bytes, c.segment,
                 c.perturbed),
      run_parity(c.reduce, Caller::kRequest, c.bytes, c.segment,
                 c.perturbed));
}

INSTANTIATE_TEST_SUITE_P(
    BcastReduce, OneShotParity,
    testing::Values(ParityCase{false, kib(256), kib(32), false},
                    ParityCase{false, kib(256), kib(32), true},
                    ParityCase{false, kib(64), kib(128), false},
                    ParityCase{false, kib(64), kib(128), true},
                    ParityCase{true, kib(256), kib(32), false},
                    ParityCase{true, kib(256), kib(32), true},
                    ParityCase{true, kib(64), kib(128), false},
                    ParityCase{true, kib(64), kib(128), true}),
    [](const testing::TestParamInfo<ParityCase>& param_info) {
      const ParityCase& c = param_info.param;
      return std::string(c.reduce ? "Reduce" : "Bcast") +
             std::to_string(c.bytes / 1024) + "KiB" +
             (c.bytes > c.segment ? "Pipelined" : "OneSegment") +
             (c.perturbed ? "Perturbed" : "Stable");
    });

// ------------------------------------------------------ wide receive window

// M = 300 posted receives per child: every window index must survive the
// packing into the callbacks' captured state, one-shot and persistent alike.
TEST(WideReceiveWindow, ThreeHundredWindowsReduceExactly) {
  constexpr int kWideRanks = 4;
  constexpr int kSegments = 320;
  constexpr Bytes kSegment = 16;
  constexpr std::size_t kElems = kSegments * kSegment / sizeof(std::int32_t);
  topo::Machine machine(topo::cori(1), kWideRanks);
  const mpi::Comm world = mpi::Comm::world(kWideRanks);
  const Tree tree = flat_tree(kWideRanks, 0);
  const CollOpts opts{.segment_size = kSegment, .outstanding_recvs = 300};

  std::vector<std::int32_t> expected(kElems, 0);
  for (int r = 0; r < kWideRanks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      expected[i] += static_cast<std::int32_t>(r * 100000 + i);
    }
  }
  for (const bool persistent : {false, true}) {
    SimEngine engine(machine);
    std::vector<std::vector<std::int32_t>> accum(
        kWideRanks, std::vector<std::int32_t>(kElems));
    for (int r = 0; r < kWideRanks; ++r) {
      for (std::size_t i = 0; i < kElems; ++i) {
        accum[static_cast<std::size_t>(r)][i] =
            static_cast<std::int32_t>(r * 100000 + i);
      }
    }
    auto program = [&](Context& ctx) -> sim::Task<> {
      const mpi::MutView view{
          reinterpret_cast<std::byte*>(
              accum[static_cast<std::size_t>(ctx.rank())].data()),
          static_cast<Bytes>(kElems * sizeof(std::int32_t))};
      if (persistent) {
        PersistentOpts popts;
        popts.coll = opts;
        popts.tree = &tree;
        auto op = reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                              mpi::Datatype::kInt32, 0, popts);
        EXPECT_EQ(op->segments(), kSegments);
        EXPECT_EQ(op->start(), ErrCode::kOk);
        co_await op->wait();
      } else {
        co_await coll::reduce(ctx, world, view, mpi::ReduceOp::kSum,
                              mpi::Datatype::kInt32, 0, tree, Style::kAdapt,
                              opts);
      }
    };
    ASSERT_NO_THROW(engine.run(program));
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kElems; ++i) {
      if (accum[0][i] != expected[i]) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << (persistent ? "persistent" : "one-shot")
                         << " reduce: root elements wrong of " << kElems;
  }
}

// ------------------------------------------------------- lent fold windows

// Reduce receives fold where they land, and only a partitioned round
// borrows fold windows from the engine pool (for receives posted before
// their segment's release), returning each by its fold. So an idle handle
// holds none: destroying the handles after their rounds gives the pool
// nothing back, and eight handles of each kind per rank cost the pool no
// more misses, and no larger footprint, than one. Two shapes: one
// 1000-byte segment under a 4 KiB segment size (one window per child edge,
// sized at the segment), and sixteen 256-byte segments (min(S, M) = 4
// windows per child edge).
TEST(LentWindows, IdleHandlesHoldNoScratch) {
  struct PoolUse {
    std::uint64_t misses = 0;
    std::uint64_t footprint = 0;  // every block the pool ever allocated
  };
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const auto use_with = [&](Bytes bytes, Bytes segment, int handles) {
    topo::Machine machine = test_machine();
    SimEngine engine(machine);
    std::vector<std::vector<std::byte>> bufs(
        kRanks, std::vector<std::byte>(static_cast<std::size_t>(bytes)));
    // Owned outside the run, so the handles are destroyed after it.
    std::vector<std::vector<PersistentOpPtr>> ops(kRanks);
    auto program = [&](Context& ctx) -> sim::Task<> {
      const auto me = static_cast<std::size_t>(ctx.rank());
      const mpi::MutView view{bufs[me].data(), bytes};
      PersistentOpts popts;
      popts.coll.segment_size = segment;
      for (int k = 0; k < handles; ++k) {
        ops[me].push_back(reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                      mpi::Datatype::kInt32, /*root=*/0,
                                      popts));
        ops[me].push_back(allreduce_init(ctx, world, view,
                                         mpi::ReduceOp::kSum,
                                         mpi::Datatype::kInt32, popts));
        PersistentOpts parted = popts;
        parted.partitions = 2;
        ops[me].push_back(reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                      mpi::Datatype::kInt32, /*root=*/0,
                                      parted));
      }
      // A barrier after each round keeps every rank on the same handle, so
      // no rank runs ahead and parks unexpected payloads in the pool.
      auto bar = barrier_init(ctx, world);
      for (const PersistentOpPtr& op : ops[me]) {
        EXPECT_EQ(op->start(), ErrCode::kOk);
        for (int p = 0; p < op->partitions(); ++p) {
          EXPECT_EQ(op->pready(p), ErrCode::kOk);
        }
        co_await op->wait();
        EXPECT_EQ(op->last_error(), ErrCode::kOk);
        EXPECT_EQ(bar->start(), ErrCode::kOk);
        co_await bar->wait();
      }
    };
    EXPECT_NO_THROW(engine.run(program));
    const std::uint64_t cached = engine.pool().cached_bytes();
    ops.clear();
    EXPECT_EQ(engine.pool().cached_bytes(), cached)
        << handles << " idle handle(s) per kind per rank held pool blocks";
    return PoolUse{engine.pool().misses(), engine.pool().cached_bytes()};
  };
  for (const auto& [bytes, segment] :
       {std::pair<Bytes, Bytes>{1000, 4096}, std::pair<Bytes, Bytes>{4096, 256}}) {
    SCOPED_TRACE("bytes " + std::to_string(bytes) + ", segment " +
                 std::to_string(segment));
    const PoolUse one = use_with(bytes, segment, 1);
    const PoolUse eight = use_with(bytes, segment, 8);
    EXPECT_LE(eight.misses, one.misses)
        << "pool misses grew with the handle count";
    EXPECT_LE(eight.footprint, one.footprint)
        << "pool footprint grew with the handle count";
  }
}

// Fold windows and the baseline reduces' scratch are not zeroed: every byte
// a fold reads was first written by its receive. The pool's blocks of the
// window's size class are dirtied with 0xA5 before each run, so a fold that
// read a byte its receive did not write would spoil an exact int32 sum.
enum class DirtyCase {
  kAdaptReduce,
  kAdaptAllreduce,
  kBlockingReduce,
  kNonblockingReduce,
  kPersistentReduce,
  kPersistentAllreduce,
  kPartitionedReduce,
};

void dirty_pool(support::BufferPool& pool, Bytes window) {
  std::vector<support::BufferRef> blocks;
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(pool.acquire_raw(window));
    std::memset(blocks.back().data(), 0xA5,
                static_cast<std::size_t>(blocks.back().capacity()));
  }
}  // every block goes back to the free list here

TEST(LentWindows, UnzeroedWindowsNeverLeakStaleBytes) {
  constexpr std::size_t kElems = 250;  // 1000 bytes
  constexpr Bytes kBytes = kElems * sizeof(std::int32_t);
  constexpr int kParts = 2;
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const Tree tree = binomial_tree(kRanks, 0);
  std::vector<std::int32_t> expected(kElems, 0);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      expected[i] += static_cast<std::int32_t>(r * 1000 + i);
    }
  }
  const std::pair<DirtyCase, const char*> cases[] = {
      {DirtyCase::kAdaptReduce, "one-shot adapt reduce"},
      {DirtyCase::kAdaptAllreduce, "one-shot adapt allreduce"},
      {DirtyCase::kBlockingReduce, "blocking reduce"},
      {DirtyCase::kNonblockingReduce, "nonblocking reduce"},
      {DirtyCase::kPersistentReduce, "persistent reduce"},
      {DirtyCase::kPersistentAllreduce, "persistent allreduce"},
      {DirtyCase::kPartitionedReduce, "partitioned reduce"},
  };
  // One segment, then four ending in a short one (256 x 3 + 232 bytes).
  for (const Bytes segment : {Bytes{4096}, Bytes{256}}) {
    for (const auto& [c, name] : cases) {
      SCOPED_TRACE(std::string(name) + ", segment " + std::to_string(segment));
      topo::Machine machine = test_machine();
      SimEngine engine(machine);
      dirty_pool(engine.pool(), std::min(segment, kBytes));
      std::vector<std::vector<std::int32_t>> accum(
          kRanks, std::vector<std::int32_t>(kElems));
      for (int r = 0; r < kRanks; ++r) {
        for (std::size_t i = 0; i < kElems; ++i) {
          accum[static_cast<std::size_t>(r)][i] =
              static_cast<std::int32_t>(r * 1000 + i);
        }
      }
      const CollOpts opts{.segment_size = segment};
      auto program = [&](Context& ctx) -> sim::Task<> {
        const mpi::MutView view{
            reinterpret_cast<std::byte*>(
                accum[static_cast<std::size_t>(ctx.rank())].data()),
            kBytes};
        const auto sum = mpi::ReduceOp::kSum;
        const auto i32 = mpi::Datatype::kInt32;
        PersistentOpts popts;
        popts.coll = opts;
        PersistentOpPtr op;
        switch (c) {
          case DirtyCase::kAdaptReduce:
          case DirtyCase::kBlockingReduce:
          case DirtyCase::kNonblockingReduce: {
            const Style style = c == DirtyCase::kAdaptReduce ? Style::kAdapt
                                : c == DirtyCase::kBlockingReduce
                                    ? Style::kBlocking
                                    : Style::kNonblocking;
            co_await coll::reduce(ctx, world, view, sum, i32, 0, tree, style,
                                  opts);
            co_return;
          }
          case DirtyCase::kAdaptAllreduce:
            co_await coll::allreduce(ctx, world, view, sum, i32, tree, tree,
                                     Style::kAdapt, opts);
            co_return;
          case DirtyCase::kPersistentReduce:
            op = reduce_init(ctx, world, view, sum, i32, 0, popts);
            break;
          case DirtyCase::kPersistentAllreduce:
            op = allreduce_init(ctx, world, view, sum, i32, popts);
            break;
          case DirtyCase::kPartitionedReduce:
            popts.partitions = kParts;
            op = reduce_init(ctx, world, view, sum, i32, 0, popts);
            break;
        }
        EXPECT_EQ(op->start(), ErrCode::kOk);
        if (op->partitions() > 0) {
          // Lower ranks (the parents) declare their data last, so child
          // contributions arrive first and their folds park on the windows.
          for (int p = 0; p < kParts; ++p) {
            co_await ctx.sleep_for(microseconds(10 * (kRanks - ctx.rank())));
            EXPECT_EQ(op->pready(p), ErrCode::kOk);
          }
        }
        co_await op->wait();
        EXPECT_EQ(op->last_error(), ErrCode::kOk);
      };
      ASSERT_NO_THROW(engine.run(program));
      const bool all_ranks = c == DirtyCase::kAdaptAllreduce ||
                             c == DirtyCase::kPersistentAllreduce;
      for (int r = 0; r < (all_ranks ? kRanks : 1); ++r) {
        EXPECT_EQ(accum[static_cast<std::size_t>(r)], expected)
            << "rank " << r;
      }
    }
  }
}

// ------------------------------------------------ one-shot failure contract

// A one-shot ADAPT reduce wakes its caller at the first failure and leaves
// its machine to drain. Its posted receives fold straight into the caller's
// accumulator (as the bcast half's receives write into its buffer), so
// once the caller has resumed nothing may land there any more: the
// failure's poison fails every receive still posted. A child dies mid-round
// with the reliable runtime on; each survivor that caught the failure
// overwrites its buffer with a sentinel, and the sentinel must still be
// whole once the engine has run to quiescence.
TEST(OneShotFailure, NoFoldLandsAfterTheCallerResumed) {
  constexpr std::size_t kElems = std::size_t{1} << 20;  // 4 MiB of int32
  constexpr Bytes kBytes = kElems * sizeof(std::int32_t);
  constexpr std::int32_t kSentinel = 0x5e171e1;
  constexpr Rank kVictim = 4;  // binomial tree: parent 0, children 5 and 6
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const Tree tree = binomial_tree(kRanks, 0);
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions options;
  // Quick give-ups, so the failure spreads while segments are still moving.
  options.reliability = mpi::ReliabilityConfig{.ack_timeout = microseconds(20),
                                               .backoff = 1.0,
                                               .max_retries = 2};
  options.faults.deaths.push_back({kVictim, microseconds(150)});
  SimEngine engine(machine, options);
  std::vector<std::vector<std::int32_t>> accum(
      kRanks, std::vector<std::int32_t>(kElems));
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      accum[static_cast<std::size_t>(r)][i] =
          static_cast<std::int32_t>(r * 1000 + i);
    }
  }
  std::vector<char> caught(kRanks, 0);
  // Segments above cori's 64 KiB eager threshold go by rendezvous.
  const CollOpts opts{.segment_size = kib(128)};
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = accum[static_cast<std::size_t>(ctx.rank())];
    const mpi::MutView view{reinterpret_cast<std::byte*>(mine.data()),
                            kBytes};
    try {
      co_await coll::reduce(ctx, world, view, mpi::ReduceOp::kSum,
                            mpi::Datatype::kInt32, 0, tree, Style::kAdapt,
                            opts);
    } catch (const mpi::FaultError&) {
      caught[static_cast<std::size_t>(ctx.rank())] = 1;
      std::fill(mine.begin(), mine.end(), kSentinel);
    }
  };
  EXPECT_NO_THROW(engine.run(program));
  EXPECT_TRUE(caught[0]) << "the root's reduce must fail";
  for (Rank r = 0; r < kRanks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (r == kVictim || !caught[ri]) continue;
    const auto spoilt = static_cast<std::size_t>(std::count_if(
        accum[ri].begin(), accum[ri].end(),
        [](std::int32_t v) { return v != kSentinel; }));
    EXPECT_EQ(spoilt, 0u) << "rank " << r
                          << ": a fold landed after its caller resumed";
  }
}

// ------------------------------------------------------- one-shot requests

// A request dropped without a wait leaves its round running: the data
// still reaches every rank, and the machine frees itself once its last
// callback retires (under ASan with leak checking, a machine nobody frees
// fails the run). The root and an interior rank of the chain drop theirs;
// everyone else waits.
TEST(OneShotRequest, DroppedIbcastStillDeliversAndFreesItself) {
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const Tree tree = chain_tree(kRanks, 0);
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  constexpr Bytes kBytes = 8192;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  fill(bufs[0], 0, 1);
  const std::vector<std::byte> golden = bufs[0];
  auto program = [&](Context& ctx) -> sim::Task<> {
    const mpi::MutView view{bufs[static_cast<std::size_t>(ctx.rank())].data(),
                            kBytes};
    CollRequest req =
        ibcast(ctx, world, view, 0, tree, CollOpts{.segment_size = 1024});
    if (ctx.rank() == 0 || ctx.rank() == 3) co_return;  // dropped
    co_await req.wait(ctx);
  };
  ASSERT_NO_THROW(engine.run(program));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], golden) << "rank " << r;
  }
}

// A child dies mid-round, with the reliable runtime set up as in
// OneShotFailure: every survivor's wait() throws FaultError.
TEST(OneShotRequest, IreduceWaitThrowsWhenAChildDies) {
  constexpr std::size_t kElems = std::size_t{1} << 20;  // 4 MiB of int32
  constexpr Bytes kBytes = kElems * sizeof(std::int32_t);
  constexpr Rank kVictim = 4;  // binomial tree: parent 0, children 5 and 6
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const Tree tree = binomial_tree(kRanks, 0);
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions options;
  options.reliability = mpi::ReliabilityConfig{.ack_timeout = microseconds(20),
                                               .backoff = 1.0,
                                               .max_retries = 2};
  options.faults.deaths.push_back({kVictim, microseconds(150)});
  SimEngine engine(machine, options);
  std::vector<std::vector<std::int32_t>> accum(
      kRanks, std::vector<std::int32_t>(kElems, 1));
  std::vector<char> caught(kRanks, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = accum[static_cast<std::size_t>(ctx.rank())];
    CollRequest req = ireduce(
        ctx, world,
        mpi::MutView{reinterpret_cast<std::byte*>(mine.data()), kBytes},
        mpi::ReduceOp::kSum, mpi::Datatype::kInt32, 0, tree,
        CollOpts{.segment_size = kib(128)});
    try {
      co_await req.wait(ctx);
    } catch (const mpi::FaultError&) {
      caught[static_cast<std::size_t>(ctx.rank())] = 1;
    }
  };
  EXPECT_NO_THROW(engine.run(program));
  for (Rank r = 0; r < kRanks; ++r) {
    if (r == kVictim) continue;
    EXPECT_TRUE(caught[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

}  // namespace
}  // namespace adapt::coll
