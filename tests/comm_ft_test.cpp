// ULFM communicator-operation tests (PR 7): agreement AND-semantics across
// engines (recovery service and linear fallback), shrink's dense remap and
// fingerprint identity, revocation flooding + plan-cache invalidation, and
// pinned deterministic agreement outcomes under seeded mid-agreement rank
// death — participant and coordinator. RecoveryFuzz overlaps fault-tolerant
// agreement with in-flight persistent rounds on both the SimEngine and the
// ThreadEngine (the latter exercises the fallback agreement protocol).
#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/coll/eventual.hpp"
#include "src/coll/persistent.hpp"
#include "src/mpi/comm.hpp"
#include "src/mpi/comm_ft.hpp"
#include "src/runtime/recovery.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/topo/presets.hpp"
#include "src/verify/chaos.hpp"

namespace adapt::mpi {
namespace {

using runtime::Context;
using runtime::SimEngine;
using runtime::ThreadEngine;

constexpr int kRanks = 8;

topo::Machine test_machine() { return topo::Machine(topo::cori(2), kRanks); }

// Coroutine programs use EXPECT_* only: gtest ASSERT_* expands to a plain
// `return`, which is ill-formed inside a coroutine.

// ----------------------------------------------------------------- agree ----

/// Every member contributes all-ones except one cleared bit; the AND must
/// surface exactly the intersection, identically on every rank. Runs the
/// same program on whichever engine the caller built.
template <typename Engine>
void run_agree_and_program(Engine& engine, const Comm& comm) {
  std::vector<std::uint64_t> flags(kRanks, ~0ull);
  std::vector<std::uint64_t> failed(kRanks, ~0ull);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (!comm.contains(ctx.rank())) co_return;
    const std::uint64_t mine = 0xFFull ^ (1ull << ctx.rank());
    const AgreeResult first = co_await comm_agree(ctx, comm, mine);
    EXPECT_FALSE(first.excluded);
    // Agreements on one communicator are ordered: a second round must see
    // fresh state, not the first round's frozen decision.
    const AgreeResult second = co_await comm_agree(ctx, comm, 0b11u);
    EXPECT_EQ(second.flags, 0b11u);
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    flags[me] = first.flags;
    failed[me] = first.failed;
  };
  engine.run(program);

  std::uint64_t expect = ~0ull;
  for (Rank g : comm.members()) expect &= 0xFFull ^ (1ull << g);
  for (Rank g : comm.members()) {
    const std::size_t gi = static_cast<std::size_t>(g);
    EXPECT_EQ(flags[gi], expect) << "rank " << g;
    EXPECT_EQ(failed[gi], 0u) << "rank " << g;
  }
}

TEST(CommFt, AgreeAndsFlagsUnderRecoveryService) {
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions opts;
  opts.reliability = verify::chaos_reliability();
  opts.recovery = runtime::RecoveryOptions{};
  SimEngine engine(machine, opts);
  run_agree_and_program(engine, Comm::world(kRanks));
}

TEST(CommFt, AgreeAndsFlagsViaFallbackOnPlainEngines) {
  topo::Machine machine = test_machine();
  {
    SimEngine engine(machine);  // recovery off: linear gather+bcast path
    run_agree_and_program(engine, Comm::world(kRanks));
  }
  {
    SimEngine engine(machine);  // subset comm: coordinator is global(0) == 1
    run_agree_and_program(engine, Comm(std::vector<Rank>{1, 3, 4, 6}));
  }
  {
    ThreadEngine engine(machine);
    run_agree_and_program(engine, Comm::world(kRanks));
  }
}

// ---------------------------------------------------------------- shrink ----

TEST(CommFt, ShrinkRemapsDenselyAndMatchesFingerprint) {
  const Comm comm(std::vector<Rank>{0, 2, 3, 5, 7});
  const std::uint64_t failed = (1ull << 2) | (1ull << 7);
  const Comm shrunk = comm_shrink(comm, failed);

  ASSERT_EQ(shrunk.size(), 3);
  EXPECT_EQ(shrunk.global(0), 0);  // original order, densely remapped
  EXPECT_EQ(shrunk.global(1), 3);
  EXPECT_EQ(shrunk.global(2), 5);
  EXPECT_EQ(shrunk.local_of(3), 1);
  EXPECT_FALSE(shrunk.contains(2));

  // Same ordered membership ⇒ same fingerprint: survivors that derive the
  // shrunk comm independently (from the agreed mask) share cached plans.
  const Comm direct(std::vector<Rank>{0, 3, 5});
  EXPECT_EQ(shrunk.fingerprint(), direct.fingerprint());
  EXPECT_NE(shrunk.fingerprint(), comm.fingerprint());

  // Shrinking away nothing still yields a usable identical membership.
  const Comm same = comm_shrink(comm, 0);
  EXPECT_EQ(same.members(), comm.members());
}

// ---------------------------------------------------------------- revoke ----

TEST(CommFt, RevokeFloodsJobWideAndDropsCachedPlans) {
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions opts;
  opts.reliability = verify::chaos_reliability();
  opts.recovery = runtime::RecoveryOptions{};
  SimEngine engine(machine, opts);
  const Comm world = Comm::world(kRanks);
  constexpr Bytes kBytes = 1024;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    coll::PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto op = coll::bcast_init(ctx, world, MutView{mine.data(), kBytes},
                               /*root=*/0, popts);
    EXPECT_EQ(op->start(), ErrCode::kOk);
    co_await op->wait();

    // Barrier before revoking: the root finishes its round first, and a
    // revoke flood landing on a rank still pumping the bcast would poison
    // its round (that unblocking IS the production behavior — here the pin
    // is the flood + plan-cache semantics on idle ranks).
    co_await comm_agree(ctx, world, 1);
    if (ctx.rank() == 0) comm_revoke(ctx, world);
    // The kRevoke flood needs (virtual) time to reach the other ranks; no
    // rank holds pending requests here, so nobody gets poisoned by it.
    co_await ctx.sleep_for(milliseconds(2));
    EXPECT_TRUE(ctx.recovery() != nullptr);
    EXPECT_TRUE(ctx.recovery()->revoked(world.fingerprint()))
        << "rank " << ctx.rank() << " missed the revocation flood";
    EXPECT_EQ(op->start(), ErrCode::kErrRevoked);
  };
  engine.run(program);
  EXPECT_EQ(engine.plan_cache().size(), 0);
}

// ------------------------------------------------- death during agreement ----

struct AgreeDeathOutcome {
  std::vector<std::uint64_t> flags;
  std::vector<std::uint64_t> failed;
  std::vector<char> excluded;
};

/// One seeded run: `victim` dies at `at` and (having slept past its own
/// death) never effectively contributes; everyone else agrees at t=0 with
/// flags = ~(1 << rank) over the low byte. Survivor outcomes are returned
/// for pinning; the victim self-terminates through its own give-up cascade.
AgreeDeathOutcome run_agree_death(Rank victim, TimeNs at) {
  topo::Machine machine = test_machine();
  runtime::SimEngineOptions opts;
  opts.reliability = verify::chaos_reliability();
  opts.recovery = runtime::RecoveryOptions{};
  net::FaultPlan plan;
  plan.seed = 1;
  plan.deaths.push_back(net::FaultPlan::Death{victim, at});
  opts.faults = plan;
  SimEngine engine(machine, opts);
  const Comm world = Comm::world(kRanks);

  AgreeDeathOutcome out;
  out.flags.assign(kRanks, ~0ull);
  out.failed.assign(kRanks, ~0ull);
  out.excluded.assign(kRanks, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    const Rank me = ctx.rank();
    runtime::Recovery* rec = ctx.recovery();
    rec->acquire_heartbeats();
    if (me == victim) {
      // Sleep past the death so the contribution never makes it out: the
      // survivors must detect the silence, not read a contribution.
      co_await ctx.sleep_for(at + microseconds(50));
    }
    const AgreeResult res =
        co_await comm_agree(ctx, world, 0xFFull ^ (1ull << me));
    rec->release_heartbeats();
    const std::size_t mi = static_cast<std::size_t>(me);
    out.flags[mi] = res.flags;
    out.failed[mi] = res.failed;
    out.excluded[mi] = res.excluded ? 1 : 0;
  };
  engine.run(program);
  return out;
}

TEST(CommFt, AgreeSurvivesParticipantDeathWithPinnedOutcome) {
  const Rank victim = 5;
  const AgreeDeathOutcome out = run_agree_death(victim, microseconds(50));
  // AND over the survivors' contributions leaves exactly the victim's bit.
  for (Rank g = 0; g < kRanks; ++g) {
    if (g == victim) continue;
    const std::size_t gi = static_cast<std::size_t>(g);
    EXPECT_EQ(out.flags[gi], 1ull << victim) << "rank " << g;
    EXPECT_EQ(out.failed[gi], 1ull << victim) << "rank " << g;
    EXPECT_EQ(out.excluded[gi], 0) << "rank " << g;
  }
  // Deterministic: the same seed reproduces the identical outcome.
  const AgreeDeathOutcome again = run_agree_death(victim, microseconds(50));
  EXPECT_EQ(out.flags, again.flags);
  EXPECT_EQ(out.failed, again.failed);
  EXPECT_EQ(out.excluded, again.excluded);
}

TEST(CommFt, AgreeSurvivesCoordinatorDeathWithPinnedOutcome) {
  // Rank 0 is the initial coordinator; its death forces the restart path:
  // every survivor re-targets the next-lowest survivor (rank 1), which
  // decides with the victim in the failed set.
  const Rank victim = 0;
  const AgreeDeathOutcome out = run_agree_death(victim, microseconds(50));
  for (Rank g = 1; g < kRanks; ++g) {
    const std::size_t gi = static_cast<std::size_t>(g);
    EXPECT_EQ(out.flags[gi], 1ull << victim) << "rank " << g;
    EXPECT_EQ(out.failed[gi], 1ull << victim) << "rank " << g;
    EXPECT_EQ(out.excluded[gi], 0) << "rank " << g;
  }
  const AgreeDeathOutcome again = run_agree_death(victim, microseconds(50));
  EXPECT_EQ(out.flags, again.flags);
  EXPECT_EQ(out.failed, again.failed);
}

// ----------------------------------------------------------- recovery fuzz ----

/// Persistent rounds in flight on the world communicator while a subset
/// communicator runs agreement + shrink between start() and wait(): the
/// dedicated low agreement tags must never cross-match collective traffic,
/// on either engine. The ThreadEngine leg runs the fallback agreement under
/// real concurrency; the SimEngine legs cross three perturbation seeds.
template <typename Engine>
void run_recovery_fuzz(Engine& engine) {
  const Comm world = Comm::world(kRanks);
  const Comm evens(std::vector<Rank>{0, 2, 4, 6});
  constexpr Bytes kBytes = 2048;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));

  auto fill = [](std::vector<std::byte>& buf, int rank, int round) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] =
          static_cast<std::byte>((rank * 131 + round * 17 + i * 7) & 0xff);
    }
  };

  auto program = [&](Context& ctx) -> sim::Task<> {
    const Rank me = ctx.rank();
    auto& mine = bufs[static_cast<std::size_t>(me)];
    coll::PersistentOpts popts;
    popts.coll.segment_size = 256;
    auto op = coll::bcast_init(ctx, world, MutView{mine.data(), kBytes},
                               /*root=*/0, popts);
    for (int round = 0; round < kRounds; ++round) {
      fill(mine, me == 0 ? 0 : static_cast<int>(me) + 100, round);
      EXPECT_EQ(op->start(), ErrCode::kOk);
      if (evens.contains(me)) {
        // Mid-flight agreement + shrink on the overlapping subset comm.
        const AgreeResult res = co_await comm_agree(
            ctx, evens, 0xF0ull | static_cast<std::uint64_t>(round));
        EXPECT_EQ(res.flags, 0xF0ull | static_cast<std::uint64_t>(round));
        EXPECT_EQ(res.failed, 0u);
        const Comm shrunk = comm_shrink(evens, 1ull << 4);
        EXPECT_EQ(shrunk.size(), evens.size() - 1);
        EXPECT_FALSE(shrunk.contains(4));
      }
      co_await op->wait();
      EXPECT_EQ(op->last_error(), ErrCode::kOk);
      // Everyone holds round-r bytes from the root.
      std::vector<std::byte> expect(static_cast<std::size_t>(kBytes));
      fill(expect, 0, round);
      EXPECT_EQ(mine, expect) << "rank " << me << " round " << round;
    }
  };
  engine.run(program);
}

TEST(CommFt, RecoveryFuzzSimEngineAcrossPerturbationSeeds) {
  topo::Machine machine = test_machine();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    runtime::SimEngineOptions opts;
    if (seed != 0) {
      sim::PerturbConfig perturb;
      perturb.seed = seed;
      perturb.max_jitter = microseconds(2);
      opts.perturb = perturb;
    }
    SimEngine engine(machine, opts);
    run_recovery_fuzz(engine);
  }
}

TEST(CommFt, RecoveryFuzzThreadEngineFallbackAgree) {
  topo::Machine machine = test_machine();
  ThreadEngine engine(machine);
  run_recovery_fuzz(engine);
}

// ----------------------------------------------------- eventual collectives

// The eventual collectives return (ec_bcast's root) or fold into the
// caller's buffer (ec_allreduce, as soon as it wakes) without waiting on
// their fire-and-forget sends. A send borrows its buffer until it completes,
// so those sends must go from a snapshot: a caller that reuses its buffer
// right after the op returns cannot change what any peer receives.
TEST(EventualColl, BcastRootMayClobberItsBufferOnReturn) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const Comm world = Comm::world(kRanks);
  constexpr Bytes kSize = kib(4);
  std::vector<std::byte> expect(static_cast<std::size_t>(kSize));
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect[i] = std::byte(37 * i + 11);
  }
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(expect.size()));
  bufs[0] = expect;
  std::vector<int> complete(kRanks, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    const coll::EcResult res = co_await coll::ec_bcast(
        ctx, world, MutView{mine.data(), kSize}, /*root=*/0);
    complete[static_cast<std::size_t>(ctx.rank())] = res.complete ? 1 : 0;
    if (ctx.rank() == 0) std::fill(mine.begin(), mine.end(), std::byte{0});
  };
  engine.run(program);
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(complete[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], expect) << "rank " << r;
  }
}

// Rank 0's short deadline returns it long before its peers enter, with its
// rendezvous-sized sends still waiting for their receives; it then reuses
// its buffer. Every peer must still fold in rank 0's original contribution.
TEST(EventualColl, AllreduceCallerMayReuseItsBufferOnReturn) {
  topo::Machine machine = test_machine();
  SimEngine engine(machine);
  const Comm world = Comm::world(kRanks);
  const Bytes bytes = machine.spec().eager_threshold + kib(4);
  const auto count = static_cast<std::size_t>(bytes) / sizeof(std::int32_t);
  std::vector<std::vector<std::int32_t>> accums(kRanks);
  std::vector<int> complete(kRanks, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    auto& mine = accums[static_cast<std::size_t>(ctx.rank())];
    mine.assign(count, ctx.rank() + 1);
    coll::EcOpts opts;
    if (ctx.rank() == 0) {
      opts.staleness = milliseconds(1);
    } else {
      co_await ctx.sleep_for(milliseconds(2));
    }
    const coll::EcResult res = co_await coll::ec_allreduce(
        ctx, world, MutView{reinterpret_cast<std::byte*>(mine.data()), bytes},
        ReduceOp::kSum, Datatype::kInt32, opts);
    complete[static_cast<std::size_t>(ctx.rank())] = res.complete ? 1 : 0;
    if (ctx.rank() == 0) std::fill(mine.begin(), mine.end(), -1000);
  };
  engine.run(program);
  EXPECT_EQ(complete[0], 0) << "rank 0 was meant to return at its deadline";
  const std::int32_t sum = kRanks * (kRanks + 1) / 2;
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(complete[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(accums[static_cast<std::size_t>(r)],
              std::vector<std::int32_t>(count, sum))
        << "rank " << r;
  }
}

}  // namespace
}  // namespace adapt::mpi
