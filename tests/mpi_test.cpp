#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/mpi/comm.hpp"
#include "src/mpi/match.hpp"
#include "src/mpi/op.hpp"
#include "src/mpi/p2p.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace adapt::mpi {
namespace {

using runtime::Context;
using runtime::SimEngine;

// ----------------------------------------------------------------- ops ---

TEST(Op, SumInt32) {
  std::int32_t dst[3] = {1, 2, 3};
  const std::int32_t src[3] = {10, 20, 30};
  apply(ReduceOp::kSum, Datatype::kInt32, reinterpret_cast<std::byte*>(dst),
        reinterpret_cast<const std::byte*>(src), sizeof dst);
  EXPECT_EQ(dst[0], 11);
  EXPECT_EQ(dst[1], 22);
  EXPECT_EQ(dst[2], 33);
}

TEST(Op, MaxDouble) {
  double dst[2] = {1.5, 9.0};
  const double src[2] = {2.5, 3.0};
  apply(ReduceOp::kMax, Datatype::kDouble, reinterpret_cast<std::byte*>(dst),
        reinterpret_cast<const std::byte*>(src), sizeof dst);
  EXPECT_DOUBLE_EQ(dst[0], 2.5);
  EXPECT_DOUBLE_EQ(dst[1], 9.0);
}

TEST(Op, MinProdBitwise) {
  std::int64_t dst[2] = {6, 12};
  const std::int64_t src[2] = {4, 10};
  apply(ReduceOp::kMin, Datatype::kInt64, reinterpret_cast<std::byte*>(dst),
        reinterpret_cast<const std::byte*>(src), sizeof dst);
  EXPECT_EQ(dst[0], 4);
  apply(ReduceOp::kProd, Datatype::kInt64, reinterpret_cast<std::byte*>(dst),
        reinterpret_cast<const std::byte*>(src), sizeof dst);
  EXPECT_EQ(dst[0], 16);
  apply(ReduceOp::kBand, Datatype::kInt64, reinterpret_cast<std::byte*>(dst),
        reinterpret_cast<const std::byte*>(src), sizeof dst);
  EXPECT_EQ(dst[0], 0);
}

TEST(Op, BitwiseRejectsFloat) {
  float dst = 1.f, src = 2.f;
  EXPECT_THROW(apply(ReduceOp::kBor, Datatype::kFloat,
                     reinterpret_cast<std::byte*>(&dst),
                     reinterpret_cast<const std::byte*>(&src), sizeof dst),
               Error);
}

TEST(Op, RejectsMisalignedByteCount) {
  std::int32_t dst = 0, src = 0;
  EXPECT_THROW(apply(ReduceOp::kSum, Datatype::kInt32,
                     reinterpret_cast<std::byte*>(&dst),
                     reinterpret_cast<const std::byte*>(&src), 3),
               Error);
}

// -------------------------------------------------------------- matcher ---

Envelope make_env(Rank src, Tag tag, Bytes size = 0) {
  Envelope e;
  e.src = src;
  e.dst = 0;
  e.tag = tag;
  e.size = size;
  return e;
}

PostedRecv make_recv(Rank src, Tag tag) {
  return PostedRecv{RequestPtr::make(Request::Kind::kRecv, src, tag, 64),
                    MutView{}, src, tag};
}

TEST(Matcher, PostedThenArriveMatches) {
  Matcher m;
  EXPECT_FALSE(m.post(make_recv(1, 7)).has_value());
  const auto hit = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(m.posted_count(), 0u);
}

TEST(Matcher, ArriveThenPostIsUnexpected) {
  Matcher m;
  EXPECT_FALSE(m.arrive(make_env(2, 5)).has_value());
  EXPECT_EQ(m.unexpected_count(), 1u);
  const auto env = m.post(make_recv(2, 5));
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->src, 2);
  EXPECT_EQ(m.unexpected_count(), 0u);
  EXPECT_EQ(m.total_unexpected(), 1u);
}

TEST(Matcher, TagMismatchDoesNotMatch) {
  Matcher m;
  m.post(make_recv(1, 7));
  EXPECT_FALSE(m.arrive(make_env(1, 8)).has_value());
  EXPECT_EQ(m.posted_count(), 1u);
  EXPECT_EQ(m.unexpected_count(), 1u);
}

TEST(Matcher, SourceWildcard) {
  Matcher m;
  m.post(make_recv(kAnyRank, 9));
  EXPECT_TRUE(m.arrive(make_env(5, 9)).has_value());
}

TEST(Matcher, TagWildcard) {
  Matcher m;
  m.post(make_recv(3, kAnyTag));
  EXPECT_TRUE(m.arrive(make_env(3, 1234)).has_value());
}

TEST(Matcher, FifoAmongEqualMatches) {
  Matcher m;
  auto r1 = make_recv(1, 7);
  auto r2 = make_recv(1, 7);
  const auto* first = r1.request.get();
  m.post(std::move(r1));
  m.post(std::move(r2));
  const auto hit = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.get(), first);
}

// --------------------------------------------------- engine-level P2P ---

topo::Machine tiny_machine(int ranks = 8) {
  static topo::Machine m(topo::cori(1), 32);
  (void)ranks;
  return m;
}

TEST(P2P, BlockingSendRecvMovesRealBytes) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  std::vector<std::byte> out(64), in(64);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(i);

  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 5, ConstView{out.data(), 64});
    } else {
      co_await ctx.recv(0, 5, MutView{in.data(), 64});
    }
  };
  engine.run(program);
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 64), 0);
}

TEST(P2P, TransferTimeMatchesLane) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  TimeNs finish = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, ConstView{nullptr, kib(64)});
    } else {
      co_await ctx.recv(0, 1, MutView{nullptr, kib(64)});
      finish = ctx.now();
    }
  };
  engine.run(program);
  const TimeNs wire = m.spec().intra_socket.time(kib(64));
  EXPECT_GE(finish, wire);
  // Overheads (posting, matching) are small next to the wire time.
  EXPECT_LE(finish, wire + microseconds(5));
}

TEST(P2P, UnexpectedMessageCostsMore) {
  topo::Machine m(topo::cori(1), 4);
  // Race-free way to force the unexpected path: receiver sleeps first.
  TimeNs expected_done = -1, unexpected_done = -1;
  {
    SimEngine engine(m);
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        co_await ctx.send(1, 1, ConstView{nullptr, kib(256)});
      } else if (ctx.rank() == 1) {
        co_await ctx.recv(0, 1, MutView{nullptr, kib(256)});
        expected_done = ctx.now();
      }
    };
    engine.run(program);
  }
  {
    SimEngine engine(m);
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        co_await ctx.send(1, 1, ConstView{nullptr, kib(256)});
      } else if (ctx.rank() == 1) {
        co_await ctx.sleep_for(milliseconds(1));  // message arrives first
        co_await ctx.recv(0, 1, MutView{nullptr, kib(256)});
        unexpected_done = ctx.now();
      }
    };
    engine.run(program);
  }
  // The expected path completes around the wire time; the unexpected path
  // completes only after the late irecv pays allocation + copy.
  const TimeNs copy_cost =
      m.spec().unexpected_overhead +
      static_cast<TimeNs>(m.spec().memcpy_beta *
                          static_cast<double>(kib(256)));
  EXPECT_GT(expected_done, 0);
  EXPECT_GE(unexpected_done, milliseconds(1) + copy_cost);
}

TEST(P2P, WaitAllCompletesAllRequests) {
  topo::Machine m = tiny_machine();
  SimEngine engine(m);
  int received = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      std::vector<RequestPtr> sends;
      for (Rank r = 1; r < 8; ++r) {
        sends.push_back(ctx.isend(r, 3, ConstView{nullptr, kib(4)}));
      }
      co_await wait_all(sends);
      for (const auto& s : sends) EXPECT_TRUE(s->complete());
    } else if (ctx.rank() < 8) {
      co_await ctx.recv(0, 3, MutView{nullptr, kib(4)});
      ++received;
    }
  };
  engine.run(program);
  EXPECT_EQ(received, 7);
}

TEST(P2P, WaitAnyReturnsACompletedIndex) {
  topo::Machine m(topo::cori(2), 64);
  SimEngine engine(m);
  std::size_t winner = 99;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      // Big inter-node send vs tiny intra-socket send: the tiny one wins.
      std::vector<RequestPtr> reqs;
      reqs.push_back(ctx.isend(32, 1, ConstView{nullptr, mib(4)}));
      reqs.push_back(ctx.isend(1, 1, ConstView{nullptr, 64}));
      winner = co_await wait_any(reqs);
      co_await wait_all(reqs);
    } else if (ctx.rank() == 32) {
      co_await ctx.recv(0, 1, MutView{nullptr, mib(4)});
    } else if (ctx.rank() == 1) {
      co_await ctx.recv(0, 1, MutView{nullptr, 64});
    }
  };
  engine.run(program);
  EXPECT_EQ(winner, 1u);
}

// MPI's non-overtaking rule: messages between one pair with the same tag
// match receives in the order they were sent, whatever their sizes. A
// trailing small message must wait behind the larger ones still queued on
// the pair's transmit queue instead of completing after alpha alone — under
// either sharing policy, as raw messages or as reliable frames.
std::vector<Bytes> arrival_sizes_of_trailing_message(
    Rank target, Bytes trailing,
    net::SharingPolicy sharing = net::SharingPolicy::kFairShare,
    bool reliable = false) {
  topo::Machine m(topo::cori(2), 64);
  runtime::SimEngineOptions options{.sharing = sharing};
  if (reliable) options.reliability = mpi::ReliabilityConfig{};
  SimEngine engine(m, options);
  std::vector<Bytes> sizes;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      std::vector<RequestPtr> reqs;
      for (int i = 0; i < 3; ++i) {
        reqs.push_back(ctx.isend(target, 5, ConstView{nullptr, kib(32)}));
      }
      reqs.push_back(ctx.isend(target, 5, ConstView{nullptr, trailing}));
      co_await wait_all(reqs);
    } else if (ctx.rank() == target) {
      std::vector<RequestPtr> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(ctx.irecv(0, 5, MutView{nullptr, kib(32)}));
      }
      co_await wait_all(reqs);
      for (const RequestPtr& r : reqs) sizes.push_back(r->actual_size());
    }
  };
  engine.run(program);
  return sizes;
}

TEST(P2P, ZeroByteMessageDoesNotOvertakeInterNode) {
  EXPECT_EQ(arrival_sizes_of_trailing_message(32, 0),
            (std::vector<Bytes>{kib(32), kib(32), kib(32), 0}));
}

TEST(P2P, ZeroByteMessageDoesNotOvertakeIntraNode) {
  EXPECT_EQ(arrival_sizes_of_trailing_message(1, 0),
            (std::vector<Bytes>{kib(32), kib(32), kib(32), 0}));
}

TEST(P2P, UncontendedSmallMessageDoesNotOvertake) {
  for (const bool reliable : {false, true}) {
    for (const Rank target : {1, 32}) {
      EXPECT_EQ(arrival_sizes_of_trailing_message(
                    target, 1, net::SharingPolicy::kUncontended, reliable),
                (std::vector<Bytes>{kib(32), kib(32), kib(32), 1}))
          << "target rank " << target << (reliable ? ", reliable" : "");
    }
  }
}

TEST(P2P, CompletionCallbackFires) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  bool send_cb = false, recv_cb = false;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      auto req = ctx.isend(1, 1, ConstView{nullptr, kib(1)});
      req->set_completion_cb([&](Request& r) {
        send_cb = true;
        EXPECT_TRUE(r.complete());
      });
      co_await wait(req);
    } else {
      auto req = ctx.irecv(0, 1, MutView{nullptr, kib(1)});
      req->set_completion_cb([&](Request& r) {
        recv_cb = true;
        EXPECT_EQ(r.actual_src(), 0);
        EXPECT_EQ(r.actual_size(), kib(1));
      });
      co_await wait(req);
    }
  };
  engine.run(program);
  EXPECT_TRUE(send_cb);
  EXPECT_TRUE(recv_cb);
}

TEST(P2P, WildcardRecvReportsActualSource) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  Rank seen = -2;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 3) {
      co_await ctx.send(0, 8, ConstView{nullptr, 16});
    } else if (ctx.rank() == 0) {
      auto req = ctx.irecv(kAnyRank, 8, MutView{nullptr, 16});
      co_await wait(req);
      seen = req->actual_src();
    }
  };
  engine.run(program);
  EXPECT_EQ(seen, 3);
}

TEST(P2P, OverflowingMessageThrows) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 1, ConstView{nullptr, 128});
    } else {
      co_await ctx.recv(0, 1, MutView{nullptr, 64});
    }
  };
  EXPECT_THROW(engine.run(program), Error);
}

TEST(P2P, DeadlockIsDiagnosed) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 1) {
      co_await ctx.recv(0, 1, MutView{nullptr, 8});  // never sent
    }
    co_return;
  };
  EXPECT_THROW(engine.run(program), Error);
}

// A run that ends by a rank's exception or by deadlock destroys the frames
// of the ranks that never finished, with everything they hold.
TEST(P2P, AbnormalRunDestroysUnfinishedFrames) {
  struct Flag {
    bool* destroyed;
    ~Flag() { *destroyed = true; }
  };
  topo::Machine m(topo::cori(1), 2);
  for (const bool deadlock : {true, false}) {
    SimEngine engine(m);
    bool destroyed = false;
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        if (!deadlock) throw Error("rank 0 fails");
        co_return;
      }
      const Flag flag{&destroyed};
      co_await ctx.recv(0, 1, MutView{nullptr, 8});  // never sent
    };
    EXPECT_THROW(engine.run(program), Error);
    EXPECT_TRUE(destroyed) << (deadlock ? "deadlock" : "exception");
  }
}

TEST(Comm, WorldAndMembership) {
  const Comm w = Comm::world(8);
  EXPECT_EQ(w.size(), 8);
  EXPECT_EQ(w.global(3), 3);
  EXPECT_EQ(w.local_of(5), 5);
  const Comm sub({4, 2, 7});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.global(0), 4);
  EXPECT_EQ(sub.local_of(7), 2);
  EXPECT_EQ(sub.local_of(3), kAnyRank);
  EXPECT_TRUE(sub.contains(2));
  EXPECT_FALSE(sub.contains(0));
}

TEST(Comm, RejectsDuplicates) {
  EXPECT_THROW(Comm({1, 2, 1}), Error);
}

TEST(Comm, LocalOfMatchesALinearScan) {
  // A scrambled communicator over a random two thirds of [0, 300): every
  // global rank in [-2, 302), member or not, maps as a scan would map it.
  std::vector<Rank> members(300);
  for (Rank r = 0; r < 300; ++r) members[static_cast<std::size_t>(r)] = r;
  Rng rng(17);
  for (std::size_t i = members.size(); i > 1; --i)
    std::swap(members[i - 1], members[rng.next_below(i)]);
  members.resize(200);
  const Comm comm(members);
  for (Rank g = -2; g < 302; ++g) {
    const auto it = std::find(members.begin(), members.end(), g);
    const Rank expect = it == members.end()
                            ? kAnyRank
                            : static_cast<Rank>(it - members.begin());
    EXPECT_EQ(comm.local_of(g), expect) << "global " << g;
    EXPECT_EQ(comm.contains(g), expect != kAnyRank) << "global " << g;
  }
}

// --------------------------------------------- argument validation ---

TEST(Validation, OutOfRangeRankFailsTheRequest) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::byte buf[8];
    auto too_big = ctx.isend(7, 1, ConstView{buf, 8});
    EXPECT_TRUE(too_big->complete());
    EXPECT_TRUE(too_big->failed());
    EXPECT_EQ(too_big->error(), ErrCode::kErrRank);
    auto negative = ctx.irecv(-2, 1, MutView{buf, 8});
    EXPECT_EQ(negative->error(), ErrCode::kErrRank);
    auto self = ctx.isend(0, 1, ConstView{buf, 8});
    EXPECT_EQ(self->error(), ErrCode::kErrRank);
    // Wildcard receives stay legal.
    auto wild = ctx.irecv(kAnyRank, 1, MutView{buf, 8});
    EXPECT_FALSE(wild->failed());
  };
  engine.run(program);
}

TEST(Validation, NegativeCountFailsTheRequest) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::byte buf[8];
    auto req = ctx.isend(1, 1, ConstView{buf, -4});
    EXPECT_TRUE(req->complete());
    EXPECT_EQ(req->error(), ErrCode::kErrCount);
    co_return;
  };
  engine.run(program);
}

TEST(Validation, MismatchedDatatypeExtentFailsTheRequest) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::byte buf[10];
    SendOpts opts;
    opts.dtype = Datatype::kInt32;
    auto send = ctx.endpoint().isend(1, 1, ConstView{buf, 10}, opts);
    EXPECT_EQ(send->error(), ErrCode::kErrType);  // 10 % 4 != 0
    auto recv = ctx.endpoint().irecv(1, 1, MutView{buf, 10}, Datatype::kInt32);
    EXPECT_EQ(recv->error(), ErrCode::kErrType);
    // A multiple of the extent is fine.
    auto ok = ctx.endpoint().isend(1, 1, ConstView{buf, 8}, opts);
    EXPECT_FALSE(ok->failed());
    co_await wait(ctx.endpoint().irecv(1, 2, MutView{buf, 8}));
    co_return;
  };
  auto peer = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 1) co_return;
    std::byte buf[8];
    co_await ctx.recv(0, 1, MutView{buf, 8});
    co_await ctx.send(0, 2, ConstView{buf, 8});
  };
  auto program_all = [&](Context& ctx) -> sim::Task<> {
    co_await program(ctx);
    co_await peer(ctx);
  };
  engine.run(program_all);
}

TEST(Validation, WaitOnFailedRequestThrowsWithTheCode) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  ErrCode seen = ErrCode::kOk;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::byte buf[8];
    try {
      co_await wait(ctx.isend(5, 1, ConstView{buf, 8}));
    } catch (const FaultError& e) {
      seen = e.code();
    }
  };
  engine.run(program);
  EXPECT_EQ(seen, ErrCode::kErrRank);
}

// -------------------------------------------------------------- poison ---

TEST(Poison, FailsPendingAndFutureRequests) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::byte buf[8];
    auto pending = ctx.irecv(1, 9, MutView{buf, 8});
    EXPECT_FALSE(pending->complete());
    EXPECT_TRUE(ctx.endpoint().has_pending());

    ctx.endpoint().poison(ErrCode::kErrProcFailed);
    EXPECT_TRUE(pending->complete());
    EXPECT_EQ(pending->error(), ErrCode::kErrProcFailed);

    // The first cause wins; later requests are stillborn with it.
    ctx.endpoint().poison(ErrCode::kErrWatchdog);
    EXPECT_EQ(ctx.endpoint().poison_code(), ErrCode::kErrProcFailed);
    auto later = ctx.isend(1, 1, ConstView{buf, 8});
    EXPECT_TRUE(later->complete());
    EXPECT_EQ(later->error(), ErrCode::kErrProcFailed);
    co_return;
  };
  engine.run(program);
}

// ------------------------------------------------------ request lifecycle ---

// Requests live in their endpoint's pool; a handle that outlives the engine
// keeps its request readable, and the orphaned pool frees itself when the
// last handle goes (ASan: no use-after-free, no leak).
TEST(RequestLifecycle, HandleOutlivesEngine) {
  RequestPtr sent;
  RequestPtr received;
  RequestPtr stranded;
  {
    topo::Machine m(topo::cori(1), 2);
    SimEngine engine(m);
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        sent = ctx.isend(1, 4, ConstView{nullptr, 96});
        stranded = ctx.irecv(1, 5, MutView{nullptr, 8});  // never matched
        co_await wait(sent);
      } else {
        received = ctx.irecv(0, 4, MutView{nullptr, 128});
        co_await wait(received);
      }
    };
    engine.run(program);
  }
  EXPECT_TRUE(sent->complete());
  EXPECT_EQ(sent->error(), ErrCode::kOk);
  EXPECT_TRUE(received->complete());
  EXPECT_EQ(received->actual_size(), 96);
  EXPECT_FALSE(stranded->complete());
  EXPECT_EQ(stranded->error(), ErrCode::kOk);
  const RequestPtr copy = stranded;
  stranded = nullptr;
  EXPECT_FALSE(copy->complete());
}

TEST(RequestLifecycle, PoisonFailsPendingInIssueOrder) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  std::vector<int> order;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    std::vector<RequestPtr> reqs;
    reqs.push_back(ctx.irecv(2, 1, MutView{nullptr, 8}));
    reqs.push_back(ctx.isend(1, 1, ConstView{nullptr, 8}));
    reqs.push_back(ctx.irecv(kAnyRank, 2, MutView{nullptr, 8}));
    reqs.push_back(ctx.irecv(3, 3, MutView{nullptr, 8}));
    for (int i = 0; i < 4; ++i) {
      reqs[static_cast<std::size_t>(i)]->set_completion_cb(
          [&order, i](Request& req) {
            EXPECT_EQ(req.error(), ErrCode::kErrProcFailed);
            order.push_back(i);
          });
    }
    EXPECT_TRUE(ctx.endpoint().has_pending());
    ctx.endpoint().poison(ErrCode::kErrProcFailed);
    EXPECT_FALSE(ctx.endpoint().has_pending());
    for (const RequestPtr& req : reqs) EXPECT_TRUE(req->failed());
  };
  engine.run(program);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// wait_any parks one waiter on every request. After it returns, the others
// must no longer point at its (gone) frame: completing them is harmless, and
// a later wait can park on them again.
TEST(RequestLifecycle, WaitAnyDetachesFromTheRest) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  std::size_t first = 99;
  std::vector<Bytes> sizes;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      std::vector<RequestPtr> reqs;
      for (Rank r = 1; r < 4; ++r) {
        reqs.push_back(ctx.irecv(r, 7, MutView{nullptr, 64}));
      }
      first = co_await wait_any(reqs);
      co_await wait(reqs[2]);
      co_await wait(reqs[0]);
      for (const RequestPtr& req : reqs) sizes.push_back(req->actual_size());
    } else {
      // Rank 2 sends first, then 3, then 1.
      const TimeNs delay[] = {0, microseconds(30), 0, microseconds(10)};
      co_await ctx.sleep_for(delay[ctx.rank()]);
      co_await ctx.send(0, 7, ConstView{nullptr, 16 * ctx.rank()});
    }
  };
  engine.run(program);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(sizes, (std::vector<Bytes>{16, 32, 48}));
}

TEST(RequestLifecycle, CallbackRunsBeforeWaiter) {
  const RequestPtr req = RequestPtr::make(Request::Kind::kRecv, 1, 2, 8);
  std::vector<std::string> order;
  req->set_completion_cb([&order](Request&) { order.push_back("callback"); });
  bool done = false;
  auto waiter = [&]() -> sim::Task<> {
    co_await wait(req);
    order.push_back("waiter");
  };
  sim::run_detached(waiter(), [&done](std::exception_ptr) { done = true; });
  EXPECT_FALSE(done);
  req->mark_complete();
  EXPECT_TRUE(done);
  EXPECT_EQ(order, (std::vector<std::string>{"callback", "waiter"}));
}

TEST(RequestLifecycle, HandlesCountHolders) {
  RequestPtr a = RequestPtr::make(Request::Kind::kSend, 3, 1, 8);
  RequestPtr b = a;
  EXPECT_EQ(a.get(), b.get());
  RequestPtr c = std::move(a);
  EXPECT_TRUE(a == nullptr);
  EXPECT_EQ(b.get(), c.get());
  b = nullptr;
  c->mark_failed(ErrCode::kErrRank);
  EXPECT_EQ((*c).error(), ErrCode::kErrRank);
}

}  // namespace
}  // namespace adapt::mpi
