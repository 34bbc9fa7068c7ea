// Unit tests of the retransmit machinery (mpi::ReliableChannel), driven by a
// scripted lossy wire on a bare simulator — no engine, no fabric — plus
// engine-level checks that retry exhaustion surfaces as error codes on BOTH
// endpoints of a partitioned send/recv, and the placement contract of
// payload bytes (borrowed sends, folding receives) on every engine.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/mpi/errors.hpp"
#include "src/mpi/p2p.hpp"
#include "src/mpi/reliable.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/slot_pool.hpp"
#include "src/topo/presets.hpp"
#include "src/verify/chaos.hpp"
#include "tests/engine_matrix.hpp"

namespace adapt {
namespace {

using mpi::ErrCode;
using mpi::Frame;
using mpi::ReliableChannel;
using mpi::WireFrame;

/// Two channels joined by a scripted wire: tests decide per wire frame
/// whether it is dropped or corrupted en route.
class WirePair {
 public:
  WirePair() {
    config_.ack_timeout = microseconds(10);
    config_.per_byte = 0;
    config_.backoff = 2.0;
    config_.max_retries = 3;
    for (Rank r = 0; r < 2; ++r) chan_[r] = make(r);
  }

  sim::Simulator& sim() { return sim_; }
  ReliableChannel& chan(Rank r) {
    return *chan_[static_cast<std::size_t>(r)];
  }
  const mpi::ReliabilityConfig& config() const { return config_; }

  /// Scripted fault hooks, keyed on the full wire identity.
  std::function<bool(const WireFrame&)> drop;
  std::function<bool(const WireFrame&)> corrupt;

  std::vector<std::pair<Rank, Frame>> delivered[2];
  std::vector<ErrCode> give_ups[2];

 private:
  std::unique_ptr<ReliableChannel> make(Rank self) {
    const std::size_t si = static_cast<std::size_t>(self);
    return std::make_unique<ReliableChannel>(
        self, config_,
        [this](const WireFrame& w) { send(w); },
        [this](TimeNs delay, std::function<void()> fn) {
          sim_.after(delay, std::move(fn));
        },
        [this, si](Rank src, const Frame& frame) {
          delivered[si].push_back({src, frame});
        },
        [this, si](Rank /*peer*/, const Frame&, ErrCode code) {
          give_ups[si].push_back(code);
        });
  }

  void send(const WireFrame& w) {
    if (drop && drop(w)) return;
    WireFrame copy = w;
    if (corrupt && corrupt(w)) copy.corrupted = true;
    sim_.after(/*latency=*/100, [this, copy] {
      chan_[static_cast<std::size_t>(copy.dst)]->on_wire(copy);
    });
  }

  sim::Simulator sim_;
  mpi::ReliabilityConfig config_;
  std::unique_ptr<ReliableChannel> chan_[2];
};

Frame eager_frame(Bytes bytes) {
  Frame frame;
  frame.kind = Frame::Kind::kEager;
  frame.wire_bytes = bytes;
  return frame;
}

TEST(ReliableChannel, DeliversAndAcksOnCleanWire) {
  WirePair net;
  bool acked = false;
  net.chan(0).submit(1, eager_frame(64), [&] { acked = true; });
  net.sim().run();
  EXPECT_TRUE(acked);
  ASSERT_EQ(net.delivered[1].size(), 1u);
  EXPECT_EQ(net.delivered[1][0].first, 0);
  EXPECT_EQ(net.chan(0).stats().retransmits, 0u);
  EXPECT_EQ(net.chan(0).outstanding(), 0);
}

TEST(ReliableChannel, RetransmitHealsDroppedData) {
  WirePair net;
  net.drop = [](const WireFrame& w) { return !w.is_ack && w.attempt == 0; };
  bool acked = false;
  net.chan(0).submit(1, eager_frame(64), [&] { acked = true; });
  net.sim().run();
  EXPECT_TRUE(acked);
  ASSERT_EQ(net.delivered[1].size(), 1u) << "delivered exactly once";
  EXPECT_EQ(net.chan(0).stats().retransmits, 1u);
  EXPECT_TRUE(net.give_ups[0].empty());
}

TEST(ReliableChannel, DuplicateFromLostAckSuppressed) {
  WirePair net;
  // The data frame arrives; its first ack is lost, so the sender
  // retransmits and the receiver sees a duplicate. It must re-ack without
  // re-delivering.
  int acks_dropped = 0;
  net.drop = [&](const WireFrame& w) {
    if (w.is_ack && acks_dropped == 0) {
      ++acks_dropped;
      return true;
    }
    return false;
  };
  bool acked = false;
  net.chan(0).submit(1, eager_frame(64), [&] { acked = true; });
  net.sim().run();
  EXPECT_TRUE(acked) << "the re-acked duplicate completes the sender";
  ASSERT_EQ(net.delivered[1].size(), 1u) << "duplicate must not re-deliver";
  EXPECT_GE(net.chan(1).stats().duplicates, 1u);
  EXPECT_EQ(net.chan(0).stats().retransmits, 1u);
}

TEST(ReliableChannel, StaleAndUnknownAcksIgnored) {
  WirePair net;
  bool acked = false;
  net.chan(0).submit(1, eager_frame(64), [&] { acked = true; });
  net.sim().run();
  ASSERT_TRUE(acked);

  // An ack for a sequence number that was never outstanding, and a repeat
  // of the ack that already completed seq 1: both must be counted and
  // otherwise ignored.
  WireFrame unknown;
  unknown.src = 1;
  unknown.dst = 0;
  unknown.is_ack = true;
  unknown.seq = 99;
  net.chan(0).on_wire(unknown);
  WireFrame repeat = unknown;
  repeat.seq = 1;
  net.chan(0).on_wire(repeat);
  EXPECT_EQ(net.chan(0).stats().stale_acks, 2u);
  EXPECT_EQ(net.chan(0).outstanding(), 0);
  EXPECT_TRUE(net.give_ups[0].empty());
}

TEST(ReliableChannel, CorruptionDiscardedThenHealedByRetransmit) {
  WirePair net;
  net.corrupt = [](const WireFrame& w) { return !w.is_ack && w.attempt == 0; };
  bool acked = false;
  net.chan(0).submit(1, eager_frame(64), [&] { acked = true; });
  net.sim().run();
  EXPECT_TRUE(acked);
  ASSERT_EQ(net.delivered[1].size(), 1u);
  EXPECT_EQ(net.chan(1).stats().corrupt_discards, 1u);
  EXPECT_EQ(net.chan(0).stats().retransmits, 1u);
}

TEST(ReliableChannel, RetryExhaustionFailsTheFrame) {
  WirePair net;
  net.drop = [](const WireFrame& w) { return !w.is_ack; };  // total blackout
  bool acked = false;
  ErrCode failed = ErrCode::kOk;
  net.chan(0).submit(
      1, eager_frame(64), [&] { acked = true; },
      [&](ErrCode code) { failed = code; });
  net.sim().run();
  EXPECT_FALSE(acked);
  EXPECT_EQ(failed, ErrCode::kErrRetryExhausted);
  ASSERT_EQ(net.give_ups[0].size(), 1u);
  EXPECT_EQ(net.give_ups[0][0], ErrCode::kErrRetryExhausted);
  EXPECT_EQ(net.chan(0).outstanding(), 0);
  EXPECT_TRUE(net.delivered[1].empty());
  // max_retries transmissions beyond the first.
  EXPECT_EQ(net.chan(0).stats().retransmits,
            static_cast<std::uint64_t>(net.config().max_retries));
}

TEST(ReliableChannel, BackoffSpacesRetransmits) {
  WirePair net;
  std::vector<TimeNs> attempts;
  net.drop = [&](const WireFrame& w) {
    if (!w.is_ack) attempts.push_back(net.sim().now());
    return !w.is_ack;
  };
  net.chan(0).submit(1, eager_frame(0), nullptr, [](ErrCode) {});
  net.sim().run();
  ASSERT_EQ(attempts.size(), 4u);  // original + 3 retries
  // Exponential backoff: each gap doubles (ack_timeout * backoff^attempt).
  const TimeNs g1 = attempts[1] - attempts[0];
  const TimeNs g2 = attempts[2] - attempts[1];
  const TimeNs g3 = attempts[3] - attempts[2];
  EXPECT_EQ(g2, 2 * g1);
  EXPECT_EQ(g3, 2 * g2);
}

// ---------------------------------------------------------- engine level ---

/// An outage between ranks 0 and 1 that outlasts the data frame's whole
/// retry budget (give-up lands at ~51ms) but not the abort flood sent right
/// after: the failure must surface as an error code on BOTH endpoints — the
/// sender via give-up, the receiver via the abort flood — never as a hang.
/// Each frame travels a data or control leg under either sharing policy.
TEST(ReliableEngine, RetryExhaustionSurfacesOnBothEndpoints) {
  const topo::Machine machine(topo::cori(1), 2);
  for (const net::SharingPolicy sharing :
       {net::SharingPolicy::kFairShare, net::SharingPolicy::kUncontended}) {
    SCOPED_TRACE(sharing == net::SharingPolicy::kFairShare ? "fair-share"
                                                           : "uncontended");
    runtime::SimEngineOptions options;
    options.sharing = sharing;
    options.faults.outages.push_back({/*a=*/0, /*b=*/1, /*link=*/-1,
                                      /*from=*/0,
                                      /*until=*/milliseconds(30)});
    options.reliability = mpi::ReliabilityConfig{};
    runtime::SimEngine engine(machine, options);

    std::vector<ErrCode> codes(2, ErrCode::kOk);
    const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      std::vector<std::byte> buf(1024);
      try {
        if (ctx.rank() == 0) {
          co_await ctx.send(1, /*tag=*/7,
                            mpi::ConstView{buf.data(), (Bytes)buf.size()});
        } else {
          co_await ctx.recv(0, /*tag=*/7,
                            mpi::MutView{buf.data(), (Bytes)buf.size()});
        }
      } catch (const mpi::FaultError& e) {
        codes[static_cast<std::size_t>(ctx.rank())] = e.code();
      }
    };
    engine.run(program);

    EXPECT_EQ(codes[0], ErrCode::kErrRetryExhausted) << "sender-side give-up";
    EXPECT_EQ(codes[1], ErrCode::kErrProcFailed)
        << "receiver learns through the abort flood";
    EXPECT_TRUE(engine.endpoint(1).poisoned());
  }
}

/// Same outage, rendezvous-sized payload: the RTS never gets through, the
/// sender's give-up escalates job-wide, and the posted receive fails too.
TEST(ReliableEngine, RendezvousPartitionFailsBothRequests) {
  const topo::Machine machine(topo::cori(1), 2);
  for (const net::SharingPolicy sharing :
       {net::SharingPolicy::kFairShare, net::SharingPolicy::kUncontended}) {
    SCOPED_TRACE(sharing == net::SharingPolicy::kFairShare ? "fair-share"
                                                           : "uncontended");
    runtime::SimEngineOptions options;
    options.sharing = sharing;
    options.faults.outages.push_back({/*a=*/0, /*b=*/1, /*link=*/-1,
                                      /*from=*/0,
                                      /*until=*/milliseconds(30)});
    options.reliability = mpi::ReliabilityConfig{};
    runtime::SimEngine engine(machine, options);

    const Bytes big = kib(256);  // above the eager threshold
    std::vector<ErrCode> codes(2, ErrCode::kOk);
    const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      std::vector<std::byte> buf(static_cast<std::size_t>(big));
      try {
        if (ctx.rank() == 0) {
          co_await ctx.send(1, /*tag=*/9, mpi::ConstView{buf.data(), big});
        } else {
          co_await ctx.recv(0, /*tag=*/9, mpi::MutView{buf.data(), big});
        }
      } catch (const mpi::FaultError& e) {
        codes[static_cast<std::size_t>(ctx.rank())] = e.code();
      }
    };
    engine.run(program);

    EXPECT_EQ(codes[0], ErrCode::kErrRetryExhausted);
    EXPECT_EQ(codes[1], ErrCode::kErrProcFailed);
  }
}

// ------------------------------------------------- stale rendezvous frames

/// Two rendezvous messages from rank 0 to rank 1, one after the other, so
/// the second parks its halves in the slots the first released. While the
/// second is parked, `inject` hands rank `at`'s channel a frame that names
/// the first rendezvous (a late CTS or bulk frame of a finished or failed
/// rendezvous). Returns the second message's received bytes and both
/// ranks' finish times.
struct StaleRun {
  std::vector<std::byte> sent;
  std::vector<std::byte> received;
  std::vector<TimeNs> finish;
};

StaleRun run_with_stale_frame(Rank at, Frame::Kind kind, bool inject) {
  const topo::Machine machine(topo::cori(1), 2);
  runtime::SimEngineOptions options;
  options.reliability = mpi::ReliabilityConfig{};
  runtime::SimEngine engine(machine, options);

  // What the first rendezvous's halves were named: the first parking of a
  // fresh pool's first slot, on either side.
  support::SlotPool<int> fresh;
  const std::uint64_t first = fresh.ref(fresh.acquire(0));

  const Bytes big = kib(256);  // above the eager threshold
  std::vector<std::byte> out(static_cast<std::size_t>(big));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(3 * i + 1);
  const std::vector<std::byte> garbage(out.size(), std::byte{0xee});
  StaleRun result;
  result.sent = out;
  result.received.assign(out.size(), std::byte{0});
  std::vector<std::byte> scratch(out.size());

  const auto forge = [&] {
    WireFrame wire;
    wire.src = 1 - at;
    wire.dst = at;
    wire.seq = std::uint64_t{1} << 40;  // far above any real frame's
    wire.frame.kind = kind;
    wire.frame.rdvz = first;
    wire.frame.rdvz_recv = first;
    if (kind == Frame::Kind::kBulk) {
      wire.frame.wire_bytes = big;
      wire.frame.env.src = 0;
      wire.frame.env.dst = 1;
      wire.frame.env.tag = 2;
      wire.frame.env.size = big;
      wire.frame.env.borrow(garbage.data());
    }
    engine.channel(at)->on_wire(wire);
  };
  const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, /*tag=*/1, mpi::ConstView{out.data(), big});
      auto second = ctx.isend(1, /*tag=*/2, mpi::ConstView{out.data(), big});
      if (inject && at == 0) forge();  // the second awaits its CTS
      co_await mpi::wait(second);
    } else {
      co_await ctx.recv(0, /*tag=*/1, mpi::MutView{scratch.data(), big});
      co_await ctx.sleep_for(microseconds(200));  // the second RTS waits
      auto second = ctx.irecv(
          0, /*tag=*/2, mpi::MutView{result.received.data(), big});
      if (inject && at == 1) forge();  // the second awaits its bulk frame
      co_await mpi::wait(second);
    }
  };
  result.finish = engine.run(program).rank_finish;
  return result;
}

/// A late CTS names a rendezvous whose sender half is gone and whose slot
/// now holds the next message: the sender drops it, and the next message
/// still waits for its own CTS.
TEST(StaleRendezvous, LateCtsLeavesTheReusedSlotAlone) {
  const StaleRun clean = run_with_stale_frame(0, Frame::Kind::kCts, false);
  const StaleRun stale = run_with_stale_frame(0, Frame::Kind::kCts, true);
  EXPECT_EQ(clean.received, clean.sent);
  EXPECT_EQ(stale.finish, clean.finish);
  EXPECT_EQ(stale.received, clean.sent);
}

/// A late bulk frame names a receive that already finished, and its slot
/// now holds the next matched receive: the receiver drops it, so the next
/// receive gets its own bytes at its own time.
TEST(StaleRendezvous, LateBulkLeavesTheReusedSlotAlone) {
  const StaleRun clean = run_with_stale_frame(1, Frame::Kind::kBulk, false);
  const StaleRun stale = run_with_stale_frame(1, Frame::Kind::kBulk, true);
  EXPECT_EQ(clean.received, clean.sent);
  EXPECT_EQ(stale.finish, clean.finish);
  EXPECT_EQ(stale.received, clean.sent);
}

// ---------------------------------------------------- borrowed send buffers

/// Raw mode (no reliability layer), every data leg corrupted: the fault hits
/// the receiver's copy only. A send borrows its buffer, so the leg must
/// capture the bytes before it damages them, on the fabric and on the pair
/// clocks alike.
TEST(BorrowedPayload, CorruptedLegDamagesOnlyTheReceiversCopy) {
  const topo::Machine machine(topo::cori(1), 2);
  for (const net::SharingPolicy sharing :
       {net::SharingPolicy::kFairShare, net::SharingPolicy::kUncontended}) {
    runtime::SimEngineOptions options;
    options.sharing = sharing;
    options.faults.corrupt = 1.0;
    runtime::SimEngine engine(machine, options);

    const Bytes size = kib(4);
    std::vector<std::byte> out(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(7 * i + 1);
    const std::vector<std::byte> original = out;
    std::vector<std::byte> in(out.size());
    const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        co_await ctx.send(1, /*tag=*/4, mpi::ConstView{out.data(), size});
      } else {
        co_await ctx.recv(0, /*tag=*/4, mpi::MutView{in.data(), size});
      }
    };
    engine.run(program);
    EXPECT_EQ(out, original) << "the sender's buffer was damaged";
    EXPECT_NE(in, original) << "the leg was not corrupted";
  }
}

/// A send failed by Endpoint::poison while its data leg is still in flight
/// completes at once, and its caller frees the buffer right there (in the
/// completion callback). The leg must not read the freed bytes when it
/// lands (ASan: no heap-use-after-free), and the receiver still gets the
/// bytes as of isend. Eager and rendezvous; the leg is parked on the wire
/// or waiting for its CTS.
TEST(BorrowedPayload, PoisonedSendWhoseBufferIsFreedReadsNothingAfterFree) {
  const topo::Machine machine(topo::cori(1), 2);
  for (const Bytes size : {kib(4), machine.spec().eager_threshold + kib(4)}) {
    runtime::SimEngine engine(machine);
    std::vector<std::byte> expect(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < expect.size(); ++i) {
      expect[i] = std::byte(13 * i + 5);
    }
    std::vector<std::byte> in(expect.size());
    ErrCode send_code = ErrCode::kOk;
    const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 0) {
        auto* buf = new std::byte[expect.size()];
        std::copy(expect.begin(), expect.end(), buf);
        auto req = ctx.isend(1, /*tag=*/6, mpi::ConstView{buf, size});
        req->set_completion_cb([&send_code, buf](mpi::Request& r) {
          send_code = r.error();
          delete[] buf;
        });
        ctx.endpoint().poison(ErrCode::kErrProcFailed);
      } else {
        co_await ctx.recv(0, /*tag=*/6, mpi::MutView{in.data(), size});
      }
      co_return;
    };
    engine.run(program);
    EXPECT_EQ(send_code, ErrCode::kErrProcFailed);
    EXPECT_EQ(in, expect) << size << "B message";
  }
}

// ------------------------------------------------------ fold on placement
//
// A folding receive (irecv with a ReduceOp) lands each message as
// buffer = buffer OP message, on whichever path the message takes, exactly
// once. Each case folds int32 vectors from two senders into one buffer that
// starts with the receiver's own values. Every rank's values differ, so a
// fold that is missing, doubled, or replaced by a copy spoils the sum.

std::vector<std::int32_t> fold_values(Rank r, std::size_t n) {
  std::vector<std::int32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::int32_t>((r + 1) * 100003 + 7 * i);
  }
  return v;
}

mpi::MutView int32_view(std::vector<std::int32_t>& v) {
  return mpi::MutView{reinterpret_cast<std::byte*>(v.data()),
                      static_cast<Bytes>(v.size() * sizeof(std::int32_t))};
}

std::vector<std::int32_t> plus(std::vector<std::int32_t> a,
                               const std::vector<std::int32_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

using runtime::Arrival;
using runtime::ContractCase;
using runtime::EngineKind;

class FoldOnPlacement : public testing::TestWithParam<ContractCase> {};

TEST_P(FoldOnPlacement, EachMessageFoldsExactlyOnce) {
  const ContractCase c = GetParam();
  const bool sharded = c.engine == EngineKind::kSharded;
  // The sharded engine puts the receiver on the other node, hence on the
  // other shard.
  const topo::Machine m = sharded ? topo::Machine(topo::cori(2), 64)
                                  : topo::Machine(topo::cori(1), 3);
  const Rank receiver = sharded ? 32 : 2;
  // Rendezvous: above the eager threshold (64 KiB on cori).
  const Bytes size = c.arrival == Arrival::kRendezvous
                         ? m.spec().eager_threshold + kib(4)
                         : kib(4);
  const auto n = static_cast<std::size_t>(size) / sizeof(std::int32_t);
  std::unique_ptr<runtime::Engine> engine = runtime::make_engine(c.engine, m);
  if (sharded) {
    ASSERT_EQ(static_cast<runtime::SimEngine&>(*engine).shards(), 2);
  }

  std::vector<std::vector<std::int32_t>> out = {fold_values(0, n),
                                                fold_values(1, n)};
  std::vector<std::int32_t> accum = fold_values(receiver, n);
  const std::vector<std::int32_t> expect = plus(plus(accum, out[0]), out[1]);
  std::uint64_t staged = 0;
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    const Rank me = ctx.rank();
    if (me == 0 || me == 1) {
      // Expected arrivals: let the receives be posted first.
      if (c.arrival != Arrival::kUnexpected) {
        co_await ctx.sleep_for(microseconds(50));
      }
      co_await ctx.send(receiver, /*tag=*/5,
                        int32_view(out[static_cast<std::size_t>(me)])
                            .as_const());
    } else if (me == receiver) {
      if (c.arrival == Arrival::kUnexpected) {
        co_await ctx.sleep_for(milliseconds(2));  // long after the sends
      }
      std::vector<mpi::RequestPtr> recvs;
      for (const Rank src : {0, 1}) {
        recvs.push_back(ctx.irecv(src, /*tag=*/5, int32_view(accum),
                                  mpi::Datatype::kInt32, mpi::ReduceOp::kSum));
      }
      co_await mpi::wait_all(recvs);
      staged = ctx.endpoint().unexpected_payloads();
    }
  };
  engine->run(program);
  EXPECT_EQ(accum, expect);
  if (c.engine != EngineKind::kThread) {  // real time decides there
    EXPECT_EQ(staged, c.arrival == Arrival::kUnexpected ? 2u : 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, FoldOnPlacement,
                         testing::ValuesIn(runtime::contract_cases()),
                         runtime::contract_name);

/// Reliable frames under a lossy plan: data frames are retransmitted, and a
/// lost ack makes the sender transmit a frame the receiver already has. The
/// channel's dedup hands each frame up once, so each message still folds
/// once — eager frames on arrival, rendezvous bulk at finalisation.
TEST(FoldOnPlacement, RetransmittedFramesFoldOnce) {
  const topo::Machine machine(topo::cori(1), 3);
  constexpr int kMsgs = 4;  // per sender, one tag each
  for (const net::SharingPolicy sharing :
       {net::SharingPolicy::kFairShare, net::SharingPolicy::kUncontended}) {
    for (const Bytes size : {kib(4), machine.spec().eager_threshold + kib(4)}) {
      SCOPED_TRACE(std::string(sharing == net::SharingPolicy::kFairShare
                                   ? "fair-share "
                                   : "uncontended ") +
                   std::to_string(size) + "B");
      runtime::SimEngineOptions options;
      options.sharing = sharing;
      options.faults.seed = 11;
      options.faults.drop = 0.3;
      options.reliability = verify::chaos_reliability();
      runtime::SimEngine engine(machine, options);
      const auto n = static_cast<std::size_t>(size) / sizeof(std::int32_t);
      std::vector<std::vector<std::int32_t>> out;
      for (Rank r = 0; r < 2 * kMsgs; ++r) out.push_back(fold_values(r + 3, n));
      std::vector<std::int32_t> accum = fold_values(2, n);
      std::vector<std::int32_t> expect = accum;
      for (const auto& v : out) expect = plus(expect, v);
      auto program = [&](runtime::Context& ctx) -> sim::Task<> {
        const Rank me = ctx.rank();
        if (me == 2) {
          std::vector<mpi::RequestPtr> recvs;
          for (const Rank src : {0, 1}) {
            for (int k = 0; k < kMsgs; ++k) {
              recvs.push_back(ctx.irecv(src, k, int32_view(accum),
                                        mpi::Datatype::kInt32,
                                        mpi::ReduceOp::kSum));
            }
          }
          co_await mpi::wait_all(recvs);
        } else {
          std::vector<mpi::RequestPtr> sends;
          for (int k = 0; k < kMsgs; ++k) {
            sends.push_back(ctx.isend(
                2, k,
                int32_view(out[static_cast<std::size_t>(me * kMsgs + k)])
                    .as_const()));
          }
          co_await mpi::wait_all(sends);
        }
      };
      engine.run(program);
      EXPECT_EQ(accum, expect);
      std::uint64_t retransmits = 0;
      std::uint64_t duplicates = 0;
      for (Rank r = 0; r < 3; ++r) {
        retransmits += engine.channel(r)->stats().retransmits;
        duplicates += engine.channel(r)->stats().duplicates;
      }
      EXPECT_GT(retransmits, 0u) << "the lossy plan must retransmit";
      EXPECT_GT(duplicates, 0u) << "a lost ack must re-deliver a frame";
    }
  }
}

/// A receive that poison() has already failed folds nothing, whether its
/// payload was matched from the unexpected queue (finalisation pending) or
/// is a rendezvous bulk still in flight.
TEST(FoldOnPlacement, FailedReceiveFoldsNothing) {
  const topo::Machine machine(topo::cori(1), 2);
  for (const net::SharingPolicy sharing :
       {net::SharingPolicy::kFairShare, net::SharingPolicy::kUncontended}) {
    for (const bool rendezvous : {false, true}) {
      SCOPED_TRACE(std::string(sharing == net::SharingPolicy::kFairShare
                                   ? "fair-share "
                                   : "uncontended ") +
                   (rendezvous ? "rendezvous" : "unexpected eager"));
      runtime::SimEngineOptions options;
      options.sharing = sharing;
      runtime::SimEngine engine(machine, options);
      const Bytes size = rendezvous ? mib(4) : kib(4);
      const auto n = static_cast<std::size_t>(size) / sizeof(std::int32_t);
      std::vector<std::int32_t> out = fold_values(0, n);
      std::vector<std::int32_t> accum = fold_values(1, n);
      const std::vector<std::int32_t> untouched = accum;
      ErrCode code = ErrCode::kOk;
      auto program = [&](runtime::Context& ctx) -> sim::Task<> {
        if (ctx.rank() == 0) {
          co_await ctx.send(1, /*tag=*/4, int32_view(out).as_const());
          co_return;
        }
        if (!rendezvous) {
          // The payload waits on the unexpected queue; the receive matches
          // it and queues its finalisation, and is failed before that runs.
          co_await ctx.sleep_for(milliseconds(1));
        }
        auto req = ctx.irecv(0, /*tag=*/4, int32_view(accum),
                             mpi::Datatype::kInt32, mpi::ReduceOp::kSum);
        if (rendezvous) {
          // Past the handshake, long before the 4 MiB bulk lands.
          co_await ctx.sleep_for(microseconds(100));
          EXPECT_FALSE(req->complete());
        }
        ctx.endpoint().poison(ErrCode::kErrProcFailed);
        try {
          co_await mpi::wait(req);
        } catch (const mpi::FaultError& e) {
          code = e.code();
        }
      };
      engine.run(program);
      EXPECT_EQ(code, ErrCode::kErrProcFailed);
      EXPECT_EQ(accum, untouched);
    }
  }
}

}  // namespace
}  // namespace adapt
