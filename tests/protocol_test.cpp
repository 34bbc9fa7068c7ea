// Transport-protocol semantics on the SimEngine: the eager/rendezvous split,
// NIC-offloaded matching of pre-posted receives, per-pair FIFO ordering, and
// the sender-receiver coupling that drives the paper's noise analysis; and
// the send-buffer contract on every engine.
#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/net/fabric.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/topo/presets.hpp"

namespace adapt::runtime {
namespace {

topo::Machine two_ranks() { return topo::Machine(topo::cori(1), 2); }

TEST(Protocol, EagerSenderCompletesWithoutReceiver) {
  // Below the eager threshold the sender finishes even though the receiver
  // never posts a receive until much later.
  topo::Machine m = two_ranks();
  ASSERT_LE(kib(32), m.spec().eager_threshold);
  SimEngine engine(m);
  TimeNs send_done = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      auto req = ctx.isend(1, 1, mpi::ConstView{nullptr, kib(32)});
      co_await mpi::wait(req);
      send_done = ctx.now();
    } else {
      co_await ctx.sleep_for(milliseconds(50));
      co_await ctx.recv(0, 1, mpi::MutView{nullptr, kib(32)});
    }
  };
  engine.run(program);
  EXPECT_GE(send_done, 0);
  EXPECT_LT(send_done, milliseconds(1));
}

TEST(Protocol, RendezvousSenderWaitsForLateReceiver) {
  // Above the threshold the data (and hence the send completion) is gated on
  // the receiver posting a matching receive.
  topo::Machine m = two_ranks();
  const Bytes big = m.spec().eager_threshold * 4;
  SimEngine engine(m);
  TimeNs send_done = -1;
  const TimeNs delay = milliseconds(5);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      auto req = ctx.isend(1, 1, mpi::ConstView{nullptr, big});
      co_await mpi::wait(req);
      send_done = ctx.now();
    } else {
      co_await ctx.sleep_for(delay);
      co_await ctx.recv(0, 1, mpi::MutView{nullptr, big});
    }
  };
  engine.run(program);
  EXPECT_GE(send_done, delay);
}

TEST(Protocol, RendezvousPrepostedIsNotGated) {
  // A pre-posted receive grants at RTS arrival (hardware matching): the
  // transfer time matches the eager-style wire time plus handshake alphas.
  topo::Machine m = two_ranks();
  const Bytes big = m.spec().eager_threshold * 4;
  SimEngine engine(m);
  TimeNs recv_done = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 1) {
      auto req = ctx.irecv(0, 1, mpi::MutView{nullptr, big});
      co_await mpi::wait(req);
      recv_done = ctx.now();
    } else {
      co_await ctx.send(1, 1, mpi::ConstView{nullptr, big});
    }
  };
  engine.run(program);
  const topo::LinkParams& lane = m.spec().intra_socket;
  // 3 alphas (RTS, CTS, data) + wire time, plus small CPU overheads.
  EXPECT_GE(recv_done, 2 * lane.alpha + lane.time(big));
  EXPECT_LE(recv_done, 4 * lane.alpha + lane.time(big) + microseconds(10));
}

TEST(Protocol, RendezvousPreservesRealData) {
  topo::Machine m = two_ranks();
  const Bytes big = m.spec().eager_threshold * 2;
  SimEngine engine(m);
  std::vector<std::byte> out(static_cast<std::size_t>(big)),
      in(static_cast<std::size_t>(big));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(i * 13);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 7, mpi::ConstView{out.data(), big});
    } else {
      co_await ctx.sleep_for(microseconds(500));  // force the queued-RTS path
      co_await ctx.recv(0, 7, mpi::MutView{in.data(), big});
    }
  };
  engine.run(program);
  EXPECT_EQ(in, out);
}

TEST(Protocol, SamePairMessagesSerialiseFifo) {
  // Two equal eager messages to the same peer: the second completes roughly
  // one wire-time after the first (transmit-queue FIFO), not simultaneously
  // (fair sharing).
  topo::Machine m = two_ranks();
  const Bytes sz = kib(64);
  SimEngine engine(m);
  std::vector<TimeNs> arrivals;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      std::vector<mpi::RequestPtr> sends;
      sends.push_back(ctx.isend(1, 1, mpi::ConstView{nullptr, sz}));
      sends.push_back(ctx.isend(1, 2, mpi::ConstView{nullptr, sz}));
      co_await mpi::wait_all(sends);
    } else {
      auto ra = ctx.irecv(0, 1, mpi::MutView{nullptr, sz});
      auto rb = ctx.irecv(0, 2, mpi::MutView{nullptr, sz});
      co_await mpi::wait(ra);
      arrivals.push_back(ctx.now());
      co_await mpi::wait(rb);
      arrivals.push_back(ctx.now());
    }
  };
  engine.run(program);
  ASSERT_EQ(arrivals.size(), 2u);
  const TimeNs wire = m.spec().intra_socket.time(sz) - m.spec().intra_socket.alpha;
  EXPECT_GE(arrivals[1] - arrivals[0], wire / 2);
}

TEST(Protocol, DifferentPairsStillShareFairly) {
  // Messages from two different senders to two different receivers on the
  // same socket share the shm aggregate but not a serial queue: both finish
  // at the same time.
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  const Bytes sz = mib(1);
  std::vector<TimeNs> done(2, -1);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(2, 1, mpi::ConstView{nullptr, sz});
    } else if (ctx.rank() == 1) {
      co_await ctx.send(3, 1, mpi::ConstView{nullptr, sz});
    } else {
      co_await ctx.recv(ctx.rank() - 2, 1, mpi::MutView{nullptr, sz});
      done[static_cast<std::size_t>(ctx.rank() - 2)] = ctx.now();
    }
  };
  engine.run(program);
  EXPECT_EQ(done[0], done[1]);
}

TEST(Protocol, QueuedTransferCreditsWaitAgainstAlpha) {
  // Fabric-level: a message queued behind a same-key predecessor for longer
  // than its own alpha starts immediately on dequeue.
  sim::Simulator sim;
  net::Fabric fabric(sim);
  const net::LinkId l = fabric.add_link(1.0);
  std::vector<TimeNs> done;
  net::Route r{{l}, 1.0, /*alpha=*/500, /*serial_key=*/7};
  fabric.transfer(r, 10000, [&] { done.push_back(sim.now()); });
  fabric.transfer(r, 10000, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 10500);
  // Second waited 10500 >> alpha: starts instantly, pure wire time.
  EXPECT_EQ(done[1], 20500);
}

TEST(Protocol, SerialKeysDoNotCoupleDistinctKeys) {
  sim::Simulator sim;
  net::Fabric fabric(sim);
  const net::LinkId a = fabric.add_link(1.0);
  const net::LinkId b = fabric.add_link(1.0);
  std::vector<TimeNs> done(2, -1);
  fabric.transfer(net::Route{{a}, 1.0, 0, 1}, 1000,
                  [&] { done[0] = sim.now(); });
  fabric.transfer(net::Route{{b}, 1.0, 0, 2}, 1000,
                  [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
}

TEST(Protocol, EagerThresholdBoundary) {
  // Exactly at the threshold: still eager (sender completes early).
  topo::Machine m = two_ranks();
  const Bytes at = m.spec().eager_threshold;
  SimEngine engine(m);
  TimeNs send_done = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      auto req = ctx.isend(1, 1, mpi::ConstView{nullptr, at});
      co_await mpi::wait(req);
      send_done = ctx.now();
    } else {
      co_await ctx.sleep_for(milliseconds(20));
      co_await ctx.recv(0, 1, mpi::MutView{nullptr, at});
    }
  };
  engine.run(program);
  EXPECT_LT(send_done, milliseconds(20));
}

TEST(Protocol, OneByteOverThresholdIsRendezvous) {
  // The other side of the boundary: threshold + 1 switches protocols, so the
  // send completion is gated on the receiver showing up.
  topo::Machine m = two_ranks();
  const Bytes just_over = m.spec().eager_threshold + 1;
  SimEngine engine(m);
  TimeNs send_done = -1;
  const TimeNs delay = milliseconds(20);
  std::vector<std::byte> out(static_cast<std::size_t>(just_over)),
      in(static_cast<std::size_t>(just_over));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(i * 7);
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      auto req = ctx.isend(1, 1, mpi::ConstView{out.data(), just_over});
      co_await mpi::wait(req);
      send_done = ctx.now();
    } else {
      co_await ctx.sleep_for(delay);
      co_await ctx.recv(0, 1, mpi::MutView{in.data(), just_over});
    }
  };
  engine.run(program);
  EXPECT_GE(send_done, delay);  // rendezvous: waited for the receiver
  EXPECT_EQ(in, out);           // and the odd-sized payload survived intact
}

TEST(Protocol, UnexpectedMessageBuffersAndDeliversIntact) {
  // Eager message arrives before any matching receive is posted: it must park
  // on the unexpected queue (observable via the matcher counters) and still
  // deliver the right bytes once the late receive matches it.
  topo::Machine m = two_ranks();
  const Bytes sz = kib(4);
  SimEngine engine(m);
  std::vector<std::byte> out(static_cast<std::size_t>(sz)),
      in(static_cast<std::size_t>(sz));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(251 * i);
  std::uint64_t unexpected_seen = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == 0) {
      co_await ctx.send(1, 5, mpi::ConstView{out.data(), sz});
    } else {
      co_await ctx.sleep_for(milliseconds(2));  // message long since arrived
      unexpected_seen = ctx.endpoint().matcher().total_unexpected();
      co_await ctx.recv(0, 5, mpi::MutView{in.data(), sz});
    }
  };
  engine.run(program);
  EXPECT_EQ(unexpected_seen, 1u);  // it really took the unexpected path
  EXPECT_EQ(in, out);
}

TEST(Protocol, WildcardSourceObservesActualSender) {
  // Wildcard receives under perturbed schedules: across many seeds the
  // arrival order of two equal-cost senders varies, but every completion must
  // report a truthful actual_src and deliver that sender's bytes.
  bool saw_either_order[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    topo::Machine m(topo::cori(1), 3);
    SimEngineOptions opts;
    if (seed != 0) {
      opts.perturb = sim::PerturbConfig{.seed = seed,
                                        .max_jitter = microseconds(5)};
    }
    SimEngine engine(m, opts);
    std::vector<std::byte> payload[2] = {
        std::vector<std::byte>(64, std::byte(0xA1)),
        std::vector<std::byte>(64, std::byte(0xB2))};
    std::vector<Rank> arrival_srcs;
    auto program = [&](Context& ctx) -> sim::Task<> {
      if (ctx.rank() == 2) {
        for (int k = 0; k < 2; ++k) {
          std::vector<std::byte> got(64);
          auto req = ctx.irecv(kAnyRank, 9, mpi::MutView{got.data(), 64});
          co_await mpi::wait(req);
          const Rank src = req->actual_src();
          EXPECT_TRUE(src == 0 || src == 1);
          if (src == 0 || src == 1) {
            // The bytes must be the ones that sender actually sent.
            EXPECT_EQ(got, payload[src]);
            arrival_srcs.push_back(src);
          }
        }
      } else {
        co_await ctx.send(
            2, 9,
            mpi::ConstView{payload[static_cast<std::size_t>(ctx.rank())].data(),
                           64});
      }
    };
    engine.run(program);
    ASSERT_EQ(arrival_srcs.size(), 2u);
    EXPECT_NE(arrival_srcs[0], arrival_srcs[1]);
    saw_either_order[arrival_srcs[0] == 0 ? 0 : 1] = true;
  }
  // The perturbation sweep must have produced both arrival orders — that is
  // the nondeterminism the conformance harness leans on.
  EXPECT_TRUE(saw_either_order[0]);
  EXPECT_TRUE(saw_either_order[1]);
}

// ---------------------------------------------------- send-buffer contract
//
// A send borrows its buffer until it completes, and no longer: the sender
// may overwrite the buffer the moment its request completes, and the
// receiver must still get the bytes as of isend, whether the message met a
// posted receive, waited on the unexpected queue or went by rendezvous.
// Each engine ends the borrow its own way (fabric flows copy at landing,
// pair-clock legs at carry, the ThreadEngine on the receiver's thread), so
// every case runs on each of them.

enum class EngineKind { kFairShare, kUncontended, kSharded, kThread };
enum class Arrival { kExpected, kUnexpected, kRendezvous };

struct ContractCase {
  EngineKind engine;
  Arrival arrival;
};

std::string contract_label(const ContractCase& c) {
  static const char* const kEngines[] = {"FairShare", "Uncontended",
                                         "Sharded2", "Thread"};
  static const char* const kArrivals[] = {"EagerExpected", "EagerUnexpected",
                                          "Rendezvous"};
  return std::string(kEngines[static_cast<int>(c.engine)]) +
         kArrivals[static_cast<int>(c.arrival)];
}

void PrintTo(const ContractCase& c, std::ostream* os) {
  *os << contract_label(c);
}

std::string contract_name(const testing::TestParamInfo<ContractCase>& info) {
  return contract_label(info.param);
}

std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const topo::Machine& m) {
  switch (kind) {
    case EngineKind::kFairShare:
      return std::make_unique<SimEngine>(m);
    case EngineKind::kUncontended: {
      SimEngineOptions options;
      options.sharing = net::SharingPolicy::kUncontended;
      return std::make_unique<SimEngine>(m, options);
    }
    case EngineKind::kSharded: {
      ShardedEngineOptions options;
      options.shards = 2;
      return std::make_unique<SimEngine>(m, options);
    }
    case EngineKind::kThread:
      return std::make_unique<ThreadEngine>(m);
  }
  return nullptr;
}

class SendBufferContract : public testing::TestWithParam<ContractCase> {};

TEST_P(SendBufferContract, ReceiverGetsTheBytesAsOfIsend) {
  const ContractCase c = GetParam();
  const bool sharded = c.engine == EngineKind::kSharded;
  // The sharded engine puts sender and receiver on different nodes, hence
  // on different shards.
  const topo::Machine m =
      sharded ? topo::Machine(topo::cori(2), 64) : two_ranks();
  const Rank sender = 0;
  const Rank receiver = sharded ? 32 : 1;
  const Bytes size = c.arrival == Arrival::kRendezvous
                         ? m.spec().eager_threshold + kib(4)
                         : kib(4);
  std::unique_ptr<Engine> engine = make_engine(c.engine, m);
  if (sharded) {
    ASSERT_EQ(static_cast<SimEngine&>(*engine).shards(), 2);
  }

  std::vector<std::byte> out(static_cast<std::size_t>(size));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::byte(131 * i + 7);
  const std::vector<std::byte> expect = out;
  std::vector<std::byte> in(out.size());
  bool clobbered = false;
  std::uint64_t staged = 0;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() == sender) {
      // Expected arrivals: let the receive be posted first.
      if (c.arrival != Arrival::kUnexpected) {
        co_await ctx.sleep_for(microseconds(50));
      }
      auto req = ctx.isend(receiver, 3, mpi::ConstView{out.data(), size});
      req->set_completion_cb([&](mpi::Request&) {
        std::fill(out.begin(), out.end(), std::byte{0xee});
        clobbered = true;
      });
      co_await mpi::wait(req);
    } else if (ctx.rank() == receiver) {
      if (c.arrival == Arrival::kUnexpected) {
        co_await ctx.sleep_for(milliseconds(2));  // long after the send
      }
      staged = ctx.endpoint().unexpected_payloads();
      co_await ctx.recv(sender, 3, mpi::MutView{in.data(), size});
    }
  };
  engine->run(program);
  EXPECT_TRUE(clobbered);
  EXPECT_EQ(in, expect);
  if (c.engine != EngineKind::kThread) {  // real time decides there
    EXPECT_EQ(staged, c.arrival == Arrival::kUnexpected ? 1u : 0u);
  }
}

std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> cases;
  for (EngineKind engine :
       {EngineKind::kFairShare, EngineKind::kUncontended, EngineKind::kSharded,
        EngineKind::kThread}) {
    for (Arrival arrival :
         {Arrival::kExpected, Arrival::kUnexpected, Arrival::kRendezvous}) {
      cases.push_back({engine, arrival});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Engines, SendBufferContract,
                         testing::ValuesIn(contract_cases()), contract_name);

}  // namespace
}  // namespace adapt::runtime
