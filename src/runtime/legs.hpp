// The raw message legs both discrete-event engines drive.
//
// An eager message is one data leg; a rendezvous message is an alpha-only
// RTS, an alpha-only CTS once a receive matched, and a bulk data leg. A data
// leg ends at its arrival time in the sender's completion and the
// receiver's side (eager: delivery; bulk: finalisation after the receive
// overhead). Events are keyed by the rank whose code schedules them — RTS
// and data legs by the sender, CTS by the receiver — so the ShardedEngine
// and the SimEngine run the same schedule. A data leg is priced on its
// pair's net::PairClock with both ends posted at once, or, on the SimEngine's
// fair-share fabric, as a flow whose one completion event runs both ends.
//
// State is per shard (the SimEngine has one) and only touched by the
// shard's own ranks; whatever crosses shards travels inside the event. A
// message between legs is parked in a slot, so callbacks capture a handle
// and fit their inline storage: a warm engine allocates nothing per
// message. Fault fates and poisoned receivers exist only on the one-shard
// SimEngine, where a leg may reach both ends.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/mpi/reliable.hpp"
#include "src/net/fabric.hpp"
#include "src/net/fault.hpp"
#include "src/runtime/rank_core.hpp"
#include "src/support/slot_pool.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::runtime {

/// The raw transport: no leg is ever given up on, so on_failed never runs.
class MessageLegs final : public mpi::Transport {
 public:
  /// `host` and `core` must outlive the legs; `shards` is the host's shard
  /// count (every shard_of(r) is below it).
  MessageLegs(RankHost& host, RankCore& core, const topo::Machine& machine,
              int shards);
  ~MessageLegs() override;

  /// Prices data legs as flows of `fabric` (null: on pair clocks).
  void set_fabric(net::Fabric* fabric) { fabric_ = fabric; }
  /// Decides every leg's fate with `injector` (null: lossless). One-shard
  /// hosts only.
  void set_fault_injector(const net::FaultInjector* injector);

  /// Ships env from env.src, whose code is running, to env.dst.
  void submit(mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> on_failed) override;

  /// The cached route between fixed endpoints and memories, its serial key
  /// the pair's dense index on src's shard. The trace id is reset: a caller
  /// stamps it per message.
  net::Route& route(Rank src, MemSpace src_space, Rank dst,
                    MemSpace dst_space);

  /// Resident bytes of the pair tables and cached routes.
  std::uint64_t pair_bytes() const;

 private:
  static constexpr std::uint32_t kNone = ~0u;

  /// Per-(src, dst) state: the transmit queue, the raw fault-key sequence
  /// and the routes index per (src space, dst space), -1 until first used.
  struct Pair {
    net::PairClock clock;
    std::uint64_t raw_seq = 0;
    std::array<std::int32_t, 4> routes{-1, -1, -1, -1};
  };

  /// A message's sender side, parked on the sender's shard from submit
  /// until its data leaves.
  struct Outgoing {
    mpi::Envelope env;
    std::function<void()> on_sent;
    std::uint32_t route = 0;          ///< Shard::routes index
    std::uint64_t seq = 0;            ///< raw fault-key sequence number
    std::uint64_t trace = 0;          ///< data-leg trace record (0 = none)
    std::uint32_t incoming = kNone;   ///< the receiver's slot (rendezvous)
  };

  /// What an RTS carries to the receiver (plain data: cheap to move).
  struct Notice {
    Rank src = 0;
    Rank dst = 0;
    Tag tag = 0;
    Bytes size = 0;
    TimeNs alpha = 0;            ///< the route's latency, for the CTS
    std::uint32_t outgoing = 0;  ///< the sender's slot
    std::uint32_t route = 0;     ///< sender-shard route, for CTS fault keys
    std::uint64_t seq = 0;
  };

  /// A rendezvous message's receiver side, parked on the receiver's shard
  /// from the RTS's arrival to finalisation.
  struct Incoming {
    Notice notice;
    mpi::PostedRecv recv;
  };

  struct Shard {
    std::unordered_map<std::uint64_t, std::uint32_t> pair_index;
    std::vector<Pair> pairs;
    std::vector<net::Route> routes;
    support::SlotPool<Outgoing> out;
    support::SlotPool<Incoming> in;
  };

  Shard& shard(Rank r) {
    return shards_.size() == 1
               ? *shards_.front()
               : *shards_[static_cast<std::size_t>(host_.shard_of(r))];
  }
  /// Index in src's Shard::routes of the route between the given memories;
  /// its serial key is the pair's index in Shard::pairs, assigned on the
  /// pair's first message (the tables grow with the pairs that communicate).
  std::uint32_t route_index(Rank src, MemSpace src_space, Rank dst,
                            MemSpace dst_space);

  /// Sends an alpha-only RTS/CTS from `from` to `to`, whose arrival runs
  /// `next`; false when a fault loses it. Fault keys name the message's
  /// sender and its route index there (one-shard hosts only).
  bool control(Rank from, Rank to, mpi::Frame::Kind kind, Rank sender,
               std::uint32_t route, std::uint64_t seq, TimeNs alpha,
               sim::EventFn next);

  /// Puts the data of the message parked in src's `slot` on the wire.
  void carry(Rank src, std::uint32_t slot, mpi::Frame::Kind kind);
  /// Fabric completion of a data leg.
  void land(Rank src, std::uint32_t slot, const net::TransferFate& fate);
  /// Applies a data leg's fate: false (and the receiver's slot freed) when
  /// lost; corrupted data is damaged in place.
  bool settle(Outgoing& o, const net::TransferFate& fate);
  /// The data reached env.dst: delivery (eager) or finalisation (bulk).
  void receive(mpi::Envelope env, std::uint32_t incoming);

  /// The RTS reached the receiver.
  void arrive_rts(const Notice& notice);
  /// A receive matched the RTS: CTS back to the sender, whose arrival
  /// starts the bulk leg.
  void grant(Rank dst, std::uint32_t incoming, mpi::PostedRecv recv);
  void finalize(Rank dst, std::uint32_t incoming, const mpi::Envelope& env);

  RankHost& host_;
  RankCore& core_;
  Bytes eager_threshold_;
  TimeNs recv_overhead_;
  net::Fabric* fabric_ = nullptr;
  const net::FaultInjector* injector_ = nullptr;
  /// One per host shard, each in its own allocation (no false sharing).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adapt::runtime
