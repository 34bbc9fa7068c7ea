// The raw message legs both discrete-event engines drive.
//
// An eager message is one data leg; a rendezvous message is an alpha-only
// RTS, an alpha-only CTS once a receive matched, and a bulk data leg. A data
// leg ends at its arrival time in the sender's completion and the
// receiver's side (eager: delivery; bulk: finalisation after the receive
// overhead). Events are keyed by the rank whose code schedules them — RTS
// and data legs by the sender, CTS by the receiver — so the ShardedEngine
// and the SimEngine run the same schedule. A data leg is priced on its
// pair's clock with both ends posted at once, or, on the SimEngine's
// fair-share fabric, as a flow whose one completion event runs both ends.
//
// State is per shard (the SimEngine has one) and only touched by the
// shard's own ranks; whatever crosses shards travels inside the event. A
// message between legs is parked in a slot, so callbacks capture a handle
// and fit their inline storage: a warm engine allocates nothing per
// message. Fault fates and poisoned receivers exist only on the one-shard
// SimEngine, where a leg may reach both ends.
//
// Payloads are borrowed from the sender until the data leg reads them
// (mpi::Envelope). A fabric flow's completion runs both ends in one event
// and the sender's completion in a later one, so it copies the bytes once,
// straight into the receive. A pair-clock leg's receiving end is a separate
// event, possibly on another shard, so it captures at carry; so does a
// corrupted leg, before it damages the bytes, and so does every in-flight
// leg of a sender whose endpoint fails its sends (end_borrows).
//
// With reliable channels set (one shard), a message is frames on its
// sender's mpi::ReliableChannel, captured at submit; send_wire prices each
// transmission on the same legs. A rendezvous parks its halves in the same
// slots, which its frames name by SlotPool reference (stale once failed).
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

/// The message transport of both discrete-event engines. Raw legs are never
/// given up on, so on_failed runs only for reliable frames.
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
  using Channels = std::vector<std::unique_ptr<mpi::ReliableChannel>>;
  /// Sends every message as frames on `channels` (one per rank, owned by
  /// the host); `escalate(origin)` runs after one of origin's failed.
  void set_channels(Channels* channels, std::function<void(Rank)> escalate);

  /// Ships env from env.src, whose code is running, to env.dst.
  void submit(mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> on_failed) override;
  /// Captures the borrowed payload of every message src has parked.
  void end_borrows(Rank src) override;

  /// Channel downcall: one transmission of a frame or ack, to wire.dst.
  void send_wire(const mpi::WireFrame& wire);
  /// Channel upcall for kEager/kRts/kCts/kBulk frames from `from`.
  void on_frame(Rank self, Rank from, const mpi::Frame& frame);

  /// Resident bytes of the pair tables and cached routes.
  std::uint64_t pair_bytes() const;

 private:
  static constexpr std::uint32_t kNone = ~0u;

  /// Per-(src, dst) state: the transmit queue, the raw fault-key sequence
  /// and the routes index per (src space, dst space), -1 until first used.
  struct Pair {
    /// The pair's serial transmit queue in closed form, its pair clock: when
    /// its last data leg arrives (see clocked()).
    TimeNs clock = 0;
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
    std::function<void(mpi::ErrCode)> on_failed;  ///< reliable only
    /// Reliable rendezvous: the memories the bulk frame travels between.
    MemSpace src_space = MemSpace::kHost;
    MemSpace dst_space = MemSpace::kHost;
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
  /// The route's trace id is reset: a caller stamps it per message.
  std::uint32_t route_index(Rank src, MemSpace src_space, Rank dst,
                            MemSpace dst_space);

  /// The fate of one transmission (lossless without an injector).
  net::TransferFate decide(const net::FaultKey& key,
                           const std::vector<net::LinkId>& links) const;
  /// An alpha-only leg from `from` to `to`, traced as `kind`, whose arrival
  /// after `delay` runs `next`.
  void control(Rank from, Rank to, int kind, TimeNs delay, sim::EventFn next);
  /// A raw RTS/CTS, keyed by the message's sender and route index there;
  /// false when a fault loses or damages it.
  bool handshake(Rank from, Rank to, mpi::Frame::Kind kind, Rank sender,
                 std::uint32_t route, std::uint64_t seq, TimeNs alpha,
                 sim::EventFn next);
  /// Stamps `route` with a fabric flow's trace record; returns it (0: none).
  std::uint64_t trace_flow(net::Route& route, Bytes bytes,
                           const net::FaultKey& key);
  /// Prices and traces a data leg on its pair's clock; returns its arrival.
  TimeNs clocked(const net::Route& route, Bytes bytes,
                 const net::FaultKey& key, const net::TransferFate& fate);

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

  mpi::ReliableChannel& channel(Rank r) {
    return *(*channels_)[static_cast<std::size_t>(r)];
  }
  void submit_reliable(mpi::Envelope env, MemSpace src_space,
                       MemSpace dst_space, std::function<void()> on_sent,
                       std::function<void(mpi::ErrCode)> on_failed);
  /// Submits an eager or bulk frame, which completes or fails its send.
  void submit_data(mpi::Frame frame, std::function<void()> on_sent,
                   std::function<void(mpi::ErrCode)> on_failed);
  void arrive_wire(mpi::WireFrame wire, bool corrupted);
  /// A receive matched a reliable RTS: park it, CTS back.
  void grant_reliable(Rank dst, Rank src, std::uint64_t outgoing,
                      mpi::PostedRecv recv);
  void send_bulk(Rank src, const mpi::Frame& cts);
  void land_bulk(Rank dst, const mpi::Frame& bulk);

  RankHost& host_;
  RankCore& core_;
  Bytes eager_threshold_;
  TimeNs recv_overhead_;
  net::Fabric* fabric_ = nullptr;
  const net::FaultInjector* injector_ = nullptr;
  Channels* channels_ = nullptr;
  std::function<void(Rank)> escalate_;
  /// One per host shard, each in its own allocation (no false sharing).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adapt::runtime
