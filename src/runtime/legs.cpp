#include "src/runtime/legs.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

namespace {

/// Deterministic in-place payload corruption (raw mode only; the
/// reliability layer discards corrupted frames instead).
void corrupt_in_place(mpi::Envelope& env, std::uint64_t salt) {
  std::byte* bytes = env.captured();
  if (bytes == nullptr || env.size == 0) return;
  bytes[static_cast<std::size_t>(
      salt % static_cast<std::uint64_t>(env.size))] ^= std::byte{0x2a};
}

constexpr int kAckKind = 100;  ///< an ack's fault-key kind (frames: Kind)

}  // namespace

MessageLegs::MessageLegs(SimEngine& engine, RankCore& core,
                         const topo::Machine& machine, int shards)
    : engine_(engine),
      core_(core),
      eager_threshold_(machine.spec().eager_threshold),
      recv_overhead_(machine.spec().cpu_overhead) {
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
}

MessageLegs::~MessageLegs() = default;

MessageLegs::Shard& MessageLegs::shard(Rank r) {
  return shards_.size() == 1
             ? *shards_.front()
             : *shards_[static_cast<std::size_t>(engine_.shard_of(r))];
}

void MessageLegs::set_fault_injector(const net::FaultInjector* injector) {
  ADAPT_CHECK(injector == nullptr || shards_.size() == 1)
      << "fault fates need the one-shard engine";
  injector_ = injector;
}

void MessageLegs::set_channels(Channels* channels,
                               std::function<void(Rank)> escalate) {
  ADAPT_CHECK(channels == nullptr || shards_.size() == 1)
      << "reliable frames need the one-shard engine";
  channels_ = channels;
  escalate_ = std::move(escalate);
}

std::uint32_t MessageLegs::route_index(Rank src, MemSpace src_space,
                                       Rank dst, MemSpace dst_space) {
  Shard& sh = shard(src);
  const std::uint64_t key =
      static_cast<std::uint64_t>(src) *
          static_cast<std::uint64_t>(core_.nranks()) +
      static_cast<std::uint64_t>(dst);
  const auto [it, fresh] = sh.pair_index.try_emplace(
      key, static_cast<std::uint32_t>(sh.pairs.size()));
  if (fresh) sh.pairs.emplace_back();
  // Routes never change and building one allocates its link vector, so
  // each is built once. Indices, not references: the table may grow.
  const int spaces = (src_space == MemSpace::kDevice ? 2 : 0) |
                     (dst_space == MemSpace::kDevice ? 1 : 0);
  std::int32_t& ri =
      sh.pairs[it->second].routes[static_cast<std::size_t>(spaces)];
  if (ri < 0) {
    net::Route route = engine_.route(src, src_space, dst, dst_space);
    route.serial_key = it->second;
    ri = static_cast<std::int32_t>(sh.routes.size());
    sh.routes.push_back(std::move(route));
  }
  sh.routes[static_cast<std::size_t>(ri)].trace = 0;
  return static_cast<std::uint32_t>(ri);
}

std::uint64_t MessageLegs::pair_bytes() const {
  // A hash node is a link, the key and the index; a bucket is a pointer.
  // (Route link vectors are not counted: host-only routes have none.)
  constexpr std::uint64_t kNodeBytes =
      sizeof(void*) + sizeof(std::pair<const std::uint64_t, std::uint32_t>);
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->pair_index.size() * kNodeBytes +
             sh->pair_index.bucket_count() * sizeof(void*) +
             sh->pairs.capacity() * sizeof(Pair) +
             sh->routes.capacity() * sizeof(net::Route);
  }
  return total;
}

net::TransferFate MessageLegs::decide(
    const net::FaultKey& key, const std::vector<net::LinkId>& links) const {
  return injector_ == nullptr
             ? net::TransferFate{}
             : injector_->decide(key, links, engine_.now_of(key.src));
}

void MessageLegs::control(Rank from, Rank to, int kind, TimeNs delay,
                          sim::EventFn next) {
  const TimeNs now = engine_.now_of(from);
  if (obs::Recorder* rec = core_.endpoint(from).recorder()) {
    rec->transfer_alpha_only(from, to, kind, now, now + delay);
  }
  engine_.schedule(from, to, now + delay, std::move(next));
}

bool MessageLegs::handshake(Rank from, Rank to, mpi::Frame::Kind kind,
                            Rank sender, std::uint32_t route,
                            std::uint64_t seq, TimeNs alpha,
                            sim::EventFn next) {
  const int k = static_cast<int>(kind);
  // The sender's route table is read only on a one-shard host.
  const net::TransferFate fate =
      injector_ == nullptr
          ? net::TransferFate{}
          : decide({from, to, seq, 0, k}, shard(sender).routes[route].links);
  if (!fate.delivered || fate.corrupted) return false;
  control(from, to, k, alpha + fate.delay, std::move(next));
  return true;
}

std::uint64_t MessageLegs::trace_flow(net::Route& route, Bytes bytes,
                                      const net::FaultKey& key) {
  obs::Recorder* rec = core_.endpoint(key.src).recorder();
  const TimeNs now = engine_.now_of(key.src);
  return route.trace =
             rec ? rec->transfer_begin(key.src, key.dst, bytes, key.kind, now)
                 : 0;
}

TimeNs MessageLegs::clocked(const net::Route& route, Bytes bytes,
                            const net::FaultKey& key,
                            const net::TransferFate& fate) {
  // A data leg streams once its alpha has elapsed and the pair's previous
  // leg has arrived.
  const TimeNs now = engine_.now_of(key.src);
  const TimeNs stream = net::stream_time(bytes, route.per_flow_cap);
  TimeNs& clock =
      shard(key.src).pairs[static_cast<std::size_t>(route.serial_key)].clock;
  const TimeNs arrive = clock =
      std::max(now + route.alpha + fate.delay, clock) + stream;
  if (obs::Recorder* rec = core_.endpoint(key.src).recorder()) {
    const std::uint64_t id =
        rec->transfer_begin(key.src, key.dst, bytes, key.kind, now);
    if (id != 0) {
      rec->transfer_active(id, arrive - stream, stream);
      rec->transfer_end(id, arrive);
      if (!fate.delivered) rec->transfer_undelivered(id);
    }
    for (net::LinkId l : route.links) rec->metrics().link_bytes(l) += bytes;
  }
  return arrive;
}

void MessageLegs::submit(mpi::Envelope env, MemSpace src_space,
                         MemSpace dst_space, std::function<void()> on_sent,
                         std::function<void(mpi::ErrCode)> on_failed) {
  if (channels_ != nullptr) {
    submit_reliable(std::move(env), src_space, dst_space, std::move(on_sent),
                    std::move(on_failed));
    return;
  }
  const Rank src = env.src;
  const Rank dst = env.dst;
  const bool eager = env.size <= eager_threshold_;
  Shard& sh = shard(src);
  const std::uint32_t ri = route_index(src, src_space, dst, dst_space);
  const net::Route& route = sh.routes[ri];
  const std::uint64_t seq =
      ++sh.pairs[static_cast<std::size_t>(route.serial_key)].raw_seq;
  Notice notice{src, dst, env.tag, env.size, route.alpha, 0, ri, seq};
  notice.outgoing =
      sh.out.acquire({std::move(env), std::move(on_sent), ri, seq});
  const std::uint32_t slot = notice.outgoing;
  if (eager) {
    // Eager: the data travels at once and is buffered at the receiver if
    // nothing matches; the sender never waits on the receiver.
    carry(src, slot, mpi::Frame::Kind::kEager);
    return;
  }
  // Rendezvous: the bulk data moves only once a receive matched the RTS —
  // the coupling that lets a noisy receiver stall its parent in
  // blocking/Waitall designs. A lost RTS stalls the message for good.
  if (!handshake(src, dst, mpi::Frame::Kind::kRts, src, ri, seq, route.alpha,
                 [this, notice] { arrive_rts(notice); })) {
    sh.out.release(slot);
  }
}

void MessageLegs::carry(Rank src, std::uint32_t slot, mpi::Frame::Kind kind) {
  Shard& sh = shard(src);
  Outgoing& o = sh.out[slot];
  const Rank dst = o.env.dst;
  const Bytes bytes = o.env.size;
  net::Route& route = sh.routes[o.route];
  const net::FaultKey key{src, dst, o.seq, 0, static_cast<int>(kind)};
  if (fabric_ != nullptr) {
    o.trace = trace_flow(route, bytes, key);
    fabric_->transfer_tagged(route, bytes, key,
                             [this, src, slot](const net::TransferFate& fate) {
                               land(src, slot, fate);
                             });
    return;
  }
  const net::TransferFate fate = decide(key, route.links);
  const TimeNs arrive = clocked(route, bytes, key, fate);
  Outgoing m = sh.out.release(slot);
  engine_.schedule(src, src, arrive,
                   [this, src, on_sent = std::move(m.on_sent)]() mutable {
                     core_.run_progress(src, std::move(on_sent), 0);
                   });
  if (!settle(m, fate)) return;
  // The receiving end is its own event, which may run after the sender's
  // completion (or on another shard): the leg takes its copy now.
  m.env.capture(core_.endpoint(src).pool());
  engine_.schedule(src, dst, arrive,
                   [this, env = std::move(m.env), in = m.incoming]() mutable {
                     receive(std::move(env), in);
                   });
}

void MessageLegs::land(Rank src, std::uint32_t slot,
                       const net::TransferFate& fate) {
  Outgoing o = shard(src).out.release(slot);
  core_.run_progress(src, std::move(o.on_sent), 0);
  if (!fate.delivered && o.trace != 0) {
    core_.endpoint(src).recorder()->transfer_undelivered(o.trace);
  }
  if (settle(o, fate)) receive(std::move(o.env), o.incoming);
}

bool MessageLegs::settle(Outgoing& o, const net::TransferFate& fate) {
  if (!fate.delivered) {
    if (o.incoming != kNone) shard(o.env.dst).in.release(o.incoming);
    return false;
  }
  if (fate.corrupted) {
    // Damage a copy: the fault hits the wire, never the sender's buffer.
    o.env.capture(core_.endpoint(o.env.src).pool());
    corrupt_in_place(o.env, fate.salt);
  }
  return true;
}

void MessageLegs::receive(mpi::Envelope env, std::uint32_t incoming) {
  const Rank dst = env.dst;
  if (incoming == kNone) {  // NIC-side matching: no receiver-CPU gate
    core_.endpoint(dst).deliver(std::move(env));
    return;
  }
  // The bulk data lands in the matched receive now, while the borrow
  // holds; finalisation completes it after the receive overhead.
  env.place_into(shard(dst).in[incoming].recv);
  core_.run_progress(dst,
                     [this, dst, incoming, env = std::move(env)] {
                       finalize(dst, incoming, env);
                     },
                     recv_overhead_);
}

void MessageLegs::end_borrows(Rank src) {
  support::BufferPool* pool = core_.endpoint(src).pool();
  shard(src).out.for_each([src, pool](Outgoing& o) {
    if (o.env.src == src) o.env.capture(pool);
  });
}

void MessageLegs::arrive_rts(const Notice& notice) {
  mpi::Endpoint& receiver = core_.endpoint(notice.dst);
  if (receiver.poisoned()) {  // deliver() would drop it: nothing to grant
    shard(notice.src).out.release(notice.outgoing);
    return;
  }
  const Rank dst = notice.dst;
  const std::uint32_t in = shard(dst).in.acquire({notice, {}});
  mpi::Envelope rts;
  rts.src = notice.src;
  rts.dst = dst;
  rts.tag = notice.tag;
  rts.size = notice.size;
  rts.grant = [this, dst, in](mpi::PostedRecv recv) {
    grant(dst, in, std::move(recv));
  };
  receiver.deliver(std::move(rts));
}

void MessageLegs::grant(Rank dst, std::uint32_t incoming,
                        mpi::PostedRecv recv) {
  Incoming& p = shard(dst).in[incoming];
  p.recv = std::move(recv);
  const Notice& n = p.notice;
  const Rank src = n.src;
  const std::uint32_t outgoing = n.outgoing;
  if (!handshake(dst, src, mpi::Frame::Kind::kCts, src, n.route, n.seq,
                 n.alpha, [this, src, outgoing, incoming] {
                   shard(src).out[outgoing].incoming = incoming;
                   carry(src, outgoing, mpi::Frame::Kind::kBulk);
                 })) {
    shard(src).out.release(outgoing);
    shard(dst).in.release(incoming);
  }
}

void MessageLegs::finalize(Rank dst, std::uint32_t incoming,
                           const mpi::Envelope& env) {
  // Moved out first: completion callbacks may send again and grow the pool.
  const mpi::PostedRecv recv = shard(dst).in.release(incoming).recv;
  core_.endpoint(dst).finalize_recv(recv, env);
}

// ------------------------------------------------------ reliable frames ---

void MessageLegs::send_wire(const mpi::WireFrame& wire) {
  const net::FaultKey key{
      wire.src, wire.dst, wire.seq, wire.attempt,
      wire.is_ack ? kAckKind : static_cast<int>(wire.frame.kind)};
  const Bytes bytes = wire.is_ack ? 0 : wire.frame.wire_bytes;
  if (bytes == 0) {  // acks and control frames: alpha only
    const net::Route& route = shard(wire.src).routes[route_index(
        wire.src, MemSpace::kHost, wire.dst, MemSpace::kHost)];
    const net::TransferFate fate = decide(key, route.links);
    if (!fate.delivered) return;
    control(wire.src, wire.dst, wire.is_ack ? obs::kXferAck : key.kind,
            route.alpha + fate.delay,
            [this, wire, corrupted = fate.corrupted] {
              arrive_wire(wire, corrupted);
            });
    return;
  }
  net::Route& route = shard(wire.src).routes[route_index(
      wire.src, wire.frame.src_space, wire.dst, wire.frame.dst_space)];
  if (fabric_ != nullptr) {
    const std::uint64_t trace = trace_flow(route, bytes, key);
    fabric_->transfer_tagged(
        route, bytes, key,
        [this, wire, trace](const net::TransferFate& fate) {
          if (fate.delivered) {
            arrive_wire(wire, fate.corrupted);
          } else if (trace != 0) {
            core_.endpoint(wire.src).recorder()->transfer_undelivered(trace);
          }
        });
    return;
  }
  const net::TransferFate fate = decide(key, route.links);
  const TimeNs arrive = clocked(route, bytes, key, fate);
  if (!fate.delivered) return;
  engine_.schedule(wire.src, wire.dst, arrive,
                   [this, wire, corrupted = fate.corrupted] {
                     arrive_wire(wire, corrupted);
                   });
}

void MessageLegs::arrive_wire(mpi::WireFrame wire, bool corrupted) {
  wire.corrupted = corrupted;
  channel(wire.dst).on_wire(wire);
}

void MessageLegs::submit_reliable(
    mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
    std::function<void()> on_sent,
    std::function<void(mpi::ErrCode)> on_failed) {
  const Rank src = env.src;
  const Rank dst = env.dst;
  env.capture(core_.endpoint(src).pool());
  mpi::Frame frame;
  frame.src_space = src_space;
  frame.dst_space = dst_space;
  if (env.size <= eager_threshold_) {
    frame.wire_bytes = env.size;
    frame.env = std::move(env);
    return submit_data(std::move(frame), std::move(on_sent),
                       std::move(on_failed));
  }
  frame.kind = mpi::Frame::Kind::kRts;
  frame.env = env;
  frame.env.drop_payload();  // metadata only; the payload ships with kBulk
  support::SlotPool<Outgoing>& out = shard(src).out;
  const std::uint64_t ref = out.ref(out.acquire(
      {.env = std::move(env), .on_sent = std::move(on_sent),
       .on_failed = std::move(on_failed), .src_space = src_space,
       .dst_space = dst_space}));
  frame.rdvz = ref;
  channel(src).submit(
      dst, std::move(frame), nullptr, [this, src, ref](mpi::ErrCode code) {
        support::SlotPool<Outgoing>& pool = shard(src).out;
        if (!pool.live(ref)) return;
        pool.release(pool.slot_of(ref)).on_failed(code);
        escalate_(src);
      });
}

void MessageLegs::submit_data(mpi::Frame frame, std::function<void()> on_sent,
                              std::function<void(mpi::ErrCode)> on_failed) {
  const Rank src = frame.env.src;
  const Rank dst = frame.env.dst;
  channel(src).submit(
      dst, std::move(frame),
      [this, src, on_sent = std::move(on_sent)] {
        core_.run_progress(src, on_sent, 0);
      },
      [this, src, on_failed = std::move(on_failed)](mpi::ErrCode code) {
        on_failed(code);
        escalate_(src);
      });
}

void MessageLegs::on_frame(Rank self, Rank from, const mpi::Frame& frame) {
  using Kind = mpi::Frame::Kind;
  if (frame.kind == Kind::kEager) {
    core_.endpoint(self).deliver(frame.env);
  } else if (frame.kind == Kind::kRts) {
    // Re-arm the grant: when a receive matches, park it and send a CTS back.
    mpi::Envelope env = frame.env;
    env.grant = [this, self, from, out = frame.rdvz](mpi::PostedRecv recv) {
      grant_reliable(self, from, out, std::move(recv));
    };
    core_.endpoint(self).deliver(std::move(env));
  } else if (frame.kind == Kind::kCts) {
    send_bulk(self, frame);
  } else {
    ADAPT_CHECK(frame.kind == Kind::kBulk) << "not a message frame";
    land_bulk(self, frame);
  }
}

void MessageLegs::grant_reliable(Rank dst, Rank src, std::uint64_t outgoing,
                                 mpi::PostedRecv recv) {
  support::SlotPool<Incoming>& in = shard(dst).in;
  const std::uint64_t ref = in.ref(in.acquire({{}, std::move(recv)}));
  mpi::Frame cts;
  cts.kind = mpi::Frame::Kind::kCts;
  cts.rdvz = outgoing;
  cts.rdvz_recv = ref;
  channel(dst).submit(
      src, std::move(cts), nullptr, [this, dst, ref](mpi::ErrCode code) {
        // The sender is unreachable: fail the receive on this side too —
        // retry exhaustion must surface on both endpoints.
        support::SlotPool<Incoming>& pool = shard(dst).in;
        if (!pool.live(ref)) return;
        pool.release(pool.slot_of(ref)).recv.request->mark_failed(code);
        escalate_(dst);
      });
}

void MessageLegs::send_bulk(Rank src, const mpi::Frame& cts) {
  support::SlotPool<Outgoing>& out = shard(src).out;
  if (!out.live(cts.rdvz)) return;  // the rendezvous already failed
  Outgoing o = out.release(out.slot_of(cts.rdvz));
  mpi::Frame bulk;
  bulk.kind = mpi::Frame::Kind::kBulk;
  bulk.rdvz_recv = cts.rdvz_recv;
  bulk.wire_bytes = o.env.size;
  bulk.src_space = o.src_space;
  bulk.dst_space = o.dst_space;
  bulk.env = std::move(o.env);
  submit_data(std::move(bulk), std::move(o.on_sent), std::move(o.on_failed));
}

void MessageLegs::land_bulk(Rank dst, const mpi::Frame& bulk) {
  support::SlotPool<Incoming>& in = shard(dst).in;
  if (!in.live(bulk.rdvz_recv)) return;  // the receive already failed
  const mpi::PostedRecv recv = in.release(in.slot_of(bulk.rdvz_recv)).recv;
  core_.run_progress(dst,
                     [this, dst, recv, env = bulk.env] {  // shares the payload
                       core_.endpoint(dst).finalize_recv(recv, env);
                     },
                     recv_overhead_);
}

}  // namespace adapt::runtime
