#include "src/runtime/legs.hpp"

#include <utility>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

namespace {

/// Deterministic in-place payload corruption (raw mode only; the
/// reliability layer discards corrupted frames instead).
void corrupt_in_place(mpi::Envelope& env, std::uint64_t salt) {
  if (!env.data || env.size == 0) return;
  env.data.data()[static_cast<std::size_t>(
      salt % static_cast<std::uint64_t>(env.size))] ^= std::byte{0x2a};
}

}  // namespace

MessageLegs::MessageLegs(RankHost& host, RankCore& core,
                         const topo::Machine& machine, int shards)
    : host_(host),
      core_(core),
      eager_threshold_(machine.spec().eager_threshold),
      recv_overhead_(machine.spec().cpu_overhead) {
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
}

MessageLegs::~MessageLegs() = default;

void MessageLegs::set_fault_injector(const net::FaultInjector* injector) {
  ADAPT_CHECK(injector == nullptr || shards_.size() == 1)
      << "fault fates need the one-shard engine";
  injector_ = injector;
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
    net::Route route = host_.route(src, src_space, dst, dst_space);
    route.serial_key = it->second;
    ri = static_cast<std::int32_t>(sh.routes.size());
    sh.routes.push_back(std::move(route));
  }
  sh.routes[static_cast<std::size_t>(ri)].trace = 0;
  return static_cast<std::uint32_t>(ri);
}

net::Route& MessageLegs::route(Rank src, MemSpace src_space, Rank dst,
                               MemSpace dst_space) {
  return shard(src).routes[route_index(src, src_space, dst, dst_space)];
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

bool MessageLegs::control(Rank from, Rank to, mpi::Frame::Kind kind,
                          Rank sender, std::uint32_t route, std::uint64_t seq,
                          TimeNs alpha, sim::EventFn next) {
  const TimeNs now = host_.now_of(from);
  TimeNs delay = alpha;
  if (injector_ != nullptr) {
    const net::TransferFate fate = injector_->decide(
        {from, to, seq, 0, static_cast<int>(kind)},
        shard(sender).routes[route].links, now);
    if (!fate.delivered || fate.corrupted) return false;
    delay += fate.delay;
  }
  if (obs::Recorder* rec = core_.endpoint(from).recorder()) {
    rec->transfer_alpha_only(from, to, static_cast<int>(kind), now,
                             now + delay);
  }
  host_.schedule(from, to, now + delay, std::move(next));
  return true;
}

void MessageLegs::submit(mpi::Envelope env, MemSpace src_space,
                         MemSpace dst_space, std::function<void()> on_sent,
                         std::function<void(mpi::ErrCode)>) {
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
  if (!control(src, dst, mpi::Frame::Kind::kRts, src, ri, seq, route.alpha,
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
  obs::Recorder* rec = core_.endpoint(src).recorder();
  const TimeNs now = host_.now_of(src);
  const net::FaultKey key{src, dst, o.seq, 0, static_cast<int>(kind)};
  if (fabric_ != nullptr) {
    route.trace = rec ? rec->transfer_begin(src, dst, bytes,
                                            static_cast<int>(kind), now)
                      : 0;
    o.trace = route.trace;
    fabric_->transfer_tagged(route, bytes, key,
                             [this, src, slot](const net::TransferFate& fate) {
                               land(src, slot, fate);
                             });
    return;
  }
  net::TransferFate fate;
  if (injector_ != nullptr) fate = injector_->decide(key, route.links, now);
  const TimeNs stream = net::stream_time(bytes, route.per_flow_cap);
  const TimeNs arrive =
      sh.pairs[static_cast<std::size_t>(route.serial_key)].clock.arrive(
          now, route.alpha + fate.delay, stream);
  if (rec != nullptr) {
    const std::uint64_t id =
        rec->transfer_begin(src, dst, bytes, static_cast<int>(kind), now);
    if (id != 0) {
      rec->transfer_active(id, arrive - stream, stream);
      rec->transfer_end(id, arrive);
      if (!fate.delivered) rec->transfer_undelivered(id);
    }
    for (net::LinkId l : route.links) rec->metrics().link_bytes(l) += bytes;
  }
  Outgoing m = sh.out.release(slot);
  host_.schedule(src, src, arrive,
                 [this, src, on_sent = std::move(m.on_sent)]() mutable {
                   core_.run_progress(src, std::move(on_sent), 0);
                 });
  if (!settle(m, fate)) return;
  host_.schedule(src, dst, arrive,
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
  if (fate.corrupted) corrupt_in_place(o.env, fate.salt);
  return true;
}

void MessageLegs::receive(mpi::Envelope env, std::uint32_t incoming) {
  const Rank dst = env.dst;
  if (incoming == kNone) {  // NIC-side matching: no receiver-CPU gate
    core_.endpoint(dst).deliver(std::move(env));
    return;
  }
  core_.run_progress(dst,
                     [this, dst, incoming, env = std::move(env)] {
                       finalize(dst, incoming, env);
                     },
                     recv_overhead_);
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
  if (!control(dst, src, mpi::Frame::Kind::kCts, src, n.route, n.seq, n.alpha,
               [this, src, outgoing, incoming] {
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

}  // namespace adapt::runtime
