#include "src/runtime/sim_engine.hpp"

#include <array>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/gpu/device.hpp"
#include "src/support/error.hpp"
#include "src/support/slot_pool.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::runtime {

// ---------------------------------------------------------- SimTransport ---

namespace {

/// Fault-key kind tags: frame kinds 0..4 (Frame::Kind order), acks distinct.
constexpr int kWireKindAck = 100;

int wire_kind(const mpi::WireFrame& wire) {
  return wire.is_ack ? kWireKindAck : static_cast<int>(wire.frame.kind);
}

/// Deterministic in-place payload corruption (raw/unreliable mode only: with
/// the reliability layer on, corruption is a checksum discard instead and the
/// payload is never touched).
void corrupt_in_place(mpi::Envelope& env, std::uint64_t salt) {
  if (!env.data || env.size == 0) return;
  env.data.data()[static_cast<std::size_t>(
      salt % static_cast<std::uint64_t>(env.size))] ^= std::byte{0x2a};
}

}  // namespace

class SimEngine::SimTransport final : public mpi::Transport {
 public:
  explicit SimTransport(SimEngine& engine) : engine_(engine) {}

  void submit(mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> on_failed) override {
    if (!engine_.channels_.empty()) {
      submit_reliable(std::move(env), src_space, dst_space,
                      std::move(on_sent), std::move(on_failed));
      return;
    }
    const std::uint32_t pi = pair_index(env.src, env.dst);
    const std::uint32_t ri =
        route_index(pi, env.src, src_space, env.dst, dst_space);
    const std::uint64_t seq = ++pairs_[pi].raw_seq;
    if (env.size <= engine_.machine_.spec().eager_threshold) {
      net::Route& route = routes_[ri];
      if (obs::Recorder* rec = engine_.obs_) {
        route.trace = rec->transfer_begin(
            env.src, env.dst, env.size,
            static_cast<int>(mpi::Frame::Kind::kEager), engine_.sim_.now());
      }
      submit_eager(route, seq, std::move(env), std::move(on_sent));
    } else {
      submit_rendezvous(ri, seq, std::move(env), std::move(on_sent));
    }
  }

  /// Channel downcall: puts one wire frame (data or ack) on the fabric.
  /// Data frames occupy bandwidth; control frames and acks are alpha-only.
  /// The fault injector decides each transmission's fate either way.
  void send_wire(const mpi::WireFrame& wire) {
    const net::FaultKey key{wire.src, wire.dst, wire.seq, wire.attempt,
                            wire_kind(wire)};
    const bool data_frame = !wire.is_ack && wire.frame.wire_bytes > 0;
    if (data_frame) {
      net::Route& route = cached_route(wire.src, wire.frame.src_space,
                                       wire.dst, wire.frame.dst_space);
      if (obs::Recorder* rec = engine_.obs_) {
        route.trace = rec->transfer_begin(
            wire.src, wire.dst, wire.frame.wire_bytes,
            static_cast<int>(wire.frame.kind), engine_.sim_.now());
      }
      engine_.net_.fabric().transfer_tagged(
          route, wire.frame.wire_bytes, key,
          [this, wire = wire,
           trace = route.trace](const net::TransferFate& fate) mutable {
            if (!fate.delivered) {
              if (trace) engine_.obs_->transfer_undelivered(trace);
              return;
            }
            wire.corrupted = fate.corrupted;
            engine_.channels_[static_cast<std::size_t>(wire.dst)]->on_wire(
                wire);
          });
      return;
    }
    const net::Route& route =
        cached_route(wire.src, MemSpace::kHost, wire.dst, MemSpace::kHost);
    net::TransferFate fate;
    if (const net::FaultInjector* inj = engine_.injector_.get()) {
      fate = inj->decide(key, route.links, engine_.sim_.now());
      if (!fate.delivered) return;
    }
    if (obs::Recorder* rec = engine_.obs_) {
      rec->transfer_alpha_only(
          wire.src, wire.dst,
          wire.is_ack ? obs::kXferAck : static_cast<int>(wire.frame.kind),
          engine_.sim_.now(), engine_.sim_.now() + route.alpha + fate.delay);
    }
    engine_.sim_.after(
        route.alpha + fate.delay,
        [this, wire = wire, corrupted = fate.corrupted]() mutable {
          wire.corrupted = corrupted;
          engine_.channels_[static_cast<std::size_t>(wire.dst)]->on_wire(wire);
        });
  }

  /// Channel upcall: a deduplicated frame arrived at rank `self`.
  void on_frame(Rank self, Rank from, const mpi::Frame& frame) {
    using Kind = mpi::Frame::Kind;
    switch (frame.kind) {
      case Kind::kEager:
        endpoint(self).deliver(frame.env);
        break;
      case Kind::kRts: {
        // Re-arm the grant: when a receive matches, remember it and send CTS
        // back over the reliable channel.
        mpi::Envelope env = frame.env;
        const RdvzKey key{pair_key(from, self), frame.rdvz};
        env.grant = [this, self, from, key](mpi::PostedRecv recv) {
          rdvz_recv_[key] = recv;
          mpi::Frame cts;
          cts.kind = Kind::kCts;
          cts.rdvz = key.second;
          channel(self).submit(
              from, std::move(cts), nullptr,
              [this, self, key](mpi::ErrCode code) {
                // The sender is unreachable: fail the receive on this side
                // too — retry exhaustion must surface on both endpoints.
                auto it = rdvz_recv_.find(key);
                if (it == rdvz_recv_.end()) return;
                mpi::PostedRecv pending = it->second;
                rdvz_recv_.erase(it);
                pending.request->mark_failed(code);
                if (engine_.recovery_) return;  // the give-up hook reported it
                engine_.initiate_abort(self, mpi::ErrCode::kErrProcFailed);
              });
        };
        endpoint(self).deliver(std::move(env));
        break;
      }
      case Kind::kCts: {
        const RdvzKey key{pair_key(self, from), frame.rdvz};
        auto it = rdvz_send_.find(key);
        if (it == rdvz_send_.end()) break;  // rendezvous already failed
        PendingSend pending = std::move(it->second);
        rdvz_send_.erase(it);
        mpi::Frame bulk;
        bulk.kind = Kind::kBulk;
        bulk.rdvz = key.second;
        bulk.wire_bytes = pending.env.size;
        bulk.src_space = pending.src_space;
        bulk.dst_space = pending.dst_space;
        bulk.env = std::move(pending.env);
        channel(self).submit(
            from, std::move(bulk),
            [this, self, on_sent = std::move(pending.on_sent)] {
              engine_.core_.run_progress(self, on_sent, 0);
            },
            [this, self, on_failed = std::move(pending.on_failed)](
                mpi::ErrCode code) { fail_op(self, code, on_failed); });
        break;
      }
      case Kind::kBulk: {
        const RdvzKey key{pair_key(from, self), frame.rdvz};
        auto it = rdvz_recv_.find(key);
        if (it == rdvz_recv_.end()) break;  // receive already failed
        const mpi::PostedRecv recv = it->second;
        rdvz_recv_.erase(it);
        const mpi::Envelope env = frame.env;  // shares the payload pointer
        engine_.core_.run_progress(
            self, [this, self, recv, env] { endpoint(self).finalize_recv(recv, env); },
            engine_.machine_.spec().cpu_overhead);
        break;
      }
      case Kind::kAbort:
        engine_.poison_rank(self, frame.code);
        break;
      // Recovery-protocol frames (only ever submitted when the recovery
      // service exists; the null checks are belt-and-braces).
      case Kind::kPing:
        break;  // liveness probe: the channel-level ack is the answer
      case Kind::kFailNotice:
        if (engine_.recovery_) engine_.recovery_->on_notice(self, frame.rec.about);
        break;
      case Kind::kRevoke:
        if (engine_.recovery_) {
          engine_.recovery_->on_revoke(self, frame.rec.fingerprint);
        }
        break;
      case Kind::kAgree:
        if (engine_.recovery_) {
          engine_.recovery_->on_agree(self, from, frame.rec);
        }
        break;
    }
  }

 private:
  using RdvzKey = std::pair<std::int64_t, std::uint64_t>;

  struct PendingSend {
    mpi::Envelope env;
    MemSpace src_space = MemSpace::kHost;
    MemSpace dst_space = MemSpace::kHost;
    std::function<void()> on_sent;
    std::function<void(mpi::ErrCode)> on_failed;
  };

  /// In-flight raw eager message, parked while the fabric models the
  /// transfer. Slot-pooled: see submit_eager.
  struct EagerPending {
    mpi::Envelope env;
    std::function<void()> on_sent;
    Rank src = 0;
    Rank dst = 0;
    std::uint64_t trace = 0;
  };

  /// In-flight raw rendezvous message, parked from its RTS until the
  /// receiver finalises it (or a fault loses one of its legs). Slot-pooled:
  /// see submit_rendezvous.
  struct RdvzPending {
    mpi::Envelope env;  ///< the payload ships with the bulk leg
    std::function<void()> on_sent;
    mpi::PostedRecv recv;      ///< the matched receive, set by the grant
    std::uint32_t route = 0;   ///< routes_ index
    std::uint64_t seq = 0;     ///< raw fault-key sequence number
    std::uint64_t trace = 0;   ///< bulk-leg trace record (0 = untraced)
  };

  /// Per-(src, dst) message-path state, reached with one hash lookup per
  /// message: the raw fault-key sequence counter and the pair's cached
  /// routes, one per (src space, dst space) combination (routes_ indices,
  /// -1 until first used). A pair's dense index doubles as its fabric
  /// serial-queue index.
  struct PairState {
    std::uint64_t raw_seq = 0;
    std::array<std::int32_t, 4> routes{-1, -1, -1, -1};
  };

  mpi::Endpoint& endpoint(Rank r) { return engine_.core_.endpoint(r); }
  mpi::ReliableChannel& channel(Rank r) {
    return *engine_.channels_[static_cast<std::size_t>(r)];
  }
  std::int64_t pair_key(Rank src, Rank dst) const {
    return static_cast<std::int64_t>(src) * engine_.machine_.nranks() + dst;
  }

  /// Dense index of the (src, dst) pair, assigned on first use: the tables
  /// grow with the pairs that actually communicate, not with nranks^2.
  std::uint32_t pair_index(Rank src, Rank dst) {
    const auto [it, fresh] = pair_index_.try_emplace(
        pair_key(src, dst), static_cast<std::uint32_t>(pairs_.size()));
    if (fresh) pairs_.emplace_back();
    return it->second;
  }

  /// Route between fixed endpoints, cached: building a Route allocates its
  /// link vector, and routes never change for the life of the engine, so the
  /// per-message send paths reuse one entry per (pair, memory spaces). The
  /// serial key is part of the route (FIFO per (src, dst): segments between
  /// one pair leave back to back — NIC transmit queue — instead of
  /// fair-sharing against each other); it is the pair's dense index, which
  /// the fabric uses to index its serial-queue table. The trace id is
  /// per-message state and is reset here, stamped by the caller only when a
  /// recorder is attached. Returns a routes_ index: slots keep the index
  /// across legs, since routes_ may grow underneath a held reference.
  std::uint32_t route_index(std::uint32_t pi, Rank src, MemSpace src_space,
                            Rank dst, MemSpace dst_space) {
    const int spaces = (src_space == MemSpace::kDevice ? 2 : 0) |
                       (dst_space == MemSpace::kDevice ? 1 : 0);
    std::int32_t& ri = pairs_[pi].routes[static_cast<std::size_t>(spaces)];
    if (ri < 0) {
      net::Route route = engine_.net_.route_mem(src, src_space, dst, dst_space);
      route.serial_key = pi;
      ri = static_cast<std::int32_t>(routes_.size());
      routes_.push_back(std::move(route));
    }
    routes_[static_cast<std::size_t>(ri)].trace = 0;
    return static_cast<std::uint32_t>(ri);
  }

  net::Route& cached_route(Rank src, MemSpace src_space, Rank dst,
                           MemSpace dst_space) {
    return routes_[route_index(pair_index(src, dst), src, src_space, dst,
                               dst_space)];
  }

  /// Local failure of one operation: fail its request with the specific
  /// code, then escalate to a job-wide abort (every surviving rank must see
  /// the same outcome, not a one-sided error). Under recovery the escalation
  /// is skipped: the channel give-up hook already reported the suspect, and
  /// the failure-notification gossip replaces the abort flood.
  void fail_op(Rank origin, mpi::ErrCode code,
               const std::function<void(mpi::ErrCode)>& on_failed) {
    if (on_failed) on_failed(code);
    if (engine_.recovery_) return;
    engine_.initiate_abort(origin, mpi::ErrCode::kErrProcFailed);
  }

  /// Fault-tolerant path: every protocol message is a frame on the per-rank
  /// ReliableChannel. Eager sends complete on ack; rendezvous decomposes
  /// into RTS → CTS → BULK frames, each independently retransmitted.
  void submit_reliable(mpi::Envelope env, MemSpace src_space,
                       MemSpace dst_space, std::function<void()> on_sent,
                       std::function<void(mpi::ErrCode)> on_failed) {
    const Rank src = env.src;
    const Rank dst = env.dst;
    if (env.size <= engine_.machine_.spec().eager_threshold) {
      mpi::Frame frame;
      frame.kind = mpi::Frame::Kind::kEager;
      frame.wire_bytes = env.size;
      frame.src_space = src_space;
      frame.dst_space = dst_space;
      frame.env = std::move(env);
      channel(src).submit(
          dst, std::move(frame),
          [this, src, on_sent = std::move(on_sent)] {
            engine_.core_.run_progress(src, on_sent, 0);
          },
          [this, src, on_failed = std::move(on_failed)](mpi::ErrCode code) {
            fail_op(src, code, on_failed);
          });
      return;
    }
    const RdvzKey key{pair_key(src, dst), ++rdvz_counter_};
    mpi::Frame rts;
    rts.kind = mpi::Frame::Kind::kRts;
    rts.rdvz = key.second;
    rts.env = env;
    rts.env.data.reset();  // metadata only; the payload ships with kBulk
    rts.env.grant = nullptr;
    rts.src_space = src_space;
    rts.dst_space = dst_space;
    rdvz_send_[key] = PendingSend{std::move(env), src_space, dst_space,
                                  std::move(on_sent), std::move(on_failed)};
    channel(src).submit(dst, std::move(rts), nullptr,
                        [this, src, key](mpi::ErrCode code) {
                          auto it = rdvz_send_.find(key);
                          if (it == rdvz_send_.end()) return;
                          PendingSend pending = std::move(it->second);
                          rdvz_send_.erase(it);
                          fail_op(src, code, pending.on_failed);
                        });
  }

  /// Eager: the data travels immediately and is buffered at the receiver if
  /// nothing matches; the sender never waits on the receiver's CPU. Under an
  /// active fault plan (raw mode, no reliability) a dropped message simply
  /// never arrives and a corrupted one is delivered with damaged bytes —
  /// exactly the behaviour the chaos self-test exists to catch.
  ///
  /// The in-flight envelope is parked in a recycled slot so the fabric
  /// completion captures only {this, slot} — inside std::function's inline
  /// storage. This is the last per-segment heap allocation on the raw eager
  /// path, which persistent collectives require to be allocation-free in
  /// steady state.
  void submit_eager(const net::Route& route, std::uint64_t seq,
                    mpi::Envelope env, std::function<void()> on_sent) {
    const Rank src = env.src;
    const Rank dst = env.dst;
    const net::FaultKey key{src, dst, seq, 0,
                            static_cast<int>(mpi::Frame::Kind::kEager)};
    const std::uint32_t slot = eager_.acquire(
        {std::move(env), std::move(on_sent), src, dst, route.trace});
    engine_.net_.fabric().transfer_tagged(
        route, eager_[slot].env.size, key,
        [this, slot](const net::TransferFate& fate) {
          finish_eager(slot, fate);
        });
  }

  void finish_eager(std::uint32_t slot, const net::TransferFate& fate) {
    EagerPending p = eager_.release(slot);
    engine_.core_.run_progress(p.src, std::move(p.on_sent), 0);
    if (!fate.delivered) {
      if (p.trace) engine_.obs_->transfer_undelivered(p.trace);
      return;
    }
    if (fate.corrupted) corrupt_in_place(p.env, fate.salt);
    // NIC-side matching: no receiver-CPU gate here (deliver defers any
    // CPU-bound follow-up itself).
    endpoint(p.dst).deliver(std::move(p.env));
  }

  /// Rendezvous: an RTS races ahead; the bulk data moves only once a receive
  /// matched (instantly when pre-posted — hardware matching — or whenever
  /// the receiver gets around to posting one). This is the coupling that
  /// lets a noisy receiver stall its parent in blocking/Waitall designs.
  /// Control legs (RTS/CTS) consult the fault injector directly: a lost
  /// notice stalls the rendezvous forever in raw mode.
  ///
  /// The message lives in one recycled slot for its whole journey: the RTS
  /// event, the grant, the CTS event, the bulk completion and the
  /// finalisation each capture {this, slot}, so no leg copies the route,
  /// the envelope or the callbacks. A leg that a fault loses releases the
  /// slot on the spot.
  void submit_rendezvous(std::uint32_t route, std::uint64_t seq,
                         mpi::Envelope env, std::function<void()> on_sent) {
    const Rank src = env.src;
    const Rank dst = env.dst;
    const std::uint32_t slot =
        rdvz_.acquire({std::move(env), std::move(on_sent), {}, route, seq, 0});
    const net::Route& r = routes_[route];
    TimeNs rts_delay = r.alpha;
    if (const net::FaultInjector* inj = engine_.injector_.get()) {
      const net::TransferFate fate =
          inj->decide({src, dst, seq, 0,
                       static_cast<int>(mpi::Frame::Kind::kRts)},
                      r.links, engine_.sim_.now());
      if (!fate.delivered || fate.corrupted) {  // RTS lost
        rdvz_.release(slot);
        return;
      }
      rts_delay += fate.delay;
    }
    if (obs::Recorder* rec = engine_.obs_) {
      rec->transfer_alpha_only(src, dst,
                               static_cast<int>(mpi::Frame::Kind::kRts),
                               engine_.sim_.now(),
                               engine_.sim_.now() + rts_delay);
    }
    engine_.sim_.after(rts_delay, [this, slot] { deliver_rts(slot); });
  }

  /// The RTS reaches the receiver: a metadata-only envelope whose grant
  /// points back at the slot.
  void deliver_rts(std::uint32_t slot) {
    const mpi::Envelope& env = rdvz_[slot].env;
    mpi::Envelope rts;
    rts.src = env.src;
    rts.dst = env.dst;
    rts.tag = env.tag;
    rts.size = env.size;
    rts.grant = [this, slot](mpi::PostedRecv recv) {
      grant_rendezvous(slot, std::move(recv));
    };
    mpi::Endpoint& receiver = endpoint(rts.dst);
    if (receiver.poisoned()) {  // deliver() would drop it: nothing to grant
      rdvz_.release(slot);
      return;
    }
    receiver.deliver(std::move(rts));
  }

  /// A receive matched the RTS: CTS back to the sender, then the bulk leg.
  void grant_rendezvous(std::uint32_t slot, mpi::PostedRecv recv) {
    RdvzPending& p = rdvz_[slot];
    p.recv = std::move(recv);
    const Rank src = p.env.src;
    const Rank dst = p.env.dst;
    const net::Route& route = routes_[p.route];
    TimeNs cts_delay = route.alpha;
    if (const net::FaultInjector* inj = engine_.injector_.get()) {
      const net::TransferFate fate =
          inj->decide({dst, src, p.seq, 0,
                       static_cast<int>(mpi::Frame::Kind::kCts)},
                      route.links, engine_.sim_.now());
      if (!fate.delivered || fate.corrupted) {  // CTS lost
        rdvz_.release(slot);
        return;
      }
      cts_delay += fate.delay;
    }
    if (obs::Recorder* rec = engine_.obs_) {
      rec->transfer_alpha_only(dst, src,
                               static_cast<int>(mpi::Frame::Kind::kCts),
                               engine_.sim_.now(),
                               engine_.sim_.now() + cts_delay);
    }
    engine_.sim_.after(cts_delay, [this, slot] { start_bulk(slot); });
  }

  void start_bulk(std::uint32_t slot) {
    RdvzPending& p = rdvz_[slot];
    const Rank src = p.env.src;
    const Rank dst = p.env.dst;
    net::Route& route = routes_[p.route];
    route.trace = 0;
    if (obs::Recorder* rec = engine_.obs_) {
      route.trace = rec->transfer_begin(
          src, dst, p.env.size, static_cast<int>(mpi::Frame::Kind::kBulk),
          engine_.sim_.now());
    }
    p.trace = route.trace;
    engine_.net_.fabric().transfer_tagged(
        route, p.env.size,
        {src, dst, p.seq, 0, static_cast<int>(mpi::Frame::Kind::kBulk)},
        [this, slot](const net::TransferFate& fate) {
          finish_bulk(slot, fate);
        });
  }

  void finish_bulk(std::uint32_t slot, const net::TransferFate& fate) {
    RdvzPending& p = rdvz_[slot];
    engine_.core_.run_progress(p.env.src, std::move(p.on_sent), 0);
    if (!fate.delivered) {
      const std::uint64_t trace = p.trace;
      rdvz_.release(slot);
      if (trace) engine_.obs_->transfer_undelivered(trace);
      return;
    }
    if (fate.corrupted) corrupt_in_place(p.env, fate.salt);
    engine_.core_.run_progress(
        p.env.dst, [this, slot] { finalize_rendezvous(slot); },
        engine_.machine_.spec().cpu_overhead);
  }

  void finalize_rendezvous(std::uint32_t slot) {
    // Moved out first: completion callbacks may send again and grow rdvz_.
    const RdvzPending p = rdvz_.release(slot);
    endpoint(p.env.dst).finalize_recv(p.recv, p.env);
  }

  SimEngine& engine_;
  std::map<RdvzKey, PendingSend> rdvz_send_;
  std::map<RdvzKey, mpi::PostedRecv> rdvz_recv_;
  std::uint64_t rdvz_counter_ = 0;
  std::unordered_map<std::int64_t, std::uint32_t> pair_index_;
  std::vector<PairState> pairs_;
  std::vector<net::Route> routes_;
  support::SlotPool<EagerPending> eager_;
  support::SlotPool<RdvzPending> rdvz_;
};

// -------------------------------------------------------------- SimEngine ---

SimEngine::SimEngine(const topo::Machine& machine, SimEngineOptions options)
    : machine_(machine),
      options_(options),
      net_(sim_, machine, options.sharing, options.gpu),
      transport_(std::make_unique<SimTransport>(*this)),
      core_(*this, machine, *transport_, pool_, options.noise) {
  if (options_.perturb) sim_.set_perturbation(options_.perturb);
  const int n = machine_.nranks();
  plan_cache_ = std::make_unique<tune::PlanCache>();

  if (options_.faults.enabled()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults);
    net_.fabric().set_fault_injector(injector_.get());
  }
  if (options_.reliability) {
    channels_.reserve(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) {
      channels_.push_back(std::make_unique<mpi::ReliableChannel>(
          r, *options_.reliability,
          [this](const mpi::WireFrame& wire) { transport_->send_wire(wire); },
          [this](TimeNs delay, std::function<void()> fn) {
            sim_.after(delay, std::move(fn));
          },
          [this, r](Rank from, const mpi::Frame& frame) {
            transport_->on_frame(r, from, frame);
          },
          // With recovery on, every give-up — collective traffic, protocol
          // frames, heartbeats — reports the unreachable peer as a suspect.
          // The per-frame on_failed (passed at submit) still fails the
          // specific operation; this hook is the *detector*.
          options_.recovery
              ? mpi::ReliableChannel::GiveUp(
                    [this, r](Rank peer, const mpi::Frame&, mpi::ErrCode) {
                      if (recovery_) recovery_->on_give_up(r, peer);
                    })
              : mpi::ReliableChannel::GiveUp(nullptr)));
    }
  }
  if (options_.recovery) {
    ADAPT_CHECK(options_.reliability)
        << "SimEngineOptions::recovery requires the reliability layer (the "
           "recovery protocol rides on reliable frames)";
    recovery_ = std::make_unique<RecoveryService>(*this, *options_.recovery);
  }
  abort_flooded_.assign(static_cast<std::size_t>(n), 0);
  if (machine_.spec().gpus_per_socket > 0) {
    gpu_ = std::make_unique<gpu::GpuRuntime>(sim_, net_, machine_);
  }

  // Observability: install hook pointers only for an enabled recorder, so a
  // disabled one is indistinguishable from none (the zero-event guarantee).
  if (options_.recorder && options_.recorder->enabled()) {
    obs_ = options_.recorder.get();
    obs_->set_clock([this] { return sim_.now(); });
    obs_->init_ranks(n);
    sim_.set_queue_stats(&obs_->queue_stats());
    net_.fabric().set_recorder(obs_);
    for (auto& ch : channels_) ch->set_recorder(obs_);
    for (Rank r = 0; r < n; ++r) core_.endpoint(r).set_recorder(obs_);
    plan_cache_->set_recorder(obs_);
    if (options_.tuning) {
      // Pre-register the decision-engine counters so exports always carry
      // the full schema, even when a run never hits the tuner memo.
      obs_->metrics().counter("tuner.hits");
      obs_->metrics().counter("tuner.misses");
    }
  }
}

SimEngine::~SimEngine() = default;

TimeNs SimEngine::death_time(Rank r) const {
  for (const net::FaultPlan::Death& d : options_.faults.deaths) {
    if (d.rank == r) return d.at;
  }
  return -1;
}

gpu::Device* SimEngine::gpu_of(Rank r) {
  return gpu_ ? gpu_->device_for(r) : nullptr;
}

Recovery* SimEngine::recovery_of(Rank r) {
  return recovery_ ? &recovery_->rank_facade(r) : nullptr;
}

mpi::ReliableChannel* SimEngine::channel(Rank r) {
  if (channels_.empty()) return nullptr;
  ADAPT_CHECK(r >= 0 && r < machine_.nranks());
  return channels_[static_cast<std::size_t>(r)].get();
}

void SimEngine::poison_rank(Rank r, mpi::ErrCode code) {
  if (obs_ && !endpoint(r).poisoned()) {
    obs_->instant(obs::rank_pid(r), obs::kTidProgress, obs::Cat::kProto,
                  "poisoned", sim_.now(), static_cast<std::int64_t>(code));
  }
  endpoint(r).poison(code);
}

void SimEngine::initiate_abort(Rank origin, mpi::ErrCode code) {
  if (endpoint(origin).poisoned()) return;  // the first failure cause wins
  if (obs_) {
    obs_->instant(obs::rank_pid(origin), obs::kTidProgress, obs::Cat::kProto,
                  "abort", sim_.now(), static_cast<std::int64_t>(code));
  }
  // Notify peers over the reliable channel *before* poisoning the origin
  // (poison drops incoming traffic, not outgoing frames). Without channels
  // there is no way to notify anyone — the failure stays local and the
  // watchdog picks up the survivors. The flood runs at most once per origin:
  // the poison test above covers repeat calls in fail-stop mode, but once
  // recovery can clear poison the explicit guard keeps a rank that observes
  // two failures from re-flooding and inflating retransmit counters.
  if (!channels_.empty() && !abort_flooded_[static_cast<std::size_t>(origin)]) {
    abort_flooded_[static_cast<std::size_t>(origin)] = 1;
    for (Rank r = 0; r < machine_.nranks(); ++r) {
      if (r == origin) continue;
      mpi::Frame abort_frame;
      abort_frame.kind = mpi::Frame::Kind::kAbort;
      abort_frame.code = code;
      channels_[static_cast<std::size_t>(origin)]->submit(
          r, std::move(abort_frame));
    }
  }
  poison_rank(origin, code);
}

RunResult SimEngine::run(const RankProgram& program) {
  core_.launch(program);
  {
    support::FrameArena::Scope frames(&frame_arena_);
    sim_.run();
  }
  if (obs_) core_.record_state(obs_->metrics(), frame_arena_.total_bytes());
  return core_.finish();
}

}  // namespace adapt::runtime
