#include "src/runtime/sim_engine.hpp"

#include <map>
#include <utility>

#include "src/gpu/device.hpp"
#include "src/support/error.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::runtime {

// ---------------------------------------------------------- SimTransport ---

namespace {

/// Fault-key kind tags: frame kinds 0..4 (Frame::Kind order), acks distinct.
constexpr int kWireKindAck = 100;

int wire_kind(const mpi::WireFrame& wire) {
  return wire.is_ack ? kWireKindAck : static_cast<int>(wire.frame.kind);
}

}  // namespace

class SimEngine::SimTransport final : public mpi::Transport {
 public:
  explicit SimTransport(SimEngine& engine) : engine_(engine) {}

  void submit(mpi::Envelope env, MemSpace src_space, MemSpace dst_space,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> on_failed) override {
    if (engine_.channels_.empty()) {
      engine_.legs_.submit(std::move(env), src_space, dst_space,
                           std::move(on_sent), std::move(on_failed));
      return;
    }
    submit_reliable(std::move(env), src_space, dst_space, std::move(on_sent),
                    std::move(on_failed));
  }

  /// Channel downcall: puts one wire frame (data or ack) on the fabric.
  /// Data frames occupy bandwidth; control frames and acks are alpha-only.
  /// The fault injector decides each transmission's fate either way.
  void send_wire(const mpi::WireFrame& wire) {
    const net::FaultKey key{wire.src, wire.dst, wire.seq, wire.attempt,
                            wire_kind(wire)};
    const bool data_frame = !wire.is_ack && wire.frame.wire_bytes > 0;
    if (data_frame) {
      net::Route& route = engine_.legs_.route(wire.src, wire.frame.src_space,
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
    const net::Route& route = engine_.legs_.route(wire.src, MemSpace::kHost,
                                                  wire.dst, MemSpace::kHost);
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
    engine_.sim_.schedule(
        wire.src, engine_.sim_.now() + route.alpha + fate.delay,
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

  mpi::Endpoint& endpoint(Rank r) { return engine_.core_.endpoint(r); }
  mpi::ReliableChannel& channel(Rank r) {
    return *engine_.channels_[static_cast<std::size_t>(r)];
  }
  std::int64_t pair_key(Rank src, Rank dst) const {
    return static_cast<std::int64_t>(src) * engine_.machine_.nranks() + dst;
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

  SimEngine& engine_;
  std::map<RdvzKey, PendingSend> rdvz_send_;
  std::map<RdvzKey, mpi::PostedRecv> rdvz_recv_;
  std::uint64_t rdvz_counter_ = 0;
};

// -------------------------------------------------------------- SimEngine ---

SimEngine::SimEngine(const topo::Machine& machine, SimEngineOptions options)
    : machine_(machine),
      options_(options),
      sim_(machine.nranks()),
      net_(sim_, machine, options.sharing, options.gpu),
      transport_(std::make_unique<SimTransport>(*this)),
      core_(*this, machine, *transport_, pool_, options.noise),
      legs_(*this, core_, machine, 1) {
  if (options_.perturb) sim_.set_perturbation(options_.perturb);
  if (options_.sharing == net::SharingPolicy::kFairShare) {
    legs_.set_fabric(&net_.fabric());
  }
  const int n = machine_.nranks();
  plan_cache_ = std::make_unique<tune::PlanCache>();

  if (options_.faults.enabled()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults);
    net_.fabric().set_fault_injector(injector_.get());
    legs_.set_fault_injector(injector_.get());
  }
  if (options_.reliability) {
    channels_.reserve(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) {
      channels_.push_back(std::make_unique<mpi::ReliableChannel>(
          r, *options_.reliability,
          [this](const mpi::WireFrame& wire) { transport_->send_wire(wire); },
          [this, r](TimeNs delay, std::function<void()> fn) {
            sim_.schedule(r, sim_.now() + delay, std::move(fn));
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
