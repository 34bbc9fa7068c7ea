#include "src/runtime/sim_engine.hpp"

#include <algorithm>
#include <utility>

#include "src/gpu/device.hpp"
#include "src/obs/merge.hpp"
#include "src/support/error.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::runtime {

namespace {

constexpr TimeNs kForever = sim::Simulator::kForever;

}  // namespace

SimEngine::SimEngine(const topo::Machine& machine, SimEngineOptions options)
    : machine_(machine),
      options_(std::move(options)),
      keys_(machine.nranks()),
      machine_topo_(machine),
      topo_(&machine_topo_),
      core_(*this, machine, legs_, pool_, options_.noise),
      legs_(*this, core_, machine, 1) {
  shards_.push_back(
      std::make_unique<Shard>(keys_, sim::EventQueue::kDefaultReserve, 1));
  solo_ = shards_.front().get();
  sim::Simulator& sim = solo_->sim;
  net_ = std::make_unique<net::ClusterNet>(sim, machine, options_.sharing,
                                           options_.gpu);
  if (options_.perturb) sim.set_perturbation(options_.perturb);
  if (options_.sharing == net::SharingPolicy::kFairShare) {
    legs_.set_fabric(&net_->fabric());
  }
  const int n = machine_.nranks();
  plan_cache_ = std::make_unique<tune::PlanCache>();

  if (options_.faults.enabled()) {
    injector_ = std::make_unique<net::FaultInjector>(options_.faults);
    net_->fabric().set_fault_injector(injector_.get());
    legs_.set_fault_injector(injector_.get());
  }
  if (options_.reliability) {
    channels_.reserve(static_cast<std::size_t>(n));
    for (Rank r = 0; r < n; ++r) {
      channels_.push_back(std::make_unique<mpi::ReliableChannel>(
          r, *options_.reliability,
          [this](const mpi::WireFrame& wire) { legs_.send_wire(wire); },
          [&sim, r](TimeNs delay, std::function<void()> fn) {
            sim.schedule(r, sim.now() + delay, std::move(fn));
          },
          [this, r](Rank from, const mpi::Frame& frame) {
            on_frame(r, from, frame);
          },
          // With recovery on, every give-up — collective traffic, protocol
          // frames, heartbeats — reports the unreachable peer as a suspect.
          // The per-frame on_failed (passed at submit) still fails the
          // specific operation; this hook is the *detector*.
          [this, r](Rank peer, const mpi::Frame&, mpi::ErrCode) {
            if (recovery_) recovery_->on_give_up(r, peer);
          }));
    }
    // A local failure fails its request, then escalates to a job-wide abort
    // (every surviving rank must see the same outcome, not a one-sided
    // error). Under recovery the give-up hook has already reported the
    // suspect, and the failure-notification gossip replaces the abort flood.
    legs_.set_channels(&channels_, [this](Rank origin) {
      if (!recovery_) initiate_abort(origin, mpi::ErrCode::kErrProcFailed);
    });
  }
  if (options_.recovery) {
    ADAPT_CHECK(options_.reliability)
        << "SimEngineOptions::recovery requires the reliability layer (the "
           "recovery protocol rides on reliable frames)";
    recovery_ = std::make_unique<RecoveryService>(*this, *options_.recovery);
  }
  abort_flooded_.assign(static_cast<std::size_t>(n), 0);
  if (machine_.spec().gpus_per_socket > 0) {
    gpu_ = std::make_unique<gpu::GpuRuntime>(sim, *net_, machine_);
  }

  // Observability: install hook pointers only for an enabled recorder, so a
  // disabled one is indistinguishable from none (the zero-event guarantee).
  if (options_.recorder && options_.recorder->enabled()) {
    obs_ = options_.recorder.get();
    obs_->set_clock([&sim] { return sim.now(); });
    obs_->init_ranks(n);
    sim.set_queue_stats(&obs_->queue_stats());
    net_->fabric().set_recorder(obs_);
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

SimEngine::SimEngine(const topo::Machine& machine,
                     ShardedEngineOptions options)
    : machine_(machine),
      keys_(machine.nranks()),
      machine_topo_(machine),
      topo_(options.topology ? options.topology : &machine_topo_),
      map_(topo::make_shard_map(*topo_, std::max(options.shards, 1))),
      core_(*this, machine, legs_, pool_, std::move(options.noise)),
      legs_(*this, core_, machine, map_.shards) {
  const int n = machine_.nranks();
  ADAPT_CHECK(topo_->nranks() == n)
      << "topology describes " << topo_->nranks() << " ranks but the machine "
      << "places " << n;
  ADAPT_CHECK(options.shards >= 1);
  shards_.reserve(static_cast<std::size_t>(map_.shards));
  for (const std::vector<Rank>& local : map_.ranks) {
    // Steady-state bound on the same-time cohort and radix levels: a few
    // in-flight events per local rank plus the historical floor, so shard
    // queues never reallocate mid-run (pinned by the allocation regression
    // test).
    shards_.push_back(
        std::make_unique<Shard>(keys_, local.size() * 4 + 64, map_.shards));
  }
  if (map_.shards == 1) {
    solo_ = shards_.front().get();
  } else {
    lookahead_ = topo_->min_cross_block_alpha();
    ADAPT_CHECK(lookahead_ > 0)
        << "conservative sharding needs positive cross-block latency";
    workers_ = std::make_unique<support::ShardPool>(map_.shards);
  }
  if (options.recorder && options.recorder->enabled()) {
    merged_ = std::move(options.recorder);
    merged_->init_ranks(n);
  }
}

SimEngine::~SimEngine() { core_.abandon(); }

net::ClusterNet& SimEngine::net() {
  ADAPT_CHECK(net_ != nullptr) << "the sharded engine has no ClusterNet";
  return *net_;
}

net::Route SimEngine::route(Rank src, MemSpace src_space, Rank dst,
                            MemSpace dst_space) {
  if (net_ != nullptr) return net_->route_mem(src, src_space, dst, dst_space);
  ADAPT_CHECK(src_space == MemSpace::kHost && dst_space == MemSpace::kHost)
      << "the sharded engine is host-only; use SimEngineOptions for GPU runs";
  const topo::RouteCost rc = topo_->route(src, dst);
  net::Route route;
  route.alpha = rc.alpha;
  route.per_flow_cap = 1.0 / rc.beta_ns_per_byte;
  return route;
}

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

void SimEngine::on_frame(Rank self, Rank from, const mpi::Frame& frame) {
  using Kind = mpi::Frame::Kind;
  switch (frame.kind) {
    case Kind::kAbort:
      return poison_rank(self, frame.code);
    // Recovery frames (recovery on); a kPing's answer is its ack.
    case Kind::kPing:
      return;
    case Kind::kFailNotice:
      return recovery_->on_notice(self, frame.rec.about);
    case Kind::kRevoke:
      return recovery_->on_revoke(self, frame.rec.fingerprint);
    case Kind::kAgree:
      return recovery_->on_agree(self, from, frame.rec);
    default:
      return legs_.on_frame(self, from, frame);
  }
}

void SimEngine::poison_rank(Rank r, mpi::ErrCode code) {
  if (obs_ && !endpoint(r).poisoned()) {
    obs_->instant(obs::rank_pid(r), obs::kTidProgress, obs::Cat::kProto,
                  "poisoned", now_of(r), static_cast<std::int64_t>(code));
  }
  endpoint(r).poison(code);
}

void SimEngine::initiate_abort(Rank origin, mpi::ErrCode code) {
  if (endpoint(origin).poisoned()) return;  // the first failure cause wins
  if (obs_) {
    obs_->instant(obs::rank_pid(origin), obs::kTidProgress, obs::Cat::kProto,
                  "abort", now_of(origin), static_cast<std::int64_t>(code));
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

// ---------------------------------------------------------- the one loop ---

void SimEngine::schedule_sharded(Rank producer, Rank at, TimeNs t,
                                 sim::EventFn&& fn) {
  const int from = shard_of(producer);
  const int to = shard_of(at);
  if (from == to) {
    shards_[static_cast<std::size_t>(to)]->sim.schedule(producer, t,
                                                        std::move(fn));
    return;
  }
  // Cross-shard: t is at least this window's end (route alpha >= lookahead),
  // so delivery at the next window's drain is never late.
  Shard& sh = *shards_[static_cast<std::size_t>(from)];
  sh.outbox[static_cast<std::size_t>(to)][epoch_ & 1].push_back(
      Msg{t, keys_.next(producer), std::move(fn)});
}

TimeNs SimEngine::pending_min(const Shard& sh) const {
  TimeNs t = sh.sim.pending_time();
  for (const auto& box : sh.outbox) {
    for (const auto& epoch : box) {
      for (const Msg& m : epoch) t = std::min(t, m.time);
    }
  }
  return t;
}

void SimEngine::round(int s, TimeNs window) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  try {
    support::FrameArena::Scope frames(&sh.arena);
    // Drain the off-epoch inboxes: everything peers appended last window.
    const std::size_t prev = (epoch_ + 1) & 1;
    for (auto& peer : shards_) {
      auto& box = peer->outbox[static_cast<std::size_t>(s)][prev];
      for (Msg& m : box) sh.sim.schedule_keyed(m.time, m.key, std::move(m.fn));
      box.clear();
    }
    sh.sim.run(window == kForever ? kForever : window - 1);
  } catch (...) {
    sh.fatal = std::current_exception();
  }
}

RunResult SimEngine::run(const RankProgram& program) {
  const int n = machine_.nranks();
  std::uint64_t scheduled_before = 0;
  if (merged_ != nullptr) {
    for (auto& sh : shards_) {
      sh->rec = std::make_unique<obs::Recorder>(true);
      sh->rec->init_ranks(n);
      sh->rec->set_clock([&sim = sh->sim] { return sim.now(); });
      scheduled_before += sh->sim.events_scheduled();
    }
    for (Rank r = 0; r < n; ++r) {
      endpoint(r).set_recorder(shard_for(r).rec.get());
    }
  }

  // Re-align the shard clocks before reusing the engine: each shard's clock
  // stopped at its OWN last event of the previous run, and the window
  // protocol is only sound when clocks start within the lookahead of each
  // other. The alignment point — the time of the globally last event — is
  // shard-invariant, so back-to-back runs stay byte-identical for any shard
  // count (it is exactly where the single-shard clock already is).
  TimeNs start = 0;
  for (const auto& sh : shards_) start = std::max(start, sh->sim.now());
  for (auto& sh : shards_) {
    sh->sim.advance_to(start);
    sh->fatal = nullptr;
  }

  core_.launch(program);
  // The window loop. At one shard the lookahead is unbounded, so the first
  // window runs everything.
  for (;;) {
    TimeNs horizon = kForever;
    for (const auto& sh : shards_) {
      horizon = std::min(horizon, pending_min(*sh));
    }
    if (horizon == kForever) break;
    const TimeNs window =
        horizon > kForever - lookahead_ ? kForever : horizon + lookahead_;
    if (workers_ != nullptr) {
      workers_->run_round([this, window](int s) { round(s, window); });
    } else {
      round(0, window);
    }
    ++epoch_;
    for (const auto& sh : shards_) {
      if (sh->fatal) std::rethrow_exception(sh->fatal);
    }
  }

  if (merged_ != nullptr) {
    std::vector<const obs::Recorder*> parts;
    parts.reserve(shards_.size());
    std::uint64_t scheduled = 0;
    for (const auto& sh : shards_) {
      parts.push_back(sh->rec.get());
      scheduled += sh->sim.events_scheduled();
    }
    obs::merge_recorders(parts, *merged_);
    merged_->queue_stats().scheduled += scheduled - scheduled_before;
    // The rank-state gauge and its components: cumulative, shard-invariant
    // quantities only (peaks and pool-cache occupancy are interleaving-
    // dependent and must never reach byte-compared output).
    core_.record_state(merged_->metrics(), frame_bytes());
    for (Rank r = 0; r < n; ++r) endpoint(r).set_recorder(nullptr);
    for (auto& sh : shards_) sh->rec.reset();
  } else if (obs_ != nullptr) {
    core_.record_state(obs_->metrics(), frame_bytes());
  }
  return core_.finish();
}

std::uint64_t SimEngine::frame_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.total_bytes();
  return total;
}

std::uint64_t SimEngine::rank_state_bytes() const {
  return core_.state_bytes(frame_bytes());
}

std::uint64_t SimEngine::rank_state_peak_bytes() const {
  // The pair tables only grow, so their size is their peak.
  std::uint64_t peak = 0;
  for (const auto& sh : shards_) peak += sh->arena.peak_bytes();
  return peak + legs_.pair_bytes() + core_.matcher_bytes() +
         pool_.cached_bytes();
}

}  // namespace adapt::runtime
