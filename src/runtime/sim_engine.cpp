#include "src/runtime/sim_engine.hpp"

#include <utility>

#include "src/gpu/device.hpp"
#include "src/support/error.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::runtime {

SimEngine::SimEngine(const topo::Machine& machine, SimEngineOptions options)
    : machine_(machine),
      options_(options),
      sim_(machine.nranks()),
      net_(sim_, machine, options.sharing, options.gpu),
      core_(*this, machine, legs_, pool_, options.noise),
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
          [this](const mpi::WireFrame& wire) { legs_.send_wire(wire); },
          [this, r](TimeNs delay, std::function<void()> fn) {
            sim_.schedule(r, sim_.now() + delay, std::move(fn));
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

SimEngine::~SimEngine() { core_.abandon(); }

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
