// Discrete-event execution engine: every rank is a coroutine scheduled on one
// virtual clock; messages move through the contention-aware ClusterNet;
// rank CPUs are serialised resources that noise can occupy. The rank core,
// the message legs (its transport) and the keyed event order are the ones
// the ShardedEngine runs (RankCore, MessageLegs, sim::EventKeys), so with
// SharingPolicy::kUncontended both engines produce the same trace.
// Reliable frames ride the same legs; the engine keeps only the frame kinds
// that are not messages (the abort flood, the recovery protocol).
//
// This is the engine all paper-scale experiments run on.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/mpi/errors.hpp"
#include "src/mpi/reliable.hpp"
#include "src/net/fault.hpp"
#include "src/net/routes.hpp"
#include "src/noise/noise.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/context.hpp"
#include "src/runtime/legs.hpp"
#include "src/runtime/rank_core.hpp"
#include "src/runtime/recovery.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/frame_arena.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::gpu {
class GpuRuntime;
}

namespace adapt::tune {
class Tuner;      // defined in src/tune/tuner.hpp
class PlanCache;  // defined in src/tune/plan_cache.hpp
}

namespace adapt::runtime {

struct SimEngineOptions {
  net::SharingPolicy sharing = net::SharingPolicy::kFairShare;
  net::GpuConfig gpu;
  std::shared_ptr<noise::NoiseModel> noise;  ///< null = no noise
  /// Seeded schedule perturbation (conformance testing): randomizes the
  /// delivery order of concurrently pending events. Unset = the default
  /// bit-reproducible stable schedule.
  std::optional<sim::PerturbConfig> perturb;
  /// Deterministic fault schedule for the fabric (chaos testing). The
  /// default-constructed plan is disabled and leaves the hot path untouched.
  net::FaultPlan faults;
  /// Enables the frame-level reliability protocol (sequence-numbered acks,
  /// timeout + exponential-backoff retransmit, duplicate suppression) on
  /// every P2P message. Unset = the seed's perfect-delivery protocols.
  std::optional<mpi::ReliabilityConfig> reliability;
  /// Enables the ULFM-style recovery layer (requires `reliability`, and at
  /// most 64 ranks): local failures become gossiped notifications instead of
  /// an unconditional job-wide abort, Context::recovery() exposes the
  /// failure views / agreement / revocation facade, and self-healing
  /// collective wrappers can retry on survivor communicators. Unset (the
  /// default) keeps PR 2 fail-stop semantics byte-identical — no extra
  /// frames, timers, or branches on the hot path.
  std::optional<RecoveryOptions> recovery;
  /// Trace/metrics recorder observing this run (see src/obs). Hooks are
  /// installed only when set AND enabled(); otherwise every instrumented
  /// hot path pays exactly one null-pointer test. The engine shares
  /// ownership so the recorder outlives in-flight events.
  std::shared_ptr<obs::Recorder> recorder;
  /// Adaptive decision engine (src/tune) exposed through Context::tuner():
  /// tunable personalities (ompi-adapt) then derive topology / segment size /
  /// radix from the analytical model instead of their built-in heuristics.
  /// Unset (default) keeps the seed's heuristics — golden traces and BENCH
  /// baselines are byte-identical. Share one Tuner across engines to reuse
  /// its decision table.
  std::shared_ptr<tune::Tuner> tuning;
};

class SimEngine final : public Engine, private RankHost {
 public:
  SimEngine(const topo::Machine& machine, SimEngineOptions options = {});
  ~SimEngine() override;

  int nranks() const override { return machine_.nranks(); }
  RunResult run(const RankProgram& program) override;

  sim::Simulator& simulator() { return sim_; }
  net::ClusterNet& net() { return net_; }
  const topo::Machine& machine() const { return machine_; }
  Context& context(Rank r) { return core_.context(r); }
  TimeNs now() const { return sim_.now(); }

  mpi::Endpoint& endpoint(Rank r) { return core_.endpoint(r); }
  /// The engine's buffer pool (captured payloads, segment staging scratch).
  support::BufferPool& pool() { return pool_; }
  /// Reliability-channel introspection; null when reliability is off.
  mpi::ReliableChannel* channel(Rank r);
  /// The active recorder, or null when observability is off.
  obs::Recorder* recorder() { return obs_; }
  /// The engine's persistent-collective plan cache (never null).
  tune::PlanCache& plan_cache() { return *plan_cache_; }
  /// The recovery service; null unless SimEngineOptions::recovery is set.
  RecoveryService* recovery() { return recovery_.get(); }

  /// The scheduled death time of `r` from the fault plan, or -1 when the
  /// plan never kills it. Recovery uses this to measure detection latency
  /// (death to first kFailNotice) without peeking at the injector's state.
  TimeNs death_time(Rank r) const;

  /// Declares rank `origin`'s current operation failed: reliably floods an
  /// abort notice to every other rank (each poisons itself on receipt), then
  /// poisons `origin`. This is the runtime's agreement mechanism — local
  /// failure detection (retry exhaustion, watchdog) becomes a job-wide,
  /// uniform error instead of a hang or a one-sided error.
  void initiate_abort(Rank origin, mpi::ErrCode code);
  /// Fails every pending and future request on rank r (see Endpoint::poison).
  void poison_rank(Rank r, mpi::ErrCode code);

 private:
  /// Channel upcall: a deduplicated frame from `from` reached rank `self`.
  void on_frame(Rank self, Rank from, const mpi::Frame& frame);

  // RankHost: one virtual clock for every rank.
  TimeNs now_of(Rank) const override { return sim_.now(); }
  void schedule(Rank producer, Rank, TimeNs t, sim::EventFn&& fn) override {
    sim_.schedule(producer, t, std::move(fn));
  }
  net::Route route(Rank src, MemSpace src_space, Rank dst,
                   MemSpace dst_space) override {
    return net_.route_mem(src, src_space, dst, dst_space);
  }
  gpu::Device* gpu_of(Rank r) override;
  Recovery* recovery_of(Rank r) override;
  tune::Tuner* tuner_service() override { return options_.tuning.get(); }
  tune::PlanCache* plan_cache_service() override { return plan_cache_.get(); }

  const topo::Machine& machine_;
  SimEngineOptions options_;
  /// Declared before every component that can hold BufferRefs (endpoints'
  /// unexpected queues, in-flight simulator events), so it is destroyed
  /// after all of them — the pool-lifetime contract.
  support::BufferPool pool_;
  /// Recycles coroutine frames while run() executes; also the frame half of
  /// the sim.rank_state_bytes gauge. Declared before sim_ so it outlives
  /// any frame still parked in a pending event at teardown.
  support::FrameArena frame_arena_;
  obs::Recorder* obs_ = nullptr;  ///< null unless options_.recorder enabled
  sim::Simulator sim_;
  net::ClusterNet net_;
  std::unique_ptr<net::FaultInjector> injector_;
  MessageLegs::Channels channels_;
  RankCore core_;
  MessageLegs legs_;  ///< the core's transport (bound before it is built)
  std::unique_ptr<gpu::GpuRuntime> gpu_;
  std::unique_ptr<tune::PlanCache> plan_cache_;
  std::unique_ptr<RecoveryService> recovery_;
  /// Per-origin abort-flood guard: initiate_abort floods kAbort at most once
  /// per origin, however many poisoned endpoints it later observes.
  std::vector<char> abort_flooded_;
};

}  // namespace adapt::runtime
