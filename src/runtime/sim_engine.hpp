// The discrete-event execution engine: every rank is a coroutine scheduled
// on a virtual clock; rank CPUs are serialised resources that noise can
// occupy; messages move on MessageLegs. This is the engine all paper-scale
// experiments run on.
//
// The engine owns one shard per worker thread. A shard is a sim::Simulator
// (queue, clock, queue stats) with its FrameArena, recorder and mailboxes,
// every shard keyed by one shared sim::EventKeys, and run() is one
// conservative window loop over them: each window runs every shard's
// events below H + L (H the earliest pending time anywhere, L the smallest
// route alpha between shards), then hands each cross-shard event to its
// destination shard. At one shard the window is unbounded, with no mailbox
// and no barrier: the loop is one Simulator::run().
//
// The option type is the shard gate (DESIGN.md §14.5):
//  * SimEngineOptions builds one shard with every one-shard service: the
//    contention-aware ClusterNet (fluid fair-share fabric) and its routes,
//    faults, reliability, recovery, GPUs, the tuner, the plan cache and
//    schedule perturbation. Reliable frames ride the same legs; the engine
//    keeps only the frame kinds that are not messages (the abort flood, the
//    recovery protocol).
//  * ShardedEngineOptions builds up to N shards along topology blocks with
//    the shard-invariant set only: pair-clock legs, noise, the recorder
//    (per-shard recorders merged after every run) and ProcTopology routes.
//    The Context services stay null.
// Every event carries the key (per-producer sequence << 20) | producer rank,
// whatever shard runs it, so traces, metrics and finish times are
// byte-identical for any shard count, and equal to a one-shard
// SimEngineOptions engine with SharingPolicy::kUncontended.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
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
#include "src/support/shard_pool.hpp"
#include "src/topo/hardware.hpp"
#include "src/topo/procedural.hpp"

namespace adapt::gpu {
class GpuRuntime;
}

namespace adapt::tune {
class Tuner;      // defined in src/tune/tuner.hpp
class PlanCache;  // defined in src/tune/plan_cache.hpp
}

namespace adapt::runtime {

/// One shard with every one-shard service.
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

/// Up to `shards` shards with the shard-invariant services only.
struct ShardedEngineOptions {
  /// Requested worker shards; clamped to the topology's block count (and to
  /// nranks). 1 runs the whole simulation on the calling thread.
  int shards = 1;
  /// Merged-output recorder: per-shard recorders are merged into it after
  /// every run. Byte-identical for any `shards` value.
  std::shared_ptr<obs::Recorder> recorder;
  /// Noise model; must be pure (next_free is const) — it is consulted from
  /// every shard thread. Null = no noise.
  std::shared_ptr<noise::NoiseModel> noise;
  /// Locality oracle and route-cost model. Null = a MachineTopology adapter
  /// over `machine` (blocks are nodes, routes are the machine's lanes).
  /// Must outlive the engine and describe exactly machine.nranks() ranks.
  const topo::ProcTopology* topology = nullptr;
};

class SimEngine final : public Engine {
 public:
  SimEngine(const topo::Machine& machine, SimEngineOptions options = {});
  SimEngine(const topo::Machine& machine, ShardedEngineOptions options);
  ~SimEngine() override;

  int nranks() const override { return machine_.nranks(); }
  RunResult run(const RankProgram& program) override;

  /// Effective shard count (ShardedEngineOptions::shards after clamping).
  int shards() const { return static_cast<int>(shards_.size()); }
  /// Shard 0's simulator: the whole engine's at one shard.
  sim::Simulator& simulator() { return shards_.front()->sim; }
  /// The contention-aware network; one-shard engines only (checked).
  net::ClusterNet& net();
  const topo::Machine& machine() const { return machine_; }
  Context& context(Rank r) { return core_.context(r); }

  mpi::Endpoint& endpoint(Rank r) { return core_.endpoint(r); }
  /// The engine's buffer pool (captured payloads, segment staging scratch).
  support::BufferPool& pool() { return pool_; }
  /// Reliability-channel introspection; null when reliability is off.
  mpi::ReliableChannel* channel(Rank r);
  /// The one-shard recorder, or null when observability is off or sharded.
  obs::Recorder* recorder() { return obs_; }
  /// The persistent-collective plan cache; one-shard engines only.
  tune::PlanCache& plan_cache() { return *plan_cache_; }
  /// The recovery service; null unless SimEngineOptions::recovery is set.
  RecoveryService* recovery() { return recovery_.get(); }

  /// The deterministic rank-state gauge: cumulative coroutine-frame bytes +
  /// matcher footprint + cumulative pool acquisitions. Identical for any
  /// shards value; exported as the sim.rank_state_bytes counter.
  std::uint64_t rank_state_bytes() const;
  /// Peak resident rank state (live frame high-water + matcher footprint +
  /// pool-cached blocks + pair tables): the memory-budget figure. NOT
  /// byte-stable across shard counts (per-shard peaks don't sum to the global
  /// peak) — never exported, only asserted against budgets.
  std::uint64_t rank_state_peak_bytes() const;

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
  // What the rank core and the legs run on.
  friend class RankCore;
  friend class MessageLegs;

  /// One cross-shard event, pushed on its destination shard's simulator at
  /// the next window.
  struct Msg {
    TimeNs time;
    std::uint64_t key;
    sim::EventFn fn;
  };

  struct Shard {
    Shard(sim::EventKeys& keys, std::size_t expected_cohort, int shards)
        : sim(keys, expected_cohort),
          outbox(static_cast<std::size_t>(shards)) {}

    /// Recycles coroutine frames while the shard runs; also the frame half
    /// of the sim.rank_state_bytes gauge. Declared before sim so it
    /// outlives any frame still parked in a pending event at teardown.
    support::FrameArena arena;
    sim::Simulator sim;
    /// Per-run recorder of a sharded engine (null when observability is
    /// off); merged and discarded at the end of each run.
    std::unique_ptr<obs::Recorder> rec;
    /// outbox[dst_shard][epoch & 1]: events appended during this window,
    /// drained by dst at the start of the next (the off epoch), so producer
    /// and consumer never touch the same vector.
    std::vector<std::array<std::vector<Msg>, 2>> outbox;
    std::exception_ptr fatal;
  };

  /// Current time on rank r's clock.
  TimeNs now_of(Rank r) const {
    return (solo_ != nullptr ? *solo_ : shard_for(r)).sim.now();
  }
  /// Schedules fn at absolute time t (>= now_of(producer)) as the next
  /// event of rank `producer`, the rank whose code is running; it runs
  /// where rank `at` runs.
  void schedule(Rank producer, Rank at, TimeNs t, sim::EventFn&& fn) {
    if (solo_ != nullptr) {
      solo_->sim.schedule(producer, t, std::move(fn));
      return;
    }
    schedule_sharded(producer, at, t, std::move(fn));
  }
  /// Index of the shard that runs rank r's events.
  int shard_of(Rank r) const {
    return solo_ != nullptr ? 0 : map_.shard_of[static_cast<std::size_t>(r)];
  }
  /// Cost route of a message from src to dst between the given memories:
  /// the network's, or on a sharded engine the topology's (host only).
  net::Route route(Rank src, MemSpace src_space, Rank dst, MemSpace dst_space);
  // Engine services behind Context; null on a sharded engine.
  gpu::Device* gpu_of(Rank r);
  Recovery* recovery_of(Rank r);
  tune::Tuner* tuner_service() { return options_.tuning.get(); }
  tune::PlanCache* plan_cache_service() { return plan_cache_.get(); }

  const Shard& shard_for(Rank r) const {
    return *shards_[static_cast<std::size_t>(shard_of(r))];
  }
  void schedule_sharded(Rank producer, Rank at, TimeNs t, sim::EventFn&& fn);
  /// One window on shard s: drain inbound mailboxes, then run the shard's
  /// events with time < window.
  void round(int s, TimeNs window);
  /// Earliest pending time across shard s's simulator and undrained outboxes.
  TimeNs pending_min(const Shard& sh) const;
  std::uint64_t frame_bytes() const;

  /// Channel upcall: a deduplicated frame from `from` reached rank `self`.
  void on_frame(Rank self, Rank from, const mpi::Frame& frame);

  const topo::Machine& machine_;
  /// The one-shard services' options (all off on a sharded engine).
  SimEngineOptions options_;
  /// Declared before every component that can hold BufferRefs (endpoints'
  /// unexpected queues, in-flight simulator events), so it is destroyed
  /// after all of them — the pool-lifetime contract.
  support::BufferPool pool_;
  /// Event keys, globally indexed: each rank's counter is only ever touched
  /// by the rank's own shard. Built before any rank state, so a rank count
  /// the keys cannot hold is rejected first.
  sim::EventKeys keys_;
  topo::MachineTopology machine_topo_;
  const topo::ProcTopology* topo_;  ///< sharded routes and blocks
  topo::ShardMap map_;
  /// Smallest route alpha between shards; unbounded at one shard.
  TimeNs lookahead_ = sim::Simulator::kForever;
  std::vector<std::unique_ptr<Shard>> shards_;
  Shard* solo_ = nullptr;  ///< shards_[0] when there is one shard
  std::unique_ptr<support::ShardPool> workers_;  ///< null at one shard
  std::uint64_t epoch_ = 0;  ///< window counter; selects the mailbox epoch
  obs::Recorder* obs_ = nullptr;  ///< one shard: options_.recorder if enabled
  /// Sharded: the enabled recorder the per-shard recorders merge into.
  std::shared_ptr<obs::Recorder> merged_;
  std::unique_ptr<net::ClusterNet> net_;  ///< one shard only
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
