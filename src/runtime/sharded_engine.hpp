// Sharded conservative-lookahead discrete-event engine.
//
// Partitions the ranks across worker threads along topology-block boundaries
// (node / dragonfly group / fat-tree pod): each shard owns a private radix
// EventQueue, FrameArena and Recorder, executes its ranks' events with no
// locks, and exchanges cross-shard messages through per-pair epoch-switched
// mailboxes. Shards advance in conservative time windows [T, T + L): L is
// the minimum route alpha between ranks of different blocks, so an event
// executing at t < T + L can only make another shard runnable at t + L >=
// T + L — strictly outside the current window. The window barrier is a
// persistent spin-then-sleep ShardPool round; T is recomputed between rounds
// as the global minimum pending time, so idle stretches are skipped in one
// hop rather than window by window.
//
// Determinism contract (the non-negotiable): every event is keyed by
// (per-producer sequence << 20) | producer rank (sim::EventKeys, the rule
// the SimEngine's queue uses too). A rank's execution order is the
// ascending (time, key) order of its events, which is independent of how
// ranks are partitioned; per-shard records are merged in canonical order
// (obs/merge.hpp). Traces, metrics, conformance results and golden hashes
// are byte-identical for ANY shards value, including 1 — the single-shard
// fast path goes through the same keys and the same merge.
//
// Cost model: the SimEngine's under SharingPolicy::kUncontended. Both
// engines run ranks on one RankCore, messages on one set of legs
// (MessageLegs, each (src, dst) pair priced by its transmit clock on the
// source rank's shard) and events in one keyed order, so the uncontended
// SimEngine produces this engine's trace byte for byte (DESIGN.md §14.5).
// The fluid max-min fair-sharing fabric is deliberately not modelled —
// cross-shard bandwidth sharing would need global state on the hot path.
// Fault injection, schedule perturbation, reliability, recovery, GPUs and
// the tuner are likewise out of scope here and gated off; use the SimEngine
// for those studies. This engine's job is scale: compact per-rank state and
// intra-run parallelism toward million-rank simulations.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/net/fabric.hpp"
#include "src/noise/noise.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/context.hpp"
#include "src/runtime/legs.hpp"
#include "src/runtime/rank_core.hpp"
#include "src/sim/event_queue.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/frame_arena.hpp"
#include "src/support/shard_pool.hpp"
#include "src/topo/hardware.hpp"
#include "src/topo/procedural.hpp"

namespace adapt::runtime {

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

class ShardedEngine final : public Engine, private RankHost {
 public:
  ShardedEngine(const topo::Machine& machine,
                ShardedEngineOptions options = {});
  ~ShardedEngine() override;

  int nranks() const override { return machine_.nranks(); }
  RunResult run(const RankProgram& program) override;

  /// Effective shard count after clamping to the block count.
  int shards() const { return static_cast<int>(shards_.size()); }
  const topo::ProcTopology& topology() const { return *topo_; }
  const topo::Machine& machine() const { return machine_; }
  support::BufferPool& pool() { return pool_; }
  mpi::Endpoint& endpoint(Rank r) { return core_.endpoint(r); }
  Context& context(Rank r) { return core_.context(r); }

  /// The deterministic rank-state gauge: cumulative coroutine-frame bytes +
  /// matcher footprint + cumulative pool acquisitions. Identical for any
  /// shards value; exported as the sim.rank_state_bytes counter.
  std::uint64_t rank_state_bytes() const;
  /// Peak resident rank state (live frame high-water + matcher footprint +
  /// pool-cached blocks + pair tables): the memory-budget figure. NOT
  /// byte-stable across shard counts (per-shard peaks don't sum to the global
  /// peak) — never exported, only asserted against budgets.
  std::uint64_t rank_state_peak_bytes() const;

 private:
  /// One cross-shard message: an event to be pushed on the destination
  /// shard's queue at the next window boundary.
  struct Msg {
    TimeNs time;
    std::uint64_t key;
    sim::EventFn fn;
  };

  struct Shard {
    explicit Shard(std::size_t expected_cohort) : queue(expected_cohort) {}

    sim::EventQueue queue;
    TimeNs now = 0;
    support::FrameArena arena;
    /// Per-run recorder (null when observability is off); merged and
    /// discarded at the end of each run.
    std::unique_ptr<obs::Recorder> rec;
    /// outbox[dst_shard][epoch & 1]: messages appended during this round,
    /// drained by dst at the start of the next round (the off epoch), so
    /// producer and consumer never touch the same vector.
    std::vector<std::array<std::vector<Msg>, 2>> outbox;
    std::exception_ptr fatal;
  };

  Shard& shard_for(Rank r) { return *shards_[static_cast<std::size_t>(shard_of(r))]; }

  // RankHost: each rank runs on its shard's clock and queue; an event for
  // another shard (>= this window's end away) waits in the mailbox.
  TimeNs now_of(Rank r) const override {
    return shards_[static_cast<std::size_t>(shard_of(r))]->now;
  }
  void schedule(Rank producer, Rank at, TimeNs t,
                sim::EventFn&& fn) override;
  int shard_of(Rank r) const override {
    return map_.shard_of[static_cast<std::size_t>(r)];
  }
  /// Host-only (checked): the topology's route cost.
  net::Route route(Rank src, MemSpace src_space, Rank dst,
                   MemSpace dst_space) override;

  /// One conservative window on shard s: drain inbound mailboxes, then
  /// execute local events with time < window.
  void round(int s, TimeNs window);
  /// Minimum pending time across shard s's queue and undrained outboxes.
  TimeNs pending_min(const Shard& sh) const;
  std::uint64_t total_scheduled() const;
  std::uint64_t frame_bytes() const;

  const topo::Machine& machine_;
  ShardedEngineOptions options_;
  /// Declared before every component that can hold BufferRefs — destroyed
  /// last (the pool-lifetime contract, same as SimEngine).
  support::BufferPool pool_;
  topo::MachineTopology machine_topo_;
  const topo::ProcTopology* topo_;  ///< options_.topology or &machine_topo_
  topo::ShardMap map_;
  TimeNs lookahead_ = 0;  ///< min cross-shard route alpha
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<support::ShardPool> workers_;  ///< null when shards() == 1
  /// Event keys, globally indexed: each rank's counter is only ever touched
  /// by the rank's own shard. Built before the core, so a rank count the
  /// keys cannot hold is rejected before any rank state is.
  sim::EventKeys keys_;
  RankCore core_;
  MessageLegs legs_;  ///< the core's transport (bound before it is built)
  std::uint64_t epoch_ = 0;  ///< round counter; selects the mailbox epoch
};

}  // namespace adapt::runtime
