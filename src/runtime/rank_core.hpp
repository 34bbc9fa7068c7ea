// The SimEngine's rank core, the same at any shard count.
//
// Every rank has a main thread that noise can occupy and a progress context
// it cannot, each a busy-until clock; its endpoint posts work through those
// clocks; its program is a coroutine started at time zero of the run, and
// the run ends when every rank's program has finished. RankCore owns all of
// that. It calls the engine directly for a rank's current time (its
// shard's clock), to schedule a rank's event, and for the one-shard
// services a Context exposes; the engine installs each rank's recorder on
// the rank's endpoint.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/net/fabric.hpp"
#include "src/noise/noise.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/context.hpp"
#include "src/sim/event_queue.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::runtime {

class SimEngine;

class RankCore {
 public:
  /// Builds every rank's context, executor and endpoint. The engine,
  /// machine, transport and pool must outlive the core; the engine is not
  /// called before the first run.
  RankCore(SimEngine& engine, const topo::Machine& machine,
           mpi::Transport& transport, support::BufferPool& pool,
           std::shared_ptr<noise::NoiseModel> noise);
  ~RankCore();

  int nranks() const { return static_cast<int>(ranks_.size()); }
  Context& context(Rank r);
  mpi::Endpoint& endpoint(Rank r);

  /// Runs `fn` once rank r's main thread is free (noise applies), after
  /// occupying it for `cpu_cost`.
  void run_on(Rank r, sim::EventFn&& fn, TimeNs cpu_cost);
  /// Runs `fn` on rank r's progress context (async progress thread + NIC
  /// offload), which noise never touches, after occupying it for `cpu_cost`.
  void run_progress(Rank r, sim::EventFn&& fn, TimeNs cpu_cost);

  /// Starts `program` on every rank as soon as its main thread is free. The
  /// engine then drains its events and calls finish(); `program` must live
  /// until then.
  void launch(const RankProgram& program);
  /// Ends a run: rethrows the failure of the earliest-finishing failed rank
  /// (lowest rank on a tie; the same for any event partitioning), fails the
  /// run as a deadlock if a rank never finished, else returns every rank's
  /// finish time.
  RunResult finish();
  /// Destroys every unfinished rank's program frame, with what it holds.
  /// No event of the run may run after it: finish() calls it once events
  /// drained; an engine whose event loop threw, when it is destroyed.
  void abandon();

  /// Deterministic rank-state gauge: cumulative coroutine-frame bytes (the
  /// engine's arenas) + matcher footprint + cumulative pool acquisitions.
  std::uint64_t state_bytes(std::uint64_t frame_bytes) const;
  std::uint64_t matcher_bytes() const;
  /// Writes the gauge and its parts as the sim.*_bytes counters (assigned,
  /// not accumulated: the parts are cumulative already).
  void record_state(obs::MetricsRegistry& metrics,
                    std::uint64_t frame_bytes) const;

 private:
  class SimRank;

  /// Occupies one of rank r's timelines (main thread or progress context)
  /// for `cpu_cost` from when it is free, noise delaying the start when
  /// `noisy`; records the task and returns when the timeline frees again.
  TimeNs occupy(Rank r, bool progress, bool noisy, TimeNs cpu_cost);
  /// Schedules `fn` as rank r's event at `t`, under the rank's log context
  /// when logging is on.
  void post(Rank r, TimeNs t, sim::EventFn&& fn);

  SimEngine& engine_;
  support::BufferPool& pool_;
  std::shared_ptr<noise::NoiseModel> noise_;
  /// Sampled at construction: when logging is on, rank callbacks run under a
  /// ScopedLogContext so lines carry the rank's time + rank. When off,
  /// callbacks are scheduled unwrapped — no extra capture on the hot path.
  bool log_ctx_ = false;
  std::vector<std::unique_ptr<SimRank>> ranks_;
  // Per-rank state, each entry only ever touched by the rank's own events
  // (so shards never share one).
  std::vector<TimeNs> busy_until_;           // main thread, noise applies
  std::vector<TimeNs> progress_busy_until_;  // progress context
  RunResult result_;                         // the current run's finishes
  std::vector<std::exception_ptr> failures_;  // the current run's failures
  std::vector<std::coroutine_handle<>> frames_;  // unfinished ranks' programs
};

}  // namespace adapt::runtime
