// The per-rank programming interface.
//
// Rank programs are coroutines receiving a Context&. The same program runs
// unchanged on the discrete-event SimEngine (virtual time, any scale, noise
// injectable) and on the ThreadEngine (real threads, wall-clock time) — the
// Context hides which engine is underneath, like MPI hides the BTL.
#pragma once

#include <functional>
#include <optional>

#include "src/mpi/endpoint.hpp"
#include "src/mpi/p2p.hpp"
#include "src/sim/task.hpp"
#include "src/support/units.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::gpu {
class Device;  // defined in src/gpu/device.hpp; null on CPU-only engines
}

namespace adapt::obs {
class Recorder;  // defined in src/obs/trace.hpp; null unless tracing is on
}

namespace adapt::support {
class BufferPool;  // defined in src/support/buffer_pool.hpp
}

namespace adapt::tune {
class Tuner;      // defined in src/tune/tuner.hpp; null unless tuning is on
class PlanCache;  // defined in src/tune/plan_cache.hpp
}

namespace adapt::runtime {

class Recovery;  // defined in src/runtime/recovery.hpp

class Context {
 public:
  virtual ~Context() = default;

  virtual Rank rank() const = 0;
  virtual int nranks() const = 0;
  /// Current time: virtual ns on the SimEngine, steady-clock ns on the
  /// ThreadEngine.
  virtual TimeNs now() const = 0;
  virtual mpi::Endpoint& endpoint() = 0;
  virtual const topo::Machine& machine() const = 0;

  /// Occupies this rank's CPU for `cost` (models local computation; on the
  /// ThreadEngine it spins for real). Suspends the coroutine.
  virtual sim::Task<> compute(TimeNs cost) = 0;

  /// Passive wait (does not occupy the CPU).
  virtual sim::Task<> sleep_for(TimeNs duration) = 0;

  /// Callback-style compute: runs `fn` once this rank's CPU has been busy for
  /// `cpu_cost`, without suspending the caller. This is how event-driven code
  /// (ADAPT callbacks) performs segment reductions — the cost still occupies
  /// the CPU and is still deferred by noise, but nothing waits on it except
  /// the work that truly depends on the result.
  virtual void defer(TimeNs cpu_cost, std::function<void()> fn) = 0;

  /// Like defer, but on the communication-engine (progress) context, where
  /// ADAPT's event callbacks execute their segment reductions (§2.2.1/§4.2):
  /// system noise preempts the application thread, not this context.
  virtual void defer_progress(TimeNs cpu_cost, std::function<void()> fn) = 0;

  /// This rank's GPU, or nullptr when the engine/machine has none.
  virtual gpu::Device* gpu() { return nullptr; }

  /// The engine's buffer pool for staging scratch, or nullptr when no pool
  /// is available (collectives then fall back to plain heap payloads).
  virtual support::BufferPool* pool() { return nullptr; }

  /// The run's trace/metrics recorder, or nullptr when observability is off
  /// (always null on the ThreadEngine — the recorder is single-threaded).
  /// Instrumented code guards every record with this one null test.
  virtual obs::Recorder* recorder() { return nullptr; }

  /// The engine's adaptive decision engine, or nullptr when tuning is off
  /// (the default — tunable personalities then keep their built-in
  /// heuristics, byte-identical to the seed).
  virtual tune::Tuner* tuner() { return nullptr; }

  /// The engine's persistent-collective plan cache, or nullptr on engines
  /// without one (persistent init then builds an uncached private plan).
  virtual tune::PlanCache* plan_cache() { return nullptr; }

  /// This rank's recovery facade (failure views, agreement, revocation), or
  /// nullptr when the engine runs without recovery — callers then keep the
  /// PR 2 fail-stop semantics (mpi::comm_agree falls back to a plain
  /// failure-free gather+bcast, self-healing wrappers become single-shot).
  virtual Recovery* recovery() { return nullptr; }

  // -- P2P conveniences ----------------------------------------------------
  mpi::RequestPtr isend(Rank dst, Tag tag, mpi::ConstView data,
                        mpi::SendOpts opts = {}) {
    return endpoint().isend(dst, tag, data, opts);
  }
  mpi::RequestPtr irecv(Rank src, Tag tag, mpi::MutView buffer,
                        mpi::Datatype dtype = mpi::Datatype::kUint8,
                        std::optional<mpi::ReduceOp> fold = std::nullopt) {
    return endpoint().irecv(src, tag, buffer, dtype, fold);
  }
  /// Blocking send/recv, MPI_Send/MPI_Recv-style.
  sim::Task<> send(Rank dst, Tag tag, mpi::ConstView data,
                   mpi::SendOpts opts = {}) {
    co_await mpi::wait(isend(dst, tag, data, opts));
  }
  sim::Task<> recv(Rank src, Tag tag, mpi::MutView buffer) {
    co_await mpi::wait(irecv(src, tag, buffer));
  }

  /// Deterministic collective-tag allocation: every rank must call collective
  /// operations in the same order, so per-rank counters agree — the same
  /// contract MPI imposes on communicator usage.
  Tag alloc_tags(Tag count) {
    ADAPT_CHECK(count > 0);
    const Tag base = next_tag_;
    next_tag_ += count;
    return base;
  }

 private:
  Tag next_tag_ = 1 << 20;  // leave low tags free for user P2P
};

/// A rank program: started once per rank by Engine::run.
using RankProgram = std::function<sim::Task<>(Context&)>;

/// Engine-run outcome.
struct RunResult {
  TimeNs total_time = 0;               ///< time until the last rank finished
  std::vector<TimeNs> rank_finish;     ///< per-rank completion times
};

/// Abstract execution engine (SimEngine / ThreadEngine).
class Engine {
 public:
  virtual ~Engine() = default;
  virtual int nranks() const = 0;
  /// Runs `program` on every rank to completion. May be called repeatedly;
  /// time continues monotonically across calls.
  virtual RunResult run(const RankProgram& program) = 0;
};

}  // namespace adapt::runtime
