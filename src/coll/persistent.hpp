// Persistent & partitioned collectives (MPI-4 init/start semantics, MPI
// Advance-style schedule caching on top of ADAPT's segment machine).
//
// A PersistentOp is a per-rank handle created once by bcast_init /
// reduce_init / allreduce_init / barrier_init. Init does all the planning a
// per-call collective repeats every invocation: pin the tree and segment
// size (tuner decision recorded in the engine's DecisionTable AND the
// engine-wide tune::PlanCache, keyed by (op, comm fingerprint, size bucket,
// root)), resolve this rank's edges, build its ADAPT segment machine
// (detail::AdaptPipeline, pipeline.hpp: the machine an ibcast/ireduce
// request runs once per call) with every piece of round state pre-sized,
// and warm the engine's BufferPool for the round's
// worst-case footprint (eager staging, plus, for a partitioned reduce, the
// fold windows a round borrows while segments await pready; reduce
// receives otherwise fold in place, and an idle handle holds no scratch).
// start()/wait() then replay rounds on that machine allocation-free:
// every callback a round posts captures {this, packed-ints} — small and
// trivially copyable, so std::function keeps it in inline storage.
// Allreduce is one machine running its reduce half chained into its bcast
// half over one tree; the barrier is a dissemination schedule of its own.
//
// Lifecycle (MPI-4 shaped, error codes instead of UB):
//   * start() on a handle whose previous round has not been waited returns
//     kErrPending; start() after the communicator was freed returns
//     kErrCommFreed (the plan-cache entry is invalidated too — a stale plan
//     is never replayed).
//   * wait() is an awaitable; it resumes once the round fully drains (every
//     posted callback retired, success or failure) and throws FaultError on
//     a failed round. The uniform error contract is the per-call
//     collectives', but not their wake rule: a one-shot request throws at
//     the first failure and leaves its machine to drain on its own, while a
//     persistent round must drain before its handle can start again.
//   * Overlapping start()s of *independent* handles pipeline: each handle
//     owns a private block of kTagRounds x per-round tags used round-robin,
//     so concurrent rounds can never cross-match.
//
// Partitioned operations (partitions > 0): the round's data is declared
// ready piece-wise with pready(p). Partition p maps to the contiguous
// segment range [p*S/P, (p+1)*S/P); a readied partition feeds its segments
// straight into ADAPT's pipeline (root sends for bcast, local contributions
// for reduce/allreduce). pready on a bad index, a duplicate partition, or an
// inactive handle returns kErrPartition.
#pragma once

#include <coroutine>
#include <memory>
#include <utility>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::coll {

namespace detail {
class AdaptPipeline;
}  // namespace detail

struct PersistentOpts {
  CollOpts coll;       ///< pipeline knobs; segment may be overridden by plan
  int partitions = 0;  ///< > 0: partitioned operation, data gated on pready
  /// Explicit tree override (copied). Bypasses the plan cache — the cache
  /// key cannot see an arbitrary caller tree. Null: the plan comes from the
  /// tuner when the engine has one, else the paper's topology-aware chain.
  const Tree* tree = nullptr;
};

class PersistentOp {
 public:
  enum class Kind { kBcast, kReduce, kAllreduce, kBarrier };

  ~PersistentOp();
  PersistentOp(const PersistentOp&) = delete;
  PersistentOp& operator=(const PersistentOp&) = delete;

  /// Begins one replay of the cached schedule. kErrPending if the previous
  /// round was not waited; kErrCommFreed if the communicator was freed.
  mpi::ErrCode start();

  /// Declares partition `p`'s data ready for the active round.
  mpi::ErrCode pready(int p);

  /// Queries whether partition `p`'s *incoming* data has fully arrived at
  /// this rank for the active round (MPI_Parrived shape): for bcast and the
  /// bcast stage of allreduce every segment of the partition has been
  /// received; for reduce every child contribution for the partition has
  /// been folded into the local accumulator (a leaf's partition arrives when
  /// its own pready lands). Validation mirrors pready: an inactive handle, a
  /// non-partitioned op, or an out-of-range index is kErrPartition. A round
  /// that already failed reports false without error.
  mpi::ErrCode parrived(int p, bool* flag) const;

  /// Awaitable round completion; throws mpi::FaultError on a failed round.
  struct [[nodiscard]] Awaiter {
    PersistentOp* op;
    bool await_ready() const noexcept { return !op->in_flight_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      op->waiter_ = h;
    }
    void await_resume() const;
  };
  Awaiter wait() { return Awaiter{this}; }

  bool in_flight() const { return in_flight_; }
  Kind kind() const { return kind_; }
  int segments() const;
  int partitions() const { return partitions_; }
  /// Completed start/wait cycles (successful or failed).
  int rounds_completed() const { return rounds_completed_; }
  /// The immutable plan this handle replays (shared via the engine cache
  /// unless an explicit tree was supplied).
  const tune::CachedPlan& plan() const { return *plan_; }
  /// Error code the active/last round finished with (kOk while healthy).
  mpi::ErrCode last_error() const;

 private:
  friend std::unique_ptr<PersistentOp> bcast_init(runtime::Context&,
                                                  const mpi::Comm&,
                                                  mpi::MutView, Rank,
                                                  const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> reduce_init(runtime::Context&,
                                                   const mpi::Comm&,
                                                   mpi::MutView, mpi::ReduceOp,
                                                   mpi::Datatype, Rank,
                                                   const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> allreduce_init(runtime::Context&,
                                                      const mpi::Comm&,
                                                      mpi::MutView,
                                                      mpi::ReduceOp,
                                                      mpi::Datatype,
                                                      const PersistentOpts&);
  friend std::unique_ptr<PersistentOp> barrier_init(runtime::Context&,
                                                    const mpi::Comm&,
                                                    const PersistentOpts&);

  PersistentOp();

  void init_common(runtime::Context& ctx, const mpi::Comm& comm, Kind kind,
                   mpi::MutView buffer, mpi::ReduceOp rop, mpi::Datatype dtype,
                   Rank root, const PersistentOpts& opts);
  Tag round_base() const;
  /// Partition p's segment range [first, end).
  std::pair<int, int> partition_segments(int p) const;

  void check_round_done();

  // Barrier machine.
  void start_barrier();
  void on_barrier_recv(int round);
  void barrier_cb_exit();  ///< retire one posted barrier callback

  // -- plan (immutable after init) ----------------------------------------
  runtime::Context* ctx_ = nullptr;
  mpi::Comm comm_ = mpi::Comm::world(1);  ///< keeps CommState alive
  std::shared_ptr<const tune::CachedPlan> plan_;
  Kind kind_ = Kind::kBcast;
  Tag base_tag_ = 0;
  int per_round_tags_ = 0;
  int partitions_ = 0;
  Rank me_local_ = -1;
  int bar_rounds_ = 0;  ///< barrier: dissemination round count
  /// bcast/reduce/allreduce: this rank's segment machine.
  std::unique_ptr<detail::AdaptPipeline> pipe_;

  // -- round state (reset by start, no allocation) -------------------------
  bool in_flight_ = false;
  int rounds_completed_ = 0;
  std::coroutine_handle<> waiter_;
  std::vector<char> part_ready_;  // per partition: pready seen
  // barrier
  mpi::ErrCode bar_error_ = mpi::ErrCode::kOk;  ///< first cause wins
  int bar_remaining_ = 0;    ///< success signals still expected
  int bar_outstanding_ = 0;  ///< posted callbacks not yet retired
};

using PersistentOpPtr = std::unique_ptr<PersistentOp>;

/// Persistent broadcast: the root's `buffer` contents reach every rank's
/// `buffer` on each start/wait round. Buffer binding is fixed at init
/// (MPI-4 persistent semantics) — mutate contents between rounds, not the
/// binding.
PersistentOpPtr bcast_init(runtime::Context& ctx, const mpi::Comm& comm,
                           mpi::MutView buffer, Rank root,
                           const PersistentOpts& opts = {});

/// Persistent reduce: each round folds every rank's `accum` into the root's.
/// Non-root accumulators are clobbered (same contract as coll::reduce), so
/// refill them between rounds.
PersistentOpPtr reduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                            mpi::MutView accum, mpi::ReduceOp op,
                            mpi::Datatype dtype, Rank root,
                            const PersistentOpts& opts = {});

/// Persistent allreduce: reduce-to-0 chained into bcast-from-0 over one
/// tree; every rank's `accum` holds the full reduction after wait().
PersistentOpPtr allreduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                               mpi::MutView accum, mpi::ReduceOp op,
                               mpi::Datatype dtype,
                               const PersistentOpts& opts = {});

/// Persistent dissemination barrier.
PersistentOpPtr barrier_init(runtime::Context& ctx, const mpi::Comm& comm,
                             const PersistentOpts& opts = {});

/// MPI_Comm_free for plan-cache users: marks the communicator freed AND
/// eagerly drops its plan-cache entries (the weak CommState guard would
/// catch them lazily anyway — this keeps the cache tidy and the
/// invalidation observable).
void free_comm(runtime::Context& ctx, const mpi::Comm& comm);

}  // namespace adapt::coll
