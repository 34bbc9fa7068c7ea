// The persistent-collective plan cache (PR 6; MPI Advance's init-time
// schedule caching, paper §5.2.1 taken one step further).
//
// A *plan* is everything a collective decides before it moves a byte: the
// resolved topology tree, the pipeline segment size, and the pinned tuner
// Decision that produced both. Persistent handles (coll::PersistentOp) build
// the plan once at init and replay it on every start; the cache makes that
// build itself a lookup when several handles — or several init calls over
// the same communicator — agree on (op, membership, size bucket, root).
//
// Keying and invalidation are the whole game:
//   * The key carries the communicator's membership FINGERPRINT, not its
//     size. Two communicators over the same ordered ranks share plans; a
//     re-split communicator with different members cannot collide.
//   * Every entry holds a weak_ptr to the mpi::CommState it was built for.
//     find() revalidates lazily: a freed or destroyed communicator turns its
//     entries into misses and erases them — a stale plan is never served.
//   * The cache lives on the engine (one per SimEngine/ThreadEngine), so
//     engine-level options that change schedules (faults, perturbation,
//     reliability, tuning) can never alias: different options = different
//     engine = different cache.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "src/coll/tree.hpp"
#include "src/tune/tuner.hpp"

namespace adapt::mpi {
struct CommState;  // src/mpi/comm.hpp
}

namespace adapt::obs {
class Recorder;  // src/obs/trace.hpp
}

namespace adapt::tune {

/// Persistent-collective operations. Wider than tune::Op (the cost model
/// prices bcast/reduce only): allreduce and barrier plans are cached too.
enum class PlanOp : int { kBcast = 0, kReduce, kAllreduce, kBarrier };

struct PlanKey {
  PlanOp op = PlanOp::kBcast;
  std::uint64_t comm_fingerprint = 0;  ///< mpi::Comm::fingerprint()
  int bucket = 0;  ///< Tuner::bucket(bytes); 0 for barrier
  Rank root = 0;   ///< tree root (local rank); 0 for barrier
  auto operator<=>(const PlanKey&) const = default;
};

/// One cached schedule. Immutable after insert (handles share it by
/// shared_ptr, so an invalidated entry stays valid for handles already
/// holding it — they fail on their own CommState guard instead).
struct CachedPlan {
  coll::Tree tree;          ///< resolved over the communicator's local ranks
  Bytes segment = 0;        ///< pipeline granularity; 0 = unsegmented
  Decision decision;        ///< pinned tuner decision (default if untuned)
  bool tuned = false;       ///< decision came from a Tuner (vs. heuristics)
  /// Liveness guard: the communicator state this plan was resolved against.
  std::weak_ptr<const mpi::CommState> comm;
};

/// Thread-safe (ThreadEngine ranks init concurrently), eviction-free except
/// for lazy invalidation of dead communicators.
class PlanCache {
 public:
  /// Wires the cache into the engine's metrics: find/insert/invalidate bump
  /// plan_cache.{hits,misses,evictions,invalidations} counters from then
  /// on. Pass null to detach. The engine installs this alongside its other
  /// observability hooks, so a disabled recorder costs nothing.
  void set_recorder(obs::Recorder* recorder);

  /// Counted lookup. Returns null — and erases the entry — when the guard
  /// communicator has been freed or destroyed.
  std::shared_ptr<const CachedPlan> find(const PlanKey& key);

  /// Inserts (first writer wins) and returns the cached entry.
  std::shared_ptr<const CachedPlan> insert(const PlanKey& key,
                                           CachedPlan plan);

  /// Drops every entry keyed by `comm_fingerprint` (eager invalidation on
  /// MPI_Comm_free; the weak guard would catch it lazily anyway).
  void invalidate_comm(std::uint64_t comm_fingerprint);

  void clear();
  int size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  mutable std::mutex mutex_;
  std::map<PlanKey, std::shared_ptr<const CachedPlan>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Cached metric addresses (stable for the registry's life); null = no
  // recorder attached. Updated under mutex_ like everything else here.
  std::int64_t* m_hits_ = nullptr;
  std::int64_t* m_misses_ = nullptr;
  std::int64_t* m_evictions_ = nullptr;
  std::int64_t* m_invalidations_ = nullptr;
};

}  // namespace adapt::tune
