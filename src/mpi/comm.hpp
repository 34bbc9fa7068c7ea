// Communicators: ordered process groups with local<->global rank translation.
//
// ADAPT's topology-aware collectives run on a *single* communicator (§3.2);
// the multi-level-communicator baseline (§3.1) splits the world by node and
// socket, which `split_by` supports.
//
// A Comm is a cheap value type: copies share one immutable membership state.
// That shared state also carries the communicator's *lifecycle*, added for
// persistent collectives (PR 6): a membership fingerprint that keys the plan
// cache, and a freed flag set by free(). Persistent handles keep a weak
// reference to the state — once any copy is freed, start() fails with
// kErrCommFreed and cached plans bound to the state are invalidated, so a
// freed or re-split communicator can never serve a stale schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

/// Shared, mostly-immutable communicator state. `freed` and `revoked` are
/// the only mutable members; each flips once (Comm::free / Comm::revoke) and
/// is only ever read afterwards.
struct CommState {
  std::vector<Rank> members;
  /// (global, local) for every member, sorted by global rank: local_of's
  /// binary-search index.
  std::vector<std::pair<Rank, Rank>> by_global;
  std::uint64_t fingerprint = 0;  ///< FNV-1a over the ordered member list
  bool freed = false;
  bool revoked = false;  ///< ULFM revocation: schedules on it are stale

  bool alive() const { return !freed && !revoked; }
};

class Comm {
 public:
  /// World communicator over ranks [0, nranks).
  static Comm world(int nranks);

  /// Communicator over an explicit ordered member list (global ranks).
  explicit Comm(std::vector<Rank> members);

  int size() const { return static_cast<int>(members().size()); }
  Rank global(Rank local) const {
    ADAPT_CHECK(local >= 0 && local < size());
    return members()[static_cast<std::size_t>(local)];
  }
  /// Local rank of a global rank, or kAnyRank when not a member.
  /// O(log size).
  Rank local_of(Rank global_rank) const;
  bool contains(Rank global_rank) const {
    return local_of(global_rank) != kAnyRank;
  }
  const std::vector<Rank>& members() const { return state_->members; }

  /// Deterministic hash of the ordered membership; two communicators over
  /// the same ordered ranks share a fingerprint (and may share cached
  /// plans — the plan depends only on membership and machine).
  std::uint64_t fingerprint() const { return state_->fingerprint; }

  /// MPI_Comm_split: partitions the members by `color` (evaluated on global
  /// ranks) into one sub-communicator per distinct color, returned in
  /// ascending color order. Each sub-communicator keeps this communicator's
  /// member order, so every rank computes identical groups — the two-level
  /// (HAN) collectives split by node this way.
  std::vector<Comm> split_by(const std::function<int(Rank)>& color) const;

  /// MPI_Comm_free: marks every copy of this communicator freed. Collectives
  /// already in flight are unaffected; new persistent start()s fail with
  /// kErrCommFreed, and plan-cache entries guarded by this state go stale.
  void free() const { state_->freed = true; }
  bool alive() const { return state_->alive(); }

  /// ULFM MPI_Comm_revoke, local half: marks every copy revoked so cached
  /// plans guarded by this state go stale and persistent start()s fail with
  /// kErrRevoked. Propagation to other ranks is the recovery layer's job
  /// (mpi::comm_revoke floods a kRevoke frame).
  void revoke() const { state_->revoked = true; }
  bool revoked() const { return state_->revoked; }

  /// The shared lifecycle state, for weak guards (plan cache, persistent
  /// handles). Never null.
  const std::shared_ptr<const CommState>& state() const {
    // The state is logically const except for the freed flag, which free()
    // flips through the non-const alias kept privately.
    return cstate_;
  }

 private:
  std::shared_ptr<CommState> state_;
  std::shared_ptr<const CommState> cstate_;  ///< same object, const view
};

}  // namespace adapt::mpi
