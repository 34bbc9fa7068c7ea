// ULFM-style recovery layer: failure detection, notification, agreement.
//
// PR 2 gave the runtime *clean failure*: retry exhaustion poisons the origin
// endpoint and an unconditional kAbort flood turns one dead rank into a
// job-wide uniform error. This header is the opposite policy, opt-in via
// SimEngineOptions::recovery — failures become *events a program can survive*:
//
//   * detection   — every reliable-channel give-up (collective traffic,
//     protocol frames, heartbeats) reports the unreachable peer as a suspect;
//     ring heartbeats (kPing frames, armed only while a self-healing wrapper
//     holds interest) cover silently-dead ranks nobody happens to send to,
//     e.g. a dead bcast root that only *receives*.
//   * notification — a new suspect is gossiped job-wide as a kFailNotice
//     flood, idempotent per (observer, failed rank). Receipt poisons the local
//     endpoint (kErrProcFailed) so ranks wedged inside a collective whose peer
//     died unwind into their retry wrapper instead of hanging; the recovery
//     wrappers re-arm the endpoint with Endpoint::clear_poison.
//   * agreement   — MPIX_Comm_agree over a communicator's surviving members:
//     the lowest-ranked survivor coordinates, participants contribute
//     (flags, failed-view), the coordinator decides exactly once (AND of
//     flags, OR of views) and answers every contribution — including late
//     ones after it decided — with the frozen result. The protocol is an
//     *engine-level* state machine fed by kAgree frames in the transport, not
//     posted receives: it keeps serving after the rank's coroutine moved on,
//     restarts toward a new coordinator when the current one is declared
//     failed, and self-excludes a rank that finds itself in the failed view.
//   * revocation  — comm_revoke floods kRevoke(fingerprint); receipt is
//     idempotent per (rank, fingerprint) and poisons only a rank with pending
//     requests (kErrRevoked), so idle ranks are untouched.
//
// Determinism: all floods iterate ranks in ascending order, coordinator
// election is "lowest surviving rank", and the decision folds are order-
// insensitive (AND / OR) — the same seed yields the same agreed failure set,
// membership, and trace on every run.
//
// Known limitation (documented in DESIGN.md §13): if a coordinator dies
// *after* delivering its result to a strict subset of survivors, the new
// coordinator may re-decide with a larger failed view than the subset saw.
// Closing that window needs ERA's full two-phase commit; the recovery chaos
// matrix (single early death, detection long before any agreement starts)
// cannot produce it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/mpi/reliable.hpp"
#include "src/sim/task.hpp"
#include "src/support/units.hpp"

namespace adapt::runtime {

class SimEngine;

struct RecoveryOptions {
  /// Ring-heartbeat period while any self-healing wrapper holds interest.
  TimeNs heartbeat_period = microseconds(500);
  /// Collective issues a self-healing wrapper attempts before giving up.
  int max_attempts = 4;
  /// Virtual-time backoff before retry k is backoff_base * backoff^(k-2).
  TimeNs backoff_base = microseconds(200);
  double backoff = 2.0;
  /// Deadline for eventually-consistent collectives: whoever's contribution
  /// arrives within the bound is folded; the rest is dropped.
  TimeNs staleness_bound = milliseconds(30);
};

/// comm_agree outcome (see mpi::comm_agree for the user-facing wrapper).
struct AgreeOutcome {
  std::uint64_t flags = 0;   ///< bitwise AND over live participants
  std::uint64_t failed = 0;  ///< agreed failure set (global-rank bitmask)
  bool excluded = false;     ///< this rank itself was declared failed
};

/// Per-rank recovery facade, reached through Context::recovery() (null when
/// the engine runs without recovery — callers degrade to PR 2 semantics).
class Recovery {
 public:
  virtual ~Recovery() = default;

  virtual const RecoveryOptions& options() const = 0;

  /// This rank's current failed view (global-rank bitmask). Monotonic.
  virtual std::uint64_t failed_mask() const = 0;

  /// Declares `peer` failed from local evidence; gossips job-wide.
  virtual void report_failure(Rank peer) = 0;

  /// Re-arms this rank's endpoint after a recovery round. Terminal poisons
  /// (kErrWatchdog) stay — only failure/revocation poisons are resettable.
  virtual void clear_poison() = 0;

  /// Heartbeat interest, acquired by self-healing wrappers for the duration
  /// of the guarded operation (RAII: see coll::selfheal). While held, this
  /// rank pings its nearest live ring successor every heartbeat_period.
  virtual void acquire_heartbeats() = 0;
  virtual void release_heartbeats() = 0;

  /// Poison shield: while held, failure notices do NOT poison this rank's
  /// endpoint. Eventually-consistent collectives hold it — their staleness
  /// deadline bounds them, so they want surviving peers' traffic to keep
  /// flowing instead of being unblocked-by-poison like the exact wrappers.
  virtual void acquire_poison_shield() = 0;
  virtual void release_poison_shield() = 0;

  /// Floods a communicator revocation (idempotent per fingerprint).
  virtual void revoke(std::uint64_t fingerprint) = 0;
  virtual bool revoked(std::uint64_t fingerprint) const = 0;

  /// Fault-tolerant agreement over `members` (global-rank bitmask): resolves
  /// when the coordinator's decision arrives, however many participants die
  /// on the way. Every member must call agree() on the same communicator in
  /// the same order (the usual collective-ordering contract).
  virtual sim::Task<AgreeOutcome> agree(std::uint64_t fingerprint,
                                        std::uint64_t members,
                                        std::uint64_t flags) = 0;
};

/// Engine-level service behind the per-rank facades. Owned by SimEngine when
/// SimEngineOptions::recovery is set; the transport feeds it frames, the
/// reliable channels feed it give-ups.
class RecoveryService {
 public:
  RecoveryService(SimEngine& engine, RecoveryOptions options);
  ~RecoveryService();

  const RecoveryOptions& options() const { return options_; }
  Recovery& rank_facade(Rank r);

  // -- transport upcalls (SimTransport::on_frame / channel give-up hook) ----
  void on_give_up(Rank self, Rank peer);
  void on_notice(Rank self, Rank about);
  void on_revoke(Rank self, std::uint64_t fingerprint);
  void on_agree(Rank self, Rank from, const mpi::RecoveryInfo& info);

  // -- per-rank operations (called through the facade) ----------------------
  std::uint64_t failed_mask(Rank self) const { return ranks_[self].failed; }
  void clear_poison(Rank self);
  void acquire(Rank self);
  void release(Rank self);
  void acquire_shield(Rank self) { ++ranks_[self].shield; }
  void release_shield(Rank self) { --ranks_[self].shield; }
  void revoke(Rank self, std::uint64_t fingerprint);
  bool revoked(Rank self, std::uint64_t fingerprint) const {
    return ranks_[self].revoked.count(fingerprint) != 0;
  }
  sim::Task<AgreeOutcome> agree(Rank self, std::uint64_t fingerprint,
                                std::uint64_t members, std::uint64_t flags);

 private:
  class Facade;

  /// One agreement instance on one rank, keyed (fingerprint, per-comm seq).
  /// The state outlives the rank's agree() call so a decided coordinator —
  /// or a done participant that holds the result — keeps answering late
  /// contributions with the frozen decision.
  struct AgreeState {
    std::uint64_t members = 0;  ///< participant bitmask (comm membership)
    std::uint64_t my_flags = 0;
    bool started = false;    ///< local agree() entered
    bool decided = false;    ///< this rank froze the decision as coordinator
    bool done = false;       ///< local outcome delivered
    bool has_result = false; ///< a result frame arrived (possibly pre-start)
    std::uint64_t flags_acc = ~0ull;  ///< AND over received contributions
    std::uint64_t view_acc = 0;       ///< OR over received failed views
    std::uint64_t contributed = 0;    ///< ranks whose contribution arrived
    std::uint64_t result_flags = 0;
    std::uint64_t result_failed = 0;
    Rank sent_contrib_to = -1;  ///< dedup: last coordinator we contributed to
    std::coroutine_handle<> waiter;
    AgreeOutcome outcome;
  };

  struct RankState {
    std::uint64_t failed = 0;  ///< this rank's failed view (monotonic)
    std::set<std::uint64_t> revoked;
    int interest = 0;          ///< heartbeat interest count
    int shield = 0;            ///< poison-shield count (EC collectives)
    std::uint64_t hb_gen = 0;  ///< invalidates stale heartbeat timers
    std::map<std::uint64_t, std::uint32_t> next_agree_seq;
    std::map<std::pair<std::uint64_t, std::uint32_t>, AgreeState> agreements;
  };

  void send_agree(Rank self, Rank to, std::uint64_t fingerprint,
                  std::uint32_t seq, std::uint8_t phase, std::uint64_t flags,
                  std::uint64_t view);
  void step_agreement(Rank self, std::uint64_t fingerprint, std::uint32_t seq);
  void complete(Rank self, AgreeState& st, AgreeOutcome outcome);
  void schedule_heartbeat(Rank self, std::uint64_t gen);
  void proto_instant(Rank self, const char* what, std::int64_t arg);
  /// Metrics hook (no-op without a recorder): recovery.* counters.
  void count(const char* name, std::int64_t by = 1);
  /// Detection-latency accounting on the job-wide first notice of `about`.
  void note_detection(Rank about);

  SimEngine& engine_;
  RecoveryOptions options_;
  std::vector<RankState> ranks_;
  std::vector<std::unique_ptr<Recovery>> facades_;
  std::uint64_t first_noticed_ = 0;  ///< ranks some observer already reported
};

}  // namespace adapt::runtime
