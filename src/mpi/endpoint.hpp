// Per-rank communication endpoint: isend/irecv, matching, completion.
//
// The Endpoint is execution-engine agnostic. It talks to the world through
// two small interfaces:
//   * Transport — moves envelopes between ranks and decides when the send
//     completes (the engine models/performs the actual data movement);
//   * RankExecutor — runs closures on this rank's CPU, charging CPU time so
//     that noise and rank-side overheads defer exactly the work that needs
//     the CPU (matching, callbacks), never in-flight transfers.
//
// A receive may fold instead of copy: irecv with a ReduceOp lands each
// message as buffer = buffer OP message (ADAPT's reduce receives), on every
// delivery path and exactly once.
//
// All Endpoint methods must be invoked from the owning rank's execution
// context (simulator event loop / the rank's own thread).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/mpi/datatype.hpp"
#include "src/mpi/errors.hpp"
#include "src/mpi/match.hpp"
#include "src/mpi/op.hpp"
#include "src/mpi/payload.hpp"
#include "src/mpi/request.hpp"
#include "src/support/slot_pool.hpp"
#include "src/support/units.hpp"

namespace adapt::obs {
class Recorder;  // src/obs/trace.hpp; hooks fire only when installed
}

namespace adapt::mpi {

/// Engine service: CPU scheduling for one rank, on two execution contexts.
///
/// The MAIN context is the application thread: collective control flow,
/// blocking-call returns, compute. System noise preempts it. The PROGRESS
/// context is the communication engine (async progress thread + NIC offload,
/// where Open MPI completes requests and fires ADAPT's callbacks): it keeps
/// running while the main thread is preempted. This split is the paper's
/// §2.2.1 architecture and the mechanism behind Fig. 7 — event-driven
/// collectives live almost entirely on the progress context, so noise finds
/// very little of their critical path to stretch.
class RankExecutor {
 public:
  virtual ~RankExecutor() = default;
  virtual TimeNs now() const = 0;
  /// Runs `fn` on the main thread once it is free (noise applies), after
  /// occupying it for `cpu_cost`.
  virtual void post(std::function<void()> fn, TimeNs cpu_cost) = 0;
  /// Runs `fn` on the progress context (noise does not apply).
  virtual void post_progress(std::function<void()> fn, TimeNs cpu_cost) = 0;
  /// Synchronously occupies the main thread (extends its busy window).
  virtual void charge(TimeNs cpu_cost) = 0;
};

/// Engine service: data movement.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Ships `env` to env.dst. `on_sent` fires on the SENDER's context when the
  /// send is complete; delivery to the destination endpoint is the
  /// transport's job. Spaces select GPU-aware paths. `on_failed` (optional)
  /// fires instead of `on_sent` if the transport gives up on the message —
  /// only fault-tolerant transports ever do.
  virtual void submit(Envelope env, MemSpace src_space, MemSpace dst_space,
                      std::function<void()> on_sent,
                      std::function<void(ErrCode)> on_failed = nullptr) = 0;
  /// Called by `src`'s endpoint just before it fails its pending sends: a
  /// failed send's buffer may be freed at once, so every envelope of `src`
  /// still in flight that borrows its sender's buffer must capture (or drop)
  /// the bytes before this returns. Transports that capture at submit need
  /// do nothing.
  virtual void end_borrows(Rank /*src*/) {}
};

/// Per-P2P options; defaults describe plain host-to-host messages of raw
/// bytes (kUint8 never fails the extent check).
struct SendOpts {
  MemSpace src_space = MemSpace::kHost;
  MemSpace dst_space = MemSpace::kHost;
  Datatype dtype = Datatype::kUint8;
};

/// Local cost parameters (from the MachineSpec).
struct EndpointCosts {
  TimeNs cpu_overhead = 0;        ///< post/progress cost per P2P
  TimeNs unexpected_overhead = 0; ///< extra latency to match an unexpected msg
  double memcpy_beta = 0.0;       ///< ns/B for the unexpected-buffer copy
};

class Endpoint {
 public:
  /// `nranks` bounds peer validation; pass 0 for "unknown" (validation of
  /// the upper bound is skipped — unit tests of the matching layer).
  Endpoint(Rank rank, int nranks, RankExecutor& exec, Transport& transport,
           EndpointCosts costs)
      : rank_(rank), nranks_(nranks), exec_(exec), transport_(transport),
        costs_(costs) {}

  Rank rank() const { return rank_; }
  int nranks() const { return nranks_; }

  /// Nonblocking send. The returned request completes when the transport
  /// reports the message sent; attach callbacks via set_completion_cb.
  /// `data` must stay valid and unchanged until then: the transport borrows
  /// it rather than copying it at post time.
  /// Invalid arguments (rank out of range, negative count, size not a
  /// multiple of the datatype extent) return an already-failed request
  /// carrying the matching ErrCode — never UB, never a hang.
  RequestPtr isend(Rank dst, Tag tag, ConstView data, SendOpts opts = {});

  /// Nonblocking receive (wildcards allowed). Argument validation as isend.
  /// With `fold`, a folding receive: the message lands as
  /// `buffer = buffer OP message` over `dtype` elements, on whichever path
  /// it takes (expected, unexpected, rendezvous, reliable), exactly once —
  /// so `buffer` must hold the left operand while the receive is posted.
  RequestPtr irecv(Rank src, Tag tag, MutView buffer,
                   Datatype dtype = Datatype::kUint8,
                   std::optional<ReduceOp> fold = std::nullopt);

  /// Transport upcall: an envelope (eager data or rendezvous RTS) reached
  /// this rank. Invoked at arrival time; pre-posted matching is modelled as
  /// NIC-offloaded, so this does not wait for the rank's CPU — CPU-bound
  /// follow-ups (callbacks, unexpected copies) are deferred internally.
  void deliver(Envelope env);

  /// Writes `env`'s payload, if it still carries a captured one, into the
  /// matched receive (a copy, or a fold for a folding receive) and
  /// completes it.
  /// Must run on this rank's execution context (transports call it through
  /// the executor after a rendezvous data transfer).
  void finalize_recv(const PostedRecv& recv, const Envelope& env);

  /// Fails every pending request and every future isend/irecv with `code`.
  /// Called when this rank's current operation is declared failed (local
  /// retry exhaustion, a peer's abort notice, or a harness watchdog). In-
  /// flight deliveries to a poisoned endpoint are dropped.
  void poison(ErrCode code);
  bool poisoned() const { return poisoned_ != ErrCode::kOk; }
  ErrCode poison_code() const { return poisoned_; }

  /// Re-arms a poisoned endpoint (recovery layer only): every pending request
  /// at poison time already failed — that is final — but *future* isend/irecv
  /// succeed again. A self-healing retry wrapper clears the poison before
  /// re-issuing its collective on the survivor communicator; without recovery
  /// poison stays terminal, exactly the PR 2 contract.
  void clear_poison() { poisoned_ = ErrCode::kOk; }

  /// True while any issued request is incomplete (failure-detector probe).
  bool has_pending() const { return requests_->has_pending(); }

  const Matcher& matcher() const { return matcher_; }
  std::uint64_t sends_started() const { return sends_; }
  std::uint64_t recvs_completed() const { return recvs_done_; }
  /// Arrivals that met no posted receive and carried a payload: each one's
  /// bytes wait in a staging copy until a receive matches (MPI's unexpected
  /// copy, the one ADAPT's M > N rule exists to avoid).
  std::uint64_t unexpected_payloads() const { return unexpected_payloads_; }

  /// Installs (or clears) the trace/metrics recorder: per-rank send/recv
  /// counters, match-queue depth histograms, unexpected-hit instants.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }
  obs::Recorder* recorder() const { return rec_; }

  /// Installs the engine's buffer pool: captured payloads (unexpected
  /// arrivals, and the transport paths that cannot borrow the sender's
  /// buffer) recycle through it instead of allocating. Null (the default)
  /// falls back to heap blocks.
  void set_pool(support::BufferPool* pool) { pool_ = pool; }
  support::BufferPool* pool() const { return pool_; }

 private:
  /// Immediately-failed request for invalid arguments or a poisoned endpoint.
  RequestPtr failed_request(Request::Kind kind, Rank peer, Tag tag,
                            ErrCode code);

  /// A pooled request owned by this rank (a free-list hit in steady state).
  RequestPtr make_request(Request::Kind kind, Rank peer, Tag tag, Bytes size) {
    return requests_->acquire(kind, peer, tag, size, &exec_);
  }

  // Completion legs of parked sends and finalisations (see the slot pools
  // below): the callbacks handed to the transport / executor capture only
  // {this, slot}.
  void finish_send(std::uint32_t slot, ErrCode code);
  void run_finalize_slot(std::uint32_t slot);

  Rank rank_;
  int nranks_;
  RankExecutor& exec_;
  Transport& transport_;
  EndpointCosts costs_;
  Matcher matcher_;
  obs::Recorder* rec_ = nullptr;
  support::BufferPool* pool_ = nullptr;
  ErrCode poisoned_ = ErrCode::kOk;
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_done_ = 0;
  std::uint64_t unexpected_payloads_ = 0;

  /// This rank's requests, incomplete ones listed in issue order. Orphaned,
  /// not deleted, at destruction: handles may outlive the endpoint.
  std::unique_ptr<RequestPool, RequestPool::Owner> requests_{new RequestPool};
  /// In-flight sends: the slot owns the request until the transport reports
  /// the outcome (exactly one of on_sent/on_failed fires per submit).
  support::SlotPool<RequestPtr> send_slots_;
  /// Matched receives queued for CPU-side finalisation.
  struct PendingFinalize {
    PostedRecv recv;
    Envelope env;
  };
  support::SlotPool<PendingFinalize> finalize_slots_;
};

}  // namespace adapt::mpi
