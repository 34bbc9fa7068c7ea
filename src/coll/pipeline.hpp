// ADAPT's event-driven segment machine (Algorithm 3 / Fig. 4) for one rank.
//
// Broadcast half: M receives stay posted on the parent edge, and each child
// edge keeps up to N sends in flight, advancing through the segments in
// order as they arrive (child independence, segment independence). Reduce
// half: M folding receives stay posted per child edge, straight into the
// accumulator's pieces: each child segment is folded in (mpi::apply) where
// it lands, so no byte is copied first. Each arrival then runs its fold
// event (the modelled γ·len, its re-post, the counters), and a segment goes
// up the tree (N in flight) the moment every child's fold event has run.
// Only a gated round needs scratch: a receive posted before its segment's
// release cannot fold into a piece that may still change, so it lands in a
// window lent by the engine pool, and its fold event parks until the
// release, applies the window and returns it. No Waitall anywhere: every
// step is a completion callback, and every callback captures {this, one
// packed word}, which std::function keeps in inline storage.
//
// One machine, two callers:
//   * A request from ibcast/ireduce (coll::CollRequest; the blocking
//     Style::kAdapt calls wait on one) owns a machine built for one round.
//     Its wait wakes once the round has drained, or at its first failure;
//     a machine whose request is gone before it drained frees itself when
//     its last callback retires. A failed machine's receives still point
//     into the caller's buffer then: the failure's poison has failed every
//     one of them, and a failed receive places nothing.
//   * A persistent handle (persistent.cpp) builds one machine at init and
//     replays rounds on it. A round is over only once every callback it
//     posted has retired, success or failure; the handle is told through
//     `on_drained`.
// Both callers resume on the rank's main thread via ctx.defer(0, ...).
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/coll/detail.hpp"
#include "src/mpi/errors.hpp"

namespace adapt::coll::detail {

class AdaptPipeline {
 public:
  /// Which halves a round runs. kReduceBcast chains them over one tree
  /// (allreduce): each segment the root finishes reducing becomes its
  /// broadcast payload, and the bcast half uses the round's second block of
  /// S tags.
  enum class Stages { kBcast, kReduce, kReduceBcast };

  /// `gated`: each round's local data (bcast root payload, reduce
  /// contributions) becomes ready piecewise through release() instead of at
  /// start(). `on_drained` (persistent callers) is invoked when a retiring
  /// callback leaves the round drained; without it the machine serves one
  /// CollRequest round.
  AdaptPipeline(runtime::Context& ctx, Edges edges, Stages stages,
                mpi::MutView buffer, mpi::ReduceOp op, mpi::Datatype dtype,
                const CollOpts& opts, bool gated,
                std::function<void()> on_drained = {});
  AdaptPipeline(const AdaptPipeline&) = delete;
  AdaptPipeline& operator=(const AdaptPipeline&) = delete;

  /// Builds a one-shot machine, starts its round on tags
  /// [base_tag, base_tag + tags()) and hands it to the returned request.
  static CollRequest start_request(runtime::Context& ctx, Edges edges,
                                   Stages stages, mpi::MutView buffer,
                                   mpi::ReduceOp op, mpi::Datatype dtype,
                                   const CollOpts& opts, Tag base_tag);

  int segments() const { return segs_.count(); }
  /// Most windows one round can borrow at once: none without gating (every
  /// receive folds where it lands), else min(S, M) per child edge, each the
  /// size of the largest segment.
  std::size_t window_slots() const { return windows_.size(); }
  /// Tags one round uses.
  int tags() const;

  /// Starts a round on tags [base_tag, base_tag + tags()).
  void start(Tag base_tag);
  /// Gated machines: the local data of segments [first, end) is ready.
  void release(int first, int end);
  /// Whether segment `s`'s incoming data has fully arrived this round: the
  /// broadcast payload, or every child contribution folded in.
  bool arrived(int s) const;
  /// Every posted callback retired, and the round succeeded or failed.
  bool drained() const {
    return outstanding_ == 0 &&
           (error_ != mpi::ErrCode::kOk || remaining_ == 0);
  }
  mpi::ErrCode error() const { return error_; }

 private:
  friend class coll::CollRequest;
  friend struct coll::CollRequest::Awaiter;

  std::size_t kids() const { return edges_.kids_global.size(); }
  /// A one-shot caller wakes at the first failure, else once drained.
  bool caller_done() const {
    return error_ != mpi::ErrCode::kOk || drained();
  }
  mpi::MutView piece(int s);
  Tag bcast_tag(int s) const;
  bool has_bcast() const { return stages_ != Stages::kReduce; }
  bool has_reduce() const { return stages_ != Stages::kBcast; }

  void fail(mpi::ErrCode code);
  void cb_exit();  ///< retire one posted callback
  void detach();   ///< the one-shot request is gone

  // Broadcast half.
  void start_bcast();
  void post_bcast_recv();
  void on_bcast_recv(int s);
  void stage(int s);
  bool sendable(std::size_t c, int s) const;
  void pump_children();
  void pump_child(std::size_t c);

  // Reduce half.
  void start_reduce();
  void post_reduce_recv(std::size_t slot);
  void schedule_fold(std::uint64_t packed);
  void run_fold(std::uint64_t packed);
  void reduce_segment_ready(int s);
  void pump_parent();

  // -- fixed for the machine's life ----------------------------------------
  runtime::Context* ctx_;
  Edges edges_;
  Stages stages_;
  mpi::MutView buffer_;  ///< bcast buffer / reduce accumulator
  mpi::ReduceOp op_;
  mpi::Datatype dtype_;
  CollOpts opts_;
  Segmenter segs_;
  bool gated_;
  std::function<void()> on_drained_;
  std::size_t slots_per_kid_ = 0;  ///< reduce: receive slots, min(S, M)
  // §4.1 explicit CPU buffer: stage each segment into the other memory
  // space; child edges sourcing that space gate on the copy.
  bool flushes_ = false;
  MemSpace stage_dst_ = MemSpace::kDevice;
  std::vector<char> child_needs_alt_;  // per child

  // -- round state (reset by start) ----------------------------------------
  Tag base_tag_ = 0;
  mpi::ErrCode error_ = mpi::ErrCode::kOk;  ///< first failure wins
  int remaining_ = 0;    ///< success events still expected this round
  int outstanding_ = 0;  ///< posted callbacks not yet retired
  std::vector<char> local_ready_;  // gated: per segment, local data ready
  // bcast
  std::vector<char> received_;   // per segment: payload present
  std::vector<char> alt_ready_;  // per segment: staged into the other space
  std::vector<int> next_send_;   // per child: next segment to send
  std::vector<int> inflight_;    // per child: sends in flight (<= N)
  int next_recv_post_ = 0;
  // reduce
  /// Gated: per receive slot, the unzeroed window a receive posted before
  /// its segment's release landed in. Lent from the pool at the post and
  /// returned by its fold, or at the drain of a failed round, once no
  /// callback can touch it; empty otherwise.
  std::vector<mpi::Payload> windows_;
  std::vector<int> contributed_;  // per segment: child folds done
  std::vector<int> next_recv_;    // per child: next segment to post
  std::vector<std::uint64_t> parked_;  // gated: folds awaiting local data
  std::vector<int> ready_q_;  // segments ready to send up, in order
  int ready_head_ = 0;
  int ready_tail_ = 0;
  int inflight_up_ = 0;

  // -- one-shot request ---------------------------------------------------
  std::coroutine_handle<> waiter_;
  bool detached_ = false;
};

}  // namespace adapt::coll::detail
