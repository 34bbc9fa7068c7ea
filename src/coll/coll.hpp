// Public collective-operation API.
//
// Three implementation styles reproduce the paper's comparison axis:
//   kBlocking     — Algorithm 1: blocking P2P, fully ordered (MPICH-style);
//   kNonblocking  — Algorithm 2: Isend/Irecv + Waitall per pipeline step
//                   (Open MPI "tuned"-style);
//   kAdapt        — Algorithm 3: event-driven callbacks, no Waitall; N
//                   outstanding sends per child, M posted receives (Fig. 4).
//
// All styles are tree-agnostic: pass any Tree (including the topology-aware
// one). All ranks of the communicator must call the collective with
// consistent arguments, like MPI.
#pragma once

#include <coroutine>
#include <functional>
#include <utility>

#include "src/coll/tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/mpi/op.hpp"
#include "src/mpi/payload.hpp"
#include "src/runtime/context.hpp"
#include "src/sim/task.hpp"

namespace adapt::coll {

namespace detail {
class AdaptPipeline;
}  // namespace detail

enum class Style { kBlocking, kNonblocking, kAdapt };

const char* style_name(Style style);

struct CollOpts {
  Bytes segment_size = kib(128);  ///< pipeline granularity
  int outstanding_sends = 2;      ///< N: concurrent sends per child (ADAPT)
  int outstanding_recvs = 4;      ///< M: posted receives per parent (ADAPT);
                                  ///< keep M > N to avoid unexpected messages
  double gamma_scale = 1.0;       ///< reduction cost multiplier (vectorised
                                  ///< baselines use < 1)
  bool gpu_reduce = false;        ///< offload accumulation to the GPU (§4.2)
  mpi::SendOpts send;             ///< memory spaces for the data movement

  /// Per-edge memory spaces (global src rank, global dst rank); overrides
  /// `send` when set. The §4.1 GPU protocol uses this: inter-node edges move
  /// host-cache to host-cache, inter-socket host-cache to device, and
  /// intra-socket device to device over peer DMA.
  std::function<mpi::SendOpts(Rank src, Rank dst)> edge_spaces;

  /// §4.1 explicit CPU buffer: ranks whose parent edge delivers into HOST
  /// memory flush each segment to their GPU with an async stream copy, and
  /// device-sourced child edges wait for that flush. Requires a GPU rank.
  bool gpu_host_cache = false;

  mpi::SendOpts spaces(Rank src, Rank dst) const {
    return edge_spaces ? edge_spaces(src, dst) : send;
  }
};

/// Splits a message into pipeline segments. A zero-byte message yields one
/// empty segment so every algorithm still performs its hand-shake pattern.
class Segmenter {
 public:
  Segmenter(Bytes total, Bytes segment_size);
  int count() const { return count_; }
  Bytes offset(int i) const;
  Bytes length(int i) const;

 private:
  Bytes total_;
  Bytes seg_;
  int count_;
};

/// Broadcast: the root's `buffer` contents reach every rank's `buffer`.
/// `root` and the Tree are in local (communicator) ranks.
sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                  mpi::MutView buffer, Rank root, const Tree& tree,
                  Style style, const CollOpts& opts = {});

/// Reduce: on entry every rank's `accum` holds its contribution; on exit the
/// root's `accum` holds the element-wise reduction over all ranks (other
/// ranks' buffers are clobbered). Intermediate accumulations cost
/// γ·bytes·gamma_scale of CPU time (or run on the GPU with gpu_reduce).
sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                   mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                   Rank root, const Tree& tree, Style style,
                   const CollOpts& opts = {});

/// An ADAPT collective in flight on this rank (MPI_Ibcast / MPI_Ireduce):
/// one round of the segment machine, driven by completion callbacks in the
/// progress context. Dropped without a wait, the round runs on, and its
/// machine frees itself when its last callback retires.
class [[nodiscard]] CollRequest {
 public:
  CollRequest(CollRequest&& other) noexcept
      : machine_(std::exchange(other.machine_, nullptr)) {}
  CollRequest& operator=(CollRequest&&) = delete;
  ~CollRequest();

  /// Resumes on the rank's main thread (ctx.defer(0, ...)) once the round
  /// has drained, or throws mpi::FaultError at its first failure.
  struct [[nodiscard]] Awaiter {
    runtime::Context* ctx;
    detail::AdaptPipeline* machine;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const;
  };
  Awaiter wait(runtime::Context& ctx) { return Awaiter{&ctx, machine_}; }

 private:
  friend class detail::AdaptPipeline;
  explicit CollRequest(detail::AdaptPipeline* machine) : machine_(machine) {}

  detail::AdaptPipeline* machine_;
};

/// Nonblocking Style::kAdapt bcast/reduce: start the round and return at
/// once; the blocking call is this plus a wait. The buffer must stay alive
/// until the round is over.
CollRequest ibcast(runtime::Context& ctx, const mpi::Comm& comm,
                   mpi::MutView buffer, Rank root, const Tree& tree,
                   const CollOpts& opts = {});
CollRequest ireduce(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                    Rank root, const Tree& tree, const CollOpts& opts = {});

/// Dissemination barrier over the communicator.
sim::Task<> barrier(runtime::Context& ctx, const mpi::Comm& comm);

// -- explicit-tag variants ----------------------------------------------
// The convenience overloads above draw tags from ctx.alloc_tags(), which
// requires EVERY rank of the context to execute the same collective sequence.
// Orchestrators that run sub-collectives on subsets (the hierarchical
// multi-communicator baseline, §3.1) must allocate tags on all ranks and pass
// them explicitly here.
sim::Task<> bcast_tagged(runtime::Context& ctx, const mpi::Comm& comm,
                         mpi::MutView buffer, Rank root, const Tree& tree,
                         Style style, const CollOpts& opts, Tag base_tag);
sim::Task<> reduce_tagged(runtime::Context& ctx, const mpi::Comm& comm,
                          mpi::MutView accum, mpi::ReduceOp op,
                          mpi::Datatype dtype, Rank root, const Tree& tree,
                          Style style, const CollOpts& opts, Tag base_tag);

}  // namespace adapt::coll
