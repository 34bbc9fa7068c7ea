// Reduce in the three implementation styles (§2.2.3 applied to all-to-one),
// with segment-wise accumulation on the CPU (γ per byte, occupying the rank)
// or offloaded to the rank's GPU (§4.2, overlapping with communication).
// ADAPT's event-driven style is one round of the segment machine in
// pipeline.cpp: ireduce starts it as a request, and the blocking call waits
// on that request.
#include <memory>

#include "src/coll/pipeline.hpp"
#include "src/gpu/device.hpp"
#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

using detail::Edges;

/// Scratch space for one in-flight child contribution; real iff the
/// accumulator is real, pooled when the engine has a pool. Unzeroed: each
/// accumulate reads only the bytes its receive just wrote.
mpi::Payload make_scratch(runtime::Context& ctx, const mpi::MutView& accum,
                          Bytes len) {
  return mpi::Payload::recv_scratch(ctx.pool(), len, accum.synthetic());
}

/// Suspending accumulate used by the blocking/nonblocking styles: charges the
/// rank's CPU (or the GPU engine) and performs the arithmetic.
sim::Task<> accumulate(runtime::Context& ctx, const CollOpts& opts,
                       mpi::MutView dst, mpi::ConstView src, mpi::ReduceOp op,
                       mpi::Datatype dtype, Bytes len) {
  if (opts.gpu_reduce) {
    gpu::Device* dev = ctx.gpu();
    ADAPT_CHECK(dev != nullptr) << "gpu_reduce on a rank without a GPU";
    auto trigger = std::make_shared<sim::Trigger>();
    dev->stream(0).launch(dev->reduce_cost(len), [trigger] { trigger->fire(); });
    detail::apply_if_real(dst, src, op, dtype, len);
    co_await *trigger;
  } else {
    detail::apply_if_real(dst, src, op, dtype, len);
    co_await ctx.compute(detail::reduce_cost(ctx, opts, len));
  }
}

// ---------------------------------------------------------------------------
// Blocking: children drained strictly in order, segment after segment.
// ---------------------------------------------------------------------------
sim::Task<> reduce_blocking(runtime::Context& ctx, const Edges& e,
                            mpi::MutView accum, mpi::ReduceOp op,
                            mpi::Datatype dtype, const Segmenter& segs,
                            const CollOpts& opts, Tag base_tag) {
  mpi::Payload scratch = make_scratch(ctx, accum, opts.segment_size);
  for (int s = 0; s < segs.count(); ++s) {
    const Bytes len = segs.length(s);
    mpi::MutView piece = accum.slice(segs.offset(s), len);
    for (Rank child : e.kids_global) {
      co_await ctx.recv(child, base_tag + s, scratch.view().slice(0, len));
      co_await accumulate(ctx, opts, piece, scratch.cview().slice(0, len), op,
                          dtype, len);
    }
    if (!e.is_root) {
      co_await ctx.send(e.parent_global, base_tag + s, piece.as_const(),
                        opts.spaces(ctx.rank(), e.parent_global));
    }
  }
}

// ---------------------------------------------------------------------------
// Nonblocking: per segment, receives from all children progress concurrently
// but a Waitall gates the accumulate, and the send up is waited before the
// next segment completes — Algorithm 2's synchronisation structure.
// ---------------------------------------------------------------------------
sim::Task<> reduce_nonblocking(runtime::Context& ctx, const Edges& e,
                               mpi::MutView accum, mpi::ReduceOp op,
                               mpi::Datatype dtype, const Segmenter& segs,
                               const CollOpts& opts, Tag base_tag) {
  const int S = segs.count();
  const std::size_t nkids = e.kids_global.size();
  // Double-buffered per-child scratch: segment s lives in window s % 2.
  std::vector<mpi::Payload> scratch;
  scratch.reserve(nkids * 2);
  for (std::size_t i = 0; i < nkids * 2; ++i)
    scratch.push_back(make_scratch(ctx, accum, opts.segment_size));
  auto scratch_view = [&](std::size_t c, int s, Bytes len) {
    return scratch[c * 2 + static_cast<std::size_t>(s % 2)].view().slice(0,
                                                                         len);
  };

  std::vector<std::vector<mpi::RequestPtr>> recvs(
      static_cast<std::size_t>(S));
  auto post_recvs = [&](int s) {
    auto& rs = recvs[static_cast<std::size_t>(s)];
    rs.reserve(nkids);
    for (std::size_t c = 0; c < nkids; ++c) {
      rs.push_back(ctx.irecv(e.kids_global[c], base_tag + s,
                             scratch_view(c, s, segs.length(s))));
    }
  };

  for (int s = 0; s < std::min(S, 2); ++s) post_recvs(s);
  mpi::RequestPtr pending_send;
  for (int s = 0; s < S; ++s) {
    const Bytes len = segs.length(s);
    mpi::MutView piece = accum.slice(segs.offset(s), len);
    co_await mpi::wait_all(std::move(recvs[static_cast<std::size_t>(s)]));
    for (std::size_t c = 0; c < nkids; ++c) {
      co_await accumulate(ctx, opts, piece,
                          scratch_view(c, s, len).as_const(), op, dtype, len);
    }
    if (s + 2 < S) post_recvs(s + 2);
    if (!e.is_root) {
      if (pending_send) co_await mpi::wait(pending_send);
      pending_send = ctx.isend(e.parent_global, base_tag + s,
                               piece.as_const(),
                               opts.spaces(ctx.rank(), e.parent_global));
    }
  }
  if (pending_send) co_await mpi::wait(pending_send);
}

}  // namespace

sim::Task<> reduce_tagged(runtime::Context& ctx, const mpi::Comm& comm,
                          mpi::MutView accum, mpi::ReduceOp op,
                          mpi::Datatype dtype, Rank root, const Tree& tree,
                          Style style, const CollOpts& opts, Tag base_tag) {
  ADAPT_CHECK(tree.root == root)
      << "tree rooted at " << tree.root << ", reduce root " << root;
  Edges e = detail::resolve(ctx, comm, tree);
  const Segmenter segs(accum.size, opts.segment_size);
  detail::CollSpan span(ctx, "reduce", style_name(style), accum.size);
  switch (style) {
    case Style::kBlocking:
      co_await reduce_blocking(ctx, e, accum, op, dtype, segs, opts, base_tag);
      co_return;
    case Style::kNonblocking:
      co_await reduce_nonblocking(ctx, e, accum, op, dtype, segs, opts,
                                  base_tag);
      co_return;
    case Style::kAdapt: {
      CollRequest req = detail::AdaptPipeline::start_request(
          ctx, std::move(e), detail::AdaptPipeline::Stages::kReduce, accum,
          op, dtype, opts, base_tag);
      co_await req.wait(ctx);
      co_return;
    }
  }
  ADAPT_UNREACHABLE("bad style");
}

CollRequest ireduce(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                    Rank root, const Tree& tree, const CollOpts& opts) {
  const Tag base_tag =
      ctx.alloc_tags(Segmenter(accum.size, opts.segment_size).count());
  ADAPT_CHECK(tree.root == root)
      << "tree rooted at " << tree.root << ", ireduce root " << root;
  return detail::AdaptPipeline::start_request(
      ctx, detail::resolve(ctx, comm, tree),
      detail::AdaptPipeline::Stages::kReduce, accum, op, dtype, opts,
      base_tag);
}

sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                   mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                   Rank root, const Tree& tree, Style style,
                   const CollOpts& opts) {
  const Segmenter segs(accum.size, opts.segment_size);
  const Tag base_tag = ctx.alloc_tags(segs.count());
  co_await reduce_tagged(ctx, comm, accum, op, dtype, root, tree, style, opts,
                         base_tag);
}

}  // namespace adapt::coll
