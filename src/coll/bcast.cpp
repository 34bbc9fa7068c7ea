// Broadcast in the three implementation styles the paper analyses (§2).
// Algorithm 3 (Fig. 4), ADAPT's event-driven style, is one round of the
// segment machine in pipeline.cpp: ibcast starts it as a request, and the
// blocking call waits on that request.
#include "src/coll/pipeline.hpp"
#include "src/support/error.hpp"

namespace adapt::coll {

const char* style_name(Style style) {
  switch (style) {
    case Style::kBlocking: return "blocking";
    case Style::kNonblocking: return "nonblocking";
    case Style::kAdapt: return "adapt";
  }
  return "?";
}

Segmenter::Segmenter(Bytes total, Bytes segment_size)
    : total_(total), seg_(segment_size) {
  ADAPT_CHECK(total >= 0);
  ADAPT_CHECK(segment_size > 0);
  count_ = total == 0
               ? 1
               : static_cast<int>((total + segment_size - 1) / segment_size);
}

Bytes Segmenter::offset(int i) const {
  ADAPT_CHECK(i >= 0 && i < count_);
  return static_cast<Bytes>(i) * seg_;
}

Bytes Segmenter::length(int i) const {
  ADAPT_CHECK(i >= 0 && i < count_);
  return std::min(seg_, total_ - offset(i));
}

namespace {

using detail::Edges;

// ---------------------------------------------------------------------------
// Algorithm 1 (Fig. 1): blocking P2P. Every operation is ordered behind the
// previous one — data AND synchronisation dependencies everywhere.
// ---------------------------------------------------------------------------
sim::Task<> bcast_blocking(runtime::Context& ctx, const Edges& e,
                           mpi::MutView buffer, const Segmenter& segs,
                           const CollOpts& opts, Tag base_tag) {
  for (int s = 0; s < segs.count(); ++s) {
    mpi::MutView piece = buffer.slice(segs.offset(s), segs.length(s));
    if (!e.is_root) {
      co_await ctx.recv(e.parent_global, base_tag + s, piece);
    }
    for (Rank child : e.kids_global) {
      co_await ctx.send(child, base_tag + s, piece.as_const(),
                        opts.spaces(ctx.rank(), child));
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm 2 (Fig. 3): nonblocking P2P with Waitall. Children of one segment
// progress concurrently, but the Waitall forces them to finish together, and
// two pre-posted receives cover out-of-order arrival.
// ---------------------------------------------------------------------------
sim::Task<> bcast_nonblocking(runtime::Context& ctx, const Edges& e,
                              mpi::MutView buffer, const Segmenter& segs,
                              const CollOpts& opts, Tag base_tag) {
  const int S = segs.count();
  auto piece = [&](int s) {
    return buffer.slice(segs.offset(s), segs.length(s));
  };
  auto send_segment = [&](int s) {
    std::vector<mpi::RequestPtr> sends;
    sends.reserve(e.kids_global.size());
    for (Rank child : e.kids_global) {
      sends.push_back(ctx.isend(child, base_tag + s, piece(s).as_const(),
                                opts.spaces(ctx.rank(), child)));
    }
    return sends;
  };

  if (e.is_root) {
    for (int s = 0; s < S; ++s) {
      co_await mpi::wait_all(send_segment(s));
    }
    co_return;
  }

  std::vector<mpi::RequestPtr> recvs(static_cast<std::size_t>(S));
  for (int s = 0; s < std::min(S, 2); ++s) {
    recvs[static_cast<std::size_t>(s)] =
        ctx.irecv(e.parent_global, base_tag + s, piece(s));
  }
  for (int s = 0; s < S; ++s) {
    co_await mpi::wait(recvs[static_cast<std::size_t>(s)]);
    if (s + 2 < S) {
      recvs[static_cast<std::size_t>(s + 2)] =
          ctx.irecv(e.parent_global, base_tag + s + 2, piece(s + 2));
    }
    if (!e.kids_global.empty()) {
      co_await mpi::wait_all(send_segment(s));
    }
  }
}

}  // namespace

sim::Task<> bcast_tagged(runtime::Context& ctx, const mpi::Comm& comm,
                         mpi::MutView buffer, Rank root, const Tree& tree,
                         Style style, const CollOpts& opts, Tag base_tag) {
  ADAPT_CHECK(tree.root == root)
      << "tree rooted at " << tree.root << ", bcast root " << root;
  Edges e = detail::resolve(ctx, comm, tree);
  const Segmenter segs(buffer.size, opts.segment_size);
  detail::CollSpan span(ctx, "bcast", style_name(style), buffer.size);
  switch (style) {
    case Style::kBlocking:
      co_await bcast_blocking(ctx, e, buffer, segs, opts, base_tag);
      co_return;
    case Style::kNonblocking:
      co_await bcast_nonblocking(ctx, e, buffer, segs, opts, base_tag);
      co_return;
    case Style::kAdapt: {
      CollRequest req = detail::AdaptPipeline::start_request(
          ctx, std::move(e), detail::AdaptPipeline::Stages::kBcast, buffer,
          {}, {}, opts, base_tag);
      co_await req.wait(ctx);
      co_return;
    }
  }
  ADAPT_UNREACHABLE("bad style");
}

CollRequest ibcast(runtime::Context& ctx, const mpi::Comm& comm,
                   mpi::MutView buffer, Rank root, const Tree& tree,
                   const CollOpts& opts) {
  const Tag base_tag =
      ctx.alloc_tags(Segmenter(buffer.size, opts.segment_size).count());
  ADAPT_CHECK(tree.root == root)
      << "tree rooted at " << tree.root << ", ibcast root " << root;
  return detail::AdaptPipeline::start_request(
      ctx, detail::resolve(ctx, comm, tree),
      detail::AdaptPipeline::Stages::kBcast, buffer, {}, {}, opts, base_tag);
}

sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                  mpi::MutView buffer, Rank root, const Tree& tree,
                  Style style, const CollOpts& opts) {
  const Segmenter segs(buffer.size, opts.segment_size);
  const Tag base_tag = ctx.alloc_tags(segs.count());
  co_await bcast_tagged(ctx, comm, buffer, root, tree, style, opts, base_tag);
}

}  // namespace adapt::coll
