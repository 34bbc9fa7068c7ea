#include "src/coll/moreops.hpp"

#include <cstring>

#include "src/coll/detail.hpp"
#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// Binomial-subtree size under label v in a tree over [0, n) rooted at 0:
/// the half-open label range [v, v + span(v)) with span = lowest set bit
/// (clamped by n). Label 0 spans everything.
int subtree_span(int v, int n) {
  if (v == 0) return n;
  const int low = v & -v;
  return std::min(low, n - v);
}

/// Copies between real views (no-op when either side is synthetic).
void copy_if_real(mpi::MutView dst, mpi::ConstView src, Bytes len) {
  if (len > 0 && !dst.synthetic() && !src.synthetic()) {
    std::memcpy(dst.data, src.data, static_cast<std::size_t>(len));
  }
}

}  // namespace

sim::Task<> scatter(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::ConstView sendbuf, mpi::MutView recvblock,
                    Bytes block, Rank root) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  ADAPT_CHECK(block >= 0);
  const Tag base_tag = ctx.alloc_tags(n);
  if (n == 1) {
    copy_if_real(recvblock, sendbuf.slice(0, block), block);
    co_return;
  }

  // Work in root-relative labels; label v's block is local rank (v+root)%n's.
  const int v = (me - root + n) % n;
  const int span = subtree_span(v, n);
  auto global_of_label = [&](int label) {
    return comm.global((label + root) % n);
  };

  // Staging buffer in label order covering [v, v+span).
  const bool synthetic = recvblock.synthetic() ||
                         (me == root && sendbuf.synthetic());
  mpi::Payload stage = mpi::Payload::scratch(ctx.pool(), span * block,
                                             synthetic);
  if (me == root) {
    ADAPT_CHECK(sendbuf.size >= block * n) << "scatter sendbuf too small";
    for (int l = 0; l < n; ++l) {
      copy_if_real(stage.view().slice(l * block, block),
                   sendbuf.slice(((l + root) % n) * block, block), block);
    }
  } else {
    // Receive my whole label range from my binomial parent.
    const int parent_label = v - (v & -v);
    co_await ctx.recv(global_of_label(parent_label), base_tag + v,
                      stage.view());
  }

  // Forward child ranges: children of label v are v + bit for powers of two
  // bit below v's low bit (all powers for the root), within [0, n).
  std::vector<mpi::RequestPtr> sends;
  for (int bit = 1; bit < span; bit *= 2) {
    const int child = v + bit;
    const int child_span = subtree_span(child, n);
    sends.push_back(ctx.isend(
        global_of_label(child), base_tag + child,
        stage.cview().slice((child - v) * block, child_span * block)));
  }
  copy_if_real(recvblock, stage.cview().slice(0, block), block);
  co_await mpi::wait_all(sends);
}

sim::Task<> gather(runtime::Context& ctx, const mpi::Comm& comm,
                   mpi::ConstView sendblock, mpi::MutView recvbuf, Bytes block,
                   Rank root) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  const Tag base_tag = ctx.alloc_tags(n);
  if (n == 1) {
    copy_if_real(recvbuf.slice(0, block), sendblock, block);
    co_return;
  }

  const int v = (me - root + n) % n;
  const int span = subtree_span(v, n);
  auto global_of_label = [&](int label) {
    return comm.global((label + root) % n);
  };

  const bool synthetic = sendblock.synthetic() ||
                         (me == root && recvbuf.synthetic());
  mpi::Payload stage = mpi::Payload::scratch(ctx.pool(), span * block,
                                             synthetic);
  copy_if_real(stage.view().slice(0, block), sendblock, block);

  // Collect child ranges (reverse of scatter).
  std::vector<mpi::RequestPtr> recvs;
  for (int bit = 1; bit < span; bit *= 2) {
    const int child = v + bit;
    if (child < n && (v == 0 || bit < (v & -v))) {
      const int child_span = subtree_span(child, n);
      recvs.push_back(ctx.irecv(
          global_of_label(child), base_tag + child,
          stage.view().slice((child - v) * block, child_span * block)));
    }
  }
  co_await mpi::wait_all(recvs);

  if (me == root) {
    ADAPT_CHECK(recvbuf.size >= block * n) << "gather recvbuf too small";
    for (int l = 0; l < n; ++l) {
      copy_if_real(recvbuf.slice(((l + root) % n) * block, block),
                   stage.cview().slice(l * block, block), block);
    }
  } else {
    const int parent_label = v - (v & -v);
    co_await ctx.send(global_of_label(parent_label), base_tag + v,
                      stage.cview());
  }
}

sim::Task<> allgather(runtime::Context& ctx, const mpi::Comm& comm,
                      mpi::MutView buf, Bytes block, AllgatherAlgo algo) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  ADAPT_CHECK(buf.size >= block * n) << "allgather buffer too small";
  if (n == 1) co_return;

  const bool pow2 = (n & (n - 1)) == 0;
  if (algo == AllgatherAlgo::kRecursiveDoubling && pow2) {
    const Tag base_tag = ctx.alloc_tags(32);
    int held_base = me;  // start of my held block range (power-of-two sized)
    int held = 1;
    int step = 0;
    for (int d = 1; d < n; d *= 2, ++step) {
      const Rank partner = me ^ d;
      held_base = (me / held) * held;  // normalise to my group
      auto send = ctx.isend(comm.global(partner), base_tag + step,
                            buf.slice(held_base * block, held * block)
                                .as_const());
      const int partner_base = (partner / held) * held;
      auto recv = ctx.irecv(comm.global(partner), base_tag + step,
                            buf.slice(partner_base * block, held * block));
      co_await mpi::wait(recv);
      co_await mpi::wait(send);
      held *= 2;
    }
    co_return;
  }

  // Ring: P-1 steps; at step t forward the block received at step t-1.
  const Tag base_tag = ctx.alloc_tags(n);
  const Rank right = comm.global((me + 1) % n);
  const Rank left = comm.global((me - 1 + n) % n);
  for (int t = 0; t < n - 1; ++t) {
    const int send_block = (me - t + n) % n;
    const int recv_block = (me - t - 1 + n) % n;
    auto send = ctx.isend(right, base_tag + t,
                          buf.slice(send_block * block, block).as_const());
    auto recv =
        ctx.irecv(left, base_tag + t, buf.slice(recv_block * block, block));
    co_await mpi::wait(recv);
    co_await mpi::wait(send);
  }
}

sim::Task<> bcast_scatter_allgather(runtime::Context& ctx,
                                    const mpi::Comm& comm, mpi::MutView buffer,
                                    Rank root, AllgatherAlgo algo) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  if (n == 1) co_return;

  // Virtual padded layout: n equal blocks; message lengths are clamped to the
  // real buffer, so trailing ranks may move fewer (or zero) bytes. The
  // collectives still run their full hand-shake pattern, as MPI ones do.
  const Bytes block = (buffer.size + n - 1) / n;
  if (block == 0) {
    // Zero-byte broadcast: fall back to a binomial tree notification.
    co_await bcast(ctx, comm, buffer, root, binomial_tree(n, root),
                   Style::kNonblocking, CollOpts{.segment_size = 1});
    co_return;
  }
  // Scatter phase over a padded staging area so ranges stay uniform, then
  // allgather over the same layout and unpack.
  const bool synthetic = buffer.synthetic();
  mpi::Payload padded =
      mpi::Payload::scratch(ctx.pool(), block * n, synthetic);
  if (me == root && !synthetic) {
    std::memcpy(padded.data(), buffer.data,
                static_cast<std::size_t>(buffer.size));
  }
  mpi::Payload myblock = mpi::Payload::scratch(ctx.pool(), block, synthetic);
  co_await scatter(ctx, comm, padded.cview(), myblock.view(), block, root);
  copy_if_real(padded.view().slice(me * block, block), myblock.cview(), block);
  co_await allgather(ctx, comm, padded.view(), block, algo);
  if (!synthetic && me != root) {
    std::memcpy(buffer.data, padded.data(),
                static_cast<std::size_t>(buffer.size));
  }
}

sim::Task<> reduce_rabenseifner(runtime::Context& ctx, const mpi::Comm& comm,
                                mpi::MutView accum, mpi::ReduceOp op,
                                mpi::Datatype dtype, Rank root,
                                const CollOpts& opts) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  if (n == 1) co_return;

  int p2 = 1;
  while (p2 * 2 <= n) p2 *= 2;
  const int surplus = n - p2;
  const Tag base_tag = ctx.alloc_tags(64 + n);
  const Bytes elem = size_of(dtype);
  const bool synthetic = accum.synthetic();
  mpi::Payload scratch =
      mpi::Payload::scratch(ctx.pool(), accum.size, synthetic);

  auto fold = [&](mpi::MutView dst, mpi::ConstView src,
                  Bytes len) -> sim::Task<> {
    detail::apply_if_real(dst, src, op, dtype, len);
    co_await ctx.compute(detail::reduce_cost(ctx, opts, len));
  };

  // Phase 0: fold the surplus ranks pairwise so p2 active ranks remain.
  // Pair (2i, 2i+1) for i < surplus; the receiver is the even rank unless the
  // root is the odd one (keeping the root active).
  bool active = true;
  int idx = -1;  // my index in the active [0, p2) space
  if (me < 2 * surplus) {
    const Rank even = me & ~1;
    const Rank odd = even + 1;
    const Rank receiver = (root == odd) ? odd : even;
    const Rank sender = receiver == even ? odd : even;
    if (me == sender) {
      co_await ctx.send(comm.global(receiver), base_tag, accum.as_const(),
                        opts.send);
      active = false;
    } else {
      co_await ctx.recv(comm.global(sender), base_tag, scratch.view());
      co_await fold(accum, scratch.cview(), accum.size);
      idx = me / 2;
    }
  } else {
    idx = me - surplus;
  }

  // Map active index -> local rank (inverse of the assignment above).
  auto rank_of_idx = [&](int i) -> Rank {
    if (i < surplus) {
      const Rank even = static_cast<Rank>(2 * i);
      return (root == even + 1) ? even + 1 : even;
    }
    return static_cast<Rank>(i + surplus);
  };

  // Phase 1: recursive-halving reduce-scatter over p2 blocks.
  const Bytes block = (accum.size + p2 - 1) / p2;
  auto range_bytes = [&](int blo, int bhi) {  // clamped [blo, bhi) in bytes
    Bytes lo = std::min<Bytes>(accum.size, static_cast<Bytes>(blo) * block);
    Bytes hi = std::min<Bytes>(accum.size, static_cast<Bytes>(bhi) * block);
    lo -= lo % elem;
    hi -= hi % elem;
    return std::pair<Bytes, Bytes>{lo, hi};
  };

  if (active) {
    int lo = 0, hi = p2, step = 1;
    for (int d = p2 / 2; d >= 1; d /= 2, ++step) {
      const int partner_idx = idx ^ d;
      const Rank partner = comm.global(rank_of_idx(partner_idx));
      const int mid = lo + (hi - lo) / 2;
      const bool keep_low = (idx & d) == 0;
      const auto [keep_lo, keep_hi] =
          keep_low ? range_bytes(lo, mid) : range_bytes(mid, hi);
      const auto [send_lo, send_hi] =
          keep_low ? range_bytes(mid, hi) : range_bytes(lo, mid);
      auto send = ctx.isend(partner, base_tag + step,
                            accum.slice(send_lo, send_hi - send_lo).as_const(),
                            opts.send);
      auto recv = ctx.irecv(partner, base_tag + step,
                            scratch.view().slice(keep_lo, keep_hi - keep_lo));
      co_await mpi::wait(recv);
      co_await fold(accum.slice(keep_lo, keep_hi - keep_lo),
                    scratch.cview().slice(keep_lo, keep_hi - keep_lo),
                    keep_hi - keep_lo);
      co_await mpi::wait(send);
      if (keep_low) {
        hi = mid;
      } else {
        lo = mid;
      }
    }

    // Phase 2: gather the p2 reduced blocks to the root.
    const auto [mine_lo, mine_hi] = range_bytes(lo, lo + 1);
    if (me == root) {
      std::vector<mpi::RequestPtr> recvs;
      for (int i = 0; i < p2; ++i) {
        if (rank_of_idx(i) == me) continue;
        const auto [blo, bhi] = range_bytes(i, i + 1);
        if (bhi <= blo) continue;
        recvs.push_back(ctx.irecv(comm.global(rank_of_idx(i)),
                                  base_tag + 40 + i,
                                  accum.slice(blo, bhi - blo)));
      }
      co_await mpi::wait_all(recvs);
    } else if (mine_hi > mine_lo) {
      co_await ctx.send(comm.global(root), base_tag + 40 + lo,
                        accum.slice(mine_lo, mine_hi - mine_lo).as_const(),
                        opts.send);
    }
  }
}

sim::Task<> allreduce(runtime::Context& ctx, const mpi::Comm& comm,
                      mpi::MutView accum, mpi::ReduceOp op,
                      mpi::Datatype dtype, const Tree& reduce_tree,
                      const Tree& bcast_tree, Style style,
                      const CollOpts& opts) {
  co_await reduce(ctx, comm, accum, op, dtype, reduce_tree.root, reduce_tree,
                  style, opts);
  co_await bcast(ctx, comm, accum, bcast_tree.root, bcast_tree, style, opts);
}

sim::Task<> allreduce_ring(runtime::Context& ctx, const mpi::Comm& comm,
                           mpi::MutView accum, mpi::ReduceOp op,
                           mpi::Datatype dtype, const CollOpts& opts) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  if (n == 1) co_return;
  const Bytes elem = size_of(dtype);

  // Elem-aligned virtual blocks [bound(i), bound(i+1)).
  const Bytes raw_block = (accum.size + n - 1) / n;
  auto bound = [&](int i) {
    Bytes b = std::min<Bytes>(accum.size, static_cast<Bytes>(i) * raw_block);
    return b - b % elem;
  };
  const Tag base_tag = ctx.alloc_tags(2 * n);
  const Rank right = comm.global((me + 1) % n);
  const Rank left = comm.global((me - 1 + n) % n);
  const bool synthetic = accum.synthetic();
  mpi::Payload scratch =
      mpi::Payload::scratch(ctx.pool(), raw_block + elem, synthetic);

  // Phase 1 — reduce-scatter ring: after P-1 steps, rank me holds the fully
  // reduced block (me+1) mod n.
  for (int t = 0; t < n - 1; ++t) {
    const int send_block = (me - t + n) % n;
    const int recv_block = (me - t - 1 + n) % n;
    const auto [slo, shi] = std::pair(bound(send_block), bound(send_block + 1));
    const auto [rlo, rhi] = std::pair(bound(recv_block), bound(recv_block + 1));
    auto send = ctx.isend(right, base_tag + t,
                          accum.slice(slo, shi - slo).as_const(), opts.send);
    auto recv = ctx.irecv(left, base_tag + t,
                          scratch.view().slice(0, rhi - rlo));
    co_await mpi::wait(recv);
    detail::apply_if_real(accum.slice(rlo, rhi - rlo),
                          scratch.cview().slice(0, rhi - rlo), op, dtype,
                          rhi - rlo);
    co_await ctx.compute(detail::reduce_cost(ctx, opts, rhi - rlo));
    co_await mpi::wait(send);
  }

  // Phase 2 — allgather ring over the reduced blocks.
  for (int t = 0; t < n - 1; ++t) {
    const int send_block = (me + 1 - t + n) % n;
    const int recv_block = (me - t + n) % n;
    const auto [slo, shi] = std::pair(bound(send_block), bound(send_block + 1));
    const auto [rlo, rhi] = std::pair(bound(recv_block), bound(recv_block + 1));
    auto send = ctx.isend(right, base_tag + n + t,
                          accum.slice(slo, shi - slo).as_const(), opts.send);
    auto recv =
        ctx.irecv(left, base_tag + n + t, accum.slice(rlo, rhi - rlo));
    co_await mpi::wait(recv);
    co_await mpi::wait(send);
  }
}

sim::Task<> alltoall(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::ConstView sendbuf, mpi::MutView recvbuf,
                     Bytes block) {
  const int n = comm.size();
  const Rank me = comm.local_of(ctx.rank());
  ADAPT_CHECK(me != kAnyRank);
  ADAPT_CHECK(sendbuf.size >= block * n && recvbuf.size >= block * n);
  const Tag base_tag = ctx.alloc_tags(n);
  // Own block moves locally.
  copy_if_real(recvbuf.slice(me * block, block),
               sendbuf.slice(me * block, block), block);
  // Pairwise exchange: in round t, exchange with partner me ^ t when the
  // size is a power of two, else the (me +/- t) rotation.
  const bool pow2 = (n & (n - 1)) == 0;
  for (int t = 1; t < n; ++t) {
    const Rank partner = pow2 ? (me ^ t) : (me + t) % n;
    const Rank source = pow2 ? partner : (me - t + n) % n;
    auto send = ctx.isend(comm.global(partner), base_tag + t,
                          sendbuf.slice(partner * block, block));
    auto recv = ctx.irecv(comm.global(source), base_tag + t,
                          recvbuf.slice(source * block, block));
    co_await mpi::wait(recv);
    co_await mpi::wait(send);
  }
}

}  // namespace adapt::coll
