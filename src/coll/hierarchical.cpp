#include "src/coll/hierarchical.hpp"

#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// The caller's node group in `g` (han_groups splits by node; the root leads
/// its node, elsewhere the first member in communicator order leads).
std::size_t node_of(const HanGroups& g, Rank rank) {
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].contains(rank)) return i;
  }
  ADAPT_UNREACHABLE("rank outside the communicator");
}

}  // namespace

sim::Task<> hier_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                       mpi::MutView buffer, Rank root, const HanGroups& g,
                       const HierSpec& spec) {
  const std::size_t node = node_of(g, ctx.rank());
  const mpi::Comm& my_node = g.nodes[node];
  const Rank my_leader = g.leaders.global(static_cast<Rank>(node));
  const Segmenter segs(buffer.size, spec.opts.segment_size);
  // Both phases' tags are allocated on EVERY rank so counters stay aligned
  // even though only leaders run phase 1.
  const Tag inter_tag = ctx.alloc_tags(segs.count());
  const Tag intra_tag = ctx.alloc_tags(segs.count());

  if (my_leader == ctx.rank() && g.leaders.size() > 1) {
    const Rank leader_root = g.leaders.local_of(comm.global(root));
    const Tree tree = build_tree(spec.inter_node, g.leaders.size(),
                                     leader_root, spec.radix);
    co_await bcast_tagged(ctx, g.leaders, buffer, leader_root, tree,
                          spec.style, spec.opts, inter_tag);
  }
  if (my_node.size() > 1) {
    const Rank node_root = my_node.local_of(my_leader);
    const Tree tree = build_tree(spec.intra_node, my_node.size(),
                                     node_root, spec.radix);
    co_await bcast_tagged(ctx, my_node, buffer, node_root, tree, spec.style,
                          spec.opts, intra_tag);
  }
}

sim::Task<> hier_reduce(runtime::Context& ctx, const mpi::Comm& comm,
                        mpi::MutView accum, mpi::ReduceOp op,
                        mpi::Datatype dtype, Rank root, const HanGroups& g,
                        const HierSpec& spec) {
  const std::size_t node = node_of(g, ctx.rank());
  const mpi::Comm& my_node = g.nodes[node];
  const Rank my_leader = g.leaders.global(static_cast<Rank>(node));
  const Segmenter segs(accum.size, spec.opts.segment_size);
  const Tag intra_tag = ctx.alloc_tags(segs.count());
  const Tag inter_tag = ctx.alloc_tags(segs.count());

  if (my_node.size() > 1) {
    const Rank node_root = my_node.local_of(my_leader);
    const Tree tree = build_tree(spec.intra_node, my_node.size(),
                                     node_root, spec.radix);
    co_await reduce_tagged(ctx, my_node, accum, op, dtype, node_root, tree,
                           spec.style, spec.opts, intra_tag);
  }
  if (my_leader == ctx.rank() && g.leaders.size() > 1) {
    const Rank leader_root = g.leaders.local_of(comm.global(root));
    const Tree tree = build_tree(spec.inter_node, g.leaders.size(),
                                     leader_root, spec.radix);
    co_await reduce_tagged(ctx, g.leaders, accum, op, dtype, leader_root, tree,
                           spec.style, spec.opts, inter_tag);
  }
}

}  // namespace adapt::coll
