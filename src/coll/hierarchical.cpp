#include "src/coll/hierarchical.hpp"

#include "src/support/error.hpp"

namespace adapt::coll {

HierLevels hier_levels(const topo::Machine& machine, const mpi::Comm& comm,
                       Rank root, const TwoLevelShape& shape) {
  HierLevels h{han_groups(comm, machine, root), {}, {}, {}};
  const mpi::Comm& leaders = h.groups.leaders;
  h.node.resize(static_cast<std::size_t>(comm.size()));
  for (std::size_t i = 0; i < h.groups.nodes.size(); ++i) {
    const mpi::Comm& node = h.groups.nodes[i];
    for (const Rank r : node.members())
      h.node[static_cast<std::size_t>(comm.local_of(r))] = static_cast<int>(i);
    const Rank leader = leaders.global(static_cast<Rank>(i));
    h.node_trees.push_back(build_tree(shape.intra_node, node.size(),
                                      node.local_of(leader), shape.radix));
  }
  h.leader_tree = build_tree(shape.inter_node, leaders.size(),
                             leaders.local_of(comm.global(root)), shape.radix);
  return h;
}

namespace {

/// The caller's node communicator, its tree and its leader (global).
struct Place {
  const mpi::Comm& node;
  const Tree& node_tree;
  Rank leader;
};

Place place_of(const HierLevels& h, const mpi::Comm& comm, Rank me) {
  const Rank local = comm.local_of(me);
  ADAPT_CHECK(local >= 0) << "rank " << me << " outside the communicator";
  const int i = h.node[static_cast<std::size_t>(local)];
  return {h.groups.nodes[static_cast<std::size_t>(i)],
          h.node_trees[static_cast<std::size_t>(i)],
          h.groups.leaders.global(i)};
}

}  // namespace

sim::Task<> hier_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                       mpi::MutView buffer, const HierLevels& h, Style style,
                       const CollOpts& opts) {
  const Place me = place_of(h, comm, ctx.rank());
  const mpi::Comm& leaders = h.groups.leaders;
  const Segmenter segs(buffer.size, opts.segment_size);
  // Both phases' tags are allocated on EVERY rank so counters stay aligned
  // even though only leaders run phase 1.
  const Tag inter_tag = ctx.alloc_tags(segs.count());
  const Tag intra_tag = ctx.alloc_tags(segs.count());

  if (me.leader == ctx.rank() && leaders.size() > 1) {
    co_await bcast_tagged(ctx, leaders, buffer, h.leader_tree.root,
                          h.leader_tree, style, opts, inter_tag);
  }
  if (me.node.size() > 1) {
    co_await bcast_tagged(ctx, me.node, buffer, me.node_tree.root,
                          me.node_tree, style, opts, intra_tag);
  }
}

sim::Task<> hier_reduce(runtime::Context& ctx, const mpi::Comm& comm,
                        mpi::MutView accum, mpi::ReduceOp op,
                        mpi::Datatype dtype, const HierLevels& h, Style style,
                        const CollOpts& opts) {
  const Place me = place_of(h, comm, ctx.rank());
  const mpi::Comm& leaders = h.groups.leaders;
  const Segmenter segs(accum.size, opts.segment_size);
  const Tag intra_tag = ctx.alloc_tags(segs.count());
  const Tag inter_tag = ctx.alloc_tags(segs.count());

  if (me.node.size() > 1) {
    co_await reduce_tagged(ctx, me.node, accum, op, dtype, me.node_tree.root,
                           me.node_tree, style, opts, intra_tag);
  }
  if (me.leader == ctx.rank() && leaders.size() > 1) {
    co_await reduce_tagged(ctx, leaders, accum, op, dtype, h.leader_tree.root,
                           h.leader_tree, style, opts, inter_tag);
  }
}

}  // namespace adapt::coll
