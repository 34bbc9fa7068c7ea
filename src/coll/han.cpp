#include "src/coll/han.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// Leader of a node group: the root when present, otherwise the first member
/// in communicator order (hierarchical.hpp's sequential design elects through
/// han_groups too, so the two designs are comparable head to head).
Rank leader_of(const mpi::Comm& node, Rank root_global) {
  return node.contains(root_global) ? root_global : node.members().front();
}

void merge_edges(Tree& final_tree, const Tree& group_tree) {
  for (Rank r = 0; r < group_tree.size(); ++r) {
    for (Rank c : group_tree.kids(r)) {
      ADAPT_CHECK(final_tree.parent[static_cast<std::size_t>(c)] == -1)
          << "rank " << c << " acquired two parents";
      final_tree.parent[static_cast<std::size_t>(c)] = r;
      final_tree.children[static_cast<std::size_t>(r)].push_back(c);
    }
  }
}

}  // namespace

HanGroups han_groups(const mpi::Comm& comm, const topo::Machine& machine,
                     Rank root) {
  ADAPT_CHECK(root >= 0 && root < comm.size());
  const Rank root_global = comm.global(root);
  HanGroups g;
  g.nodes = comm.split_by([&](Rank r) { return machine.node_of(r); });
  std::vector<Rank> leaders;
  leaders.reserve(g.nodes.size());
  for (const mpi::Comm& node : g.nodes)
    leaders.push_back(leader_of(node, root_global));
  g.leaders = mpi::Comm(std::move(leaders));
  return g;
}

Tree build_han_tree(const topo::Machine& machine, const mpi::Comm& comm,
                    Rank root, const HanSpec& spec) {
  const int n = comm.size();
  const HanGroups g = han_groups(comm, machine, root);
  const Rank root_global = comm.global(root);

  Tree result;
  result.root = root;
  result.parent.assign(static_cast<std::size_t>(n), -1);
  result.children.resize(static_cast<std::size_t>(n));

  // Inter-node level first, so every leader's child list starts with its
  // slow-lane (fabric) children and long-haul transfers start earliest.
  if (g.leaders.size() > 1) {
    std::vector<Rank> leaders_local;
    leaders_local.reserve(g.leaders.members().size());
    for (const Rank leader : g.leaders.members())
      leaders_local.push_back(comm.local_of(leader));
    merge_edges(result,
                tree_over(spec.inter_node, leaders_local, root, spec.radix));
  }
  for (const mpi::Comm& node : g.nodes) {
    if (node.size() <= 1) continue;
    std::vector<Rank> members_local;
    members_local.reserve(node.members().size());
    for (const Rank m : node.members())
      members_local.push_back(comm.local_of(m));
    const Rank node_root = comm.local_of(leader_of(node, root_global));
    merge_edges(result, tree_over(spec.intra_node, members_local, node_root,
                                  spec.radix));
  }

  result.validate();
  return result;
}

sim::Task<> han_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                      mpi::MutView buffer, Rank root,
                      const topo::Machine& machine, const HanSpec& spec) {
  const Tree tree = build_han_tree(machine, comm, root, spec);
  co_await bcast(ctx, comm, buffer, root, tree, spec.style, spec.opts);
}

sim::Task<> han_reduce(runtime::Context& ctx, const mpi::Comm& comm,
                       mpi::MutView accum, mpi::ReduceOp op,
                       mpi::Datatype dtype, Rank root,
                       const topo::Machine& machine, const HanSpec& spec) {
  const Tree tree = build_han_tree(machine, comm, root, spec);
  co_await reduce(ctx, comm, accum, op, dtype, root, tree, spec.style,
                  spec.opts);
}

}  // namespace adapt::coll
