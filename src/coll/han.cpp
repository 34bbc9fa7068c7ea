#include "src/coll/han.hpp"

#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// Leader of a node group: the root when present, otherwise the first member
/// in communicator order (hierarchical.hpp's sequential design elects through
/// han_groups too, so the two designs are comparable head to head).
Rank leader_of(const mpi::Comm& node, Rank root_global) {
  return node.contains(root_global) ? root_global : node.members().front();
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
                    Rank root, const TwoLevelShape& shape) {
  const HanGroups g = han_groups(comm, machine, root);
  const Rank root_global = comm.global(root);
  TreeBuilder b(comm.size(), root);
  std::vector<Rank> group;  // one level's ranks, local to `comm`
  const auto to_local = [&](const std::vector<Rank>& globals) {
    group.clear();
    for (const Rank r : globals) group.push_back(comm.local_of(r));
  };

  // Inter-node level first, so every leader's child list starts with its
  // slow-lane (fabric) children and long-haul transfers start earliest.
  if (g.leaders.size() > 1) {
    to_local(g.leaders.members());
    b.shape(shape.inter_node, group, root, shape.radix);
  }
  for (const mpi::Comm& node : g.nodes) {
    if (node.size() <= 1) continue;
    to_local(node.members());
    b.shape(shape.intra_node, group,
            comm.local_of(leader_of(node, root_global)), shape.radix);
  }
  return std::move(b).finish();
}

}  // namespace adapt::coll
