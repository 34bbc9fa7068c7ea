// Multi-communicator hierarchical collectives — the state-of-practice design
// the paper critiques in §3.1 (MVAPICH2/Intel "SHM-based" style): the world
// splits into a node-leader communicator plus one communicator per node, and
// the levels run SEQUENTIALLY — the intra-node phase of a broadcast cannot
// start until the leader received everything from the inter-node phase, so
// levels never overlap. ADAPT's single-communicator topo tree (§3.2) is the
// contrast; the same TwoLevelShape fused into one tree is HAN (han.hpp).
#pragma once

#include "src/coll/coll.hpp"
#include "src/coll/han.hpp"

namespace adapt::coll {

/// A two-level shape laid out level by level over one communicator: the
/// node split, each member's node, and one tree per level. Built once per
/// (communicator, root, shape) and cached (shape.hpp's TreeCache::hier).
struct HierLevels {
  HanGroups groups;
  std::vector<int> node;  ///< node index (into groups.nodes) per local rank
  Tree leader_tree;       ///< inter_node shape over groups.leaders
  std::vector<Tree> node_trees;  ///< intra_node shape per node, at its leader
};

HierLevels hier_levels(const topo::Machine& machine, const mpi::Comm& comm,
                       Rank root, const TwoLevelShape& shape);

/// Hierarchical broadcast: inter-node phase over node leaders, then a fully
/// separate intra-node phase per node. `levels` is hier_levels(machine, comm,
/// root, shape), which fixes the root; it must outlive the returned task.
sim::Task<> hier_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                       mpi::MutView buffer, const HierLevels& levels,
                       Style style, const CollOpts& opts);

/// Hierarchical reduce: intra-node phase to each node leader, then the
/// inter-node phase over leaders. `levels` as for hier_bcast.
sim::Task<> hier_reduce(runtime::Context& ctx, const mpi::Comm& comm,
                        mpi::MutView accum, mpi::ReduceOp op,
                        mpi::Datatype dtype, const HierLevels& levels,
                        Style style, const CollOpts& opts);

}  // namespace adapt::coll
