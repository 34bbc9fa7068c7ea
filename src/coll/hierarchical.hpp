// Multi-communicator hierarchical collectives — the state-of-practice design
// the paper critiques in §3.1 (MVAPICH2/Intel "SHM-based" style): the world
// splits into a node-leader communicator plus one communicator per node, and
// the levels run SEQUENTIALLY — the intra-node phase of a broadcast cannot
// start until the leader received everything from the inter-node phase, so
// levels never overlap. ADAPT's single-communicator topo tree (§3.2) is the
// contrast.
#pragma once

#include "src/coll/coll.hpp"
#include "src/coll/han.hpp"

namespace adapt::coll {

struct HierSpec {
  TreeKind inter_node = TreeKind::kBinomial;  ///< among node leaders
  TreeKind intra_node = TreeKind::kKNomial;   ///< within each node
  int radix = 4;
  Style style = Style::kNonblocking;
  CollOpts opts;
};

/// Hierarchical broadcast: inter-node phase over node leaders, then a fully
/// separate intra-node phase per node. `groups` is han_groups(comm, machine,
/// root); it must outlive the returned task.
sim::Task<> hier_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                       mpi::MutView buffer, Rank root, const HanGroups& groups,
                       const HierSpec& spec);

/// Hierarchical reduce: intra-node phase to each node leader, then the
/// inter-node phase over leaders. `groups` as for hier_bcast.
sim::Task<> hier_reduce(runtime::Context& ctx, const mpi::Comm& comm,
                        mpi::MutView accum, mpi::ReduceOp op,
                        mpi::Datatype dtype, Rank root,
                        const HanGroups& groups, const HierSpec& spec);

}  // namespace adapt::coll
