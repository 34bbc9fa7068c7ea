// HAN-style two-level collectives (Open MPI coll/han; ROADMAP's "biggest
// lever for realistic large-node topologies").
//
// Each collective is split into an intra-node stage over the first-class SHM
// channel and an inter-node stage over elected node leaders — but unlike the
// sequential multi-communicator baseline (hierarchical.hpp, paper §3.1), both
// stages live in ONE spanning tree over ONE communicator, so the HAN
// collective is just coll::bcast/reduce over build_han_tree() under the
// event-driven kAdapt style. A leader's arrival callback forwards segment k
// intra-node while segment k+1 is still in flight inter-node, so the levels
// overlap at segment granularity (the paper's §3.2 contrast).
//
// The grouping is by the machine's rank→node mapping, NOT by rank index, so
// the schedule stays correct under arbitrary reordered placements (reversed,
// cyclic, random bindings) — the regression two-level designs historically
// get wrong. Leader election: the root leads its own node; every other node
// is led by its first member in communicator order.
#pragma once

#include "src/coll/tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::coll {

/// A two-level tree shape: one shape over the node leaders, one within each
/// node. Fused into one tree by build_han_tree, or run level by level by the
/// hierarchical baseline (hierarchical.hpp).
struct TwoLevelShape {
  TreeKind inter_node = TreeKind::kBinomial;  ///< shape over node leaders
  TreeKind intra_node = TreeKind::kKNomial;   ///< shape within each node
  int radix = 4;
  auto operator<=>(const TwoLevelShape&) const = default;
};

/// The node decomposition of a communicator: per-node sub-communicators (via
/// mpi::Comm::split_by on the machine's node mapping) and the leader
/// communicator. Deterministic on every rank.
struct HanGroups {
  std::vector<mpi::Comm> nodes;  ///< one comm per occupied node, node order
  mpi::Comm leaders{std::vector<Rank>{0}};  ///< elected leaders (global)
};

HanGroups han_groups(const mpi::Comm& comm, const topo::Machine& machine,
                     Rank root);

/// Builds the fused two-level spanning tree over the local ranks of `comm`:
/// an `inter_node` shape over the node leaders merged with one `intra_node`
/// shape per node, leaders gluing the levels. Upper-level edges come first in
/// each leader's child list so inter-node transfers start earliest.
Tree build_han_tree(const topo::Machine& machine, const mpi::Comm& comm,
                    Rank root, const TwoLevelShape& shape = {});

}  // namespace adapt::coll
