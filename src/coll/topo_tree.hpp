// Topology-aware communication tree (paper §3.2).
//
// Processes are grouped bottom-up by hardware: cores sharing a socket form a
// group, socket leaders within a node form a group, node leaders form the top
// group. Each group gets its own tree shape — selectable per level, since
// each level's network is homogeneous and independent (paper Fig. 5) — and
// leaders glue the levels into one spanning tree over a SINGLE communicator.
// Every rank therefore participates in one seamless pipeline, and a leader's
// child list puts upper-level (slower-lane) children first so long-haul
// transfers start earliest.
#pragma once

#include "src/coll/tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::coll {

/// Per-level tree shapes. The paper's ADAPT configuration uses chains at
/// every level (§5.2.1, after Pješivac-Grbović et al.).
struct TopoTreeSpec {
  TreeKind core_level = TreeKind::kChain;    ///< ranks within one socket
  TreeKind socket_level = TreeKind::kChain;  ///< socket leaders within a node
  TreeKind node_level = TreeKind::kChain;    ///< node leaders across nodes
  int radix = 4;                             ///< for k-ary / k-nomial levels
  auto operator<=>(const TopoTreeSpec&) const = default;
};

/// Builds the multi-level tree over the local ranks of `comm`, rooted at
/// `root` (local). The root is made leader of its socket and node so it is
/// the global tree root.
Tree build_topo_tree(const topo::Machine& machine, const mpi::Comm& comm,
                     Rank root, const TopoTreeSpec& spec = {});

}  // namespace adapt::coll
