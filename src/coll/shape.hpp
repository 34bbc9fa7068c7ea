// Tree shapes: the one vocabulary a collective plan names its tree in.
//
// A shape says how to lay a spanning tree over any communicator: a classic
// kind over communicator order, the topology-aware per-level spec
// (topo_tree.hpp), or a two-level node-leader split (han.hpp). Every shape
// resolves to a Tree through one builder, build_tree(machine, comm, root,
// shape), and every consumer (the personalities in library.cpp,
// tune::decision_tree, persistent init, the self-healing retries, the
// tuner's table fill) resolves it through one cache that lives on the
// communicator itself: cached_tree() builds a tree on first use per
// (machine, root, shape) and replays it for the communicator's life, the way
// Open MPI's coll/base caches its trees on the communicator.
#pragma once

#include <variant>

#include "src/coll/hierarchical.hpp"
#include "src/coll/topo_tree.hpp"

namespace adapt::coll {

/// A classic shape laid over communicator order.
struct RankOrderShape {
  TreeKind kind = TreeKind::kBinomial;
  int radix = 4;  ///< for k-ary / k-nomial
  auto operator<=>(const RankOrderShape&) const = default;
};

using TreeShape = std::variant<RankOrderShape, TopoTreeSpec, TwoLevelShape>;

/// Lays `shape` over the local ranks of `comm`, rooted at local `root`; a
/// two-level shape gives the fused HAN tree. Validated by the builder.
Tree build_tree(const topo::Machine& machine, const mpi::Comm& comm,
                Rank root, const TreeShape& shape);

/// The tree build_tree() gives, cached on `comm`'s shared state per
/// (machine id, root, shape): built on the first call, the same object on
/// every later one. The key carries the machine because nothing ties a
/// communicator to one; copies of a Comm share the cache, a communicator
/// built anew (a split, another member list) starts empty. The reference
/// stays valid while any copy of `comm` lives. Thread-safe (personalities
/// run concurrently on the ThreadEngine).
const Tree& cached_tree(const topo::Machine& machine, const mpi::Comm& comm,
                        Rank root, const TreeShape& shape);
/// The same two-level shape laid out level by level (hier_levels()),
/// cached like cached_tree().
const HierLevels& cached_hier(const topo::Machine& machine,
                              const mpi::Comm& comm, Rank root,
                              const TwoLevelShape& shape);

}  // namespace adapt::coll
