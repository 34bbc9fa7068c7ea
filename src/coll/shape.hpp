// Tree shapes: the one vocabulary a collective plan names its tree in.
//
// A shape says how to lay a spanning tree over any communicator: a classic
// kind over communicator order, the topology-aware per-level spec
// (topo_tree.hpp), or a two-level node-leader split (han.hpp). Every shape
// resolves to a Tree through one builder, build_tree(machine, comm, root,
// shape); the personalities (library.cpp) memoise the result per
// (communicator, root, shape) in one TreeCache, and tune::decision_tree maps
// a tuned Decision onto a shape first.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
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
/// two-level shape gives the fused HAN tree.
Tree build_tree(const topo::Machine& machine, const mpi::Comm& comm,
                Rank root, const TreeShape& shape);

/// Resolved shapes per (communicator fingerprint, root, shape). The
/// fingerprint covers the full membership, so sub-communicators of equal
/// size and first member but different members don't collide. Entries are
/// built on first use and never evicted; returned references stay valid for
/// the cache's life. Thread-safe (personalities run concurrently on the
/// ThreadEngine).
class TreeCache {
 public:
  explicit TreeCache(const topo::Machine& machine) : machine_(machine) {}

  /// The spanning tree build_tree() gives.
  const Tree& tree(const mpi::Comm& comm, Rank root, const TreeShape& shape);
  /// The same two-level shape laid out level by level (hier_levels()).
  const HierLevels& hier(const mpi::Comm& comm, Rank root,
                         const TwoLevelShape& shape);

 private:
  struct Entry {
    std::optional<Tree> tree;
    std::optional<HierLevels> hier;
  };
  const topo::Machine& machine_;
  std::mutex mutex_;
  std::map<std::tuple<std::uint64_t, Rank, TreeShape>, Entry> entries_;
};

}  // namespace adapt::coll
