// Communication trees (paper §2.2.4, §3.2.1).
//
// A Tree is a rooted spanning tree over the *local* ranks of a communicator:
// parent/children arrays plus the root. ADAPT's collectives are
// tree-agnostic — any Tree plugs into any implementation style — which is
// what makes the topology-aware tree a drop-in (the paper's key composition
// property).
//
// Classic shapes (chain, flat, binary, k-ary, binomial, k-nomial) are built
// for an arbitrary root by relabelling ranks relative to the root. The
// topology-aware builder lives in topo_tree.hpp.
#pragma once

#include <string>
#include <vector>

#include "src/support/units.hpp"

namespace adapt::coll {

struct Tree {
  Rank root = 0;
  std::vector<Rank> parent;                 ///< parent[r]; root's parent = -1
  std::vector<std::vector<Rank>> children;  ///< children[r], send order

  int size() const { return static_cast<int>(parent.size()); }
  bool is_leaf(Rank r) const {
    return children[static_cast<std::size_t>(r)].empty();
  }
  const std::vector<Rank>& kids(Rank r) const {
    return children[static_cast<std::size_t>(r)];
  }
  Rank up(Rank r) const { return parent[static_cast<std::size_t>(r)]; }

  /// Depth of rank r (root = 0).
  int depth(Rank r) const;
  /// Longest root-to-leaf path length.
  int height() const;
  /// Validates spanning-tree invariants (every non-root has one parent,
  /// parent/children consistent, acyclic, connected); throws on violation.
  void validate() const;
};

enum class TreeKind {
  kChain,
  kFlat,      ///< root sends to everyone directly
  kBinary,
  kKAry,      ///< complete k-ary tree (k from radix)
  kBinomial,
  kKNomial,   ///< k-nomial tree (k from radix)
};

const char* tree_kind_name(TreeKind kind);
TreeKind tree_kind_from_name(const std::string& name);

/// Builds a `kind` tree over ranks [0, nranks) rooted at `root`.
/// `radix` applies to kKAry / kKNomial (>= 2).
Tree build_tree(TreeKind kind, int nranks, Rank root, int radix = 2);

// Individual builders (exposed for tests).
Tree chain_tree(int nranks, Rank root);
Tree flat_tree(int nranks, Rank root);
Tree binomial_tree(int nranks, Rank root);
Tree knomial_tree(int nranks, Rank root, int k);

/// Builds a tree over an explicit rank ordering: the shape is built over
/// positions [0, n) with the *position* of `root` as tree root, then mapped
/// through `order`. Used by the topology-aware builder to lay shapes over
/// hardware groups.
Tree tree_over(TreeKind kind, const std::vector<Rank>& order, Rank root,
               int radix = 2);

}  // namespace adapt::coll
