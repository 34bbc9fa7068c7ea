// Communication trees (paper §2.2.4, §3.2.1).
//
// A Tree is a rooted spanning tree over the *local* ranks of a communicator.
// ADAPT's collectives are tree-agnostic — any Tree plugs into any
// implementation style — which is what makes the topology-aware tree a
// drop-in (the paper's key composition property).
//
// Storage is flat, like upstream coll/adapt's per-rank tree arrays: a
// `parent` array and the children in compressed-sparse-row form
// (`child_begin` offsets into one `child_list`). A tree over n ranks is
// three heap blocks whatever its shape.
//
// Every builder goes through one path: a TreeBuilder collects (parent,
// child) edges in send order, and finish() turns the edge list into the CSR
// arrays with one stable counting pass and validates the result in O(n).
// Classic shapes (chain, flat, binary, k-ary, binomial, k-nomial) are laid
// over any rank ordering with any root; the topology-aware and HAN builders
// (topo_tree.hpp, han.hpp) append one shape per hardware group to the same
// builder, upper level first.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/support/units.hpp"

namespace adapt::coll {

struct Tree {
  Rank root = 0;
  std::vector<Rank> parent;      ///< parent[r]; the root's parent is -1
  std::vector<int> child_begin;  ///< kids(r) = child_list[begin[r], begin[r+1])
  std::vector<Rank> child_list;  ///< every non-root once, by parent, send order

  int size() const { return static_cast<int>(parent.size()); }
  bool is_leaf(Rank r) const {
    const auto i = static_cast<std::size_t>(r);
    return child_begin[i] == child_begin[i + 1];
  }
  /// Children of r in send order.
  std::span<const Rank> kids(Rank r) const {
    const auto i = static_cast<std::size_t>(r);
    return std::span<const Rank>(child_list)
        .subspan(static_cast<std::size_t>(child_begin[i]),
                 static_cast<std::size_t>(child_begin[i + 1] - child_begin[i]));
  }
  Rank up(Rank r) const { return parent[static_cast<std::size_t>(r)]; }

  /// Depth of rank r (root = 0).
  int depth(Rank r) const;
  /// Longest root-to-leaf path length.
  int height() const;
  /// Validates the spanning-tree invariants in O(n): well-formed CSR
  /// arrays, the root has no parent, every child points back to the rank
  /// listing it, every non-root is listed exactly once, and every rank
  /// reaches the root (no cycle). Throws adapt::Error on a violation.
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

/// Builds one Tree over local ranks [0, nranks) from (parent, child) edges.
/// A rank's children are sent to in the order their edges were added.
class TreeBuilder {
 public:
  TreeBuilder(int nranks, Rank root);

  /// Adds the edge parent -> child. Throws when either rank is out of
  /// range, the child is the root, or the child already has a parent.
  void edge(Rank parent, Rank child);
  /// Adds a `kind` shape over `order`: the shape is built over positions
  /// [0, order.size()) with the position of `root` as its root, then mapped
  /// through `order`. `radix` applies to kKAry / kKNomial (>= 2).
  void shape(TreeKind kind, std::span<const Rank> order, Rank root,
             int radix = 2);
  /// Turns the edge list into the CSR arrays and validates the tree.
  Tree finish() &&;

 private:
  Tree tree_;                 ///< root and parent, filled as edges arrive
  std::vector<Rank> edges_;   ///< children in edge order (capacity n)
};

/// Builds a `kind` tree over ranks [0, nranks) rooted at `root`.
/// `radix` applies to kKAry / kKNomial (>= 2).
Tree build_tree(TreeKind kind, int nranks, Rank root, int radix = 2);

// Individual builders (exposed for tests).
Tree chain_tree(int nranks, Rank root);
Tree flat_tree(int nranks, Rank root);
Tree binomial_tree(int nranks, Rank root);
Tree knomial_tree(int nranks, Rank root, int k);

}  // namespace adapt::coll
