// Reference tree builders: the nested-vector construction the flat (CSR)
// TreeBuilder replaced, kept only for tests.
//
// Each shape is built over positions [0, n) rooted at 0, relabelled through
// a rank ordering into a tree sized by the largest rank, and the levels of
// the topology-aware and HAN trees are merged edge by edge, upper level
// first. tree_test.cpp requires the production builders to give the same
// parent and the same ordered child list for every rank, so a change to
// the flat builders that reorders a send shows up there rather than as a
// moved golden trace.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/coll/han.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/coll/tree.hpp"
#include "src/mpi/comm.hpp"
#include "src/support/error.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::coll::reference {

struct RefTree {
  Rank root = 0;
  std::vector<Rank> parent;                 ///< parent[r]; root's parent = -1
  std::vector<std::vector<Rank>> children;  ///< children[r], send order

  int size() const { return static_cast<int>(parent.size()); }
};

inline RefTree empty_tree(int n) {
  RefTree t;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.children.resize(static_cast<std::size_t>(n));
  return t;
}

inline void link(RefTree& t, Rank parent, Rank child) {
  t.parent[static_cast<std::size_t>(child)] = parent;
  t.children[static_cast<std::size_t>(parent)].push_back(child);
}

/// Builders below construct a tree over [0, n) rooted at 0.
inline RefTree chain0(int n) {
  RefTree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, r - 1, r);
  return t;
}

inline RefTree flat0(int n) {
  RefTree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, 0, r);
  return t;
}

inline RefTree kary0(int n, int k) {
  ADAPT_CHECK(k >= 2);
  RefTree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, (r - 1) / k, r);
  return t;
}

inline RefTree knomial0(int n, int k) {
  ADAPT_CHECK(k >= 2);
  RefTree t = empty_tree(n);
  for (Rank r = 0; r < n; ++r) {
    int low = 0;
    if (r == 0) {
      low = 1;
      std::int64_t span = k;
      while (span < n) {
        span *= k;
        ++low;
      }
    } else {
      Rank v = r;
      while (v % k == 0) {
        v /= k;
        ++low;
      }
    }
    std::int64_t stride = 1;
    for (int j = 1; j < low; ++j) stride *= k;
    for (int j = low - 1; j >= 0; --j) {
      for (int m = 1; m <= k - 1; ++m) {
        const std::int64_t c = r + m * stride;
        if (c < n) link(t, r, static_cast<Rank>(c));
      }
      stride /= k;
    }
  }
  return t;
}

inline RefTree build0(TreeKind kind, int n, int radix) {
  switch (kind) {
    case TreeKind::kChain: return chain0(n);
    case TreeKind::kFlat: return flat0(n);
    case TreeKind::kBinary: return kary0(n, 2);
    case TreeKind::kKAry: return kary0(n, radix);
    case TreeKind::kBinomial: return knomial0(n, 2);
    case TreeKind::kKNomial: return knomial0(n, radix);
  }
  ADAPT_UNREACHABLE("bad tree kind");
}

/// The shape over positions, relabelled through `order`; sized by the
/// largest rank in `order` + 1.
inline RefTree tree_over(TreeKind kind, const std::vector<Rank>& order,
                         Rank root, int radix = 2) {
  const int n = static_cast<int>(order.size());
  ADAPT_CHECK(n > 0);
  const auto it = std::find(order.begin(), order.end(), root);
  ADAPT_CHECK(it != order.end()) << "root " << root << " not in order";
  const int p0 = static_cast<int>(it - order.begin());
  const RefTree base = build0(kind, n, radix);
  auto map = [&](Rank pos) {
    return order[static_cast<std::size_t>((pos + p0) % n)];
  };
  Rank max_rank = 0;
  for (Rank r : order) max_rank = std::max(max_rank, r);
  RefTree t = empty_tree(max_rank + 1);
  t.root = root;
  for (Rank pos = 0; pos < n; ++pos) {
    const Rank self = map(pos);
    for (Rank child_pos : base.children[static_cast<std::size_t>(pos)])
      link(t, self, map(child_pos));
  }
  return t;
}

inline RefTree build_tree(TreeKind kind, int nranks, Rank root,
                          int radix = 2) {
  std::vector<Rank> order(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) order[static_cast<std::size_t>(r)] = r;
  return tree_over(kind, order, root, radix);
}

inline void merge_edges(RefTree& final_tree, const RefTree& group_tree) {
  for (Rank r = 0; r < group_tree.size(); ++r) {
    for (Rank c : group_tree.children[static_cast<std::size_t>(r)]) {
      ADAPT_CHECK(final_tree.parent[static_cast<std::size_t>(c)] == -1)
          << "rank " << c << " acquired two parents";
      link(final_tree, r, c);
    }
  }
}

inline Rank leader_of(const std::vector<Rank>& group, Rank root) {
  ADAPT_CHECK(!group.empty());
  if (std::find(group.begin(), group.end(), root) != group.end()) return root;
  return group.front();
}

/// The three-map topology-aware builder.
inline RefTree build_topo_tree(const topo::Machine& machine,
                               const mpi::Comm& comm, Rank root,
                               const TopoTreeSpec& spec = {}) {
  const int n = comm.size();
  std::map<int, std::vector<Rank>> socket_groups;  // socket id -> local ranks
  std::map<int, int> socket_node;                  // socket id -> node id
  for (Rank local = 0; local < n; ++local) {
    const Rank global = comm.global(local);
    const int sock = machine.socket_id(global);
    socket_groups[sock].push_back(local);
    socket_node[sock] = machine.node_of(global);
  }
  std::map<int, std::vector<Rank>> node_groups;  // node id -> socket leaders
  for (const auto& [sock, members] : socket_groups)
    node_groups[socket_node.at(sock)].push_back(leader_of(members, root));
  std::vector<Rank> node_leaders;
  for (const auto& [node, socket_leaders] : node_groups)
    node_leaders.push_back(leader_of(socket_leaders, root));

  RefTree result = empty_tree(n);
  result.root = root;
  if (node_leaders.size() > 1) {
    merge_edges(result,
                tree_over(spec.node_level, node_leaders, root, spec.radix));
  }
  for (const auto& [node, socket_leaders] : node_groups) {
    if (socket_leaders.size() > 1) {
      merge_edges(result, tree_over(spec.socket_level, socket_leaders,
                                    leader_of(socket_leaders, root),
                                    spec.radix));
    }
  }
  for (const auto& [sock, members] : socket_groups) {
    if (members.size() > 1) {
      merge_edges(result, tree_over(spec.core_level, members,
                                    leader_of(members, root), spec.radix));
    }
  }
  return result;
}

/// Local rank by linear scan (the reference for Comm::local_of too).
inline Rank local_of_scan(const mpi::Comm& comm, Rank global) {
  const auto& m = comm.members();
  const auto it = std::find(m.begin(), m.end(), global);
  return it == m.end() ? kAnyRank : static_cast<Rank>(it - m.begin());
}

/// The fused two-level HAN tree, merged level by level.
inline RefTree build_han_tree(const topo::Machine& machine,
                              const mpi::Comm& comm, Rank root,
                              const TwoLevelShape& spec = {}) {
  const HanGroups g = han_groups(comm, machine, root);
  const Rank root_global = comm.global(root);
  RefTree result = empty_tree(comm.size());
  result.root = root;
  if (g.leaders.size() > 1) {
    std::vector<Rank> leaders_local;
    for (const Rank leader : g.leaders.members())
      leaders_local.push_back(local_of_scan(comm, leader));
    merge_edges(result,
                tree_over(spec.inter_node, leaders_local, root, spec.radix));
  }
  for (const mpi::Comm& node : g.nodes) {
    if (node.size() <= 1) continue;
    std::vector<Rank> members_local;
    for (const Rank m : node.members())
      members_local.push_back(local_of_scan(comm, m));
    const Rank leader = local_of_scan(node, root_global) != kAnyRank
                            ? root_global
                            : node.members().front();
    merge_edges(result, tree_over(spec.intra_node, members_local,
                                  local_of_scan(comm, leader), spec.radix));
  }
  return result;
}

}  // namespace adapt::coll::reference
