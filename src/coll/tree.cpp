#include "src/coll/tree.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace adapt::coll {

int Tree::depth(Rank r) const {
  int d = 0;
  while (parent[static_cast<std::size_t>(r)] != -1) {
    r = parent[static_cast<std::size_t>(r)];
    ++d;
    ADAPT_CHECK(d <= size()) << "cycle in tree";
  }
  return d;
}

int Tree::height() const {
  int h = 0;
  for (Rank r = 0; r < size(); ++r) h = std::max(h, depth(r));
  return h;
}

void Tree::validate() const {
  const int n = size();
  ADAPT_CHECK(n > 0);
  ADAPT_CHECK(static_cast<int>(children.size()) == n);
  ADAPT_CHECK(root >= 0 && root < n);
  ADAPT_CHECK(parent[static_cast<std::size_t>(root)] == -1)
      << "root has a parent";
  int edges = 0;
  for (Rank r = 0; r < n; ++r) {
    const Rank p = parent[static_cast<std::size_t>(r)];
    if (r == root) continue;
    ADAPT_CHECK(p >= 0 && p < n && p != r) << "bad parent of " << r;
    const auto& sibs = children[static_cast<std::size_t>(p)];
    ADAPT_CHECK(std::count(sibs.begin(), sibs.end(), r) == 1)
        << "parent/children mismatch at " << r;
    ++edges;
  }
  for (Rank r = 0; r < n; ++r) {
    for (Rank c : children[static_cast<std::size_t>(r)])
      ADAPT_CHECK(parent[static_cast<std::size_t>(c)] == r)
          << "child " << c << " does not point back to " << r;
  }
  ADAPT_CHECK(edges == n - 1) << "not a spanning tree";
  // Connectivity: every rank reaches the root (depth() throws on cycles).
  for (Rank r = 0; r < n; ++r) (void)depth(r);
}

const char* tree_kind_name(TreeKind kind) {
  switch (kind) {
    case TreeKind::kChain: return "chain";
    case TreeKind::kFlat: return "flat";
    case TreeKind::kBinary: return "binary";
    case TreeKind::kKAry: return "kary";
    case TreeKind::kBinomial: return "binomial";
    case TreeKind::kKNomial: return "knomial";
  }
  return "?";
}

TreeKind tree_kind_from_name(const std::string& name) {
  if (name == "chain") return TreeKind::kChain;
  if (name == "flat") return TreeKind::kFlat;
  if (name == "binary") return TreeKind::kBinary;
  if (name == "kary") return TreeKind::kKAry;
  if (name == "binomial") return TreeKind::kBinomial;
  if (name == "knomial") return TreeKind::kKNomial;
  throw Error("unknown tree kind: " + name);
}

namespace {

Tree empty_tree(int n) {
  Tree t;
  t.parent.assign(static_cast<std::size_t>(n), -1);
  t.children.resize(static_cast<std::size_t>(n));
  return t;
}

void link(Tree& t, Rank parent, Rank child) {
  t.parent[static_cast<std::size_t>(child)] = parent;
  t.children[static_cast<std::size_t>(parent)].push_back(child);
}

/// Builders below construct a tree over [0, n) rooted at 0.
Tree chain0(int n) {
  Tree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, r - 1, r);
  return t;
}

Tree flat0(int n) {
  Tree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, 0, r);
  return t;
}

Tree kary0(int n, int k) {
  ADAPT_CHECK(k >= 2);
  Tree t = empty_tree(n);
  for (Rank r = 1; r < n; ++r) link(t, (r - 1) / k, r);
  return t;
}

Tree knomial0(int n, int k) {
  ADAPT_CHECK(k >= 2);
  Tree t = empty_tree(n);
  // Children of r are r + m*k^j for every radix position j below r's lowest
  // nonzero digit (descending, so the largest subtree is served first).
  for (Rank r = 0; r < n; ++r) {
    // Lowest nonzero digit position of r in base k (max for r = 0).
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

Tree build0(TreeKind kind, int n, int radix) {
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

}  // namespace

Tree tree_over(TreeKind kind, const std::vector<Rank>& order, Rank root,
               int radix) {
  const int n = static_cast<int>(order.size());
  ADAPT_CHECK(n > 0);
  const auto it = std::find(order.begin(), order.end(), root);
  ADAPT_CHECK(it != order.end()) << "root " << root << " not in order";
  const int p0 = static_cast<int>(it - order.begin());

  const Tree base = build0(kind, n, radix);
  // Position i of the base tree maps to order[(i + p0) % n]; position 0 is
  // the root.
  auto map = [&](Rank pos) {
    return order[static_cast<std::size_t>((pos + p0) % n)];
  };
  // The result tree is indexed by the maximum rank appearing in `order`+1
  // only when used standalone; collectives index trees by local comm rank,
  // so order must cover [0, n) when used directly. For sub-group gluing the
  // topo builder passes global orders into a larger tree — handled there.
  Rank max_rank = 0;
  for (Rank r : order) max_rank = std::max(max_rank, r);
  Tree t = empty_tree(max_rank + 1);
  t.root = root;
  for (Rank pos = 0; pos < n; ++pos) {
    const Rank self = map(pos);
    for (Rank child_pos : base.children[static_cast<std::size_t>(pos)])
      link(t, self, map(child_pos));
  }
  return t;
}

Tree build_tree(TreeKind kind, int nranks, Rank root, int radix) {
  ADAPT_CHECK(nranks > 0);
  ADAPT_CHECK(root >= 0 && root < nranks);
  std::vector<Rank> order(static_cast<std::size_t>(nranks));
  for (Rank r = 0; r < nranks; ++r) order[static_cast<std::size_t>(r)] = r;
  Tree t = tree_over(kind, order, root, radix);
  t.validate();
  return t;
}

Tree chain_tree(int n, Rank root) { return build_tree(TreeKind::kChain, n, root); }
Tree flat_tree(int n, Rank root) { return build_tree(TreeKind::kFlat, n, root); }
Tree binomial_tree(int n, Rank root) {
  return build_tree(TreeKind::kBinomial, n, root);
}
Tree knomial_tree(int n, Rank root, int k) {
  return build_tree(TreeKind::kKNomial, n, root, k);
}

}  // namespace adapt::coll
