#include "src/coll/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// Per-rank states of the validation pass.
constexpr Rank kUnseen = 0;
constexpr Rank kListed = 1;       ///< listed once, under the rank it points to
constexpr Rank kReachesRoot = 2;  ///< its parent chain ends at the root

/// Reports why TreeBuilder::edge refused parent -> child.
[[noreturn, gnu::cold]] void reject_edge(const Tree& t, Rank parent,
                                         Rank child) {
  std::ostringstream ss;
  const int n = t.size();
  if (parent < 0 || parent >= n || child < 0 || child >= n) {
    ss << "edge " << parent << " -> " << child << " outside [0, " << n << ")";
  } else if (child == t.root) {
    ss << "root " << child << " given parent " << parent;
  } else {
    ss << "rank " << child << " acquired two parents (" << t.up(child)
       << " and " << parent << ")";
  }
  detail::throw_check_failure("tree edge", __FILE__, __LINE__, ss.str());
}

/// Reports why a tree failed check_tree's per-child test. Out of line, so
/// the checks in the loops stay a few compares.
[[noreturn, gnu::cold]] void reject_child(const Tree& t, Rank p, Rank c,
                                          const std::vector<Rank>& state) {
  std::ostringstream ss;
  if (c < 0 || c >= t.size()) {
    ss << "child " << c << " of " << p << " outside [0, " << t.size() << ")";
  } else if (t.up(c) != p) {
    ss << "child " << c << " of " << p << " points to " << t.up(c);
  } else if (state[static_cast<std::size_t>(c)] != kUnseen) {
    ss << "rank " << c << " listed twice under " << p;
  }
  detail::throw_check_failure("spanning tree", __FILE__, __LINE__, ss.str());
}

/// The O(n) spanning-tree check behind Tree::validate. `state` is scratch
/// (resized to n), so finish() can lend its edge buffer.
void check_tree(const Tree& t, std::vector<Rank>& state) {
  const int n = t.size();
  ADAPT_CHECK(n > 0) << "empty tree";
  ADAPT_CHECK(t.root >= 0 && t.root < n) << "root " << t.root << " of " << n;
  const int listed = static_cast<int>(t.child_list.size());
  ADAPT_CHECK(t.child_begin.size() == static_cast<std::size_t>(n) + 1 &&
              t.child_begin.front() == 0 && t.child_begin.back() == listed)
      << "malformed child index";
  ADAPT_CHECK(t.up(t.root) == -1)
      << "root " << t.root << " has parent " << t.up(t.root);

  // Every child in range, pointing back to the rank listing it, listed once.
  state.assign(static_cast<std::size_t>(n), kUnseen);
  for (Rank p = 0; p < n; ++p) {
    const int b = t.child_begin[static_cast<std::size_t>(p)];
    const int e = t.child_begin[static_cast<std::size_t>(p) + 1];
    ADAPT_CHECK(b <= e && e <= listed) << "malformed child index at " << p;
    for (const Rank c : t.kids(p)) {
      if (static_cast<std::uint32_t>(c) >= static_cast<std::uint32_t>(n) ||
          t.up(c) != p || state[static_cast<std::size_t>(c)] != kUnseen)
          [[unlikely]] {
        reject_child(t, p, c, state);
      }
      state[static_cast<std::size_t>(c)] = kListed;
    }
  }
  for (Rank r = 0; r < n; ++r) {
    ADAPT_CHECK(r == t.root || state[static_cast<std::size_t>(r)] == kListed)
        << "rank " << r << " is unreachable: no rank lists it as a child";
  }

  // Every non-root now has exactly one in-range parent, so the only way to
  // miss the root is a cycle. Walk each chain up to the first rank known to
  // reach the root, then mark the chain: O(n) over all ranks.
  state[static_cast<std::size_t>(t.root)] = kReachesRoot;
  for (Rank r = 0; r < n; ++r) {
    int steps = 0;
    for (Rank x = r; state[static_cast<std::size_t>(x)] != kReachesRoot;
         x = t.up(x)) {
      ADAPT_CHECK(++steps <= n) << "rank " << r << " is on or below a cycle";
    }
    for (Rank x = r; state[static_cast<std::size_t>(x)] != kReachesRoot;
         x = t.up(x)) {
      state[static_cast<std::size_t>(x)] = kReachesRoot;
    }
  }
}

/// Emits the edges of a `kind` shape over positions [0, n) rooted at
/// position 0 as edge(parent_pos, child_pos), each parent's children in
/// send order.
template <typename Edge>
void emit_shape(TreeKind kind, int n, int radix, Edge&& edge) {
  switch (kind) {
    case TreeKind::kChain:
      for (Rank r = 1; r < n; ++r) edge(r - 1, r);
      return;
    case TreeKind::kFlat:
      for (Rank r = 1; r < n; ++r) edge(0, r);
      return;
    case TreeKind::kBinary:
      radix = 2;
      [[fallthrough]];
    case TreeKind::kKAry:
      ADAPT_CHECK(radix >= 2);
      // Position p's children are p*k + 1 .. p*k + k.
      for (Rank p = 0, c = 1; c < n; ++p) {
        for (int m = 0; m < radix && c < n; ++m, ++c) edge(p, c);
      }
      return;
    case TreeKind::kBinomial:
      radix = 2;
      [[fallthrough]];
    case TreeKind::kKNomial: {
      const std::int64_t k = radix;
      ADAPT_CHECK(k >= 2);
      // Children of r are r + m*k^j for every radix position j below r's
      // lowest nonzero digit, descending j so the largest subtree is served
      // first. Emitted level by level: at stride k^j the parents are the
      // multiples of k^(j+1), each taking m = 1 .. k-1 in order, which
      // gives every parent the same child order without a division per
      // rank.
      std::int64_t stride = 1;
      while (stride * k < n) stride *= k;
      for (; stride >= 1; stride /= k) {
        for (std::int64_t r = 0; r + stride < n; r += stride * k) {
          for (std::int64_t m = 1, c = r + stride; m < k && c < n;
               ++m, c += stride) {
            edge(static_cast<Rank>(r), static_cast<Rank>(c));
          }
        }
      }
      return;
    }
  }
  ADAPT_UNREACHABLE("bad tree kind");
}

}  // namespace

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
  // Breadth-first over the child lists: a child is one deeper than its
  // parent.
  std::vector<int> depth_of(static_cast<std::size_t>(size()), 0);
  std::vector<Rank> order{root};
  order.reserve(static_cast<std::size_t>(size()));
  int h = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Rank r = order[i];
    const int d = depth_of[static_cast<std::size_t>(r)] + 1;
    for (const Rank c : kids(r)) {
      ADAPT_CHECK(order.size() < static_cast<std::size_t>(size()))
          << "cycle in tree";
      depth_of[static_cast<std::size_t>(c)] = d;
      h = std::max(h, d);
      order.push_back(c);
    }
  }
  return h;
}

void Tree::validate() const {
  std::vector<Rank> state;
  check_tree(*this, state);
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

TreeBuilder::TreeBuilder(int nranks, Rank root) {
  ADAPT_CHECK(nranks > 0);
  ADAPT_CHECK(root >= 0 && root < nranks) << "root " << root << " of "
                                          << nranks;
  tree_.root = root;
  tree_.parent.assign(static_cast<std::size_t>(nranks), -1);
  // n - 1 edges at most; the n-th slot lets finish() validate in place.
  edges_.reserve(static_cast<std::size_t>(nranks));
}

void TreeBuilder::edge(Rank parent, Rank child) {
  const auto n = static_cast<std::uint32_t>(tree_.size());
  if (static_cast<std::uint32_t>(parent) >= n ||
      static_cast<std::uint32_t>(child) >= n || child == tree_.root ||
      tree_.up(child) != -1) [[unlikely]] {
    reject_edge(tree_, parent, child);
  }
  tree_.parent[static_cast<std::size_t>(child)] = parent;
  edges_.push_back(child);
}

void TreeBuilder::shape(TreeKind kind, std::span<const Rank> order, Rank root,
                        int radix) {
  ADAPT_CHECK(!order.empty());
  const auto it = std::find(order.begin(), order.end(), root);
  ADAPT_CHECK(it != order.end()) << "root " << root << " not in order";
  const auto p0 = static_cast<std::size_t>(it - order.begin());
  // Position i of the shape maps to order[(i + p0) % n]; position 0 is the
  // root.
  const auto at = [&](Rank pos) {
    std::size_t i = static_cast<std::size_t>(pos) + p0;
    if (i >= order.size()) i -= order.size();
    return order[i];
  };
  emit_shape(kind, static_cast<int>(order.size()), radix,
             [&](Rank p, Rank c) { edge(at(p), at(c)); });
}

Tree TreeBuilder::finish() && {
  Tree t = std::move(tree_);
  const auto n = static_cast<std::size_t>(t.size());
  const auto parent_of = [&t](Rank c) {
    return static_cast<std::size_t>(t.parent[static_cast<std::size_t>(c)]);
  };
  // Stable counting pass: count each parent's children, turn the counts
  // into start offsets, then place the children in edge order.
  std::vector<int>& begin = t.child_begin;
  begin.assign(n + 1, 0);
  for (const Rank c : edges_) ++begin[parent_of(c)];
  int sum = 0;
  for (int& b : begin) {
    const int count = b;
    b = sum;
    sum += count;
  }
  t.child_list.resize(edges_.size());
  for (const Rank c : edges_)
    t.child_list[static_cast<std::size_t>(begin[parent_of(c)]++)] = c;
  // begin[p] now holds the end of p's run, i.e. the start of p + 1's.
  for (std::size_t r = n; r > 0; --r) begin[r] = begin[r - 1];
  begin[0] = 0;
  check_tree(t, edges_);
  return t;
}

Tree build_tree(TreeKind kind, int nranks, Rank root, int radix) {
  TreeBuilder b(nranks, root);
  // Relabel relative to the root: position i is rank (i + root) % nranks.
  const auto at = [&](Rank pos) {
    return pos + root < nranks ? pos + root : pos + root - nranks;
  };
  emit_shape(kind, nranks, radix,
             [&](Rank p, Rank c) { b.edge(at(p), at(c)); });
  return std::move(b).finish();
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
