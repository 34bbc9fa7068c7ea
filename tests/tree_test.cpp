#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "src/coll/han.hpp"
#include "src/coll/shape.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/coll/tree.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"
#include "tests/tree_reference.hpp"

namespace adapt::coll {
namespace {

std::vector<Rank> kids_of(const Tree& t, Rank r) {
  const auto kids = t.kids(r);
  return {kids.begin(), kids.end()};
}

TEST(Tree, ChainShape) {
  const Tree t = chain_tree(5, 0);
  EXPECT_EQ(t.root, 0);
  EXPECT_EQ(t.up(0), -1);
  for (Rank r = 1; r < 5; ++r) EXPECT_EQ(t.up(r), r - 1);
  EXPECT_EQ(t.height(), 4);
  EXPECT_TRUE(t.is_leaf(4));
}

TEST(Tree, ChainNonZeroRoot) {
  const Tree t = chain_tree(5, 2);
  EXPECT_EQ(t.root, 2);
  EXPECT_EQ(t.up(3), 2);
  EXPECT_EQ(t.up(4), 3);
  EXPECT_EQ(t.up(0), 4);  // wraps
  EXPECT_EQ(t.up(1), 0);
  t.validate();
}

TEST(Tree, FlatShape) {
  const Tree t = flat_tree(6, 1);
  EXPECT_EQ(t.kids(1).size(), 5u);
  EXPECT_EQ(t.height(), 1);
}

TEST(Tree, BinaryShape) {
  const Tree t = build_tree(TreeKind::kBinary, 7, 0);
  EXPECT_EQ(kids_of(t, 0), (std::vector<Rank>{1, 2}));
  EXPECT_EQ(kids_of(t, 1), (std::vector<Rank>{3, 4}));
  EXPECT_EQ(kids_of(t, 2), (std::vector<Rank>{5, 6}));
  EXPECT_EQ(t.height(), 2);
}

TEST(Tree, BinomialShape) {
  const Tree t = binomial_tree(8, 0);
  // Children of the root are 4, 2, 1 (largest subtree first).
  EXPECT_EQ(kids_of(t, 0), (std::vector<Rank>{4, 2, 1}));
  EXPECT_EQ(kids_of(t, 4), (std::vector<Rank>{6, 5}));
  EXPECT_EQ(kids_of(t, 6), (std::vector<Rank>{7}));
  EXPECT_EQ(t.height(), 3);
}

TEST(Tree, KnomialRadix4) {
  const Tree t = knomial_tree(16, 0, 4);
  // Root reaches 4, 8, 12 at stride 4 and 1, 2, 3 at stride 1.
  EXPECT_EQ(kids_of(t, 0), (std::vector<Rank>{4, 8, 12, 1, 2, 3}));
  EXPECT_EQ(kids_of(t, 4), (std::vector<Rank>{5, 6, 7}));
  EXPECT_EQ(t.height(), 2);
}

TEST(Tree, KnomialMatchesBinomialAtRadix2) {
  for (int n : {1, 2, 3, 7, 8, 13, 32}) {
    const Tree a = binomial_tree(n, 0);
    const Tree b = knomial_tree(n, 0, 2);
    EXPECT_EQ(a.parent, b.parent) << "n=" << n;
  }
}

TEST(Tree, AllKindsValidateAcrossSizesAndRoots) {
  for (TreeKind kind : {TreeKind::kChain, TreeKind::kFlat, TreeKind::kBinary,
                        TreeKind::kKAry, TreeKind::kBinomial,
                        TreeKind::kKNomial}) {
    for (int n : {1, 2, 3, 5, 8, 17, 64}) {
      for (Rank root : {0, n / 2, n - 1}) {
        const Tree t = build_tree(kind, n, root, 3);
        EXPECT_EQ(t.root, root);
        EXPECT_NO_THROW(t.validate()) << tree_kind_name(kind) << " n=" << n;
      }
    }
  }
}

TEST(Tree, DepthOfRootIsZero) {
  const Tree t = binomial_tree(16, 5);
  EXPECT_EQ(t.depth(5), 0);
}

TEST(Tree, KindNamesRoundTrip) {
  for (TreeKind kind : {TreeKind::kChain, TreeKind::kFlat, TreeKind::kBinary,
                        TreeKind::kKAry, TreeKind::kBinomial,
                        TreeKind::kKNomial}) {
    EXPECT_EQ(tree_kind_from_name(tree_kind_name(kind)), kind);
  }
  EXPECT_THROW(tree_kind_from_name("spanning"), Error);
}

// --------------------------------------------------------------- topo ---

TEST(TopoTree, LeadersGlueLevels) {
  // 2 nodes x 2 sockets x 4 cores, 16 ranks.
  topo::MachineSpec spec = topo::cori(2);
  spec.cores_per_socket = 4;
  topo::Machine m(spec, 16);
  const mpi::Comm world = mpi::Comm::world(16);
  const Tree t = build_topo_tree(m, world, 0);
  t.validate();
  // Rank 0 leads its socket, its node and the node-leader group.
  EXPECT_EQ(t.root, 0);
  // Node 1's leader is rank 8; its parent must be a rank on node 0 or another
  // node leader — with a chain of two nodes, it is rank 0.
  EXPECT_EQ(t.up(8), 0);
  // Socket leaders: rank 4 (node 0 socket 1) hangs off rank 0's socket chain
  // at node level.
  EXPECT_EQ(t.up(4), 0);
  // Within a socket, a chain: 1 <- 0, 2 <- 1, 3 <- 2.
  EXPECT_EQ(t.up(1), 0);
  EXPECT_EQ(t.up(2), 1);
  EXPECT_EQ(t.up(3), 2);
  // Leader child lists put inter-node children before intra-socket ones.
  EXPECT_EQ(t.kids(0).front(), 8);
}

TEST(TopoTree, EveryEdgeRespectsHierarchy) {
  // A topo tree must never connect two ranks whose common ancestor group
  // never linked them: a child is either in the parent's socket, or a socket
  // leader in the parent's node, or a node leader.
  topo::Machine m(topo::cori(4), 128);
  const mpi::Comm world = mpi::Comm::world(128);
  for (Rank root : {0, 37, 127}) {
    const Tree t = build_topo_tree(m, world, root);
    t.validate();
    // Whether r leads the group `same` selects: the root when it is in the
    // group, otherwise the group's lowest rank.
    const auto leads = [&](Rank r, auto same) {
      if (same(root)) return r == root;
      for (Rank o = 0; o < r; ++o) {
        if (same(o)) return false;
      }
      return true;
    };
    for (Rank r = 0; r < t.size(); ++r) {
      const Rank p = t.up(r);
      if (p == -1) continue;
      const auto level = m.level_between(p, r);
      if (level == topo::Level::kInterNode) {
        EXPECT_TRUE(
            leads(r, [&](Rank o) { return m.node_of(o) == m.node_of(r); }))
            << "inter-node child " << r << " does not lead its node";
      } else if (level == topo::Level::kInterSocket) {
        EXPECT_TRUE(
            leads(r, [&](Rank o) { return m.socket_id(o) == m.socket_id(r); }))
            << "inter-socket child " << r << " does not lead its socket";
      }
    }
  }
}

TEST(TopoTree, NonZeroRootBecomesGlobalRoot) {
  topo::Machine m(topo::cori(2), 64);
  const mpi::Comm world = mpi::Comm::world(64);
  const Tree t = build_topo_tree(m, world, 40);
  t.validate();
  EXPECT_EQ(t.root, 40);
  EXPECT_EQ(t.up(40), -1);
}

TEST(TopoTree, SingleNodeDegeneratesGracefully) {
  topo::Machine m(topo::cori(1), 8);
  const Tree t = build_topo_tree(m, mpi::Comm::world(8), 0);
  t.validate();
  EXPECT_EQ(t.root, 0);
}

TEST(TopoTree, SelectablePerLevelShapes) {
  topo::Machine m(topo::cori(4), 128);
  TopoTreeSpec spec;
  spec.node_level = TreeKind::kBinomial;
  spec.socket_level = TreeKind::kFlat;
  spec.core_level = TreeKind::kBinary;
  const Tree t = build_topo_tree(m, mpi::Comm::world(128), 0, spec);
  t.validate();
  // Binomial over 4 node leaders: root gets 2 node-leader children.
  int inter_node_kids = 0;
  for (Rank c : t.kids(0)) {
    if (m.level_between(0, c) == topo::Level::kInterNode) ++inter_node_kids;
  }
  EXPECT_EQ(inter_node_kids, 2);
}

TEST(TopoTree, SubCommunicator) {
  topo::Machine m(topo::cori(2), 64);
  // Every fourth rank only.
  std::vector<Rank> members;
  for (Rank r = 0; r < 64; r += 4) members.push_back(r);
  const mpi::Comm comm(std::move(members));
  const Tree t = build_topo_tree(m, comm, 0);
  t.validate();
  EXPECT_EQ(t.size(), 16);
}

// ---------------------------------------------------------- validation ---

constexpr TreeKind kAllKinds[] = {TreeKind::kChain,    TreeKind::kFlat,
                                  TreeKind::kBinary,   TreeKind::kKAry,
                                  TreeKind::kBinomial, TreeKind::kKNomial};

TEST(TreeBuilder, EdgesFinishInEdgeOrderPerParent) {
  TreeBuilder b(5, 2);
  b.edge(2, 4);
  b.edge(2, 0);
  b.edge(0, 3);
  b.edge(2, 1);
  const Tree t = std::move(b).finish();
  EXPECT_EQ(kids_of(t, 2), (std::vector<Rank>{4, 0, 1}));
  EXPECT_EQ(kids_of(t, 0), (std::vector<Rank>{3}));
  EXPECT_TRUE(t.is_leaf(4));
  EXPECT_EQ(t.up(3), 0);
  EXPECT_EQ(t.child_begin, (std::vector<int>{0, 1, 1, 4, 4, 4}));
  EXPECT_EQ(t.height(), 2);
}

TEST(TreeBuilder, RejectsASecondParent) {
  TreeBuilder b(4, 0);
  b.edge(0, 1);
  b.edge(0, 2);
  EXPECT_THROW(b.edge(1, 2), Error);
}

TEST(TreeBuilder, RejectsAParentForTheRoot) {
  TreeBuilder b(3, 1);
  EXPECT_THROW(b.edge(0, 1), Error);
}

TEST(TreeBuilder, RejectsOutOfRangeRanks) {
  TreeBuilder b(3, 0);
  EXPECT_THROW(b.edge(0, 3), Error);
  EXPECT_THROW(b.edge(-1, 1), Error);
  EXPECT_THROW(b.edge(5, 1), Error);
  EXPECT_THROW(b.edge(0, -2), Error);
  EXPECT_THROW(TreeBuilder(3, 3), Error);
  EXPECT_THROW(TreeBuilder(0, 0), Error);
}

TEST(TreeBuilder, RejectsAnUnreachableRank) {
  TreeBuilder b(4, 0);
  b.edge(0, 1);
  b.edge(1, 2);  // rank 3 never gets a parent
  EXPECT_THROW(std::move(b).finish(), Error);
}

TEST(TreeBuilder, RejectsACycle) {
  // 0 -> 1 is fine; 2 -> 3 -> 4 -> 2 is a cycle cut off from the root.
  TreeBuilder b(5, 0);
  b.edge(0, 1);
  b.edge(2, 3);
  b.edge(3, 4);
  b.edge(4, 2);
  EXPECT_THROW(std::move(b).finish(), Error);
}

TEST(TreeBuilder, RejectsASelfLoop) {
  TreeBuilder b(3, 0);
  b.edge(0, 1);
  b.edge(2, 2);
  EXPECT_THROW(std::move(b).finish(), Error);
}

TEST(TreeBuilder, ShapeRootMustBeInOrder) {
  TreeBuilder b(4, 0);
  const std::vector<Rank> order{1, 2, 3};
  EXPECT_THROW(b.shape(TreeKind::kChain, order, 0), Error);
  EXPECT_THROW(b.shape(TreeKind::kKAry, order, 1, 1), Error);
}

/// A hand-built CSR tree: 0 -> {1, 2}, 1 -> {3}.
Tree small_tree() {
  Tree t;
  t.root = 0;
  t.parent = {-1, 0, 0, 1};
  t.child_begin = {0, 2, 3, 3, 3};
  t.child_list = {1, 2, 3};
  return t;
}

TEST(TreeValidate, AcceptsAWellFormedTree) {
  EXPECT_NO_THROW(small_tree().validate());
}

TEST(TreeValidate, RejectsAParentForTheRoot) {
  Tree t = small_tree();
  t.parent[0] = 3;
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsAChildThatDoesNotPointBack) {
  Tree t = small_tree();
  t.parent[3] = 2;  // listed under 1
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsARankListedTwice) {
  // 0 -> {1, 1}, 1 -> {3}: rank 2 points at 0 but is never listed.
  Tree t = small_tree();
  t.child_list = {1, 1, 3};
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsAnUnreachableRank) {
  Tree t;
  t.root = 0;
  t.parent = {-1, 0, -1};
  t.child_begin = {0, 1, 1, 1};
  t.child_list = {1};
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsACycleOffTheRoot) {
  // 0 -> 1; 2 -> 3 -> 2. Every non-root is listed once under the rank it
  // points to, so only the cycle check can catch it.
  Tree t;
  t.root = 0;
  t.parent = {-1, 0, 3, 2};
  t.child_begin = {0, 1, 1, 2, 3};
  t.child_list = {1, 3, 2};
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsOutOfRangeRanks) {
  Tree t = small_tree();
  t.child_list = {1, 2, 7};
  EXPECT_THROW(t.validate(), Error);
  t = small_tree();
  t.root = 4;
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, RejectsAMalformedChildIndex) {
  Tree t = small_tree();
  t.child_begin = {0, 2, 3, 3};  // n, not n + 1, offsets
  EXPECT_THROW(t.validate(), Error);
  t = small_tree();
  t.child_begin = {0, 9, 3, 3, 3};  // runs past the list
  EXPECT_THROW(t.validate(), Error);
  t = small_tree();
  t.child_begin = {0, 2, 3, 3, 2};  // last offset short of the list
  EXPECT_THROW(t.validate(), Error);
}

TEST(TreeValidate, ChainsValidateInLinearTime) {
  // A 200k-rank chain is height n - 1: a validation that walks every rank
  // to the root would take ~2e10 steps here.
  const Tree t = chain_tree(200000, 7);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.height(), 199999);
}

// -------------------------------------------- reference equivalence ---

/// Same root, parents and ordered child lists as the nested-vector build.
::testing::AssertionResult same_tree(const Tree& t,
                                     const reference::RefTree& ref) {
  if (t.size() != ref.size() || t.root != ref.root) {
    return ::testing::AssertionFailure()
           << "size/root " << t.size() << "/" << t.root << " vs "
           << ref.size() << "/" << ref.root;
  }
  if (t.parent != ref.parent) return ::testing::AssertionFailure() << "parent";
  for (Rank r = 0; r < t.size(); ++r) {
    if (kids_of(t, r) != ref.children[static_cast<std::size_t>(r)])
      return ::testing::AssertionFailure() << "kids of " << r;
  }
  return ::testing::AssertionSuccess();
}

TEST(TreeReference, EveryShapeSizeRootAndRadix) {
  for (const TreeKind kind : kAllKinds) {
    for (const int radix : {2, 3, 4, 8}) {
      for (int n = 1; n <= 70; ++n) {
        for (Rank root = 0; root < n; ++root) {
          ASSERT_TRUE(same_tree(build_tree(kind, n, root, radix),
                                reference::build_tree(kind, n, root, radix)))
              << tree_kind_name(kind) << " radix=" << radix << " n=" << n
              << " root=" << root;
        }
      }
    }
  }
}

/// The sub-communicators the topology-aware and HAN trees are checked on.
std::vector<std::pair<const char*, mpi::Comm>> sub_comms(int n) {
  std::vector<Rank> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<Rank> reversed(all.rbegin(), all.rend());
  std::vector<Rank> strided;
  for (Rank r = 1; r < n; r += 3) strided.push_back(r);
  // A seeded random subset (about two thirds) in random order.
  std::vector<Rank> random = all;
  Rng rng(static_cast<std::uint64_t>(n) * 7919u);
  for (std::size_t i = random.size(); i > 1; --i)
    std::swap(random[i - 1], random[rng.next_below(i)]);
  random.resize(static_cast<std::size_t>(n - n / 3));
  return {{"world", mpi::Comm(all)},
          {"reversed", mpi::Comm(reversed)},
          {"strided", mpi::Comm(strided)},
          {"random", mpi::Comm(random)}};
}

std::vector<Rank> roots_of(int n) {
  std::vector<Rank> roots{0, n - 1, n / 2 + 1, n / 3};
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

TEST(TreeReference, TopoTreeEveryLevelShapeAndSubCommunicator) {
  for (const int nodes : {1, 2, 4}) {
    const topo::MachineSpec spec = topo::cori(nodes);
    const int n = nodes * spec.cores_per_node();
    const topo::Machine m(spec, n);
    for (const auto& [name, comm] : sub_comms(n)) {
      for (const Rank root : roots_of(comm.size())) {
        for (const TreeKind node_level : kAllKinds) {
          for (const TreeKind socket_level : kAllKinds) {
            for (const TreeKind core_level : kAllKinds) {
              TopoTreeSpec ts;
              ts.node_level = node_level;
              ts.socket_level = socket_level;
              ts.core_level = core_level;
              ts.radix = 2 + (root % 3);
              ASSERT_TRUE(same_tree(
                  build_topo_tree(m, comm, root, ts),
                  reference::build_topo_tree(m, comm, root, ts)))
                  << "nodes=" << nodes << " comm=" << name
                  << " root=" << root << " levels="
                  << tree_kind_name(node_level) << "/"
                  << tree_kind_name(socket_level) << "/"
                  << tree_kind_name(core_level) << " radix=" << ts.radix;
            }
          }
        }
      }
    }
  }
}

TEST(TreeReference, HanTreeOnHanCluster) {
  const int nodes = 4;
  const int ppn = 6;
  const int n = nodes * ppn;
  // Dense and scrambled rank -> node placements.
  std::vector<int> scrambled(static_cast<std::size_t>(n));
  std::iota(scrambled.begin(), scrambled.end(), 0);
  Rng rng(2024);
  for (std::size_t i = scrambled.size(); i > 1; --i)
    std::swap(scrambled[i - 1], scrambled[rng.next_below(i)]);
  const topo::Machine dense(topo::han_cluster(nodes, ppn), n);
  const topo::Machine scattered(topo::han_cluster(nodes, ppn), scrambled);
  for (const topo::Machine* m : {&dense, &scattered}) {
    for (const auto& [name, comm] : sub_comms(n)) {
      for (Rank root = 0; root < comm.size(); ++root) {
        for (const TreeKind inter : kAllKinds) {
          for (const TreeKind intra : kAllKinds) {
            TwoLevelShape hs;
            hs.inter_node = inter;
            hs.intra_node = intra;
            hs.radix = 2 + (root % 3);
            ASSERT_TRUE(
                same_tree(build_han_tree(*m, comm, root, hs),
                          reference::build_han_tree(*m, comm, root, hs)))
                << (m == &dense ? "dense" : "scrambled") << " comm=" << name
                << " root=" << root << " inter=" << tree_kind_name(inter)
                << " intra=" << tree_kind_name(intra);
          }
        }
      }
    }
  }
}

// The communicator's tree cache keys on every field of the shape: shapes
// that differ only in the socket level, the node level or the radix each
// resolve to their own tree, the one build_tree() gives fresh.
TEST(TreeCacheKey, CarriesTheFullShape) {
  // Four sockets per node, so the socket level's shape shows.
  const topo::Machine m(topo::parse_spec("nodes=4,sockets=4,cores=4"), 64);
  const mpi::Comm world = mpi::Comm::world(64);
  const TreeKind kC = TreeKind::kChain;
  const TreeKind kK = TreeKind::kKNomial;
  const std::vector<TreeShape> shapes = {
      TopoTreeSpec{},
      TopoTreeSpec{kC, TreeKind::kFlat, kC, 4},
      TopoTreeSpec{kC, kC, TreeKind::kBinomial, 4},
      TopoTreeSpec{kK, kK, kK, 2},
      TopoTreeSpec{kK, kK, kK, 3},
      RankOrderShape{kK, 2},
      RankOrderShape{kK, 4},
      TwoLevelShape{},
      TwoLevelShape{.radix = 2}};
  for (const Rank root : {Rank{0}, Rank{37}}) {
    for (const TreeShape& shape : shapes) cached_tree(m, world, root, shape);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Tree& got = cached_tree(m, world, root, shapes[i]);
      const Tree want = build_tree(m, world, root, shapes[i]);
      EXPECT_EQ(got.parent, want.parent) << "shape " << i << " root " << root;
      EXPECT_EQ(got.child_list, want.child_list)
          << "shape " << i << " root " << root;
    }
  }
}

/// Both trees hold the same parents and ordered child lists.
bool same_arrays(const Tree& a, const Tree& b) {
  return a.root == b.root && a.parent == b.parent &&
         a.child_begin == b.child_begin && a.child_list == b.child_list;
}

// A tree is built once per (machine, root, shape) and then served from the
// communicator: every later lookup, through any copy of the communicator or
// of the machine, returns the same object.
TEST(CommTreeCache, SameKeyReturnsTheSameObject) {
  const topo::Machine m(topo::cori(2), 64);
  const mpi::Comm world = mpi::Comm::world(64);
  const TreeShape shape = TopoTreeSpec{};
  const Tree& first = cached_tree(m, world, 5, shape);
  EXPECT_TRUE(same_arrays(first, build_tree(m, world, 5, shape)));
  EXPECT_EQ(&cached_tree(m, world, 5, shape), &first);
  const mpi::Comm copy = world;
  EXPECT_EQ(&cached_tree(m, copy, 5, shape), &first);
  const topo::Machine same = m;  // a copy keeps the machine's identity
  EXPECT_EQ(same.id(), m.id());
  EXPECT_EQ(&cached_tree(same, world, 5, shape), &first);
  EXPECT_NE(&cached_tree(m, world, 6, shape), &first);
  // A communicator built anew over the same members has a cache of its own.
  const mpi::Comm again = mpi::Comm::world(64);
  EXPECT_NE(&cached_tree(m, again, 5, shape), &first);
}

// Nothing ties a communicator to one machine: two machines that place the
// same ranks differently each get the tree of their own placement over one
// communicator.
TEST(CommTreeCache, MachinesWithDifferentPlacementsGetTheirOwnTrees) {
  constexpr int kRanks = 16;
  const topo::Machine dense(topo::cori(2), kRanks);  // all on node 0
  std::vector<int> slots(kRanks);
  for (int r = 0; r < kRanks; ++r)
    slots[static_cast<std::size_t>(r)] = (r % 2) * 32 + r / 2;  // cyclic
  const topo::Machine cyclic(topo::cori(2), slots);
  ASSERT_NE(dense.id(), cyclic.id());
  const mpi::Comm world = mpi::Comm::world(kRanks);
  for (const TreeShape& shape :
       {TreeShape{TopoTreeSpec{}}, TreeShape{TwoLevelShape{}}}) {
    const Tree& a = cached_tree(dense, world, 0, shape);
    const Tree& b = cached_tree(cyclic, world, 0, shape);
    EXPECT_NE(&a, &b);
    EXPECT_NE(a.parent, b.parent);
    EXPECT_TRUE(same_arrays(a, build_tree(dense, world, 0, shape)));
    EXPECT_TRUE(same_arrays(b, build_tree(cyclic, world, 0, shape)));
  }
}

// A split communicator starts with an empty cache: it never sees its
// parent's tree, a sibling's, or that of a communicator of the same size
// and first member but other members.
TEST(CommTreeCache, SplitCommNeverSeesAnotherCommsTree) {
  const topo::Machine m(topo::cori(4), 128);
  const mpi::Comm world = mpi::Comm::world(128);
  const TreeShape shape = TopoTreeSpec{};
  const Tree& whole = cached_tree(m, world, 0, shape);
  // Each part takes every fourth rank, so it spans all four nodes.
  const std::vector<mpi::Comm> parts =
      world.split_by([](Rank r) { return r % 4; });
  ASSERT_EQ(parts.size(), 4u);
  const mpi::Comm node0 = mpi::Comm([] {
    std::vector<Rank> members(32);
    std::iota(members.begin(), members.end(), 0);
    return members;
  }());
  ASSERT_EQ(node0.size(), parts[0].size());
  ASSERT_EQ(node0.global(0), parts[0].global(0));
  const Tree& on_node0 = cached_tree(m, node0, 0, shape);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Tree& t = cached_tree(m, parts[i], 0, shape);
    EXPECT_NE(&t, &whole);
    EXPECT_NE(&t, &on_node0);
    if (i > 0) {
      EXPECT_NE(&t, &cached_tree(m, parts[i - 1], 0, shape));
    }
    EXPECT_TRUE(same_arrays(t, build_tree(m, parts[i], 0, shape)))
        << "part " << i;
  }
  EXPECT_FALSE(same_arrays(on_node0, cached_tree(m, parts[0], 0, shape)));
  EXPECT_TRUE(same_arrays(on_node0, build_tree(m, node0, 0, shape)));
}

}  // namespace
}  // namespace adapt::coll
