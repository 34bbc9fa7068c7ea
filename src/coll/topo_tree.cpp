#include "src/coll/topo_tree.hpp"

#include <algorithm>
#include <utility>

#include "src/support/error.hpp"

namespace adapt::coll {

namespace {

/// Leader of a group: the root when present, otherwise the first member.
Rank leader_of(std::span<const Rank> group, Rank root) {
  ADAPT_CHECK(!group.empty());
  if (std::find(group.begin(), group.end(), root) != group.end()) return root;
  return group.front();
}

/// Calls fn(b, e) for every run [b, e) of equal key(i) in [begin, end).
template <typename Key, typename Fn>
void for_each_run(std::size_t begin, std::size_t end, Key&& key, Fn&& fn) {
  for (std::size_t b = begin, e = begin; b < end; b = e) {
    for (e = b + 1; e < end && key(e) == key(b); ++e) {
    }
    fn(b, e);
  }
}

/// Where a local rank sits; ordered by (node, socket, local rank).
struct Slot {
  int node;
  int socket;
  Rank local;
  auto operator<=>(const Slot&) const = default;
};

}  // namespace

Tree build_topo_tree(const topo::Machine& machine, const mpi::Comm& comm,
                     Rank root, const TopoTreeSpec& spec) {
  const int n = comm.size();
  ADAPT_CHECK(root >= 0 && root < n);
  const auto un = static_cast<std::size_t>(n);

  // One sort groups the ranks: each node is a run, each socket a run
  // inside it, members in local-rank order.
  std::vector<Slot> slots(un);
  for (Rank local = 0; local < n; ++local) {
    const topo::Loc& loc = machine.loc(comm.global(local));
    slots[static_cast<std::size_t>(local)] = {loc.node, loc.socket, local};
  }
  // Dense placements under a communicator in rank order arrive sorted.
  if (!std::is_sorted(slots.begin(), slots.end()))
    std::sort(slots.begin(), slots.end());
  std::vector<Rank> members(un);
  for (std::size_t i = 0; i < un; ++i) members[i] = slots[i].local;
  const std::span<const Rank> ranks(members);
  const auto node_at = [&](std::size_t i) { return slots[i].node; };
  const auto socket_at = [&](std::size_t i) {
    return std::pair(slots[i].node, slots[i].socket);
  };
  const auto lead = [&](std::size_t b, std::size_t e) {
    return leader_of(ranks.subspan(b, e - b), root);
  };

  // Edges upper level first, so leaders' child lists start with their
  // slow-lane (inter-node, then inter-socket) children. The root leads its
  // socket and node; any other node is led by its first member, which
  // leads the node's first socket.
  TreeBuilder b(n, root);
  std::vector<Rank> leaders;  // one level's leaders
  leaders.reserve(un);
  for_each_run(0, un, node_at, [&](std::size_t lo, std::size_t hi) {
    leaders.push_back(lead(lo, hi));
  });
  if (leaders.size() > 1) b.shape(spec.node_level, leaders, root, spec.radix);
  for_each_run(0, un, node_at, [&](std::size_t node_lo, std::size_t node_hi) {
    leaders.clear();
    for_each_run(node_lo, node_hi, socket_at,
                 [&](std::size_t lo, std::size_t hi) {
                   leaders.push_back(lead(lo, hi));
                 });
    if (leaders.size() < 2) return;
    b.shape(spec.socket_level, leaders, leader_of(leaders, root), spec.radix);
  });
  for_each_run(0, un, socket_at, [&](std::size_t lo, std::size_t hi) {
    if (hi - lo < 2) return;
    b.shape(spec.core_level, ranks.subspan(lo, hi - lo), lead(lo, hi),
            spec.radix);
  });
  return std::move(b).finish();
}

}  // namespace adapt::coll
