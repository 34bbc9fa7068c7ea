#include "src/coll/shape.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

namespace adapt::coll {

Tree build_tree(const topo::Machine& machine, const mpi::Comm& comm,
                Rank root, const TreeShape& shape) {
  if (const auto* s = std::get_if<RankOrderShape>(&shape))
    return build_tree(s->kind, comm.size(), root, s->radix);
  if (const auto* s = std::get_if<TopoTreeSpec>(&shape))
    return build_topo_tree(machine, comm, root, *s);
  return build_han_tree(machine, comm, root, std::get<TwoLevelShape>(shape));
}

namespace {

/// One communicator's resolved shapes: mpi::CommState::coll_attr. Entries
/// are never evicted, so references into the map stay valid for its life.
struct CommTrees {
  struct Entry {
    std::optional<Tree> tree;
    std::optional<HierLevels> hier;
  };
  std::map<std::tuple<std::uint64_t, Rank, TreeShape>, Entry> entries;
};

/// `state`'s entry for (machine, root, shape), created empty on first use.
/// The caller holds state.coll_mutex.
CommTrees::Entry& entry(const mpi::CommState& state,
                        const topo::Machine& machine, Rank root,
                        const TreeShape& shape) {
  if (!state.coll_attr) state.coll_attr = std::make_shared<CommTrees>();
  auto& trees = *static_cast<CommTrees*>(state.coll_attr.get());
  return trees.entries[{machine.id(), root, shape}];
}

}  // namespace

const Tree& cached_tree(const topo::Machine& machine, const mpi::Comm& comm,
                        Rank root, const TreeShape& shape) {
  const mpi::CommState& state = *comm.state();
  std::lock_guard<std::mutex> lock(state.coll_mutex);
  CommTrees::Entry& e = entry(state, machine, root, shape);
  if (!e.tree) e.tree = build_tree(machine, comm, root, shape);
  return *e.tree;
}

const HierLevels& cached_hier(const topo::Machine& machine,
                              const mpi::Comm& comm, Rank root,
                              const TwoLevelShape& shape) {
  const mpi::CommState& state = *comm.state();
  std::lock_guard<std::mutex> lock(state.coll_mutex);
  CommTrees::Entry& e = entry(state, machine, root, shape);
  if (!e.hier) e.hier = hier_levels(machine, comm, root, shape);
  return *e.hier;
}

}  // namespace adapt::coll
