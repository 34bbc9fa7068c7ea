#include "src/coll/shape.hpp"

namespace adapt::coll {

Tree build_tree(const topo::Machine& machine, const mpi::Comm& comm,
                Rank root, const TreeShape& shape) {
  if (const auto* s = std::get_if<RankOrderShape>(&shape))
    return build_tree(s->kind, comm.size(), root, s->radix);
  if (const auto* s = std::get_if<TopoTreeSpec>(&shape))
    return build_topo_tree(machine, comm, root, *s);
  return build_han_tree(machine, comm, root, std::get<TwoLevelShape>(shape));
}

const Tree& TreeCache::tree(const mpi::Comm& comm, Rank root,
                            const TreeShape& shape) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[{comm.fingerprint(), root, shape}];
  if (!e.tree) e.tree = build_tree(machine_, comm, root, shape);
  return *e.tree;
}

const HierLevels& TreeCache::hier(const mpi::Comm& comm, Rank root,
                                  const TwoLevelShape& shape) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entries_[{comm.fingerprint(), root, shape}];
  if (!e.hier) e.hier = hier_levels(machine_, comm, root, shape);
  return *e.hier;
}

}  // namespace adapt::coll
