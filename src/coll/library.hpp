// MPI "library personalities": the algorithm + synchronisation structures of
// the libraries the paper compares against, expressed in this framework.
//
// The real comparators are closed source; what the paper observes about them
// (and what drives every figure) is WHICH algorithm family and HOW much
// synchronisation each uses. Each personality pins those two choices as a
// plan per message size: one algorithm, one tree shape (coll::TreeShape,
// shape.hpp: rank-order kind + radix, topology TopoTreeSpec, or two-level
// TwoLevelShape), one Style and one CollOpts. The shape resolves to a tree,
// or for `intel` to its level-by-level HierLevels, through the library's one
// TreeCache, built on the first call per (communicator, root, shape) and
// replayed after. Tuned plans take their shape from tune::decision_shape.
//
//   ompi-adapt          ADAPT event-driven + single-comm topo tree (chains);
//                       consults the run's tuner (Context::tuner()) instead
//                       of the heuristics when SimEngineOptions::tuning is set
//   ompi-adapt-tuned    ompi-adapt with its own always-on decision engine
//                       (src/tune): topology/segment/radix from the Hockney
//                       cost model, cached per (op, comm size, size bucket)
//   ompi-han            HAN-style two-level: the default TwoLevelShape fused
//                       into one tree (binomial over node leaders + k-nomial
//                       per node over the SHM channel) under the event-driven
//                       style, levels overlapping at segment granularity
//   ompi-default        Open MPI "tuned": nonblocking + Waitall, rank-order
//                       trees, message-size decision rules
//   ompi-default-topo   tuned's nonblocking style on ADAPT's topo tree
//                       (isolates the Waitall penalty, Fig. 8)
//   cray                topology-aware but blocking-P2P pipelines
//   mvapich             blocking k-nomial, rank-order
//   intel               hierarchical multi-communicator: the same
//                       TwoLevelShape run level by level (hier_bcast /
//                       hier_reduce), vectorised reduction
//   intel-topo-*        the Fig. 8 Intel algorithm variants
//
// Tuning constants (segment sizes, radices, γ scales) are this model's
// honest knobs; EXPERIMENTS.md records them next to the results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::coll {

class MpiLibrary {
 public:
  virtual ~MpiLibrary() = default;
  virtual std::string name() const = 0;
  virtual sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                            mpi::MutView buffer, Rank root) = 0;
  virtual sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                             mpi::MutView accum, mpi::ReduceOp op,
                             mpi::Datatype dtype, Rank root) = 0;
};

/// Instantiates a personality bound to a machine. Known names: the four
/// end-to-end libraries above plus every Fig. 8 variant (see
/// intel_topo_bcast_variants / intel_topo_reduce_variants).
std::shared_ptr<MpiLibrary> make_library(const std::string& name,
                                         const topo::Machine& machine);

/// End-to-end comparison sets (Figs. 7, 9, 10).
std::vector<std::string> end_to_end_libraries(const std::string& cluster);

/// The Fig. 8 legend entries.
std::vector<std::string> intel_topo_bcast_variants();
std::vector<std::string> intel_topo_reduce_variants();

/// Pipeline segment size the personalities use for a message (shared by
/// ADAPT and the topo-aware baselines): whole message below 64 KB, then
/// msg/16 clamped to [16 KB, 128 KB] so pipelines have enough segments.
Bytes default_segment_size(Bytes message);

}  // namespace adapt::coll
