// MPI "library personalities": the algorithm + synchronisation structures of
// the libraries the paper compares against, expressed in this framework.
//
// The real comparators are closed source; what the paper observes about them
// (and what drives every figure) is WHICH algorithm family and HOW much
// synchronisation each uses. Each personality pins those two choices as a
// Plan per message size: one algorithm, one tree shape (coll::TreeShape,
// shape.hpp: rank-order kind + radix, topology TopoTreeSpec, or two-level
// TwoLevelShape), one Style and one CollOpts. The shape resolves to a tree,
// or for `intel` to its level-by-level HierLevels, through the cache on the
// communicator (shape.hpp's cached_tree / cached_hier): built on the first
// call per (machine, root, shape) and replayed after, whichever personality
// asks. Tuned plans take their shape from tune::decision_shape.
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
// GPU personalities (§5.2.2, Fig. 11; GPU-resident data, one rank per GPU,
// machines with GPUs only). Their plans' CollOpts carry the device memory
// spaces, and each also prescribes the engine routing it assumes
// (gpu_config(), for SimEngineOptions::gpu):
//
//   mvapich-gpu         device-direct k-nomial, CUDA IPC (peer DMA) and
//                       GPUDirect enabled, CPU-side reduction
//   ompi-default-gpu    decision tree not tuned for GPUs: rank-order binomial,
//                       no peer DMA, no GPUDirect — every transfer bounces
//                       through the socket's PCIe root port (Fig. 6b)
//   ompi-adapt-gpu      ADAPT event-driven on the topo tree, explicit CPU
//                       buffer at node leaders (§4.1) and reductions
//                       offloaded to GPU streams (§4.2)
//
// Tuning constants (segment sizes, radices, γ scales) are this model's
// honest knobs; EXPERIMENTS.md records them next to the results.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/coll/moreops.hpp"
#include "src/coll/shape.hpp"
#include "src/net/routes.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::tune {
class Tuner;
}  // namespace adapt::tune

namespace adapt::coll {

/// One collective's execution recipe for a given message size: which
/// algorithm runs over which tree shape, in which synchronisation style,
/// with which CollOpts.
struct Plan {
  enum class Algo { kTree, kHier, kScatterAllgather, kRabenseifner };
  Algo algo = Algo::kTree;
  Style style = Style::kNonblocking;
  TreeShape shape;  ///< kTree: any shape; kHier: a TwoLevelShape
  AllgatherAlgo ag = AllgatherAlgo::kRing;
  CollOpts opts;
};

using PlanFn = std::function<Plan(Bytes message)>;

/// A personality bound to a machine: one plan function per collective; the
/// trees its plans name are cached on each communicator. Built by
/// make_library.
class MpiLibrary {
 public:
  /// `own_tuner` (the "-tuned" personality) makes tuning unconditional;
  /// `engine_tunable` consults the engine's Context::tuner() when the run
  /// opted in via SimEngineOptions::tuning and falls back to the heuristic
  /// PlanFns otherwise. `gpu` is the engine routing the plans assume.
  MpiLibrary(std::string name, const topo::Machine& machine, PlanFn bcast_fn,
             PlanFn reduce_fn, std::shared_ptr<tune::Tuner> own_tuner,
             bool engine_tunable, net::GpuConfig gpu);

  std::string name() const { return name_; }
  /// Engine routing configuration this personality assumes ({} for CPU
  /// personalities).
  net::GpuConfig gpu_config() const { return gpu_; }

  sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView buffer, Rank root);
  sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::MutView accum, mpi::ReduceOp op,
                     mpi::Datatype dtype, Rank root);

 private:
  tune::Tuner* active_tuner(runtime::Context& ctx) const;

  std::string name_;
  const topo::Machine& machine_;
  PlanFn bcast_fn_;
  PlanFn reduce_fn_;
  std::shared_ptr<tune::Tuner> own_tuner_;
  bool engine_tunable_ = false;
  net::GpuConfig gpu_;
};

/// Instantiates a personality bound to a machine. Known names: the CPU and
/// GPU personalities above, every Fig. 8 variant (see
/// intel_topo_bcast_variants / intel_topo_reduce_variants).
std::shared_ptr<MpiLibrary> make_library(const std::string& name,
                                         const topo::Machine& machine);

/// End-to-end comparison sets (Figs. 7, 9, 10).
std::vector<std::string> end_to_end_libraries(const std::string& cluster);

/// The GPU comparison set (Fig. 11).
std::vector<std::string> gpu_libraries();

/// The Fig. 8 legend entries.
std::vector<std::string> intel_topo_bcast_variants();
std::vector<std::string> intel_topo_reduce_variants();

/// Pipeline segment size the personalities use for a message (shared by
/// ADAPT and the topo-aware baselines): whole message below 64 KB, then
/// msg/16 clamped to [16 KB, 128 KB] so pipelines have enough segments.
Bytes default_segment_size(Bytes message);

}  // namespace adapt::coll
