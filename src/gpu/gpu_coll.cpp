#include "src/gpu/gpu_coll.hpp"

#include <algorithm>

#include "src/coll/shape.hpp"
#include "src/support/error.hpp"

namespace adapt::gpu {

namespace {

using coll::CollOpts;
using coll::Style;
using coll::Tree;

Bytes gpu_segment(Bytes msg) {
  // GPU messages are 1-32 MB; 1 MB segments keep PCIe transfers efficient
  // while still filling the pipeline.
  return std::clamp<Bytes>(msg / 8, kib(256), mib(1));
}

class BaseGpuLibrary : public GpuLibrary {
 public:
  BaseGpuLibrary(std::string name, const topo::Machine& machine)
      : name_(std::move(name)), machine_(machine), trees_(machine) {}
  std::string name() const override { return name_; }

 protected:
  /// The topology-aware tree, chains at every level (§5.2.1), when `topo`;
  /// else a radix-4 k-nomial over communicator order.
  const Tree& tree_for(const mpi::Comm& comm, Rank root, bool topo) {
    if (topo) return trees_.tree(comm, root, coll::TopoTreeSpec{});
    return trees_.tree(comm, root,
                       coll::RankOrderShape{coll::TreeKind::kKNomial, 4});
  }

  std::string name_;
  const topo::Machine& machine_;
  coll::TreeCache trees_;
};

/// MVAPICH2-like: device-direct transfers over IPC/GPUDirect, k-nomial tree,
/// Waitall pipeline, reduction on the CPU (the state of practice §4.2 calls
/// out: no GPU offload).
class MvapichGpu final : public BaseGpuLibrary {
 public:
  using BaseGpuLibrary::BaseGpuLibrary;
  net::GpuConfig gpu_config() const override { return {true, true}; }

  sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView buffer, Rank root) override {
    CollOpts opts;
    opts.segment_size = gpu_segment(buffer.size);
    opts.send = {MemSpace::kDevice, MemSpace::kDevice};
    co_await coll::bcast(ctx, comm, buffer, root,
                         tree_for(comm, root, false), Style::kNonblocking,
                         opts);
  }

  sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                     Rank root) override {
    CollOpts opts;
    opts.segment_size = gpu_segment(accum.size);
    opts.send = {MemSpace::kDevice, MemSpace::kDevice};
    opts.gpu_reduce = false;  // CPU reduction on staged data
    // Folding device-resident data on the CPU drags every byte across PCIe
    // and back around the fold; fold cost ~ gamma + 2/bw_pcie per byte.
    opts.gamma_scale = 1.7;
    co_await coll::reduce(ctx, comm, accum, op, dtype, root,
                          tree_for(comm, root, false), Style::kNonblocking,
                          opts);
  }
};

/// Open MPI default: the tuned decision tree was never taught about GPUs
/// (§5.2.2), so it picks a rank-order binomial even where a chain is optimal,
/// and the runtime stages everything through the root port.
class DefaultGpu final : public BaseGpuLibrary {
 public:
  using BaseGpuLibrary::BaseGpuLibrary;
  net::GpuConfig gpu_config() const override { return {false, false}; }

  sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView buffer, Rank root) override {
    CollOpts opts;
    opts.segment_size = gpu_segment(buffer.size);
    opts.send = {MemSpace::kDevice, MemSpace::kDevice};
    Tree t = coll::build_tree(coll::TreeKind::kBinomial, comm.size(), root);
    co_await coll::bcast(ctx, comm, buffer, root, t, Style::kNonblocking,
                         opts);
  }

  sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                     Rank root) override {
    CollOpts opts;
    opts.segment_size = gpu_segment(accum.size);
    opts.send = {MemSpace::kDevice, MemSpace::kDevice};
    opts.gamma_scale = 1.7;  // CPU fold of device data (see MvapichGpu)
    Tree t = coll::build_tree(coll::TreeKind::kBinomial, comm.size(), root);
    co_await coll::reduce(ctx, comm, accum, op, dtype, root, t,
                          Style::kNonblocking, opts);
  }
};

/// ADAPT on GPUs: topo-aware chain tree, event-driven, explicit CPU buffer at
/// node leaders so NIC traffic, cache->GPU flushes and GPU-peer copies ride
/// different PCIe lanes (§4.1), and reductions offloaded to streams (§4.2).
class AdaptGpu final : public BaseGpuLibrary {
 public:
  using BaseGpuLibrary::BaseGpuLibrary;
  net::GpuConfig gpu_config() const override { return {true, true}; }

  CollOpts adapt_opts(Bytes msg) const {
    CollOpts opts;
    opts.segment_size = gpu_segment(msg);
    opts.gpu_host_cache = true;
    const topo::Machine& m = machine_;
    opts.edge_spaces = [&m](Rank src, Rank dst) -> mpi::SendOpts {
      switch (m.level_between(src, dst)) {
        case topo::Level::kInterNode:
          // leader host cache -> leader host cache over the NIC's own lanes
          return {MemSpace::kHost, MemSpace::kHost};
        case topo::Level::kInterSocket:
          // host cache -> socket leader's GPU (QPI + pcie_down)
          return {MemSpace::kHost, MemSpace::kDevice};
        default:
          // switch-local GPU peer DMA
          return {MemSpace::kDevice, MemSpace::kDevice};
      }
    };
    return opts;
  }

  sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView buffer, Rank root) override {
    co_await coll::bcast(ctx, comm, buffer, root, tree_for(comm, root, true),
                         Style::kAdapt, adapt_opts(buffer.size));
  }

  sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::MutView accum, mpi::ReduceOp op, mpi::Datatype dtype,
                     Rank root) override {
    CollOpts opts;
    opts.segment_size = gpu_segment(accum.size);
    opts.send = {MemSpace::kDevice, MemSpace::kDevice};
    opts.gpu_reduce = true;  // §4.2: asynchronous reduction on streams
    co_await coll::reduce(ctx, comm, accum, op, dtype, root,
                          tree_for(comm, root, true), Style::kAdapt, opts);
  }
};

}  // namespace

std::shared_ptr<GpuLibrary> make_gpu_library(const std::string& name,
                                             const topo::Machine& machine) {
  ADAPT_CHECK(machine.spec().gpus_per_socket > 0)
      << "GPU personality on a machine without GPUs";
  if (name == "mvapich-gpu")
    return std::make_shared<MvapichGpu>(name, machine);
  if (name == "ompi-default-gpu")
    return std::make_shared<DefaultGpu>(name, machine);
  if (name == "ompi-adapt-gpu")
    return std::make_shared<AdaptGpu>(name, machine);
  throw Error("unknown GPU library personality: " + name);
}

std::vector<std::string> gpu_libraries() {
  return {"mvapich-gpu", "ompi-default-gpu", "ompi-adapt-gpu"};
}

}  // namespace adapt::gpu
