#include "src/coll/library.hpp"

#include <algorithm>
#include <optional>

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/tune/tuner.hpp"

namespace adapt::coll {

Bytes default_segment_size(Bytes message) {
  if (message <= kib(64)) return std::max<Bytes>(1, message);
  return std::clamp<Bytes>(message / 16, kib(16), kib(128));
}

namespace {

/// Emits the "tuned <winner>" instant carrying the simulated collective
/// time when the coroutine frame unwinds — the counterpart of the
/// "tune <winner>" prediction instant, so model error is measurable from
/// the trace alone (adapt-trace summarize pairs the two).
class TunedProbe {
 public:
  TunedProbe() = default;
  TunedProbe(runtime::Context& ctx, const std::string& winner)
      : rec_(ctx.recorder()) {
    if (rec_ == nullptr) return;
    pid_ = obs::rank_pid(ctx.rank());
    name_ = "tuned " + winner;
    t0_ = rec_->now();
  }
  TunedProbe(const TunedProbe&) = delete;
  TunedProbe& operator=(const TunedProbe&) = delete;
  ~TunedProbe() {
    if (rec_ != nullptr) {
      rec_->instant(pid_, obs::kTidMain, obs::Cat::kTune, std::move(name_),
                    rec_->now(), rec_->now() - t0_);
    }
  }

 private:
  obs::Recorder* rec_ = nullptr;
  int pid_ = 0;
  std::string name_;
  TimeNs t0_ = 0;
};

/// Translates a tuned Decision into the Plan vocabulary: the tree is
/// tune::decision_shape's, so the TreeCache holds exactly the tree
/// tune::decision_tree builds.
///
/// With a recorder attached this is also the decision engine's trace hook
/// (tune::trace_choice, with the model prediction at the actual message
/// size), preceded by "tune_grid" with the candidate count when the
/// decision table missed and the grid was priced.
Plan tuned_plan(runtime::Context& ctx, tune::Tuner& tuner, tune::Op op,
                int ranks, Bytes msg, std::string& winner) {
  tune::Tuner::ChooseStats stats;
  const tune::Decision d = tuner.choose(op, ranks, msg, &stats);
  if (obs::Recorder* rec = ctx.recorder()) {
    const int pid = obs::rank_pid(ctx.rank());
    if (stats.grid_priced > 0) {
      rec->instant(pid, obs::kTidMain, obs::Cat::kTune, "tune_grid",
                   rec->now(), stats.grid_priced);
    }
    winner = tune::trace_choice(*rec, pid, stats, msg, d,
                                tuner.predict(op, ranks, d, msg));
  }
  Plan p;
  p.style = Style::kAdapt;
  p.shape = tune::decision_shape(d);
  p.opts.segment_size = tune::decision_segment(d, msg);
  return p;
}

}  // namespace

MpiLibrary::MpiLibrary(std::string name, const topo::Machine& machine,
                       PlanFn bcast_fn, PlanFn reduce_fn,
                       std::shared_ptr<tune::Tuner> own_tuner,
                       bool engine_tunable, net::GpuConfig gpu)
    : name_(std::move(name)),
      cache_(machine),
      bcast_fn_(std::move(bcast_fn)),
      reduce_fn_(std::move(reduce_fn)),
      own_tuner_(std::move(own_tuner)),
      engine_tunable_(engine_tunable),
      gpu_(gpu) {}

sim::Task<> MpiLibrary::bcast(runtime::Context& ctx, const mpi::Comm& comm,
                              mpi::MutView buffer, Rank root) {
  tune::Tuner* tuner = active_tuner(ctx);
  ADAPT_CHECK(tuner != nullptr || bcast_fn_ != nullptr)
      << name_ << " has no broadcast algorithm";
  std::string winner;
  const Plan p = tuner ? tuned_plan(ctx, *tuner, tune::Op::kBcast,
                                    comm.size(), buffer.size, winner)
                       : bcast_fn_(buffer.size);
  std::optional<TunedProbe> probe;
  if (!winner.empty()) probe.emplace(ctx, winner);
  switch (p.algo) {
    case Plan::Algo::kTree:
      co_await coll::bcast(ctx, comm, buffer, root,
                           cache_.tree(comm, root, p.shape), p.style, p.opts);
      co_return;
    case Plan::Algo::kHier:
      co_await hier_bcast(ctx, comm, buffer,
                          cache_.hier(comm, root,
                                      std::get<TwoLevelShape>(p.shape)),
                          p.style, p.opts);
      co_return;
    case Plan::Algo::kScatterAllgather:
      co_await bcast_scatter_allgather(ctx, comm, buffer, root, p.ag);
      co_return;
    case Plan::Algo::kRabenseifner:
      break;
  }
  ADAPT_UNREACHABLE("bad broadcast plan");
}

sim::Task<> MpiLibrary::reduce(runtime::Context& ctx, const mpi::Comm& comm,
                               mpi::MutView accum, mpi::ReduceOp op,
                               mpi::Datatype dtype, Rank root) {
  tune::Tuner* tuner = active_tuner(ctx);
  ADAPT_CHECK(tuner != nullptr || reduce_fn_ != nullptr)
      << name_ << " has no reduce algorithm";
  std::string winner;
  const Plan p = tuner ? tuned_plan(ctx, *tuner, tune::Op::kReduce,
                                    comm.size(), accum.size, winner)
                       : reduce_fn_(accum.size);
  std::optional<TunedProbe> probe;
  if (!winner.empty()) probe.emplace(ctx, winner);
  switch (p.algo) {
    case Plan::Algo::kTree:
      co_await coll::reduce(ctx, comm, accum, op, dtype, root,
                            cache_.tree(comm, root, p.shape), p.style, p.opts);
      co_return;
    case Plan::Algo::kHier:
      co_await hier_reduce(ctx, comm, accum, op, dtype,
                           cache_.hier(comm, root,
                                       std::get<TwoLevelShape>(p.shape)),
                           p.style, p.opts);
      co_return;
    case Plan::Algo::kRabenseifner:
      co_await reduce_rabenseifner(ctx, comm, accum, op, dtype, root, p.opts);
      co_return;
    case Plan::Algo::kScatterAllgather:
      break;
  }
  ADAPT_UNREACHABLE("bad reduce plan");
}

tune::Tuner* MpiLibrary::active_tuner(runtime::Context& ctx) const {
  if (own_tuner_) return own_tuner_.get();
  return engine_tunable_ ? ctx.tuner() : nullptr;
}

namespace {

// ------------------------------------------------------- personalities ---

/// Plan over a tree shape with the personalities' default segmentation.
Plan tree_plan(Style style, TreeShape shape, Bytes msg,
               double gamma_scale = 1.0) {
  Plan p;
  p.style = style;
  p.shape = shape;
  p.opts.segment_size = default_segment_size(msg);
  p.opts.gamma_scale = gamma_scale;
  return p;
}

Plan adapt_plan(Bytes msg) {
  // Chains at every hardware level: the paper's ADAPT configuration.
  return tree_plan(Style::kAdapt, TopoTreeSpec{}, msg);
}

Plan default_tuned_bcast(Bytes msg) {
  // The tuned decision rule: binomial below the switch point seen in Fig. 9a,
  // then a pipelined rank-order binary tree.
  Plan p;
  p.style = Style::kNonblocking;
  if (msg < kib(256)) {
    p.shape = RankOrderShape{TreeKind::kBinomial};
    p.opts.segment_size = std::max<Bytes>(1, msg);
  } else {
    p.shape = RankOrderShape{TreeKind::kBinary};
    p.opts.segment_size = kib(128);
  }
  return p;
}

Plan default_tuned_reduce(Bytes msg) {
  Plan p = default_tuned_bcast(msg);
  p.shape = RankOrderShape{TreeKind::kBinomial};
  return p;
}

Plan default_topo_plan(Bytes msg) {
  // ADAPT's tree, Algorithm-2 synchronisation: isolates the Waitall cost.
  return tree_plan(Style::kNonblocking, TopoTreeSpec{}, msg);
}

Plan cray_plan(Bytes msg) {
  // Topology-aware pipelines but blocking P2P underneath: fast when quiet,
  // fragile under noise (Fig. 7a). γ 0.6: vendor-vectorised reduction.
  return tree_plan(Style::kBlocking, TopoTreeSpec{}, msg, 0.6);
}

Plan mvapich_plan(Bytes msg) {
  Plan p;
  p.style = Style::kBlocking;
  p.shape = RankOrderShape{TreeKind::kKNomial, 4};
  // Rendezvous-sized segments: every blocking hop couples sender to receiver
  // (the paper's worst noise amplifier, Fig. 7b).
  p.opts.segment_size = msg < kib(128) ? std::max<Bytes>(1, msg) : kib(128);
  return p;
}

Plan han_plan(Bytes msg) {
  // HAN: one fused two-level tree (binomial over node leaders, k-nomial
  // within each node over the SHM channel) under the event-driven style, so
  // the levels overlap at segment granularity — the ADAPT answer to the
  // sequential intel/hier design.
  return tree_plan(Style::kAdapt, TwoLevelShape{}, msg);
}

/// Intel's sequential multi-communicator hierarchy: binomial over node
/// leaders, `intra` within each node.
Plan hier_plan(TreeKind intra, double gamma, Bytes msg) {
  Plan p = tree_plan(Style::kNonblocking,
                     TwoLevelShape{.intra_node = intra}, msg, gamma);
  p.algo = Plan::Algo::kHier;
  return p;
}

Plan flat_variant(TreeKind kind, double gamma, Bytes seg_or_zero, Bytes msg) {
  Plan p = tree_plan(Style::kNonblocking, RankOrderShape{kind}, msg, gamma);
  if (seg_or_zero > 0) p.opts.segment_size = seg_or_zero;
  return p;
}

Plan sag_variant(AllgatherAlgo algo) {
  Plan p;
  p.algo = Plan::Algo::kScatterAllgather;
  p.ag = algo;
  return p;
}

// --------------------------------------------------- GPU personalities ---

Bytes gpu_segment(Bytes msg) {
  // GPU messages are 1-32 MB; 1 MB segments keep PCIe transfers efficient
  // while still filling the pipeline.
  return std::clamp<Bytes>(msg / 8, kib(256), mib(1));
}

/// Folding device-resident data on the CPU drags every byte across PCIe and
/// back around the fold; fold cost ~ gamma + 2/bw_pcie per byte.
constexpr double kCpuFoldOfDeviceData = 1.7;

/// Plan over device-resident data: every edge moves device to device.
Plan device_plan(Style style, TreeShape shape, Bytes msg,
                 double gamma_scale = 1.0) {
  Plan p;
  p.style = style;
  p.shape = shape;
  p.opts.segment_size = gpu_segment(msg);
  p.opts.gamma_scale = gamma_scale;
  p.opts.send = {MemSpace::kDevice, MemSpace::kDevice};
  return p;
}

/// MVAPICH2-like: device-direct transfers over IPC/GPUDirect, radix-4
/// k-nomial over communicator order, Waitall pipeline, reduction on the CPU
/// (the state of practice §4.2 calls out: no GPU offload).
Plan mvapich_gpu_bcast(Bytes msg) {
  return device_plan(Style::kNonblocking,
                     RankOrderShape{TreeKind::kKNomial, 4}, msg);
}

Plan mvapich_gpu_reduce(Bytes msg) {
  return device_plan(Style::kNonblocking,
                     RankOrderShape{TreeKind::kKNomial, 4}, msg,
                     kCpuFoldOfDeviceData);
}

/// Open MPI default: the tuned decision tree was never taught about GPUs
/// (§5.2.2), so it picks a rank-order binomial even where a chain is optimal,
/// and the runtime stages everything through the root port.
Plan default_gpu_bcast(Bytes msg) {
  return device_plan(Style::kNonblocking, RankOrderShape{TreeKind::kBinomial},
                     msg);
}

Plan default_gpu_reduce(Bytes msg) {
  return device_plan(Style::kNonblocking, RankOrderShape{TreeKind::kBinomial},
                     msg, kCpuFoldOfDeviceData);
}

/// ADAPT on GPUs: topo-aware chain tree, event-driven, explicit CPU buffer
/// at node leaders so NIC traffic, cache->GPU flushes and GPU-peer copies
/// ride different PCIe lanes (§4.1).
Plan adapt_gpu_bcast(const topo::Machine& m, Bytes msg) {
  Plan p;
  p.style = Style::kAdapt;
  p.shape = TopoTreeSpec{};
  p.opts.segment_size = gpu_segment(msg);
  p.opts.gpu_host_cache = true;
  p.opts.edge_spaces = [&m](Rank src, Rank dst) -> mpi::SendOpts {
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
  return p;
}

/// ADAPT's GPU reduce: the same tree, reductions offloaded to asynchronous
/// GPU streams (§4.2).
Plan adapt_gpu_reduce(Bytes msg) {
  Plan p = device_plan(Style::kAdapt, TopoTreeSpec{}, msg);
  p.opts.gpu_reduce = true;
  return p;
}

}  // namespace

std::shared_ptr<MpiLibrary> make_library(const std::string& name,
                                         const topo::Machine& machine) {
  auto lib = [&](PlanFn b, PlanFn r, net::GpuConfig gpu = {}) {
    return std::make_shared<MpiLibrary>(name, machine, std::move(b),
                                        std::move(r), nullptr, false, gpu);
  };
  if (name == "ompi-adapt")
    // Engine-tunable: uses the heuristic adapt_plan unless the run installs
    // a Tuner via SimEngineOptions::tuning.
    return std::make_shared<MpiLibrary>(name, machine, adapt_plan, adapt_plan,
                                        nullptr, /*engine_tunable=*/true,
                                        net::GpuConfig{});
  if (name == "ompi-adapt-tuned")
    // Self-contained tuned variant: owns its Tuner, so it tunes on every
    // engine (including the ThreadEngine, which has no SimEngineOptions).
    return std::make_shared<MpiLibrary>(
        name, machine, adapt_plan, adapt_plan,
        std::make_shared<tune::Tuner>(machine), false, net::GpuConfig{});
  if (name == "ompi-default")
    return lib(default_tuned_bcast, default_tuned_reduce);
  if (name == "ompi-default-topo")
    return lib(default_topo_plan, default_topo_plan);
  if (name == "ompi-han") return lib(han_plan, han_plan);
  if (name == "cray") return lib(cray_plan, cray_plan);
  if (name == "mvapich") return lib(mvapich_plan, mvapich_plan);
  if (name == "intel")
    // γ 0.5 on reduce: vectorised reduction kernels.
    return lib([](Bytes m) { return hier_plan(TreeKind::kKNomial, 1.0, m); },
               [](Bytes m) { return hier_plan(TreeKind::kKNomial, 0.5, m); });

  // Fig. 8 Intel algorithm variants.
  if (name == "intel-topo-binomial")
    return lib([](Bytes m) { return flat_variant(TreeKind::kBinomial, 0.5, 0, m); },
               [](Bytes m) { return flat_variant(TreeKind::kBinomial, 0.5, 0, m); });
  if (name == "intel-topo-recdbl")
    return lib([](Bytes) { return sag_variant(AllgatherAlgo::kRecursiveDoubling); },
               nullptr);
  if (name == "intel-topo-ring")
    return lib([](Bytes) { return sag_variant(AllgatherAlgo::kRing); }, nullptr);
  if (name == "intel-topo-shm-flat")
    return lib([](Bytes m) { return hier_plan(TreeKind::kFlat, 0.5, m); },
               [](Bytes m) { return hier_plan(TreeKind::kFlat, 0.5, m); });
  if (name == "intel-topo-shm-knomial")
    return lib([](Bytes m) { return hier_plan(TreeKind::kKNomial, 0.5, m); },
               [](Bytes m) { return hier_plan(TreeKind::kKNomial, 0.5, m); });
  if (name == "intel-topo-shm-knary")
    return lib([](Bytes m) { return hier_plan(TreeKind::kKAry, 0.5, m); },
               [](Bytes m) { return hier_plan(TreeKind::kKAry, 0.5, m); });
  if (name == "intel-topo-shm-binomial")
    return lib(nullptr,
               [](Bytes m) { return hier_plan(TreeKind::kBinomial, 0.5, m); });
  if (name == "intel-topo-shumilin")
    return lib(nullptr, [](Bytes m) {
      // Shumilin's reduce: strongly vectorised segmented pipeline over a
      // binomial tree with deep segmentation — the variant that beats ADAPT's
      // unvectorised reduction on Omni-Path (paper §5.1.2).
      return flat_variant(TreeKind::kBinomial, 0.35, kib(64), m);
    });
  if (name == "intel-topo-rabenseifner")
    return lib(nullptr, [](Bytes m) {
      Plan p;
      p.algo = Plan::Algo::kRabenseifner;
      p.opts.gamma_scale = 0.5;
      p.opts.segment_size = default_segment_size(m);
      return p;
    });

  // GPU personalities (Fig. 11).
  auto gpu_lib = [&](PlanFn b, PlanFn r, net::GpuConfig gpu) {
    ADAPT_CHECK(machine.spec().gpus_per_socket > 0)
        << "GPU personality on a machine without GPUs";
    return lib(std::move(b), std::move(r), gpu);
  };
  if (name == "mvapich-gpu")
    return gpu_lib(mvapich_gpu_bcast, mvapich_gpu_reduce,
                   {.gpudirect = true, .peer_dma = true});
  if (name == "ompi-default-gpu")
    // No GPUDirect, no peer DMA: every transfer bounces through the root port.
    return gpu_lib(default_gpu_bcast, default_gpu_reduce,
                   {.gpudirect = false, .peer_dma = false});
  if (name == "ompi-adapt-gpu")
    return gpu_lib([&machine](Bytes m) { return adapt_gpu_bcast(machine, m); },
                   adapt_gpu_reduce, {.gpudirect = true, .peer_dma = true});
  throw Error("unknown MPI library personality: " + name);
}

std::vector<std::string> end_to_end_libraries(const std::string& cluster) {
  if (cluster == "cori")
    return {"intel", "cray", "ompi-default", "ompi-adapt"};
  if (cluster == "stampede2")
    return {"intel", "mvapich", "ompi-default", "ompi-adapt"};
  return {"intel", "cray", "mvapich", "ompi-default", "ompi-adapt"};
}

std::vector<std::string> gpu_libraries() {
  return {"mvapich-gpu", "ompi-default-gpu", "ompi-adapt-gpu"};
}

std::vector<std::string> intel_topo_bcast_variants() {
  return {"intel-topo-binomial",    "intel-topo-recdbl",
          "intel-topo-ring",        "intel-topo-shm-flat",
          "intel-topo-shm-knomial", "intel-topo-shm-knary"};
}

std::vector<std::string> intel_topo_reduce_variants() {
  return {"intel-topo-shumilin",    "intel-topo-binomial",
          "intel-topo-rabenseifner", "intel-topo-shm-flat",
          "intel-topo-shm-knomial", "intel-topo-shm-knary",
          "intel-topo-shm-binomial"};
}

}  // namespace adapt::coll
