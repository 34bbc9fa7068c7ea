#include "src/coll/library.hpp"

#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>

#include "src/coll/han.hpp"
#include "src/coll/hierarchical.hpp"
#include "src/coll/moreops.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/tune/tuner.hpp"

namespace adapt::coll {

Bytes default_segment_size(Bytes message) {
  if (message <= kib(64)) return std::max<Bytes>(1, message);
  return std::clamp<Bytes>(message / 16, kib(16), kib(128));
}

namespace {

/// How a personality picks the communication tree.
struct TreeChoice {
  bool topo = false;        ///< ADAPT-style single-comm topology-aware tree
  TreeKind kind = TreeKind::kBinomial;  ///< rank-order shape when !topo
  int radix = 4;
  TopoTreeSpec topo_spec;   ///< per-level shapes when topo
};

/// One collective's execution recipe for a given message size.
struct Plan {
  enum class Algo { kTree, kHier, kHan, kScatterAllgather, kRabenseifner };
  Algo algo = Algo::kTree;
  Style style = Style::kNonblocking;
  TreeChoice tree;
  HierSpec hier;
  HanSpec han;
  AllgatherAlgo ag = AllgatherAlgo::kRing;
  Bytes segment = kib(128);
  int outstanding_sends = 2;
  int outstanding_recvs = 4;
  double gamma_scale = 1.0;
};

using PlanFn = std::function<Plan(Bytes message)>;

/// Caches built trees and node decompositions. A topology tree depends on the
/// communicator's full membership, so the key carries its fingerprint:
/// sub-communicators of equal size and first member but different members
/// don't collide.
class TreeCache {
 public:
  explicit TreeCache(const topo::Machine& machine) : machine_(machine) {}

  const Tree& get(const mpi::Comm& comm, Rank root, const TreeChoice& c) {
    const Key key{comm.fingerprint(), root, c.topo,
                  static_cast<int>(c.kind), c.radix,
                  static_cast<int>(c.topo_spec.core_level)};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      Tree t = c.topo ? build_topo_tree(machine_, comm, root, c.topo_spec)
                      : build_tree(c.kind, comm.size(), root, c.radix);
      it = cache_.emplace(key, std::move(t)).first;
    }
    return it->second;
  }

  /// The fused HAN tree, keyed by everything build_han_tree reads of the
  /// spec: the inter-node and intra-node shapes and the radix.
  const Tree& han(const mpi::Comm& comm, Rank root, const HanSpec& spec) {
    const HanKey key{comm.fingerprint(), root,
                     static_cast<int>(spec.inter_node),
                     static_cast<int>(spec.intra_node), spec.radix};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = han_.find(key);
    if (it == han_.end()) {
      it = han_.emplace(key, build_han_tree(machine_, comm, root, spec)).first;
    }
    return it->second;
  }

  const HanGroups& groups(const mpi::Comm& comm, Rank root) {
    const std::pair<std::uint64_t, Rank> key{comm.fingerprint(), root};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(key, han_groups(comm, machine_, root)).first;
    }
    return it->second;
  }

 private:
  using Key = std::tuple<std::uint64_t, Rank, bool, int, int, int>;
  using HanKey = std::tuple<std::uint64_t, Rank, int, int, int>;
  const topo::Machine& machine_;
  std::mutex mutex_;
  std::map<Key, Tree> cache_;
  std::map<HanKey, Tree> han_;
  std::map<std::pair<std::uint64_t, Rank>, HanGroups> groups_;
};

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

/// Translates a tuned Decision into the Plan vocabulary. The TreeCache key
/// distinguishes the tuned shapes via (topo, kind, radix, core_level), so
/// tuned and heuristic trees coexist in one cache.
///
/// With a recorder attached this is also the decision engine's trace hook:
/// it bumps tuner.{hits,misses} and the tuner.bucket histogram, and emits a
/// kTune "tune <winner>" instant carrying the model prediction at the
/// actual message size (plus "tune_grid" with the candidate count when the
/// decision table missed and the grid was priced).
Plan tuned_plan(runtime::Context& ctx, tune::Tuner& tuner, tune::Op op,
                int ranks, Bytes msg, std::string* winner_out = nullptr) {
  tune::Tuner::ChooseStats stats;
  const tune::Decision d = tuner.choose(op, ranks, msg, &stats);
  if (obs::Recorder* rec = ctx.recorder()) {
    const std::string winner = tune::decision_label(d);
    obs::MetricsRegistry& m = rec->metrics();
    m.counter(stats.cache_hit ? "tuner.hits" : "tuner.misses") += 1;
    m.histogram("tuner.bucket").record(tune::Tuner::bucket(msg));
    const int pid = obs::rank_pid(ctx.rank());
    if (stats.grid_priced > 0) {
      rec->instant(pid, obs::kTidMain, obs::Cat::kTune, "tune_grid",
                   rec->now(), stats.grid_priced);
    }
    rec->instant(pid, obs::kTidMain, obs::Cat::kTune, "tune " + winner,
                 rec->now(), tuner.predict(op, ranks, d, msg));
    if (winner_out != nullptr) *winner_out = winner;
  }
  Plan p;
  p.style = tuner.options().style;
  p.segment = tune::decision_segment(d, msg);
  switch (d.topology) {
    case tune::Topology::kTopoChain: p.tree.topo = true; break;
    case tune::Topology::kTopoKnomial:
      p.tree.topo = true;
      p.tree.kind = TreeKind::kKNomial;
      p.tree.radix = d.radix;
      p.tree.topo_spec.core_level = TreeKind::kKNomial;
      p.tree.topo_spec.socket_level = TreeKind::kKNomial;
      p.tree.topo_spec.node_level = TreeKind::kKNomial;
      p.tree.topo_spec.radix = d.radix;
      break;
    case tune::Topology::kBinomial: p.tree.kind = TreeKind::kBinomial; break;
    case tune::Topology::kChain: p.tree.kind = TreeKind::kChain; break;
    case tune::Topology::kHan:
      p.algo = Plan::Algo::kHan;
      p.han.radix = d.radix;
      break;
  }
  return p;
}

class PlanLibrary final : public MpiLibrary {
 public:
  /// `own_tuner` (the "-tuned" personality) makes tuning unconditional;
  /// `engine_tunable` consults the engine's Context::tuner() when the run
  /// opted in via SimEngineOptions::tuning and falls back to the heuristic
  /// PlanFns otherwise.
  PlanLibrary(std::string name, const topo::Machine& machine, PlanFn bcast_fn,
              PlanFn reduce_fn,
              std::shared_ptr<tune::Tuner> own_tuner = nullptr,
              bool engine_tunable = false)
      : name_(std::move(name)),
        cache_(machine),
        bcast_fn_(std::move(bcast_fn)),
        reduce_fn_(std::move(reduce_fn)),
        own_tuner_(std::move(own_tuner)),
        engine_tunable_(engine_tunable) {}

  std::string name() const override { return name_; }

  sim::Task<> bcast(runtime::Context& ctx, const mpi::Comm& comm,
                    mpi::MutView buffer, Rank root) override {
    tune::Tuner* tuner = active_tuner(ctx);
    ADAPT_CHECK(tuner != nullptr || bcast_fn_ != nullptr)
        << name_ << " has no broadcast algorithm";
    std::string winner;
    const Plan p = tuner ? tuned_plan(ctx, *tuner, tune::Op::kBcast,
                                      comm.size(), buffer.size, &winner)
                         : bcast_fn_(buffer.size);
    std::optional<TunedProbe> probe;
    if (!winner.empty()) probe.emplace(ctx, winner);
    const CollOpts opts = make_opts(p);
    switch (p.algo) {
      case Plan::Algo::kTree:
        co_await coll::bcast(ctx, comm, buffer, root,
                             cache_.get(comm, root, p.tree), p.style, opts);
        co_return;
      case Plan::Algo::kHier: {
        HierSpec spec = p.hier;
        spec.style = p.style;
        spec.opts = opts;
        co_await hier_bcast(ctx, comm, buffer, root,
                            cache_.groups(comm, root), spec);
        co_return;
      }
      case Plan::Algo::kHan:
        co_await coll::bcast(ctx, comm, buffer, root,
                             cache_.han(comm, root, p.han), p.style, opts);
        co_return;
      case Plan::Algo::kScatterAllgather:
        co_await bcast_scatter_allgather(ctx, comm, buffer, root, p.ag);
        co_return;
      case Plan::Algo::kRabenseifner:
        break;
    }
    ADAPT_UNREACHABLE("bad broadcast plan");
  }

  sim::Task<> reduce(runtime::Context& ctx, const mpi::Comm& comm,
                     mpi::MutView accum, mpi::ReduceOp op,
                     mpi::Datatype dtype, Rank root) override {
    tune::Tuner* tuner = active_tuner(ctx);
    ADAPT_CHECK(tuner != nullptr || reduce_fn_ != nullptr)
        << name_ << " has no reduce algorithm";
    std::string winner;
    const Plan p = tuner ? tuned_plan(ctx, *tuner, tune::Op::kReduce,
                                      comm.size(), accum.size, &winner)
                         : reduce_fn_(accum.size);
    std::optional<TunedProbe> probe;
    if (!winner.empty()) probe.emplace(ctx, winner);
    const CollOpts opts = make_opts(p);
    switch (p.algo) {
      case Plan::Algo::kTree:
        co_await coll::reduce(ctx, comm, accum, op, dtype, root,
                              cache_.get(comm, root, p.tree), p.style, opts);
        co_return;
      case Plan::Algo::kHier: {
        HierSpec spec = p.hier;
        spec.style = p.style;
        spec.opts = opts;
        co_await hier_reduce(ctx, comm, accum, op, dtype, root,
                             cache_.groups(comm, root), spec);
        co_return;
      }
      case Plan::Algo::kHan:
        co_await coll::reduce(ctx, comm, accum, op, dtype, root,
                              cache_.han(comm, root, p.han), p.style, opts);
        co_return;
      case Plan::Algo::kRabenseifner:
        co_await reduce_rabenseifner(ctx, comm, accum, op, dtype, root, opts);
        co_return;
      case Plan::Algo::kScatterAllgather:
        break;
    }
    ADAPT_UNREACHABLE("bad reduce plan");
  }

 private:
  static CollOpts make_opts(const Plan& p) {
    CollOpts opts;
    opts.segment_size = p.segment;
    opts.outstanding_sends = p.outstanding_sends;
    opts.outstanding_recvs = p.outstanding_recvs;
    opts.gamma_scale = p.gamma_scale;
    return opts;
  }

  tune::Tuner* active_tuner(runtime::Context& ctx) const {
    if (own_tuner_) return own_tuner_.get();
    return engine_tunable_ ? ctx.tuner() : nullptr;
  }

  std::string name_;
  TreeCache cache_;
  PlanFn bcast_fn_;
  PlanFn reduce_fn_;
  std::shared_ptr<tune::Tuner> own_tuner_;
  bool engine_tunable_ = false;
};

// ------------------------------------------------------- personalities ---

TreeChoice topo_chains() {
  TreeChoice c;
  c.topo = true;  // chains at every level: the paper's ADAPT configuration
  return c;
}

TreeChoice rank_order(TreeKind kind, int radix = 4) {
  TreeChoice c;
  c.kind = kind;
  c.radix = radix;
  return c;
}

Plan adapt_plan(Bytes msg) {
  Plan p;
  p.style = Style::kAdapt;
  p.tree = topo_chains();
  p.segment = default_segment_size(msg);
  return p;
}

Plan default_tuned_bcast(Bytes msg) {
  // The tuned decision rule: binomial below the switch point seen in Fig. 9a,
  // then a pipelined rank-order binary tree.
  Plan p;
  p.style = Style::kNonblocking;
  if (msg < kib(256)) {
    p.tree = rank_order(TreeKind::kBinomial);
    p.segment = std::max<Bytes>(1, msg);
  } else {
    p.tree = rank_order(TreeKind::kBinary);
    p.segment = kib(128);
  }
  return p;
}

Plan default_tuned_reduce(Bytes msg) {
  Plan p = default_tuned_bcast(msg);
  p.tree = rank_order(TreeKind::kBinomial);
  return p;
}

Plan default_topo_plan(Bytes msg) {
  // ADAPT's tree, Algorithm-2 synchronisation: isolates the Waitall cost.
  Plan p;
  p.style = Style::kNonblocking;
  p.tree = topo_chains();
  p.segment = default_segment_size(msg);
  return p;
}

Plan cray_plan(Bytes msg) {
  // Topology-aware pipelines but blocking P2P underneath: fast when quiet,
  // fragile under noise (Fig. 7a).
  Plan p;
  p.style = Style::kBlocking;
  p.tree = topo_chains();
  p.segment = default_segment_size(msg);
  p.gamma_scale = 0.6;  // vendor-vectorised reduction
  return p;
}

Plan mvapich_plan(Bytes msg) {
  Plan p;
  p.style = Style::kBlocking;
  p.tree = rank_order(TreeKind::kKNomial, 4);
  // Rendezvous-sized segments: every blocking hop couples sender to receiver
  // (the paper's worst noise amplifier, Fig. 7b).
  p.segment = msg < kib(128) ? std::max<Bytes>(1, msg) : kib(128);
  return p;
}

Plan han_plan(Bytes msg) {
  // HAN: one fused two-level tree (binomial over node leaders, k-nomial
  // within each node over the SHM channel) under the event-driven style, so
  // the levels overlap at segment granularity — the ADAPT answer to the
  // sequential intel/hier design.
  Plan p;
  p.algo = Plan::Algo::kHan;
  p.style = Style::kAdapt;
  p.segment = default_segment_size(msg);
  return p;
}

Plan intel_plan_bcast(Bytes msg) {
  Plan p;
  p.algo = Plan::Algo::kHier;
  p.style = Style::kNonblocking;
  p.hier.inter_node = TreeKind::kBinomial;
  p.hier.intra_node = TreeKind::kKNomial;
  p.hier.radix = 4;
  p.segment = default_segment_size(msg);
  return p;
}

Plan intel_plan_reduce(Bytes msg) {
  Plan p = intel_plan_bcast(msg);
  p.gamma_scale = 0.5;  // vectorised reduction kernels
  return p;
}

Plan hier_variant(TreeKind intra, double gamma, Bytes msg) {
  Plan p;
  p.algo = Plan::Algo::kHier;
  p.style = Style::kNonblocking;
  p.hier.inter_node = TreeKind::kBinomial;
  p.hier.intra_node = intra;
  p.hier.radix = 4;
  p.segment = default_segment_size(msg);
  p.gamma_scale = gamma;
  return p;
}

Plan flat_variant(TreeKind kind, double gamma, Bytes seg_or_zero, Bytes msg) {
  Plan p;
  p.style = Style::kNonblocking;
  p.tree = rank_order(kind);
  p.segment = seg_or_zero > 0 ? seg_or_zero : default_segment_size(msg);
  p.gamma_scale = gamma;
  return p;
}

Plan sag_variant(AllgatherAlgo algo) {
  Plan p;
  p.algo = Plan::Algo::kScatterAllgather;
  p.ag = algo;
  return p;
}

}  // namespace

std::shared_ptr<MpiLibrary> make_library(const std::string& name,
                                         const topo::Machine& machine) {
  auto lib = [&](PlanFn b, PlanFn r) {
    return std::make_shared<PlanLibrary>(name, machine, std::move(b),
                                         std::move(r));
  };
  if (name == "ompi-adapt")
    // Engine-tunable: uses the heuristic adapt_plan unless the run installs
    // a Tuner via SimEngineOptions::tuning.
    return std::make_shared<PlanLibrary>(name, machine, adapt_plan, adapt_plan,
                                         nullptr, /*engine_tunable=*/true);
  if (name == "ompi-adapt-tuned")
    // Self-contained tuned variant: owns its Tuner, so it tunes on every
    // engine (including the ThreadEngine, which has no SimEngineOptions).
    return std::make_shared<PlanLibrary>(
        name, machine, adapt_plan, adapt_plan,
        std::make_shared<tune::Tuner>(machine), false);
  if (name == "ompi-default")
    return lib(default_tuned_bcast, default_tuned_reduce);
  if (name == "ompi-default-topo")
    return lib(default_topo_plan, default_topo_plan);
  if (name == "ompi-han") return lib(han_plan, han_plan);
  if (name == "cray") return lib(cray_plan, cray_plan);
  if (name == "mvapich") return lib(mvapich_plan, mvapich_plan);
  if (name == "intel") return lib(intel_plan_bcast, intel_plan_reduce);

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
    return lib([](Bytes m) { return hier_variant(TreeKind::kFlat, 0.5, m); },
               [](Bytes m) { return hier_variant(TreeKind::kFlat, 0.5, m); });
  if (name == "intel-topo-shm-knomial")
    return lib([](Bytes m) { return hier_variant(TreeKind::kKNomial, 0.5, m); },
               [](Bytes m) { return hier_variant(TreeKind::kKNomial, 0.5, m); });
  if (name == "intel-topo-shm-knary")
    return lib([](Bytes m) { return hier_variant(TreeKind::kKAry, 0.5, m); },
               [](Bytes m) { return hier_variant(TreeKind::kKAry, 0.5, m); });
  if (name == "intel-topo-shm-binomial")
    return lib(nullptr,
               [](Bytes m) { return hier_variant(TreeKind::kBinomial, 0.5, m); });
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
      p.gamma_scale = 0.5;
      p.segment = default_segment_size(m);
      return p;
    });
  throw Error("unknown MPI library personality: " + name);
}

std::vector<std::string> end_to_end_libraries(const std::string& cluster) {
  if (cluster == "cori")
    return {"intel", "cray", "ompi-default", "ompi-adapt"};
  if (cluster == "stampede2")
    return {"intel", "mvapich", "ompi-default", "ompi-adapt"};
  return {"intel", "cray", "mvapich", "ompi-default", "ompi-adapt"};
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
