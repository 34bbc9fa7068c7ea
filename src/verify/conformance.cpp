#include "src/verify/conformance.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "src/coll/han.hpp"
#include "src/coll/library.hpp"
#include "src/coll/persistent.hpp"
#include "src/obs/export.hpp"
#include "src/obs/merge.hpp"
#include "src/obs/trace.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/coll/tree.hpp"
#include "src/mpi/errors.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"
#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"
#include "src/verify/chaos.hpp"
#include "src/verify/faulty.hpp"
#include "src/verify/oracle.hpp"

namespace adapt::verify {

// ------------------------------------------------------------------ names ---

const char* engine_name(EngineKind engine) {
  switch (engine) {
    case EngineKind::kSim: return "sim";
    case EngineKind::kThread: return "thread";
    case EngineKind::kSharded: return "sharded";
  }
  return "?";
}

const char* collective_name(Collective collective) {
  switch (collective) {
    case Collective::kBcast: return "bcast";
    case Collective::kReduce: return "reduce";
    case Collective::kAllreduce: return "allreduce";
    case Collective::kScatter: return "scatter";
    case Collective::kGather: return "gather";
    case Collective::kAllgather: return "allgather";
    case Collective::kBarrier: return "barrier";
    case Collective::kLibBcast: return "lib_bcast";
    case Collective::kLibReduce: return "lib_reduce";
  }
  return "?";
}

const char* comm_name(CommKind comm) {
  switch (comm) {
    case CommKind::kWorld: return "world";
    case CommKind::kEven: return "even";
    case CommKind::kSlice: return "slice";
  }
  return "?";
}

const char* tree_name(TreeChoice tree) {
  switch (tree) {
    case TreeChoice::kTopo: return "topo";
    case TreeChoice::kBinomial: return "binomial";
    case TreeChoice::kChain: return "chain";
    case TreeChoice::kHan: return "han";
  }
  return "?";
}

const char* rankmap_name(RankMap map) {
  switch (map) {
    case RankMap::kDense: return "dense";
    case RankMap::kReversed: return "reversed";
    case RankMap::kStrided: return "strided";
    case RankMap::kRandom: return "random";
  }
  return "?";
}

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kGatherArrivalOrder: return "gather_arrival_order";
    case Fault::kNoRetransmit: return "no_retransmit";
  }
  return "?";
}

const char* chaos_name(ChaosClass chaos) {
  switch (chaos) {
    case ChaosClass::kOff: return "off";
    case ChaosClass::kSoft: return "soft";
    case ChaosClass::kKill: return "kill";
  }
  return "?";
}

namespace {

const char* ag_name(coll::AllgatherAlgo algo) {
  return algo == coll::AllgatherAlgo::kRing ? "ring" : "recdbl";
}

/// Generic reverse lookup over a small enum range via its name function.
template <typename E, typename NameFn>
bool enum_from_name(const std::string& name, int count, NameFn name_of,
                    E* out) {
  for (int i = 0; i < count; ++i) {
    const E candidate = static_cast<E>(i);
    if (name == name_of(candidate)) {
      *out = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

// ----------------------------------------------------------- repro strings ---

std::vector<Rank> comm_members(CommKind comm, int world) {
  ADAPT_CHECK(world >= 2) << "conformance world of " << world << " ranks";
  std::vector<Rank> members;
  switch (comm) {
    case CommKind::kWorld:
      for (Rank r = 0; r < world; ++r) members.push_back(r);
      break;
    case CommKind::kEven:
      for (Rank r = 0; r < world; r += 2) members.push_back(r);
      break;
    case CommKind::kSlice:
      for (Rank r = 2; r < world - 2; ++r) members.push_back(r);
      break;
  }
  ADAPT_CHECK(members.size() >= 2)
      << comm_name(comm) << " communicator of world " << world
      << " has fewer than 2 members";
  return members;
}

std::string repro_string(const CaseConfig& config, const RunSpec& spec,
                         Fault fault) {
  std::ostringstream out;
  out << "collective=" << collective_name(config.collective)
      << " style=" << coll::style_name(config.style)
      << " lib=" << (config.library.empty() ? "-" : config.library)
      << " ag=" << ag_name(config.ag_algo)
      << " dtype=" << mpi::datatype_name(config.dtype)
      << " op=" << mpi::op_name(config.op) << " world=" << config.world
      << " comm=" << comm_name(config.comm) << " root=" << config.root
      << " bytes=" << config.bytes << " seg=" << config.segment
      << " N=" << config.n_out << " M=" << config.m_out
      << " tree=" << tree_name(config.tree)
      << " ppn=" << config.ppn
      << " rankmap=" << rankmap_name(config.rankmap)
      << " data_seed=" << config.data_seed
      << " persistent=" << (config.persistent ? 1 : 0)
      << " starts=" << config.starts << " parts=" << config.partitions
      << " engine=" << engine_name(spec.engine)
      << " perturb_seed=" << spec.perturb_seed << " jitter=" << spec.jitter
      << " chaos=" << chaos_name(spec.chaos)
      << " chaos_seed=" << spec.chaos_seed
      << " wd_detect=" << spec.wd_detect
      << " wd_quiesce=" << spec.wd_quiesce << " wd_bomb=" << spec.wd_bomb
      << " shards=" << spec.shards << " fault=" << fault_name(fault);
  return out.str();
}

bool parse_repro(const std::string& line, CaseConfig* config, RunSpec* spec,
                 Fault* fault) {
  CaseConfig cfg;
  RunSpec run;
  Fault flt = Fault::kNone;
  bool saw_collective = false;

  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    auto as_int = [&](auto* out) {
      try {
        *out = static_cast<std::remove_pointer_t<decltype(out)>>(
            std::stoll(value));
      } catch (...) {
        return false;
      }
      return true;
    };
    auto as_u64 = [&](std::uint64_t* out) {
      try {
        *out = std::stoull(value);
      } catch (...) {
        return false;
      }
      return true;
    };
    bool ok = true;
    if (key == "collective") {
      ok = enum_from_name(value, 9, collective_name, &cfg.collective);
      saw_collective = ok;
    } else if (key == "style") {
      ok = enum_from_name(value, 3, coll::style_name, &cfg.style);
    } else if (key == "lib") {
      cfg.library = value == "-" ? "" : value;
    } else if (key == "ag") {
      if (value == "ring") {
        cfg.ag_algo = coll::AllgatherAlgo::kRing;
      } else if (value == "recdbl") {
        cfg.ag_algo = coll::AllgatherAlgo::kRecursiveDoubling;
      } else {
        ok = false;
      }
    } else if (key == "dtype") {
      ok = enum_from_name(value, 5, mpi::datatype_name, &cfg.dtype);
    } else if (key == "op") {
      ok = enum_from_name(value, 6, mpi::op_name, &cfg.op);
    } else if (key == "world") {
      ok = as_int(&cfg.world);
    } else if (key == "comm") {
      ok = enum_from_name(value, 3, comm_name, &cfg.comm);
    } else if (key == "root") {
      ok = as_int(&cfg.root);
    } else if (key == "bytes") {
      ok = as_int(&cfg.bytes);
    } else if (key == "seg") {
      ok = as_int(&cfg.segment);
    } else if (key == "N") {
      ok = as_int(&cfg.n_out);
    } else if (key == "M") {
      ok = as_int(&cfg.m_out);
    } else if (key == "tree") {
      ok = enum_from_name(value, 4, tree_name, &cfg.tree);
    } else if (key == "ppn") {
      // Absent on pre-HAN repro lines; those parse to the default machine.
      ok = as_int(&cfg.ppn) && cfg.ppn >= 0;
    } else if (key == "rankmap") {
      ok = enum_from_name(value, 4, rankmap_name, &cfg.rankmap);
    } else if (key == "data_seed") {
      ok = as_u64(&cfg.data_seed);
    } else if (key == "persistent") {
      // Absent on pre-persistent repro lines; those parse to the default.
      int flag = 0;
      ok = as_int(&flag) && (flag == 0 || flag == 1);
      cfg.persistent = flag == 1;
    } else if (key == "starts") {
      ok = as_int(&cfg.starts);
    } else if (key == "parts") {
      ok = as_int(&cfg.partitions);
    } else if (key == "engine") {
      ok = enum_from_name(value, 3, engine_name, &run.engine);
    } else if (key == "perturb_seed") {
      ok = as_u64(&run.perturb_seed);
    } else if (key == "jitter") {
      ok = as_int(&run.jitter);
    } else if (key == "chaos") {
      ok = enum_from_name(value, 3, chaos_name, &run.chaos);
    } else if (key == "chaos_seed") {
      ok = as_u64(&run.chaos_seed);
    } else if (key == "wd_detect") {
      ok = as_int(&run.wd_detect) && run.wd_detect > 0;
    } else if (key == "wd_quiesce") {
      ok = as_int(&run.wd_quiesce) && run.wd_quiesce > 0;
    } else if (key == "wd_bomb") {
      ok = as_int(&run.wd_bomb) && run.wd_bomb > 0;
    } else if (key == "shards") {
      // Absent on pre-sharded repro lines; those parse to the default.
      ok = as_int(&run.shards) && run.shards >= 1;
    } else if (key == "fault") {
      ok = enum_from_name(value, 3, fault_name, &flt);
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  if (!saw_collective) return false;
  *config = cfg;
  *spec = run;
  if (fault) *fault = flt;
  return true;
}

// -------------------------------------------------------------- one case ----

namespace {

bool tree_based(Collective c) {
  return c == Collective::kBcast || c == Collective::kReduce ||
         c == Collective::kAllreduce;
}

coll::Tree make_tree(const CaseConfig& config, const topo::Machine& machine,
                     const mpi::Comm& comm, Rank root) {
  switch (config.tree) {
    case TreeChoice::kTopo:
      return coll::build_topo_tree(machine, comm, root);
    case TreeChoice::kBinomial:
      return coll::binomial_tree(comm.size(), root);
    case TreeChoice::kChain:
      return coll::chain_tree(comm.size(), root);
    case TreeChoice::kHan:
      return coll::build_han_tree(machine, comm, root);
  }
  ADAPT_UNREACHABLE("bad tree choice");
}

/// Core slots realising a ppn row's rank→core placement over `total`
/// (= nodes × ppn) dense slots. Every map is injective, so the Machine
/// constructor's occupancy check cannot fire.
std::vector<int> case_slots(RankMap map, int world, int nodes, int ppn,
                            std::uint64_t seed) {
  const int total = nodes * ppn;
  std::vector<int> slots(static_cast<std::size_t>(world));
  switch (map) {
    case RankMap::kDense:
      for (int r = 0; r < world; ++r) slots[static_cast<std::size_t>(r)] = r;
      break;
    case RankMap::kReversed:
      for (int r = 0; r < world; ++r)
        slots[static_cast<std::size_t>(r)] = total - 1 - r;
      break;
    case RankMap::kStrided:
      // Round-robin across nodes: consecutive ranks always land on
      // different nodes, the inverse of the dense blocked placement.
      for (int r = 0; r < world; ++r)
        slots[static_cast<std::size_t>(r)] = (r % nodes) * ppn + r / nodes;
      break;
    case RankMap::kRandom: {
      std::vector<int> all(static_cast<std::size_t>(total));
      for (int s = 0; s < total; ++s) all[static_cast<std::size_t>(s)] = s;
      Rng rng(SplitMix64(seed * 0x9E37 + 0xC0FFEE).next());
      for (std::size_t i = all.size(); i > 1; --i) {
        std::swap(all[i - 1], all[rng.next_below(i)]);
      }
      for (int r = 0; r < world; ++r)
        slots[static_cast<std::size_t>(r)] = all[static_cast<std::size_t>(r)];
      break;
    }
  }
  return slots;
}

/// The engine machine for a case: the legacy dual-socket cori pair, or (ppn
/// rows) a han_cluster with the case's rank→core placement.
topo::Machine case_machine(const CaseConfig& config) {
  if (config.ppn <= 0) return topo::Machine(topo::cori(2), config.world);
  const int nodes = (config.world + config.ppn - 1) / config.ppn;
  const topo::MachineSpec spec = topo::han_cluster(nodes, config.ppn);
  if (config.rankmap == RankMap::kDense) {
    return topo::Machine(spec, config.world);
  }
  return topo::Machine(spec, case_slots(config.rankmap, config.world, nodes,
                                        config.ppn, config.data_seed));
}

/// Diffs every local rank's observable buffer against the oracle;
/// `skip_local` (chaos runs) marks dead ranks whose buffers are unspecified.
std::string diff_buffers(const CaseIo& io,
                         const std::vector<std::vector<std::byte>>& observed,
                         const mpi::Comm& comm,
                         const std::vector<char>* skip_local = nullptr) {
  for (std::size_t i = 0; i < io.expected.size(); ++i) {
    if (!io.expected[i]) continue;
    if (skip_local && (*skip_local)[i]) continue;
    const auto& want = *io.expected[i];
    const auto& got = observed[i];
    if (got.size() != want.size()) {
      std::ostringstream out;
      out << "local rank " << i << " (global " << comm.global(static_cast<Rank>(i))
          << "): buffer is " << got.size() << "B, want " << want.size() << "B";
      return out.str();
    }
    for (std::size_t b = 0; b < want.size(); ++b) {
      if (got[b] != want[b]) {
        std::ostringstream out;
        out << "local rank " << i << " (global "
            << comm.global(static_cast<Rank>(i)) << ") differs at byte " << b
            << " of " << want.size() << ": got 0x" << std::hex
            << static_cast<int>(got[b]) << ", want 0x"
            << static_cast<int>(want[b]);
        return out.str();
      }
    }
  }
  return {};
}

/// One run of `config` under `spec`, diffed against the oracle. `sharing`
/// selects the SimEngine's fabric; `finish`, when set, receives every rank's
/// finish time of a SimEngine or sharded run.
std::optional<std::string> run_once(const CaseConfig& config,
                                    const RunSpec& spec, Fault fault,
                                    std::shared_ptr<obs::Recorder> recorder,
                                    net::SharingPolicy sharing,
                                    std::vector<TimeNs>* finish) {
  const std::vector<Rank> members = comm_members(config.comm, config.world);
  const int p = static_cast<int>(members.size());
  ADAPT_CHECK(config.root >= 0 && config.root < p)
      << "root " << config.root << " outside communicator of " << p;

  const bool chaos = spec.chaos != ChaosClass::kOff;
  ADAPT_CHECK(!chaos || spec.engine == EngineKind::kSim)
      << "chaos runs require the sim engine";
  net::FaultPlan plan;
  if (chaos) {
    plan = make_chaos_plan(spec.chaos, spec.chaos_seed, members, config.world);
  }

  const CaseIo io = make_io(config);
  const topo::Machine machine = case_machine(config);
  const mpi::Comm comm(members);

  // Working buffers: in-place collectives mutate `work`; scatter/gather
  // deliver into `out` (poisoned so untouched bytes are visible in diffs).
  std::vector<std::vector<std::byte>> work = io.inputs;
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  const bool uses_out = config.collective == Collective::kScatter ||
                        config.collective == Collective::kGather;
  if (config.collective == Collective::kScatter) {
    for (auto& o : out)
      o.assign(static_cast<std::size_t>(config.bytes), std::byte(0xCD));
  } else if (config.collective == Collective::kGather) {
    out[static_cast<std::size_t>(config.root)].assign(
        static_cast<std::size_t>(config.bytes) * static_cast<std::size_t>(p),
        std::byte(0xCD));
  }

  // Persistent rows: one handle init, `starts` start/wait rounds. Round r
  // runs on payloads drawn from data_seed + r and is diffed against its own
  // oracle, so a schedule that is only right once (stale pipeline counters,
  // unreset gating state, cross-round tag matches) cannot pass.
  const int rounds = config.persistent ? std::max(1, config.starts) : 1;
  std::vector<CaseIo> round_io;
  std::vector<std::vector<std::vector<std::byte>>> round_observed;
  std::vector<int> clean_rounds(static_cast<std::size_t>(config.world), 0);
  if (config.persistent) {
    ADAPT_CHECK(tree_based(config.collective) ||
                config.collective == Collective::kBarrier)
        << "persistent rows cover bcast/reduce/allreduce/barrier";
    ADAPT_CHECK(config.partitions == 0 || tree_based(config.collective))
        << "partitioned persistent rows need a data-carrying collective";
    round_io.push_back(io);
    for (int r = 1; r < rounds; ++r) {
      CaseConfig c = config;
      c.data_seed += static_cast<std::uint64_t>(r);
      round_io.push_back(make_io(c));
    }
    round_observed.assign(
        static_cast<std::size_t>(rounds),
        std::vector<std::vector<std::byte>>(static_cast<std::size_t>(p)));
  }

  // Allreduce composes reduce-to-0 + bcast-from-0, so its trees are rooted
  // at local rank 0 regardless of config.root.
  const Rank tree_root =
      config.collective == Collective::kAllreduce ? 0 : config.root;
  coll::Tree tree;
  if (tree_based(config.collective)) {
    tree = make_tree(config, machine, comm, tree_root);
  }
  std::shared_ptr<coll::MpiLibrary> library;
  if (config.collective == Collective::kLibBcast ||
      config.collective == Collective::kLibReduce) {
    ADAPT_CHECK(!config.library.empty()) << "library case without a library";
    library = coll::make_library(config.library, machine);
  }

  coll::CollOpts opts;
  opts.segment_size = config.segment;
  opts.outstanding_sends = config.n_out;
  opts.outstanding_recvs = config.m_out;

  std::atomic<int> entered{0};
  std::atomic<bool> barrier_violated{false};

  const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    const Rank g = ctx.rank();
    if (!comm.contains(g)) co_return;
    const Rank me = comm.local_of(g);
    const std::size_t mi = static_cast<std::size_t>(me);
    auto view = [&](std::vector<std::byte>& buf) {
      return mpi::MutView{buf.data(), static_cast<Bytes>(buf.size())};
    };
    switch (config.collective) {
      case Collective::kBcast:
        co_await coll::bcast(ctx, comm, view(work[mi]), config.root, tree,
                             config.style, opts);
        break;
      case Collective::kReduce:
        co_await coll::reduce(ctx, comm, view(work[mi]), config.op,
                              config.dtype, config.root, tree, config.style,
                              opts);
        break;
      case Collective::kAllreduce:
        co_await coll::allreduce(ctx, comm, view(work[mi]), config.op,
                                 config.dtype, tree, tree, config.style, opts);
        break;
      case Collective::kScatter:
        co_await coll::scatter(ctx, comm, view(work[mi]).as_const(),
                               view(out[mi]), config.bytes, config.root);
        break;
      case Collective::kGather:
        if (fault == Fault::kGatherArrivalOrder) {
          co_await faulty_gather_arrival_order(
              ctx, comm, view(work[mi]).as_const(), view(out[mi]),
              config.bytes, config.root);
        } else {
          co_await coll::gather(ctx, comm, view(work[mi]).as_const(),
                                view(out[mi]), config.bytes, config.root);
        }
        break;
      case Collective::kAllgather:
        co_await coll::allgather(ctx, comm, view(work[mi]), config.bytes,
                                 config.ag_algo);
        break;
      case Collective::kBarrier:
        entered.fetch_add(1);
        co_await coll::barrier(ctx, comm);
        if (entered.load() < p) barrier_violated.store(true);
        break;
      case Collective::kLibBcast:
        co_await library->bcast(ctx, comm, view(work[mi]), config.root);
        break;
      case Collective::kLibReduce:
        co_await library->reduce(ctx, comm, view(work[mi]), config.op,
                                 config.dtype, config.root);
        break;
    }
  };

  const auto persistent_program = [&](runtime::Context& ctx) -> sim::Task<> {
    const Rank g = ctx.rank();
    if (!comm.contains(g)) co_return;
    const Rank me = comm.local_of(g);
    const std::size_t mi = static_cast<std::size_t>(me);
    auto& buf = work[mi];
    const mpi::MutView bound{buf.data(), static_cast<Bytes>(buf.size())};

    coll::PersistentOpts popts;
    popts.coll = opts;
    popts.partitions = config.partitions;
    // kTopo rows exercise the engine plan cache (one plan shared by every
    // rank); the explicit tree shapes pin a private, uncached plan.
    if (config.tree != TreeChoice::kTopo && config.collective != Collective::kBarrier) {
      popts.tree = &tree;
    }
    coll::PersistentOpPtr op;
    switch (config.collective) {
      case Collective::kBcast:
        op = coll::bcast_init(ctx, comm, bound, config.root, popts);
        break;
      case Collective::kReduce:
        op = coll::reduce_init(ctx, comm, bound, config.op, config.dtype,
                               config.root, popts);
        break;
      case Collective::kAllreduce:
        op = coll::allreduce_init(ctx, comm, bound, config.op, config.dtype,
                                  popts);
        break;
      case Collective::kBarrier:
        op = coll::barrier_init(ctx, comm, popts);
        break;
      default:
        ADAPT_UNREACHABLE("persistent row on a non-persistent collective");
    }

    for (int r = 0; r < rounds; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      // MPI-4 persistent semantics: the buffer BINDING is fixed at init;
      // only its contents change — refill with this round's payload.
      const auto& input = round_io[ri].inputs[mi];
      if (!input.empty()) std::memcpy(buf.data(), input.data(), input.size());
      const mpi::ErrCode rc = op->start();
      ADAPT_CHECK(rc == mpi::ErrCode::kOk) << mpi::err_name(rc);
      if (config.partitions > 0) {
        // Seeded out-of-order pready: a deterministic shuffle per
        // (rank, round), so ranks ready partitions in clashing orders and
        // the result must not care.
        std::vector<int> order(static_cast<std::size_t>(config.partitions));
        for (int i = 0; i < config.partitions; ++i)
          order[static_cast<std::size_t>(i)] = i;
        Rng rng(SplitMix64(config.data_seed * 7919 +
                           static_cast<std::uint64_t>(g) * 131 +
                           static_cast<std::uint64_t>(r))
                    .next());
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.next_below(i)]);
        }
        for (const int part : order) {
          const mpi::ErrCode pc = op->pready(part);
          ADAPT_CHECK(pc == mpi::ErrCode::kOk) << mpi::err_name(pc);
        }
      }
      co_await op->wait();
      round_observed[ri][mi] = buf;  // snapshot before the next refill
      clean_rounds[static_cast<std::size_t>(g)] = r + 1;
    }
  };

  // Everything downstream (the chaos wrapper, both engines) runs `body`.
  const auto body = [&](runtime::Context& ctx) -> sim::Task<> {
    if (config.persistent) {
      co_await persistent_program(ctx);
    } else {
      co_await program(ctx);
    }
  };

  // Per-global-rank chaos outcome: the error each rank's collective call
  // surfaced (kOk = completed clean), and whether the rank's wrapper ran to
  // the end (unfinished at the bomb = undetected hang).
  std::vector<mpi::ErrCode> outcome(static_cast<std::size_t>(config.world),
                                    mpi::ErrCode::kOk);
  std::vector<char> finished(static_cast<std::size_t>(config.world), 0);

  try {
    if (spec.engine == EngineKind::kSim) {
      runtime::SimEngineOptions engine_opts;
      engine_opts.sharing = sharing;
      engine_opts.recorder = std::move(recorder);
      if (spec.perturb_seed != 0) {
        engine_opts.perturb = sim::PerturbConfig{
            spec.perturb_seed, /*shuffle_ties=*/true, spec.jitter};
      }
      if (chaos) {
        engine_opts.faults = plan;
        // kNoRetransmit is the chaos self-test: the lossy fabric meets the
        // seed's perfect-delivery protocols and the classifier must notice.
        if (fault != Fault::kNoRetransmit) {
          engine_opts.reliability = chaos_reliability();
        }
      }
      runtime::SimEngine engine(machine, engine_opts);
      if (!chaos) {
        const runtime::RunResult result = engine.run(body);
        if (finish) *finish = result.rank_finish;
      } else {
        const auto chaos_program = [&](runtime::Context& ctx) -> sim::Task<> {
          const Rank g = ctx.rank();
          if (!comm.contains(g)) co_return;
          const std::size_t gi = static_cast<std::size_t>(g);
          try {
            co_await body(ctx);
          } catch (const mpi::FaultError& e) {
            outcome[gi] = e.code();
          }
          // Quiesce: an abort flood may still be in flight toward a rank
          // that finished clean; give it time to land before judging.
          if (ctx.now() < spec.wd_quiesce) {
            co_await ctx.sleep_for(spec.wd_quiesce - ctx.now());
          }
          if (outcome[gi] == mpi::ErrCode::kOk && ctx.endpoint().poisoned()) {
            outcome[gi] = ctx.endpoint().poison_code();
          }
          finished[gi] = 1;
        };
        engine.simulator().at(spec.wd_detect, [&] {
          for (Rank g : members) {
            mpi::Endpoint& ep = engine.endpoint(g);
            if (!ep.poisoned() && ep.has_pending()) {
              engine.initiate_abort(g, mpi::ErrCode::kErrProcFailed);
            }
          }
        });
        engine.simulator().at(spec.wd_bomb, [&] {
          for (Rank g : members) {
            if (!finished[static_cast<std::size_t>(g)]) {
              engine.poison_rank(g, mpi::ErrCode::kErrWatchdog);
            }
          }
        });
        engine.run(chaos_program);
      }
    } else if (spec.engine == EngineKind::kSharded) {
      ADAPT_CHECK(spec.perturb_seed == 0)
          << "the sharded engine's keyed event order is incompatible with "
             "schedule perturbation";
      ADAPT_CHECK(!config.persistent)
          << "persistent rows need the SimEngine plan cache";
      runtime::ShardedEngineOptions engine_opts;
      engine_opts.shards = spec.shards;
      engine_opts.recorder = std::move(recorder);
      runtime::SimEngine engine(machine, engine_opts);
      const runtime::RunResult result = engine.run(body);
      if (finish) *finish = result.rank_finish;
    } else {
      runtime::ThreadEngine engine(machine);
      engine.run(body);
    }
  } catch (const std::exception& e) {
    return std::string("engine run failed: ") + e.what();
  }

  // Chaos classification: every live rank must either finish clean (then
  // all payloads are diffed byte-for-byte below) or report the same error
  // code. Anything else — disagreement, or a hang only the bomb caught —
  // is a conformance failure.
  std::vector<char> dead_local;
  if (chaos) {
    const auto dead_global = [&](Rank g) {
      for (const auto& d : plan.deaths) {
        if (d.rank == g) return true;
      }
      return false;
    };
    std::optional<mpi::ErrCode> agreed;
    bool mixed = false;
    std::ostringstream codes;
    for (Rank g : members) {
      if (dead_global(g)) continue;
      mpi::ErrCode code = outcome[static_cast<std::size_t>(g)];
      // Retry exhaustion is the *detection*; the job-wide verdict it
      // escalates to is "a process failed".
      if (code == mpi::ErrCode::kErrRetryExhausted) {
        code = mpi::ErrCode::kErrProcFailed;
      }
      codes << " rank" << g << "=" << mpi::err_name(code);
      if (!agreed) {
        agreed = code;
      } else if (*agreed != code) {
        mixed = true;
      }
    }
    ADAPT_CHECK(agreed.has_value()) << "chaos case with no live ranks";
    if (mixed) {
      return "chaos: live ranks disagree on the outcome:" + codes.str();
    }
    if (*agreed == mpi::ErrCode::kErrWatchdog) {
      return "chaos: watchdog bomb fired — the runtime never detected the "
             "failure:" +
             codes.str();
    }
    if (*agreed != mpi::ErrCode::kOk && !config.persistent) {
      return std::nullopt;  // a uniform, clean error is an accepted outcome
    }
    // Persistent + uniform error: the failing start surfaced one consistent
    // code, which is accepted — but every round the whole job completed
    // BEFORE it must still be byte-exact, so fall through to the diff.
    dead_local.assign(static_cast<std::size_t>(p), 0);
    for (Rank i = 0; i < p; ++i) {
      if (dead_global(comm.global(i))) {
        dead_local[static_cast<std::size_t>(i)] = 1;
      }
    }
  }

  if (config.collective == Collective::kBarrier) {
    // Persistent barrier rounds have no entered-counter instrumentation;
    // their correctness is round completion + the chaos uniformity gate.
    if (!config.persistent && barrier_violated.load()) {
      return std::string("barrier: a rank exited before all ") +
             std::to_string(p) + " members entered";
    }
    return std::nullopt;
  }
  if (config.persistent) {
    // Per-round byte-exactness. Judge only rounds every live rank finished
    // cleanly: on a clean run that is all of them; under a chaos error it
    // is every round before the (uniformly reported) failing one.
    int judge = rounds;
    for (Rank i = 0; i < static_cast<Rank>(p); ++i) {
      if (!dead_local.empty() && dead_local[static_cast<std::size_t>(i)]) {
        continue;
      }
      const Rank g = comm.global(i);
      judge = std::min(judge, clean_rounds[static_cast<std::size_t>(g)]);
    }
    for (int r = 0; r < judge; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      const std::string diff =
          diff_buffers(round_io[ri], round_observed[ri], comm,
                       dead_local.empty() ? nullptr : &dead_local);
      if (!diff.empty()) {
        return "persistent round " + std::to_string(r) + " of " +
               std::to_string(rounds) + ": " + diff;
      }
    }
    return std::nullopt;
  }
  const std::string diff =
      diff_buffers(io, uses_out ? out : work, comm,
                   dead_local.empty() ? nullptr : &dead_local);
  if (!diff.empty()) return diff;
  return std::nullopt;
}

/// Compares a sharded run with the uncontended SimEngine's: every rank's
/// finish time, then the trace bytes (the SimEngine's records in canonical
/// order). nullopt when they agree, else the first differing rank or line.
std::optional<std::string> diff_engines(const std::vector<TimeNs>& sharded,
                                        const std::vector<TimeNs>& reference,
                                        const obs::Recorder& sharded_rec,
                                        const obs::Recorder& reference_rec) {
  std::ostringstream out;
  out << "cross-engine: ";
  const auto [got, want] =
      std::mismatch(sharded.begin(), sharded.end(), reference.begin());
  if (got != sharded.end()) {
    out << "rank " << (got - sharded.begin()) << " finishes at " << *got
        << " ns on the sharded engine but " << *want
        << " ns on the uncontended SimEngine";
    return out.str();
  }
  std::ostringstream merged;
  obs::write_trace_json(sharded_rec, merged);
  std::istringstream a(merged.str());
  std::istringstream b(obs::canonical_trace_json(reference_rec));
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return std::nullopt;
    if (more_a == more_b && la == lb) continue;
    out << "traces differ at line " << line << ": sharded " << la
        << " vs uncontended SimEngine " << lb
        << " (--trace-dir writes both for adapt-trace diff)";
    return out.str();
  }
}

}  // namespace

std::optional<std::string> run_case(const CaseConfig& config,
                                    const RunSpec& spec, Fault fault,
                                    std::shared_ptr<obs::Recorder> recorder) {
  const net::SharingPolicy fair = net::SharingPolicy::kFairShare;
  if (spec.engine != EngineKind::kSharded) {
    return run_once(config, spec, fault, std::move(recorder), fair, nullptr);
  }
  // Both runs are traced: the engines must agree record by record.
  if (!recorder || !recorder->enabled()) {
    recorder = std::make_shared<obs::Recorder>(true);
  }
  auto reference_rec = std::make_shared<obs::Recorder>(true);
  std::vector<TimeNs> sharded, reference;
  if (auto mismatch = run_once(config, spec, fault, recorder, fair, &sharded)) {
    return mismatch;
  }
  if (auto mismatch = run_once(config, RunSpec{}, fault, reference_rec,
                               net::SharingPolicy::kUncontended, &reference)) {
    return "uncontended SimEngine: " + *mismatch;
  }
  return diff_engines(sharded, reference, *recorder, *reference_rec);
}

// ----------------------------------------------------------------- shrink ---

CaseConfig shrink_case(const CaseConfig& config, const RunSpec& spec,
                       Fault fault) {
  const auto still_fails = [&](const CaseConfig& candidate) {
    return run_case(candidate, spec, fault).has_value();
  };
  const Bytes elem = mpi::size_of(config.dtype);
  const auto min_world = [&](CommKind comm) {
    switch (comm) {
      case CommKind::kWorld: return 2;
      case CommKind::kEven: return 3;   // {0, 2}
      case CommKind::kSlice: return 6;  // [2, 4) needs world 6 for 2 members
    }
    return 2;
  };

  CaseConfig current = config;
  int budget = 48;  // bounded number of verification re-runs
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<CaseConfig> candidates;
    if (current.bytes > elem) {
      CaseConfig c = current;
      c.bytes = std::max(elem, c.bytes / 2 - (c.bytes / 2) % elem);
      candidates.push_back(c);
    }
    if (current.segment > elem) {
      CaseConfig c = current;
      c.segment = std::max(elem, c.segment / 2);
      candidates.push_back(c);
    }
    if (current.world > min_world(current.comm)) {
      CaseConfig c = current;
      c.world = std::max(min_world(c.comm), c.world / 2);
      const int p = static_cast<int>(comm_members(c.comm, c.world).size());
      c.root = std::min(c.root, static_cast<Rank>(p - 1));
      candidates.push_back(c);
      CaseConfig d = current;
      d.world = current.world - 1;
      if (d.world >= min_world(d.comm)) {
        const int dp = static_cast<int>(comm_members(d.comm, d.world).size());
        d.root = std::min(d.root, static_cast<Rank>(dp - 1));
        candidates.push_back(d);
      }
    }
    for (const CaseConfig& candidate : candidates) {
      if (--budget < 0) break;
      if (still_fails(candidate)) {
        current = candidate;
        progress = true;
        break;
      }
    }
  }
  return current;
}

// ----------------------------------------------------------------- matrix ---

std::vector<CaseConfig> full_matrix() {
  std::vector<CaseConfig> cases;
  std::uint64_t seed = 1;
  const auto add = [&](CaseConfig c) {
    c.data_seed = seed++;
    cases.push_back(std::move(c));
  };
  const coll::Style styles[] = {coll::Style::kBlocking,
                                coll::Style::kNonblocking,
                                coll::Style::kAdapt};
  const CommKind comms[] = {CommKind::kWorld, CommKind::kEven,
                            CommKind::kSlice};
  const Rank roots[] = {1, 0, 2};  // per comm kind above

  // Broadcast: style × comm on the topo tree (pipelined small payload), the
  // rendezvous-sized payload on the world comm, and the chain/binomial tree
  // shapes. One ADAPT variant runs M < N to exercise the unexpected path.
  for (const auto style : styles) {
    for (int ci = 0; ci < 3; ++ci) {
      CaseConfig c;
      c.collective = Collective::kBcast;
      c.style = style;
      c.world = 12;
      c.comm = comms[ci];
      c.root = roots[ci];
      c.bytes = 3000;
      c.segment = 256;
      add(c);
    }
    CaseConfig big;
    big.collective = Collective::kBcast;
    big.style = style;
    big.world = 12;
    big.comm = CommKind::kWorld;
    big.root = 1;
    big.bytes = kib(192);   // two 96 KB segments: both rendezvous
    big.segment = kib(96);
    add(big);
    for (const auto tree : {TreeChoice::kChain, TreeChoice::kBinomial}) {
      CaseConfig c;
      c.collective = Collective::kBcast;
      c.style = style;
      c.world = 12;
      c.comm = CommKind::kWorld;
      c.root = 3;
      c.bytes = 4096;
      c.segment = 512;
      c.tree = tree;
      add(c);
    }
  }
  {
    CaseConfig c;  // ADAPT with more in-flight sends than posted receives
    c.collective = Collective::kBcast;
    c.style = coll::Style::kAdapt;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 0;
    c.bytes = 8192;
    c.segment = 256;
    c.n_out = 3;
    c.m_out = 2;
    add(c);
  }

  // Reduce: style × datatype/op × {world, even}, plus a rendezvous-sized
  // case and the slice comm.
  const std::pair<mpi::Datatype, mpi::ReduceOp> dtype_ops[] = {
      {mpi::Datatype::kInt32, mpi::ReduceOp::kSum},
      {mpi::Datatype::kInt64, mpi::ReduceOp::kMax},
      {mpi::Datatype::kUint8, mpi::ReduceOp::kBor},
      {mpi::Datatype::kDouble, mpi::ReduceOp::kSum},
      {mpi::Datatype::kFloat, mpi::ReduceOp::kProd},
  };
  for (const auto style : styles) {
    for (const auto& [dtype, op] : dtype_ops) {
      for (int ci = 0; ci < 2; ++ci) {
        CaseConfig c;
        c.collective = Collective::kReduce;
        c.style = style;
        c.dtype = dtype;
        c.op = op;
        c.world = 12;
        c.comm = comms[ci];
        c.root = roots[ci];
        c.bytes = 4096;
        c.segment = 512;
        add(c);
      }
    }
    CaseConfig big;
    big.collective = Collective::kReduce;
    big.style = style;
    big.dtype = mpi::Datatype::kInt32;
    big.op = mpi::ReduceOp::kSum;
    big.world = 12;
    big.comm = CommKind::kWorld;
    big.root = 1;
    big.bytes = kib(192);
    big.segment = kib(96);
    add(big);
    CaseConfig slice;
    slice.collective = Collective::kReduce;
    slice.style = style;
    slice.dtype = mpi::Datatype::kInt64;
    slice.op = mpi::ReduceOp::kMin;
    slice.world = 12;
    slice.comm = CommKind::kSlice;
    slice.root = 2;
    slice.bytes = 2048;
    slice.segment = 256;
    add(slice);
  }

  // Allreduce (reduce-to-0 + bcast): style × dtype × {world, slice}.
  for (const auto style : styles) {
    for (const auto dtype : {mpi::Datatype::kInt32, mpi::Datatype::kDouble}) {
      for (const auto comm : {CommKind::kWorld, CommKind::kSlice}) {
        CaseConfig c;
        c.collective = Collective::kAllreduce;
        c.style = style;
        c.dtype = dtype;
        c.op = mpi::ReduceOp::kSum;
        c.world = 12;
        c.comm = comm;
        c.root = 0;
        c.bytes = 2048;
        c.segment = 256;
        add(c);
      }
    }
  }

  // Scatter / gather / barrier over every comm shape.
  for (int ci = 0; ci < 3; ++ci) {
    for (const auto collective :
         {Collective::kScatter, Collective::kGather, Collective::kBarrier}) {
      CaseConfig c;
      c.collective = collective;
      c.world = 12;
      c.comm = comms[ci];
      c.root = roots[ci];
      c.bytes = 1000;  // per-rank block
      add(c);
    }
  }

  // Allgather: ring everywhere, recursive doubling on power-of-two comms.
  for (int ci = 0; ci < 3; ++ci) {
    CaseConfig c;
    c.collective = Collective::kAllgather;
    c.world = 12;
    c.comm = comms[ci];
    c.root = 0;
    c.bytes = 600;
    c.ag_algo = coll::AllgatherAlgo::kRing;
    add(c);
  }
  for (const auto& [world, comm] :
       {std::pair<int, CommKind>{8, CommKind::kWorld},
        std::pair<int, CommKind>{16, CommKind::kEven}}) {
    CaseConfig c;
    c.collective = Collective::kAllgather;
    c.world = world;
    c.comm = comm;
    c.root = 0;
    c.bytes = 600;
    c.ag_algo = coll::AllgatherAlgo::kRecursiveDoubling;
    add(c);
  }

  // Library personalities end to end (bcast + reduce). ompi-adapt-tuned runs
  // the src/tune decision engine, so the matrix also certifies that tuned
  // schedules deliver byte-exact results under perturbation.
  for (const char* lib : {"ompi-adapt", "ompi-adapt-tuned", "ompi-default",
                          "cray", "mvapich", "intel"}) {
    CaseConfig b;
    b.collective = Collective::kLibBcast;
    b.library = lib;
    b.world = 12;
    b.comm = CommKind::kWorld;
    b.root = 1;
    b.bytes = kib(160);  // crosses the personalities' decision rules
    add(b);
    CaseConfig r;
    r.collective = Collective::kLibReduce;
    r.library = lib;
    r.dtype = mpi::Datatype::kInt32;
    r.op = mpi::ReduceOp::kSum;
    r.world = 12;
    r.comm = CommKind::kWorld;
    r.root = 1;
    r.bytes = 4096;
    add(r);
  }

  // HAN two-level rows (ppn > 0): the fused leader tree over a han_cluster
  // machine whose intra-node level rides the first-class SHM channel.
  // world 12 × ppn 4 = 3 nodes. Every row runs a deliberately scrambled
  // rank→core placement — reversed, strided, and seeded-random all split
  // rank-adjacent pairs across nodes, so a schedule keyed on rank index
  // instead of the machine's node_of() mapping cannot stay byte-exact.
  const RankMap scrambles[] = {RankMap::kReversed, RankMap::kStrided,
                               RankMap::kRandom};
  for (const auto style : styles) {  // bcast: style × comm × placement
    for (int ci = 0; ci < 3; ++ci) {
      CaseConfig c;
      c.collective = Collective::kBcast;
      c.style = style;
      c.world = 12;
      c.ppn = 4;
      c.rankmap = scrambles[ci];
      c.comm = comms[ci];
      c.root = roots[ci];
      c.bytes = 3000;
      c.segment = 256;
      c.tree = TreeChoice::kHan;
      add(c);
    }
  }
  for (const auto style : styles) {  // reduce: every dtype/op, cycling
    for (int di = 0; di < 5; ++di) {  // comm shape and placement
      CaseConfig c;
      c.collective = Collective::kReduce;
      c.style = style;
      c.dtype = dtype_ops[di].first;
      c.op = dtype_ops[di].second;
      c.world = 12;
      c.ppn = 4;
      c.rankmap = scrambles[di % 3];
      c.comm = comms[di % 3];
      c.root = roots[di % 3];
      c.bytes = 4096;
      c.segment = 512;
      c.tree = TreeChoice::kHan;
      add(c);
    }
  }
  for (int si = 0; si < 3; ++si) {  // allreduce through the han tree pair
    CaseConfig c;
    c.collective = Collective::kAllreduce;
    c.style = styles[si];
    c.dtype = mpi::Datatype::kInt32;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.ppn = 4;
    c.rankmap = scrambles[si];
    c.comm = CommKind::kWorld;
    c.root = 0;
    c.bytes = 2048;
    c.segment = 256;
    c.tree = TreeChoice::kHan;
    add(c);
  }
  {
    CaseConfig c;  // dense placement + rendezvous-sized segments
    c.collective = Collective::kBcast;
    c.style = coll::Style::kAdapt;
    c.world = 12;
    c.ppn = 4;
    c.comm = CommKind::kWorld;
    c.root = 1;
    c.bytes = kib(192);
    c.segment = kib(96);
    c.tree = TreeChoice::kHan;
    add(c);
  }
  // The ompi-han personality end to end, dense and every scrambled map.
  for (int mi = 0; mi < 4; ++mi) {
    const RankMap map = mi == 0 ? RankMap::kDense : scrambles[mi - 1];
    CaseConfig b;
    b.collective = Collective::kLibBcast;
    b.library = "ompi-han";
    b.world = 12;
    b.ppn = 4;
    b.rankmap = map;
    b.comm = CommKind::kWorld;
    b.root = 1;
    b.bytes = kib(160);
    add(b);
    CaseConfig r;
    r.collective = Collective::kLibReduce;
    r.library = "ompi-han";
    r.dtype = mpi::Datatype::kInt32;
    r.op = mpi::ReduceOp::kSum;
    r.world = 12;
    r.ppn = 4;
    r.rankmap = map;
    r.comm = CommKind::kWorld;
    r.root = 1;
    r.bytes = 4096;
    add(r);
  }

  // Persistent rows: one init, three start/wait rounds with fresh payloads
  // each round (CaseConfig::persistent). kTopo rows run through the engine
  // plan cache; the explicit tree shapes pin a private plan. Partitioned
  // rows (parts > 0) gate every rank's round data behind seeded
  // out-of-order pready calls.
  for (int ci = 0; ci < 3; ++ci) {  // bcast × every comm shape
    CaseConfig c;
    c.collective = Collective::kBcast;
    c.persistent = true;
    c.world = 12;
    c.comm = comms[ci];
    c.root = roots[ci];
    c.bytes = 3000;
    c.segment = 256;
    add(c);
  }
  {
    const std::pair<mpi::Datatype, mpi::ReduceOp> pdtypes[] = {
        {mpi::Datatype::kInt32, mpi::ReduceOp::kSum},
        {mpi::Datatype::kDouble, mpi::ReduceOp::kSum},
        {mpi::Datatype::kInt64, mpi::ReduceOp::kMax},
    };
    for (int ci = 0; ci < 3; ++ci) {  // reduce × comm shape × dtype/op
      CaseConfig c;
      c.collective = Collective::kReduce;
      c.persistent = true;
      c.dtype = pdtypes[ci].first;
      c.op = pdtypes[ci].second;
      c.world = 12;
      c.comm = comms[ci];
      c.root = roots[ci];
      c.bytes = 4096;
      c.segment = 512;
      add(c);
    }
  }
  for (const auto comm : {CommKind::kWorld, CommKind::kSlice}) {  // allreduce
    CaseConfig c;
    c.collective = Collective::kAllreduce;
    c.persistent = true;
    c.dtype = mpi::Datatype::kInt32;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.comm = comm;
    c.root = 0;
    c.bytes = 2048;
    c.segment = 256;
    add(c);
  }
  for (int ci = 0; ci < 3; ++ci) {  // barrier × every comm shape
    CaseConfig c;
    c.collective = Collective::kBarrier;
    c.persistent = true;
    c.starts = 4;  // dissemination rounds reuse tag blocks round-robin
    c.world = 12;
    c.comm = comms[ci];
    c.root = roots[ci];
    add(c);
  }
  {
    CaseConfig c;  // rendezvous-sized persistent bcast: bulk-path replay
    c.collective = Collective::kBcast;
    c.persistent = true;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 1;
    c.bytes = kib(192);
    c.segment = kib(96);
    add(c);
  }
  {
    CaseConfig c;  // rendezvous-sized persistent reduce
    c.collective = Collective::kReduce;
    c.persistent = true;
    c.dtype = mpi::Datatype::kInt32;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 1;
    c.bytes = kib(192);
    c.segment = kib(96);
    add(c);
  }
  for (const auto tree : {TreeChoice::kChain, TreeChoice::kBinomial}) {
    CaseConfig c;  // explicit (uncached) tree shapes
    c.collective = Collective::kBcast;
    c.persistent = true;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 3;
    c.bytes = 4096;
    c.segment = 512;
    c.tree = tree;
    add(c);
  }
  {
    CaseConfig c;  // more in-flight sends than posted receives, 5 rounds
    c.collective = Collective::kBcast;
    c.persistent = true;
    c.starts = 5;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 0;
    c.bytes = 8192;
    c.segment = 256;
    c.n_out = 3;
    c.m_out = 2;
    add(c);
  }
  {
    CaseConfig c;  // partitioned bcast: root's sends gated on pready
    c.collective = Collective::kBcast;
    c.persistent = true;
    c.partitions = 4;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 1;
    c.bytes = 4096;
    c.segment = 256;
    add(c);
  }
  {
    CaseConfig c;  // partitioned reduce: every contribution pready-gated
    c.collective = Collective::kReduce;
    c.persistent = true;
    c.partitions = 4;
    c.dtype = mpi::Datatype::kInt32;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.comm = CommKind::kWorld;
    c.root = 2;
    c.bytes = 4096;
    c.segment = 256;
    add(c);
  }
  {
    CaseConfig c;  // partitioned allreduce; partitions don't divide segments
    c.collective = Collective::kAllreduce;
    c.persistent = true;
    c.partitions = 3;
    c.dtype = mpi::Datatype::kInt32;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.comm = CommKind::kEven;
    c.root = 0;
    c.bytes = 2048;
    c.segment = 256;
    add(c);
  }
  {
    CaseConfig c;  // partitioned reduce on the slice comm, double payloads
    c.collective = Collective::kReduce;
    c.persistent = true;
    c.partitions = 2;
    c.dtype = mpi::Datatype::kDouble;
    c.op = mpi::ReduceOp::kSum;
    c.world = 12;
    c.comm = CommKind::kSlice;
    c.root = 2;
    c.bytes = 2048;
    c.segment = 256;
    add(c);
  }

  return cases;
}

std::string write_failure_trace(const CaseConfig& config, const RunSpec& spec,
                                Fault fault, const std::string& trace_dir,
                                int index) {
  // Recorder needs virtual time — the ThreadEngine cannot be traced.
  if (spec.engine == EngineKind::kThread) return "";
  auto recorder = std::make_shared<obs::Recorder>();
  run_case(config, spec, fault, recorder);  // deterministic replay
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  const std::string path =
      trace_dir + "/failure-" + std::to_string(index) + ".trace.json";
  if (!obs::write_trace_file(*recorder, path)) return "";
  // The numeric half rides along: retransmit/give-up/recovery counters next
  // to the trace make "was the protocol involved?" a one-file answer.
  obs::write_metrics_file(*recorder,
                          trace_dir + "/failure-" + std::to_string(index) +
                              ".metrics.csv");
  if (spec.engine == EngineKind::kSharded) {
    // The other half of a cross-engine mismatch, in the sharded trace's
    // canonical record order, for adapt-trace diff.
    auto reference = std::make_shared<obs::Recorder>();
    run_once(config, RunSpec{}, fault, reference,
             net::SharingPolicy::kUncontended, nullptr);
    std::ofstream(trace_dir + "/failure-" + std::to_string(index) +
                  ".reference.trace.json")
        << obs::canonical_trace_json(*reference);
  }
  return path;
}

namespace detail {

Report run_case_matrix(
    const std::vector<CaseConfig>& cases,
    const std::function<std::vector<RunSpec>(const CaseConfig&)>& specs_for,
    const MatrixDriver& driver) {
  Report report;
  report.cases = static_cast<int>(cases.size());
  const std::size_t n = cases.size();
  std::vector<std::optional<Failure>> case_failure(n);
  std::vector<long> case_runs(n, 0);
  std::atomic<int> done{0};
  std::atomic<long> failed{0};
  std::mutex log_mu;
  const auto log = [&](const std::string& line) {
    if (!driver.log) return;
    std::lock_guard<std::mutex> lock(log_mu);
    driver.log(line);
  };

  support::parallel_for(
      driver.jobs, static_cast<int>(n), [&](int index) {
        const CaseConfig& config = cases[static_cast<std::size_t>(index)];
        for (const RunSpec& spec : specs_for(config)) {
          ++case_runs[static_cast<std::size_t>(index)];
          if (driver.on_run) {
            std::lock_guard<std::mutex> lock(log_mu);
            driver.on_run(repro_string(config, spec, driver.fault));
          }
          auto mismatch = run_case(config, spec, driver.fault);
          if (!mismatch) continue;
          CaseConfig reported = config;
          if (driver.shrink) {
            reported = shrink_case(config, spec, driver.fault);
            if (auto shrunk = run_case(reported, spec, driver.fault)) {
              mismatch = shrunk;
            }
          }
          Failure failure;
          failure.config = reported;
          failure.spec = spec;
          failure.detail = *mismatch;
          failure.repro = repro_string(reported, spec, driver.fault);
          log("FAIL " + failure.repro + "\n     " + failure.detail);
          case_failure[static_cast<std::size_t>(index)] = std::move(failure);
          failed.fetch_add(1, std::memory_order_relaxed);
          break;  // one schedule failure per case is enough to report
        }
        const int d = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (d % driver.progress_every == 0) {
          log(std::string(driver.progress_label) + ": " + std::to_string(d) +
              "/" + std::to_string(report.cases) + " cases, " +
              std::to_string(failed.load(std::memory_order_relaxed)) +
              " failures");
        }
      });

  // Deterministic merge: case order, not completion order. Failure traces
  // replay sequentially here so file names/indices match a jobs=1 run.
  for (std::size_t i = 0; i < n; ++i) {
    report.runs += case_runs[i];
    if (!case_failure[i]) continue;
    Failure failure = std::move(*case_failure[i]);
    if (!driver.trace_dir.empty()) {
      failure.trace_path = write_failure_trace(
          failure.config, failure.spec, driver.fault, driver.trace_dir,
          static_cast<int>(report.failures.size()));
      if (!failure.trace_path.empty()) {
        log("     trace: " + failure.trace_path + " (" + failure.repro + ")");
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace detail

Report run_matrix(const std::vector<CaseConfig>& cases,
                  const MatrixOptions& options) {
  detail::MatrixDriver driver;
  driver.jobs = options.jobs;
  driver.fault = options.fault;
  driver.shrink = options.shrink;
  driver.trace_dir = options.trace_dir;
  driver.log = options.log;
  driver.on_run = options.on_run;
  driver.progress_label = "conformance";
  driver.progress_every = 20;
  return detail::run_case_matrix(
      cases,
      [&](const CaseConfig& config) {
        std::vector<RunSpec> specs;
        specs.push_back(RunSpec{EngineKind::kSim, 0, 0});
        for (int s = 1; s <= options.sim_seeds; ++s) {
          specs.push_back(RunSpec{EngineKind::kSim,
                                  static_cast<std::uint64_t>(s),
                                  options.max_jitter});
        }
        if (options.thread_engine) {
          specs.push_back(RunSpec{EngineKind::kThread, 0, 0});
        }
        if (options.sharded_shards > 0 && !config.persistent &&
            config.partitions == 0) {
          RunSpec sharded;
          sharded.engine = EngineKind::kSharded;
          sharded.shards = 1;
          specs.push_back(sharded);
          if (options.sharded_shards > 1) {
            sharded.shards = options.sharded_shards;
            specs.push_back(sharded);
          }
        }
        return specs;
      },
      driver);
}

std::string Report::summary() const {
  std::ostringstream out;
  out << cases << " cases, " << runs << " runs, " << failures.size()
      << " failures";
  for (const Failure& f : failures) {
    out << "\n  " << f.repro << "\n    " << f.detail;
    if (!f.trace_path.empty()) out << "\n    trace: " << f.trace_path;
  }
  return out.str();
}

}  // namespace adapt::verify
