// Differential conformance harness (the correctness backstop).
//
// The paper's central claim is that event-driven collectives deliver
// identical results no matter *when* their callbacks fire. This subsystem
// tests exactly that: every collective × algorithm style × library
// personality × datatype/op × communicator subset is run on
//
//   * the SimEngine under its default bit-reproducible schedule,
//   * the SimEngine under many seeded schedule perturbations
//     (sim::PerturbConfig: randomized tie-breaking + bounded delivery
//     jitter — hundreds of distinct-but-legal completion orders), and
//   * the ThreadEngine (real threads, real races),
//
// and every run's payload bytes are diffed against a sequential oracle.
// A mismatch is reported as a one-line reproducer (`repro` field) that
// parse_repro() turns back into the exact failing case + schedule, after
// an automatic shrink pass minimised it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/coll/moreops.hpp"
#include "src/mpi/datatype.hpp"
#include "src/mpi/op.hpp"
#include "src/sim/event_queue.hpp"
#include "src/support/units.hpp"

namespace adapt::obs {
class Recorder;
}  // namespace adapt::obs

namespace adapt::verify {

/// Which engine executes a run. kSharded is the conservative-lookahead
/// sharded engine (runtime/sharded_engine.hpp): stable schedule only (its
/// keyed event order is incompatible with perturbation), no chaos, no
/// persistent rows — its job in the matrix is proving the sharded runtime
/// produces byte-identical collective results for any shard count, at the
/// uncontended SimEngine's finish times (run_case checks both).
enum class EngineKind { kSim, kThread, kSharded };

/// The operations the matrix covers. kLibBcast/kLibReduce run a library
/// personality (CaseConfig::library) end to end instead of a raw style.
enum class Collective {
  kBcast,
  kReduce,
  kAllreduce,
  kScatter,
  kGather,
  kAllgather,
  kBarrier,
  kLibBcast,
  kLibReduce,
};

/// Communicator shapes, derived from the world size: the full world, the
/// even global ranks, or the contiguous middle slice [2, world - 2).
enum class CommKind { kWorld, kEven, kSlice };

/// Tree shapes for the tree-based collectives. kHan is the fused two-level
/// HAN tree (coll/han.hpp) — meaningful on ppn rows, where the machine has a
/// first-class SHM channel for the intra-node level.
enum class TreeChoice { kTopo, kBinomial, kChain, kHan };

/// Rank→core placements for ppn rows. The scrambled maps are the regression
/// shapes two-level designs historically get wrong: kReversed and kStrided
/// both split rank-adjacent pairs across nodes, kRandom draws a seeded
/// Fisher-Yates permutation from the case's data_seed. kDense is the
/// identity placement every non-ppn row implicitly uses.
enum class RankMap { kDense, kReversed, kStrided, kRandom };

/// Deliberately seeded bugs, used to prove the harness catches what it
/// claims to catch (see faulty.hpp). Production runs use kNone.
enum class Fault {
  kNone,
  /// Gather whose root assumes wildcard-source arrivals come in rank order —
  /// true under the stable schedule, false under perturbation.
  kGatherArrivalOrder,
  /// Runs a chaos case with the reliability protocol DISABLED: the seed's
  /// perfect-delivery protocols meet a lossy fabric. The chaos classifier
  /// must catch the result (corrupted payloads delivered as success, hangs,
  /// one-sided errors) — proving it can see a protocol that does not
  /// retransmit. Chaos runs only; ignored without a chaos class.
  kNoRetransmit,
};

/// Fault-schedule intensity class for chaos runs. kSoft draws drop/corrupt/
/// delay probabilities and one link outage from chaos_seed; kKill adds a
/// permanent rank death. kOff = a plain conformance run (the default).
enum class ChaosClass { kOff, kSoft, kKill };

const char* engine_name(EngineKind engine);
const char* collective_name(Collective collective);
const char* comm_name(CommKind comm);
const char* tree_name(TreeChoice tree);
const char* rankmap_name(RankMap map);
const char* fault_name(Fault fault);
const char* chaos_name(ChaosClass chaos);

/// One cell of the conformance matrix, engine-agnostic.
struct CaseConfig {
  Collective collective = Collective::kBcast;
  coll::Style style = coll::Style::kAdapt;  ///< tree collectives only
  std::string library;                      ///< kLibBcast/kLibReduce only
  coll::AllgatherAlgo ag_algo = coll::AllgatherAlgo::kRing;
  mpi::Datatype dtype = mpi::Datatype::kUint8;
  mpi::ReduceOp op = mpi::ReduceOp::kSum;
  int world = 8;                   ///< engine rank count
  CommKind comm = CommKind::kWorld;
  Rank root = 0;                   ///< local rank within the communicator
  /// Message size: total bytes for bcast/reduce/allreduce, per-rank block
  /// for scatter/gather/allgather, ignored for barrier.
  Bytes bytes = 512;
  Bytes segment = 128;             ///< pipeline granularity
  int n_out = 2;                   ///< ADAPT N (outstanding sends per child)
  int m_out = 4;                   ///< ADAPT M (posted receives per parent)
  TreeChoice tree = TreeChoice::kTopo;
  /// > 0: the case runs on a topo::han_cluster machine of
  /// ceil(world / ppn) single-socket nodes × ppn cores — the first-class
  /// SHM channel enabled — with `rankmap` choosing the rank→core placement.
  /// 0 (default): the legacy dual-socket cori(2) machine, dense placement.
  int ppn = 0;
  RankMap rankmap = RankMap::kDense;
  std::uint64_t data_seed = 1;     ///< payload-content seed
  /// Persistent-collective row (bcast/reduce/allreduce/barrier only): the
  /// handle is init'ed ONCE, then start/wait replays `starts` rounds. Round
  /// r refills the bound buffers with payloads drawn from data_seed + r and
  /// is diffed against its own oracle — proving the cached schedule is
  /// correct for every round, not just the first. kTopo rows take the
  /// engine plan-cache path; kBinomial/kChain pin an explicit tree.
  bool persistent = false;
  int starts = 3;      ///< start/wait rounds per persistent run
  /// > 0: partitioned persistent op — every rank declares its round data
  /// ready piece-wise via pready(p) in a seeded (deterministically shuffled,
  /// usually out-of-order) partition order after each start.
  int partitions = 0;
};

/// One schedule of one case. perturb_seed 0 = the default stable schedule
/// (jitter is then ignored); any other seed enables sim::PerturbConfig with
/// that seed. ThreadEngine runs ignore both (its nondeterminism is real).
///
/// chaos != kOff turns the run into a chaos-conformance run (SimEngine
/// only): the fault schedule derived from (chaos, chaos_seed) is injected
/// into the fabric, the fault-tolerant reliability protocol is enabled
/// (unless Fault::kNoRetransmit), and the acceptance criterion widens from
/// "byte-exact" to "byte-exact OR one consistent error code on every live
/// rank before the watchdog" (see run_case).
struct RunSpec {
  EngineKind engine = EngineKind::kSim;
  std::uint64_t perturb_seed = 0;
  TimeNs jitter = 0;
  ChaosClass chaos = ChaosClass::kOff;
  std::uint64_t chaos_seed = 0;
  /// Chaos watchdog cascade (virtual time; chaos runs only). Local
  /// detection fires first: any rank still holding pending requests is
  /// presumed partitioned and initiates a job-wide abort. Quiesce gives
  /// late abort floods time to land before a rank's outcome is judged. The
  /// bomb is the backstop: a rank still unfinished then is stamped
  /// kErrWatchdog, which the classifier always treats as a failure — the
  /// runtime should have detected the fault itself. Recovery rows raise
  /// these (a revoke/agree/shrink/retry cascade legitimately runs past the
  /// fail-stop defaults).
  TimeNs wd_detect = milliseconds(200);
  TimeNs wd_quiesce = milliseconds(300);
  TimeNs wd_bomb = milliseconds(400);
  /// Worker shards for kSharded runs (clamped by the engine to the machine's
  /// block count); ignored by the other engines.
  int shards = 1;
};

/// Members of the case's communicator as global ranks of `world`.
std::vector<Rank> comm_members(CommKind comm, int world);

/// Self-contained one-line reproducer, parseable by parse_repro.
std::string repro_string(const CaseConfig& config, const RunSpec& spec,
                         Fault fault = Fault::kNone);

/// Parses a repro_string line. Returns false (and leaves outputs untouched)
/// on malformed input.
bool parse_repro(const std::string& line, CaseConfig* config, RunSpec* spec,
                 Fault* fault);

/// Runs one case under one schedule and diffs the result against the
/// sequential oracle. Returns nullopt on success, a human-readable mismatch
/// description on failure. Throws only on harness misuse (bad config).
/// A non-null `recorder` observes the run (SimEngine runs only; the
/// ThreadEngine ignores it) — pair with a parsed repro line to attach a
/// full virtual-time trace to any failure. A kSharded run is also run once
/// on the SimEngine with net::SharingPolicy::kUncontended and fails unless
/// every rank finishes at the same virtual time on both engines; the few
/// known same-instant tie-order rows (kTieOrderRows in conformance.cpp) fail
/// unless they differ exactly as pinned.
std::optional<std::string> run_case(
    const CaseConfig& config, const RunSpec& spec, Fault fault = Fault::kNone,
    std::shared_ptr<obs::Recorder> recorder = nullptr);

/// Greedily shrinks a failing case (fewer bytes, coarser pipeline, fewer
/// ranks) while it keeps failing under `spec`; returns the smallest failing
/// config found within a bounded number of re-runs.
CaseConfig shrink_case(const CaseConfig& config, const RunSpec& spec,
                       Fault fault = Fault::kNone);

struct Failure {
  CaseConfig config;   ///< already shrunk when MatrixOptions::shrink is set
  RunSpec spec;
  std::string detail;  ///< first mismatching rank/byte
  std::string repro;   ///< repro_string(config, spec, fault)
  /// Perfetto trace of the shrunken failure, written when the matrix ran
  /// with a trace_dir; empty otherwise (or when the re-run could not be
  /// traced — e.g. a ThreadEngine failure).
  std::string trace_path;
};

struct Report {
  int cases = 0;
  long runs = 0;
  std::vector<Failure> failures;
  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

struct MatrixOptions {
  int sim_seeds = 20;       ///< perturbation seeds per case (plus seed-0 run)
  TimeNs max_jitter = microseconds(5);
  bool thread_engine = true;
  bool shrink = true;       ///< minimise failing cases before reporting
  Fault fault = Fault::kNone;
  /// Worker threads running cases concurrently (1 = sequential). Every case
  /// is an independent deterministic run, so the report is identical for any
  /// jobs value — failures are merged in case order, and shrinking/tracing
  /// replay deterministically. Progress log lines may interleave.
  int jobs = 1;
  /// Progress/failure sink (e.g. stderr); null = silent.
  std::function<void(const std::string&)> log;
  /// Called with the repro line of every run just before it starts — the
  /// driver's wall-clock watchdog publishes this so a hung run can still be
  /// reported with an exact reproducer.
  std::function<void(const std::string&)> on_run;
  /// When non-empty, every (shrunken) failure is re-run once with a trace
  /// recorder and a Perfetto JSON written to this directory (created on
  /// demand); Failure::trace_path names the file.
  std::string trace_dir;
  /// > 0: every eligible case (non-persistent, non-partitioned) also runs on
  /// the sharded engine under the stable schedule, at 1 shard and at this
  /// many shards — certifying that partitioning the event core across
  /// threads cannot change a collective's bytes, nor the uncontended
  /// SimEngine's finish times. 0 (default) adds no sharded rows.
  int sharded_shards = 0;
};

/// The full conformance matrix: every collective × style × personality ×
/// datatype/op × communicator subset the harness certifies.
std::vector<CaseConfig> full_matrix();

/// Runs every case on the SimEngine (stable schedule + sim_seeds
/// perturbations) and the ThreadEngine, diffing each run against the oracle.
Report run_matrix(const std::vector<CaseConfig>& cases,
                  const MatrixOptions& options);

/// Re-runs one (shrunken) failing case with a trace recorder and writes
/// `failure-<index>.trace.json` under trace_dir (created on demand).
/// Returns the path, or "" when the run cannot be traced (ThreadEngine) or
/// the file cannot be written. Exposed so drivers can trace a parsed
/// --repro line too.
std::string write_failure_trace(const CaseConfig& config, const RunSpec& spec,
                                Fault fault, const std::string& trace_dir,
                                int index);

namespace detail {

/// Shared engine of run_matrix / run_chaos_matrix: runs every case's spec
/// list (first failure per case wins, shrunk when asked), fanning cases
/// across `jobs` workers via support::parallel_for. Failures are collected
/// per case and merged in case order, then traced sequentially — so the
/// Report (order, contents, trace file names) is identical for every jobs
/// value.
struct MatrixDriver {
  int jobs = 1;
  Fault fault = Fault::kNone;
  bool shrink = true;
  std::string trace_dir;
  std::function<void(const std::string&)> log;
  std::function<void(const std::string&)> on_run;
  const char* progress_label = "matrix";
  int progress_every = 20;
};

Report run_case_matrix(
    const std::vector<CaseConfig>& cases,
    const std::function<std::vector<RunSpec>(const CaseConfig&)>& specs_for,
    const MatrixDriver& driver);

}  // namespace detail

}  // namespace adapt::verify
