// adaptsim: general-purpose driver for one-off experiments. kUsage below
// documents its flags; `adaptsim --help` prints it.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/coll/library.hpp"
#include "src/coll/persistent.hpp"
#include "src/coll/selfheal.hpp"
#include "src/mpi/comm_ft.hpp"
#include "src/mpi/errors.hpp"
#include "src/obs/export.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/json.hpp"
#include "src/support/table.hpp"
#include "src/topo/presets.hpp"
#include "src/tune/tuner.hpp"

using namespace adapt;

namespace {

constexpr const char* kUsage = R"(adaptsim: general-purpose driver for one-off experiments.

Pick a cluster (preset or custom spec), an MPI library personality, an
operation, a message-size range and a noise level, and get the measured
times — everything the figure benches do, but à la carte.

  ./adaptsim --cluster cori --nodes 8 --ranks 256 --lib ompi-adapt
             --op bcast --min 65536 --max 4194304 --noise 5 --iters 4
  (single command line; wrapped here for readability)
  ./adaptsim --spec "nodes=4,sockets=2,cores=8,bw_node=10" --lib cray ...
  ./adaptsim --machine nodes=16,ppn=8 --lib ompi-han --op bcast
  (--machine is an alias for --spec; ppn= builds flat nodes with the
  first-class SHM channel enabled, the natural shape for two-level HAN)

Every flag that takes a value accepts both --key VALUE and --key=VALUE.

Observability: --trace=FILE writes a Chrome/Perfetto trace of the final
message size's run (load at ui.perfetto.dev); --metrics=FILE writes the
counter/histogram registry as CSV.

Tuning: --tuning switches tunable personalities (ompi-adapt) from their
built-in heuristics to the src/tune decision engine; --dump-table=FILE
writes the decision table filled during the run as JSON.

Persistent collectives: --persistent measures the MPI-4-style
init/start/wait path instead of one-shot calls — each rank builds its
handle once per message size (planning, tree, tuner decision all happen
there, cached engine-wide in the plan cache) and every timed iteration
just replays it.

Scale: --shards=N runs the sweep on N shards of the engine (N worker
threads over a partitioned event core, conservative time windows, links
of unbounded capacity) instead of one shard with the fair-share fabric.
Results, traces, and metrics are byte-identical for any N — only wall
clock changes. --shards exits 1 when combined with --persistent,
--tuning, --dump-table, --recover or a GPU personality: those need
services only one shard has. See DESIGN.md §14.

Recovery: --recover runs the self-healing demo instead of the size sweep —
a rank is killed mid-collective (--kill=RANK, --kill-at=MICROS) and the
survivors revoke, agree on the failure set, shrink, and re-issue on the
survivor communicator. Combine with --trace to see the revoke/agree/shrink
protocol events in Perfetto. See DESIGN.md §13 for the recovery model.
)";

/// `adaptsim --recover`: one engine run with a seeded rank death and the
/// self-healing wrapper healing around it. Prints the per-rank outcome
/// (error code, attempt count, survivor membership) instead of timings.
int run_recover_demo(const bench::Cli& cli, const topo::Machine& machine,
                     const mpi::Comm& world, const std::string& op,
                     Bytes msg) {
  const int ranks = world.size();
  if (ranks > 64) {
    std::cerr << "--recover tracks membership in 64-bit masks; use "
                 "--ranks 64 or fewer (got " << ranks << ")\n";
    return 1;
  }
  const Rank victim = static_cast<Rank>(cli.get_int("kill", 1));
  // Default lands while the victim still holds undelivered segments of the
  // default 64 KB message, so the survivors must detect, shrink, and retry
  // (attempt 2 on the survivor communicator) rather than coast to a finish.
  const TimeNs kill_at = microseconds(cli.get_int("kill-at", 5));
  if (victim < 0 || victim >= ranks) {
    std::cerr << "--kill must name a rank in [0, " << ranks << ")\n";
    return 1;
  }

  runtime::SimEngineOptions options;
  // Failure detection rides on the retransmit layer: a peer whose acks stop
  // coming exhausts the retry budget and is reported to the detector, so
  // tighten the timeouts from their WAN-safe defaults to demo scale.
  mpi::ReliabilityConfig reliability;
  reliability.ack_timeout = microseconds(100);
  reliability.per_byte = 2;
  reliability.backoff = 2.0;
  reliability.max_retries = 6;
  options.reliability = reliability;
  options.recovery = runtime::RecoveryOptions{};
  net::FaultPlan::Death death;
  death.rank = victim;
  death.at = kill_at;
  options.faults.deaths.push_back(death);
  std::shared_ptr<obs::Recorder> recorder;
  if (cli.has("trace") || cli.has("metrics") || cli.has("json")) {
    recorder = std::make_shared<obs::Recorder>();
    options.recorder = recorder;
  }
  runtime::SimEngine engine(machine, options);

  std::cout << "recover demo: " << op << " of " << format_bytes(msg) << " on "
            << ranks << " ranks, killing rank " << victim << " at "
            << kill_at / 1000 << " µs\n\n";

  struct RankOut {
    mpi::ErrCode code = mpi::ErrCode::kOk;
    int attempts = 0;
    std::uint64_t survivors = 0;
    TimeNs finish = 0;
  };
  std::vector<RankOut> outs(static_cast<std::size_t>(ranks));
  std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(ranks));
  coll::ResilientOpts opts;
  opts.coll.segment_size = std::min<Bytes>(msg, kib(16));

  const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    const auto r = static_cast<std::size_t>(ctx.rank());
    auto& buf = bufs[r];
    buf.assign(static_cast<std::size_t>(msg),
               static_cast<std::byte>(ctx.rank() + 1));
    const mpi::MutView view{buf.data(), static_cast<Bytes>(buf.size())};
    try {
      // Plain if/else, not a conditional expression: GCC 12 miscompiles
      // `cond ? co_await a : co_await b` (the unselected arm's frame slot
      // clobbers the result).
      coll::ResilientResult res;
      if (op == "bcast") {
        res = co_await coll::resilient_bcast(ctx, world, view, 0, opts);
      } else {
        res = co_await coll::resilient_allreduce(ctx, world, view,
                                                 mpi::ReduceOp::kBor,
                                                 mpi::Datatype::kUint8, opts);
      }
      outs[r].code = res.code;
      outs[r].attempts = res.attempts;
      outs[r].survivors = mpi::member_mask(res.comm);
    } catch (const mpi::FaultError& e) {
      outs[r].code = e.code();  // the victim's own teardown lands here
    }
    outs[r].finish = ctx.now();
  };
  engine.run(program);

  Table table({"rank", "code", "attempts", "survivors", "finish(ms)"});
  for (Rank g = 0; g < ranks; ++g) {
    const RankOut& o = outs[static_cast<std::size_t>(g)];
    std::ostringstream survivors;
    if (o.survivors != 0) survivors << "0x" << std::hex << o.survivors;
    std::ostringstream finish;
    finish << std::fixed << std::setprecision(2)
           << static_cast<double>(o.finish) / 1e6;
    table.add_row({std::to_string(g), mpi::err_name(o.code),
                   o.attempts != 0 ? std::to_string(o.attempts) : "",
                   survivors.str(), finish.str()});
  }
  table.print(std::cout);
  std::cout << "\nrank " << victim << " reports its own death; every "
            << "survivor agrees on the failure set, shrinks, and finishes "
            << "on the survivor communicator.\n";
  if (recorder) {
    // Surface the recovery timeline as numbers: how fast the failure was
    // detected (death instant -> first kFailNotice, per rank), how much
    // protocol traffic the revoke flood and agreement rounds cost, and what
    // the reliability layer burned on the dead peer before giving up.
    const obs::MetricsRegistry& m = recorder->metrics();
    const obs::Histogram& detect =
        recorder->metrics().histogram("recovery.detect_latency_ns");
    std::cout << "\nrecovery counters:\n";
    for (const char* name :
         {"recovery.fail_notices", "recovery.revokes",
          "recovery.revoke_frames", "recovery.agree_frames",
          "recovery.agree_decided", "recovery.agreements", "retransmits",
          "give_ups"}) {
      std::cout << "  " << name << " = " << m.counter_value(name) << "\n";
    }
    std::cout << "  recovery.detect_latency_ns: count=" << detect.count
              << " mean=" << std::fixed << std::setprecision(0)
              << detect.mean() << " max=" << detect.max << "\n";
    if (cli.has("json")) {
      const std::string path = cli.get("json", "adaptsim.recover.json");
      std::ostringstream js;
      js << "{\n  \"schema\": \"adapt-recover-report-v1\",\n"
         << "  \"op\": " << json_quote(op) << ",\n  \"ranks\": " << ranks
         << ",\n  \"victim\": " << victim
         << ",\n  \"kill_at_ns\": " << kill_at << ",\n  \"outcomes\": [";
      for (Rank g = 0; g < ranks; ++g) {
        const RankOut& o = outs[static_cast<std::size_t>(g)];
        js << (g == 0 ? "\n" : ",\n") << "    {\"rank\": " << g
           << ", \"code\": " << json_quote(mpi::err_name(o.code))
           << ", \"attempts\": " << o.attempts << ", \"survivors\": "
           << o.survivors << ", \"finish_ns\": " << o.finish << "}";
      }
      js << "\n  ],\n  \"recovery\": {";
      bool first = true;
      for (const auto& [name, value] : m.counters()) {
        js << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": "
           << value;
        first = false;
      }
      js << (first ? "\n" : ",\n") << "    \"detect_latency_ns\": {\"count\": "
         << detect.count << ", \"sum\": " << detect.sum
         << ", \"max\": " << detect.max << "}\n  }\n}\n";
      std::ofstream out(path);
      out << js.str();
      if (!out) {
        std::cerr << "cannot write --json file " << path << "\n";
        return 1;
      }
      std::cout << "json report: " << path << "\n";
    }
    if (cli.has("metrics")) {
      const std::string path = cli.get("metrics", "adaptsim.metrics.csv");
      if (!obs::write_metrics_file(*recorder, path)) {
        std::cerr << "cannot write --metrics file " << path << "\n";
        return 1;
      }
      std::cout << "metrics: " << path << "\n";
    }
    if (cli.has("trace")) {
      const std::string path = cli.get("trace", "adaptsim.trace.json");
      if (!obs::write_trace_file(*recorder, path)) {
        std::cerr << "cannot write --trace file " << path << "\n";
        return 1;
      }
      std::cout << "trace: " << path << "  — load at ui.perfetto.dev and "
                << "look for the revoke/agree/recover_retry spans\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string lib_name = cli.get("lib", "ompi-adapt");
  const std::string op = cli.get("op", "bcast");
  const int nodes = static_cast<int>(cli.get_int("nodes", 8));
  const int noise_duty = static_cast<int>(cli.get_int("noise", 0));
  const int iters = static_cast<int>(cli.get_int("iters", 4));
  const Bytes min_msg = cli.get_int("min", kib(64));
  const Bytes max_msg = cli.get_int("max", mib(4));

  // --machine and --spec are the same thing (a topo::parse_spec string);
  // --machine reads better in docs, --spec predates it.
  const bool custom_spec = cli.has("machine") || cli.has("spec");
  topo::MachineSpec spec =
      custom_spec ? topo::parse_spec(cli.has("machine") ? cli.get("machine", "")
                                                        : cli.get("spec", ""))
                  : topo::preset(cli.get("cluster", "cori"), nodes);
  if (custom_spec) spec.nodes = std::max(spec.nodes, nodes);
  const bool gpu = spec.gpus_per_socket > 0;
  const int default_ranks =
      gpu ? spec.nodes * spec.gpus_per_node() : spec.nodes * spec.cores_per_node();
  const int ranks = static_cast<int>(cli.get_int("ranks", default_ranks));
  topo::Machine machine(spec, ranks,
                        gpu ? topo::PlacementPolicy::kByGpu
                            : topo::PlacementPolicy::kByCore);
  const mpi::Comm world = mpi::Comm::world(ranks);

  const int shards = static_cast<int>(cli.get_int("shards", 0));
  if (shards > 0) {
    // Each of these needs a service only a one-shard engine has.
    const std::pair<const char*, const char*> one_shard_only[] = {
        {"persistent", "plan cache"},
        {"tuning", "tuner"},
        {"dump-table", "tuner"},
        {"recover", "recovery layer"}};
    for (const auto& [flag, service] : one_shard_only) {
      if (cli.has(flag)) {
        std::cerr << "--shards is incompatible with --" << flag << " (a "
                  << "sharded engine has no " << service << ")\n";
        return 1;
      }
    }
    if (lib_name.ends_with("-gpu")) {
      std::cerr << "--shards is incompatible with GPU personalities (a "
                   "sharded engine is CPU-only)\n";
      return 1;
    }
  }
  if (cli.has("recover")) return run_recover_demo(cli, machine, world, op, min_msg);

  const std::shared_ptr<coll::MpiLibrary> lib =
      coll::make_library(lib_name, machine);

  std::cout << "cluster=" << spec.name << " nodes=" << spec.nodes
            << " ranks=" << ranks << " lib=" << lib_name << " op=" << op
            << " noise=" << noise_duty << "%\n\n";
  std::shared_ptr<tune::Tuner> tuner;
  if (cli.has("tuning") || cli.has("dump-table"))
    tuner = std::make_shared<tune::Tuner>(machine);
  const bool observe = cli.has("trace") || cli.has("metrics");
  std::shared_ptr<obs::Recorder> recorder;
  Bytes traced_msg = 0;
  Table table({"message", "avg(ms)", "min(ms)", "max(ms)"});
  for (Bytes msg = min_msg; msg <= max_msg; msg *= 2) {
    traced_msg = msg;
    if (observe) {
      // One recorder observes one engine run; keep the final size's trace.
      recorder = std::make_shared<obs::Recorder>();
    }
    std::unique_ptr<runtime::SimEngine> engine;
    if (shards > 0) {
      runtime::ShardedEngineOptions options;
      options.shards = shards;
      options.noise = noise::paper_noise(noise_duty, 0xCAFE + noise_duty);
      options.recorder = recorder;
      engine = std::make_unique<runtime::SimEngine>(machine, options);
    } else {
      runtime::SimEngineOptions options;
      options.gpu = lib->gpu_config();
      options.noise = noise::paper_noise(noise_duty, 0xCAFE + noise_duty);
      options.tuning = tuner;  // shared across sizes: the table fills once
      options.recorder = recorder;
      engine = std::make_unique<runtime::SimEngine>(machine, options);
    }
    // Per-rank persistent handles, built lazily on each rank's first
    // iteration of this message size and replayed by every later one.
    // Declared after `engine` so they are destroyed first.
    std::vector<coll::PersistentOpPtr> handles(
        static_cast<std::size_t>(ranks));
    mpi::MutView buffer{nullptr, msg};
    auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
      if (cli.has("persistent")) {
        auto& handle = handles[static_cast<std::size_t>(ctx.rank())];
        if (!handle) {
          if (op == "bcast") {
            handle = coll::bcast_init(ctx, world, buffer, 0);
          } else if (op == "reduce") {
            handle = coll::reduce_init(ctx, world, buffer, mpi::ReduceOp::kSum,
                                       mpi::Datatype::kFloat, 0);
          } else {
            throw Error("unknown --op (use bcast or reduce): " + op);
          }
        }
        if (handle->start() != mpi::ErrCode::kOk) {
          throw Error("persistent start() failed");
        }
        co_await handle->wait();
      } else if (op == "bcast") {
        co_await lib->bcast(ctx, world, buffer, 0);
      } else if (op == "reduce") {
        co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                             mpi::Datatype::kFloat, 0);
      } else {
        throw Error("unknown --op (use bcast or reduce): " + op);
      }
    };
    const auto m =
        noise_duty > 0
            ? bench::measure_throughput(*engine, world, fn,
                                        {.warmup = 1, .iterations = iters})
            : bench::measure(*engine, world, fn,
                             {.warmup = 1, .iterations = iters});
    table.add_row_numeric(format_bytes(msg),
                          {m.avg_ms(), m.min_ms(), m.max_ms()});
  }
  table.print(std::cout);
  if (recorder) {
    if (cli.has("trace")) {
      const std::string path = cli.get("trace", "adaptsim.trace.json");
      if (!obs::write_trace_file(*recorder, path)) {
        std::cerr << "cannot write --trace file " << path << "\n";
        return 1;
      }
      std::cout << "\ntrace (" << format_bytes(traced_msg)
                << " run): " << path << "  — load at ui.perfetto.dev\n";
    }
    if (cli.has("metrics")) {
      const std::string path = cli.get("metrics", "adaptsim.metrics.csv");
      if (!obs::write_metrics_file(*recorder, path)) {
        std::cerr << "cannot write --metrics file " << path << "\n";
        return 1;
      }
      std::cout << "metrics: " << path << "\n";
    }
  }
  if (tuner && cli.has("dump-table")) {
    const std::string path = cli.get("dump-table", "adaptsim.table.json");
    std::ofstream out(path);
    out << tuner->dump_json() << "\n";
    if (!out) {
      std::cerr << "cannot write --dump-table file " << path << "\n";
      return 1;
    }
    std::cout << "decision table (" << tuner->table_size()
              << " entries): " << path << "\n";
  }
  return 0;
}
