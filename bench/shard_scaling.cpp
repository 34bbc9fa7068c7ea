// Shard-scaling benchmark: the sharded conservative-lookahead engine on a
// fig10-style ADAPT broadcast, swept over --shards in {1, 2, 4, 8}.
//
// Two numbers per shard count:
//   sim_ms   — simulated collective time. Virtual time is part of the
//              determinism contract, so it must be IDENTICAL for every shard
//              count (this binary exits non-zero if it is not) and identical
//              across hosts (scripts/check_perf.py --shard-scaling pins it
//              against BENCH_shard.json).
//   wall_ms  — host wall clock for the measured iterations: the simulator-
//              performance number. Speedup = wall_ms(1) / wall_ms(S); the
//              perf gate enforces a floor only when the recorded hw_threads
//              show the runner can actually parallelise.
//
// A finish-time hash (FNV-1a over total_time and every rank's completion
// time) is reported alongside — a compact cross-host fingerprint of the
// schedule that the gate also pins.
//
//   shard_scaling [--ranks N] [--msg BYTES] [--seg BYTES] [--iters N]
//                 [--json [FILE]]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/bench/report.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/parallel.hpp"
#include "src/support/table.hpp"

namespace {

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  bench::Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4096));
  const Bytes msg = cli.get_int("msg", mib(1));
  const Bytes seg = cli.get_int("seg", kib(64));
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  const int hw_threads = support::hardware_jobs();

  std::cout << "== Shard scaling: " << ranks << "-rank ADAPT bcast, MSG="
            << format_bytes(msg) << ", SEG=" << format_bytes(seg)
            << ", hw_threads=" << hw_threads << " ==\n\n";

  const int nodes = (ranks + 31) / 32;
  const auto setup = bench::make_cluster("cori", nodes, ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(setup.machine, world, 0);
  const coll::CollOpts opts{.segment_size = seg};

  Table table({"shards", "sim_ms", "wall_ms", "speedup"});
  bench::JsonReport report("shard_scaling");
  report.set_meta("ranks", static_cast<std::int64_t>(ranks));
  report.set_meta("msg_bytes", static_cast<std::int64_t>(msg));
  report.set_meta("seg_bytes", static_cast<std::int64_t>(seg));
  report.set_meta("iters", static_cast<std::int64_t>(iters));
  report.set_meta("hw_threads", static_cast<std::int64_t>(hw_threads));

  double base_sim_ms = 0;
  double base_wall_ms = 0;
  std::string base_hash;
  for (const int shards : shard_counts) {
    runtime::ShardedEngineOptions options;
    options.shards = shards;
    runtime::SimEngine engine(setup.machine, options);

    auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
      (void)ctx;
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, msg}, 0, tree,
                           coll::Style::kAdapt, opts);
    };
    // Schedule fingerprint first, on the fresh engine: absolute finish times
    // are offsets from virtual time zero, so the hash depends only on the
    // schedule — not on how many benchmark iterations ran before it.
    const runtime::RunResult result =
        engine.run([&](runtime::Context& ctx) -> sim::Task<> {
          co_await coll::bcast(ctx, world, mpi::MutView{nullptr, msg}, 0,
                               tree, coll::Style::kAdapt, opts);
        });
    std::uint64_t h = 1469598103934665603ull;
    h = fnv1a64(&result.total_time, sizeof result.total_time, h);
    h = fnv1a64(result.rank_finish.data(),
                result.rank_finish.size() * sizeof(TimeNs), h);
    const std::string hash = hex64(h);

    const auto start = std::chrono::steady_clock::now();
    const double sim_ms =
        bench::measure(engine, world, fn, {.warmup = 1, .iterations = iters})
            .avg_ms();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    if (shards == 1) {
      base_sim_ms = sim_ms;
      base_wall_ms = wall_ms;
      base_hash = hash;
      report.set_meta("sim_ms", format_ms(sim_ms));
      report.set_meta("finish_hash", hash);
    } else if (sim_ms != base_sim_ms || hash != base_hash) {
      std::cerr << "DETERMINISM VIOLATION at shards=" << shards
                << ": sim_ms=" << format_ms(sim_ms) << " vs "
                << format_ms(base_sim_ms) << ", finish_hash=" << hash
                << " vs " << base_hash << "\n";
      return 1;
    }
    report.set_meta("wall_ms_" + std::to_string(shards), format_ms(wall_ms));
    table.add_row_numeric(std::to_string(shards),
                          {sim_ms, wall_ms, base_wall_ms / wall_ms});
  }
  table.print(std::cout);
  std::cout << "\n(simulated time and finish hash identical across all shard "
               "counts: determinism contract holds)\n";
  report.add_table("sharded engine scaling", table);
  return bench::emit_json(cli, report) ? 0 : 1;
}
