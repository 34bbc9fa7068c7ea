// Figure 11: broadcast and reduce on GPU data, PSG-like cluster (4 K40-class
// GPUs per node, FDR IB, one rank per GPU).
//   a) message-size sweep 1-32 MB on 8 nodes / 32 GPUs
//   b) strong scaling at 32 MB from 1 node (4 GPUs) to 8 nodes (32 GPUs)
//
//   fig11_gpu [--iters N] [--nodes N] [--json [FILE]]
#include <iostream>

#include "src/bench/cli.hpp"
#include "src/bench/imb.hpp"
#include "src/bench/report.hpp"
#include "src/coll/library.hpp"
#include "src/topo/presets.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"

namespace {

using namespace adapt;

double run_one(int nodes, const std::string& lib_name, bool is_bcast,
               Bytes msg, int iters) {
  topo::Machine machine(topo::psg(nodes), nodes * 4,
                        topo::PlacementPolicy::kByGpu);
  const mpi::Comm world = mpi::Comm::world(machine.nranks());
  auto lib = coll::make_library(lib_name, machine);
  runtime::SimEngineOptions options;
  options.gpu = lib->gpu_config();
  runtime::SimEngine engine(machine, options);
  mpi::MutView buffer{nullptr, msg};
  auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
    if (is_bcast) {
      co_await lib->bcast(ctx, world, buffer, 0);
    } else {
      co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                           mpi::Datatype::kFloat, 0);
    }
  };
  return bench::measure(engine, world, fn, {.warmup = 1, .iterations = iters})
      .avg_ms();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adapt;
  bench::Cli cli(argc, argv);
  const int iters = static_cast<int>(cli.get_int("iters", 3));
  const int max_nodes = static_cast<int>(cli.get_int("nodes", 8));
  bench::JsonReport report("fig11_gpu");
  report.set_meta("iters", iters);
  report.set_meta("nodes", max_nodes);

  std::cout << "== Figure 11a: GPU broadcast/reduce vs message size on "
            << max_nodes << " nodes (" << max_nodes * 4 << " GPUs) ==\n\n";
  const std::vector<Bytes> sizes = {mib(1), mib(2), mib(4),
                                    mib(8), mib(16), mib(32)};
  for (const char* op : {"Broadcast", "Reduce"}) {
    const bool is_bcast = std::string(op) == "Broadcast";
    std::cout << "Performance of " << op
              << " with GPU data varies by MSG size, time in ms\n";
    std::vector<std::string> header = {"library"};
    for (Bytes s : sizes) header.push_back(format_bytes(s));
    Table table(header);
    for (const std::string& name : coll::gpu_libraries()) {
      std::vector<double> row;
      for (Bytes msg : sizes) {
        row.push_back(run_one(max_nodes, name, is_bcast, msg, iters));
      }
      table.add_row_numeric(name, row);
    }
    table.print(std::cout);
    std::cout << "\n";
    report.add_table(std::string("GPU ") + op + " vs message size (ms)",
                     table);
  }

  std::cout << "== Figure 11b: GPU strong scaling, MSG=32MB ==\n\n";
  for (const char* op : {"Broadcast", "Reduce"}) {
    const bool is_bcast = std::string(op) == "Broadcast";
    std::cout << "Strong Scalability of " << op
              << " with GPU data, nodes:GPUs from 1:4 to " << max_nodes << ":"
              << max_nodes * 4 << ", time in ms\n";
    std::vector<std::string> header = {"library"};
    for (int n = 1; n <= max_nodes; n *= 2) {
      header.push_back(std::to_string(n) + ":" + std::to_string(4 * n));
    }
    Table table(header);
    for (const std::string& name : coll::gpu_libraries()) {
      std::vector<double> row;
      for (int n = 1; n <= max_nodes; n *= 2) {
        row.push_back(run_one(n, name, is_bcast, mib(32), iters));
      }
      table.add_row_numeric(name, row);
    }
    table.print(std::cout);
    std::cout << "\n";
    report.add_table(std::string("GPU ") + op + " strong scaling (ms)",
                     table);
  }
  return bench::emit_json(cli, report) ? 0 : 1;
}
