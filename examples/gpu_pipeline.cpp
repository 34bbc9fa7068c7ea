// GPU pipeline demo (§4): broadcast and reduce over GPU-resident data on a
// simulated multi-GPU node cluster, showing the two ADAPT optimisations:
//   * the explicit CPU buffer at node leaders (§4.1) — NIC traffic, cache->
//     GPU flushes and GPU-peer copies ride different PCIe lanes;
//   * reduction offloaded to GPU streams (§4.2) — the CPU stays free and the
//     folds overlap with communication.
//
//   ./gpu_pipeline [--nodes 4] [--msg BYTES]
#include <iostream>
#include <string>

#include "src/bench/imb.hpp"
#include "src/coll/library.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/table.hpp"
#include "src/topo/presets.hpp"

using namespace adapt;

int main(int argc, char** argv) {
  int nodes = 4;
  Bytes msg = mib(16);
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes") nodes = std::atoi(argv[i + 1]);
    if (arg == "--msg") msg = std::atoll(argv[i + 1]);
  }

  topo::Machine machine(topo::psg(nodes), nodes * 4,
                        topo::PlacementPolicy::kByGpu);
  const mpi::Comm world = mpi::Comm::world(machine.nranks());
  std::cout << "PSG-like cluster: " << nodes << " nodes x 4 GPUs, "
            << format_bytes(msg) << " GPU-resident messages\n\n";

  Table table({"library", "bcast(ms)", "reduce(ms)"});
  for (const std::string& name : coll::gpu_libraries()) {
    auto lib = coll::make_library(name, machine);
    double results[2];
    for (int which = 0; which < 2; ++which) {
      runtime::SimEngineOptions options;
      options.gpu = lib->gpu_config();
      runtime::SimEngine engine(machine, options);
      mpi::MutView buffer{nullptr, msg};
      auto fn = [&](runtime::Context& ctx, int) -> sim::Task<> {
        if (which == 0) {
          co_await lib->bcast(ctx, world, buffer, 0);
        } else {
          co_await lib->reduce(ctx, world, buffer, mpi::ReduceOp::kSum,
                               mpi::Datatype::kFloat, 0);
        }
      };
      results[which] =
          bench::measure(engine, world, fn, {.warmup = 1, .iterations = 3})
              .avg_ms();
    }
    char b[32], r[32];
    std::snprintf(b, sizeof b, "%.3f", results[0]);
    std::snprintf(r, sizeof r, "%.3f", results[1]);
    table.add_row({name, b, r});
  }
  table.print(std::cout);
  std::cout << "\nompi-adapt-gpu sources NIC traffic from the host cache, "
               "flushes to GPUs on\nstreams and reduces on the device — the "
               "three transfers use different PCIe\nlanes and overlap "
               "(Fig. 6c), while the baselines bounce everything through\n"
               "the same root port direction (Fig. 6a/b).\n";
  return 0;
}
