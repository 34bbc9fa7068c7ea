// Micro-benchmarks of the framework's hot internals (google-benchmark):
// event-queue throughput, fluid-flow rebalancing, matching, tree builders and
// the end-to-end simulated-message rate. These guard the simulator's own
// performance, which bounds how large a cluster the figure benches can model.
//
// The binary also replaces the global allocator with a counting one, so the
// *SteadyState benchmarks can report an `allocs_per_item` counter — the
// allocation-free contract of the slab event queue and the buffer pool as a
// perf-CI guard (a regression shows up as a non-zero counter, not just a
// slowdown).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/mpi/match.hpp"
#include "src/net/fabric.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace adapt;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    sim::EventKeys keys(1);
    for (int i = 0; i < n; ++i) {
      q.push(static_cast<TimeNs>(rng.next_below(1 << 20)), keys.next(0),
             [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().fn);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

// Steady-state churn on a warm queue: constant depth, recycled slots, warm
// radix buckets. `allocs_per_item` must stay 0.00 — the allocation-free
// contract as a perf-CI counter.
void BM_EventQueueSteadyState(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  sim::EventQueue q;
  sim::EventKeys keys(1);
  Rng rng(1);
  TimeNs t = 0;
  const auto round = [&] {
    for (int i = 0; i < depth; ++i) {
      q.push(t + 1 + static_cast<TimeNs>(rng.next_below(1 << 12)),
             keys.next(0), [] {});
    }
    while (!q.empty()) {
      sim::Event ev = q.pop();
      t = ev.time;
      benchmark::DoNotOptimize(ev.fn);
    }
  };
  // Warm every radix level reachable by an advancing clock, then the loop's
  // own shape, so the measured region starts with all capacity in place.
  for (int b = 5; b <= 45; ++b) {
    for (int j = 0; j < depth; ++j) {
      q.push((static_cast<TimeNs>(1) << b) + j, keys.next(0), [] {});
    }
  }
  while (!q.empty()) t = q.pop().time;
  round();
  const std::uint64_t before = g_alloc_count.load();
  std::uint64_t items = 0;
  for (auto _ : state) {
    round();
    items += static_cast<std::uint64_t>(depth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - before) /
      static_cast<double>(items ? items : 1));
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(64)->Arg(1024);

// Steady-state acquire/release churn on a warm pool — same contract.
void BM_BufferPoolSteadyState(benchmark::State& state) {
  support::BufferPool pool;
  const auto round = [&] {
    support::BufferRef a = pool.acquire(kib(32));
    support::BufferRef b = pool.acquire_raw(4096);
    support::BufferRef c = pool.acquire(256);
    support::BufferRef shared = a;
    benchmark::DoNotOptimize(shared.data());
  };
  round();  // warm the free lists
  const std::uint64_t before = g_alloc_count.load();
  std::uint64_t items = 0;
  for (auto _ : state) {
    round();
    items += 3;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count.load() - before) /
      static_cast<double>(items ? items : 1));
}
BENCHMARK(BM_BufferPoolSteadyState);

void BM_FabricContendedFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  std::uint64_t scheduled = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Fabric fabric(sim);
    const net::LinkId link = fabric.add_link(8.0);
    for (int i = 0; i < flows; ++i) {
      fabric.transfer(net::Route{{link}, 1.0, 100}, 100000, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(fabric.flows_completed());
    scheduled = sim.events_scheduled();
  }
  state.SetItemsProcessed(state.iterations() * flows);
  // Machine-independent churn gauge (scripts/check_perf.py caps it at 2.0):
  // one activation and one completion per flow when every rate change of an
  // instant is coalesced into a single rebalance.
  state.counters["scheduled_per_flow"] =
      static_cast<double>(scheduled) / static_cast<double>(flows);
}
BENCHMARK(BM_FabricContendedFlows)->Arg(16)->Arg(256);

void BM_MatcherThroughput(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::Matcher matcher;
    for (int i = 0; i < msgs; ++i) {
      mpi::PostedRecv recv{nullptr, mpi::MutView{}, 0, i};
      matcher.post(std::move(recv));
    }
    for (int i = msgs - 1; i >= 0; --i) {
      mpi::Envelope env;
      env.src = 0;
      env.tag = i;
      benchmark::DoNotOptimize(matcher.arrive(std::move(env)));
    }
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_MatcherThroughput)->Arg(64)->Arg(512);

void BM_TopoTreeBuild(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll::build_topo_tree(machine, world, 0));
  }
}
BENCHMARK(BM_TopoTreeBuild)->Arg(128)->Arg(1024);

void BM_SimulatedBcast(benchmark::State& state) {
  // End-to-end simulator rate: one ADAPT broadcast per iteration.
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngine engine(machine);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
BENCHMARK(BM_SimulatedBcast)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

// The same broadcast with a real 1 MiB payload in eager-sized 16 KiB
// segments: the data plane's per-byte cost. A segment is borrowed from its
// sender and copied once, straight into the posted receive.
void BM_SimulatedBcastPayload(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  constexpr Bytes kBytes = mib(1);
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  std::vector<std::vector<std::byte>> bufs(
      static_cast<std::size_t>(ranks),
      std::vector<std::byte>(static_cast<std::size_t>(kBytes), std::byte{1}));
  for (auto _ : state) {
    runtime::SimEngine engine(machine);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
      co_await coll::bcast(ctx, world, mpi::MutView{mine.data(), kBytes}, 0,
                           tree, coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(16)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(bufs.back().data());
  }
  state.SetBytesProcessed(state.iterations() * kBytes * (ranks - 1));
}
BENCHMARK(BM_SimulatedBcastPayload)->Arg(64)->Unit(benchmark::kMillisecond);

// Zero-overhead guard for the fault-injection layer: the same end-to-end
// broadcast with fault injection DISABLED (the default-constructed plan) and
// with a lossless-but-enabled injector. Compare against BM_SimulatedBcast —
// the disabled variant must be indistinguishable from it (the hot path is
// one null-pointer branch in Fabric::transfer_tagged), while the enabled
// variant bounds the price of turning chaos on.
void BM_SimulatedBcastFaultsDisabled(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;  // options.faults stays disabled
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
BENCHMARK(BM_SimulatedBcastFaultsDisabled)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedBcastFaultsLossless(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;
    // Enabled injector (an outage in the far future) that never actually
    // drops anything: measures the per-transmission decision cost alone.
    options.faults.outages.push_back(
        {0, 1, -1, seconds(1e6), seconds(1e6) + 1});
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
BENCHMARK(BM_SimulatedBcastFaultsLossless)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Zero-overhead guard for the observability layer, mirroring the fault
// guards above: with a DISABLED recorder attached the engine installs no
// hooks at all, so the run must be indistinguishable from BM_SimulatedBcast
// (each hot path pays exactly one null-pointer test). The enabled variant
// bounds the full price of tracing everything.
void BM_SimulatedBcastTraceDisabled(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;
    options.recorder = std::make_shared<obs::Recorder>(/*enabled=*/false);
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
BENCHMARK(BM_SimulatedBcastTraceDisabled)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedBcastTraceEnabled(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;
    options.recorder = std::make_shared<obs::Recorder>();
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(options.recorder->event_count());
  }
}
BENCHMARK(BM_SimulatedBcastTraceEnabled)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Always-on flight recorder: bounded windows + event-class sampling keep the
// recorder resident for the whole run at a fraction of full tracing's price.
// check_perf.py holds this within the same intra-run ratio bound as the
// disabled/enabled trace pair, so "leave the flight recorder on" stays a
// guaranteed-cheap default.
void BM_SimulatedBcastFlightRecorder(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;
    options.recorder = std::make_shared<obs::FlightRecorder>();
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(options.recorder->event_count());
  }
}
BENCHMARK(BM_SimulatedBcastFlightRecorder)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Zero-overhead guard for the recovery layer (PR 7), mirroring the fault and
// trace guards above: with SimEngineOptions::recovery unset the engine
// creates no RecoveryService, wires no give-up hooks, and the frame dispatch
// never sees a recovery kind — the run must be indistinguishable from
// BM_SimulatedBcast. The enabled variant (reliability + recovery, fault-free
// fabric) bounds the full price of arming self-healing without any failure.
void BM_SimulatedBcastRecoveryDisabled(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;  // options.recovery stays unset
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
BENCHMARK(BM_SimulatedBcastRecoveryDisabled)
    ->Arg(64)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedBcastRecoveryEnabled(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  topo::Machine machine(topo::cori((ranks + 31) / 32), ranks);
  const mpi::Comm world = mpi::Comm::world(ranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  for (auto _ : state) {
    runtime::SimEngineOptions options;
    options.reliability = mpi::ReliabilityConfig{};  // lossless fabric
    options.recovery = runtime::RecoveryOptions{};
    runtime::SimEngine engine(machine, options);
    auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(128)});
    };
    engine.run(program);
    benchmark::DoNotOptimize(engine.simulator().events_processed());
  }
}
// Recovery tracks membership in 64-bit masks, so the enabled variant tops
// out at 64 ranks (the disabled variant has no such cap — nothing is armed).
BENCHMARK(BM_SimulatedBcastRecoveryEnabled)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
