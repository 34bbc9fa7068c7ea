// Sharded conservative-lookahead engine: determinism, scale and topology
// tests.
//
// The contract under test (DESIGN.md §14): traces, metrics, collective
// payload bytes and the rank-state gauge are byte-identical for ANY --shards
// value, including 1, and every rank finishes at the same time as on the
// SimEngine with uncontended links. The procedural-topology pins lock the O(1) route
// arithmetic the shard mapper and the lookahead bound are built on, and the
// scale tests hold the per-rank memory footprint to a documented budget at
// 4096 and 65,536 ranks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/coll/coll.hpp"
#include "src/coll/library.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/mpi/payload.hpp"
#include "src/obs/export.hpp"
#include "src/obs/merge.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sharded_engine.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/topo/presets.hpp"
#include "src/topo/procedural.hpp"
#include "src/verify/conformance.hpp"
#include "tests/trace_trio.hpp"

namespace adapt {
namespace {

// ---------------------------------------------------------------------------
// Procedural topologies: route-cost pins on small hand-built instances.
// ---------------------------------------------------------------------------

TEST(ProceduralTopo, DragonflyRouteCosts) {
  // 3 groups x 2 routers x 2 ranks = 12 ranks. Betas chosen distinct so each
  // path class has a recognisable bottleneck.
  const topo::LinkParams inject{500, 0.0625};
  const topo::LinkParams local{300, 0.25};
  const topo::LinkParams global{1100, 0.5};
  topo::Dragonfly df(3, 2, 2, inject, local, global);

  EXPECT_EQ(df.nranks(), 12);
  EXPECT_EQ(df.blocks(), 3);
  EXPECT_EQ(df.name(), std::string("dragonfly(g=3,a=2,p=2)"));

  // Position arithmetic: rank -> router -> group.
  EXPECT_EQ(df.router_of(0), 0);
  EXPECT_EQ(df.router_of(5), 2);
  EXPECT_EQ(df.group_of(3), 0);
  EXPECT_EQ(df.group_of(4), 1);
  EXPECT_EQ(df.block_of(11), 2);

  // Self route is free.
  EXPECT_EQ(df.route(5, 5).alpha, 0);
  EXPECT_DOUBLE_EQ(df.route(5, 5).beta_ns_per_byte, 0.0);

  // Same router: inject + eject only.
  const topo::RouteCost same_router = df.route(0, 1);
  EXPECT_EQ(same_router.alpha, 2 * 500);
  EXPECT_DOUBLE_EQ(same_router.beta_ns_per_byte, 0.0625);

  // Same group, different router: one local hop.
  const topo::RouteCost same_group = df.route(0, 2);
  EXPECT_EQ(same_group.alpha, 2 * 500 + 300);
  EXPECT_DOUBLE_EQ(same_group.beta_ns_per_byte, 0.25);

  // Cross group: local + global + local.
  const topo::RouteCost cross = df.route(0, 4);
  EXPECT_EQ(cross.alpha, 2 * 500 + 2 * 300 + 1100);
  EXPECT_DOUBLE_EQ(cross.beta_ns_per_byte, 0.5);
  EXPECT_EQ(cross.time(1200), 2700 + 600);  // alpha + 0.5 ns/B * 1200 B

  // The sharded engine's lookahead bound is the cross-group alpha.
  EXPECT_EQ(df.min_cross_block_alpha(), 2700);
}

TEST(ProceduralTopo, FatTreeRouteCosts) {
  // k = 4: 4 pods, 2 edge switches/pod, 2 hosts/edge = 16 ranks.
  const topo::LinkParams host_edge{600, 0.125};
  const topo::LinkParams edge_agg{450, 0.25};
  const topo::LinkParams agg_core{450, 0.5};
  topo::FatTree ft(4, host_edge, edge_agg, agg_core);

  EXPECT_EQ(ft.nranks(), 16);
  EXPECT_EQ(ft.blocks(), 4);
  EXPECT_EQ(ft.edge_of(1), 0);
  EXPECT_EQ(ft.edge_of(2), 1);
  EXPECT_EQ(ft.pod_of(3), 0);
  EXPECT_EQ(ft.pod_of(4), 1);
  EXPECT_EQ(ft.block_of(15), 3);

  EXPECT_EQ(ft.route(7, 7).alpha, 0);

  // Same edge switch: host-edge up + down.
  const topo::RouteCost same_edge = ft.route(0, 1);
  EXPECT_EQ(same_edge.alpha, 2 * 600);
  EXPECT_DOUBLE_EQ(same_edge.beta_ns_per_byte, 0.125);

  // Same pod, different edge: climb to aggregation.
  const topo::RouteCost same_pod = ft.route(0, 2);
  EXPECT_EQ(same_pod.alpha, 2 * 600 + 2 * 450);
  EXPECT_DOUBLE_EQ(same_pod.beta_ns_per_byte, 0.25);

  // Cross pod: climb to core.
  const topo::RouteCost cross_pod = ft.route(0, 4);
  EXPECT_EQ(cross_pod.alpha, 2 * 600 + 2 * 450 + 2 * 450);
  EXPECT_DOUBLE_EQ(cross_pod.beta_ns_per_byte, 0.5);

  EXPECT_EQ(ft.min_cross_block_alpha(), 3000);
}

TEST(ProceduralTopo, PresetsCoverRequestedRanks) {
  // Smallest balanced dragonfly (g = a + 1, p = a) with a^2 (a + 1) >= 4096
  // is a = 16: 16 * 16 * 17 = 4352 ranks.
  const auto df = topo::presets::dragonfly(4096);
  EXPECT_EQ(df->nranks(), 4352);
  EXPECT_EQ(df->blocks(), 17);
  EXPECT_GT(df->min_cross_block_alpha(), 0);

  // Smallest even k with k^3 / 4 >= 4096 is k = 26: 4394 ranks.
  const auto ft = topo::presets::fat_tree(4096);
  EXPECT_EQ(ft->nranks(), 4394);
  EXPECT_EQ(ft->blocks(), 26);
  EXPECT_GT(ft->min_cross_block_alpha(), 0);

  // Million-rank instances stay O(1) state: constructing them is free.
  EXPECT_GE(topo::presets::dragonfly(1 << 20)->nranks(), 1 << 20);
  EXPECT_GE(topo::presets::fat_tree(1 << 20)->nranks(), 1 << 20);
}

// ---------------------------------------------------------------------------
// Shard mapper: whole blocks, balanced, clamped.
// ---------------------------------------------------------------------------

void expect_valid_map(const topo::ShardMap& map, const topo::ProcTopology& t,
                      int expected_shards) {
  EXPECT_EQ(map.shards, expected_shards);
  ASSERT_EQ(static_cast<int>(map.ranks.size()), expected_shards);
  ASSERT_EQ(static_cast<int>(map.shard_of.size()), t.nranks());
  // Every rank appears exactly once, in its recorded shard, and no block is
  // split across shards (the lookahead bound depends on this).
  std::vector<int> seen(static_cast<std::size_t>(t.nranks()), 0);
  std::map<int, int> block_shard;
  for (int s = 0; s < expected_shards; ++s) {
    EXPECT_FALSE(map.ranks[static_cast<std::size_t>(s)].empty());
    for (const Rank r : map.ranks[static_cast<std::size_t>(s)]) {
      ++seen[static_cast<std::size_t>(r)];
      EXPECT_EQ(map.shard_of[static_cast<std::size_t>(r)], s);
      const auto [it, fresh] = block_shard.emplace(t.block_of(r), s);
      if (!fresh) {
        EXPECT_EQ(it->second, s) << "block split across shards";
      }
    }
  }
  for (const int n : seen) EXPECT_EQ(n, 1);
}

TEST(ShardMap, DealsWholeBlocksEvenly) {
  // 4 groups x 2 x 2 = 16 ranks in 4 blocks of 4.
  topo::Dragonfly df(4, 2, 2, {500, 0.0625}, {300, 0.25}, {1100, 0.5});

  const topo::ShardMap two = topo::make_shard_map(df, 2);
  expect_valid_map(two, df, 2);
  EXPECT_EQ(two.ranks[0].size(), 8u);
  EXPECT_EQ(two.ranks[1].size(), 8u);

  const topo::ShardMap three = topo::make_shard_map(df, 3);
  expect_valid_map(three, df, 3);

  // Clamped to the block count: more shards than blocks is not allowed (a
  // block interior route would otherwise cross shards with alpha below the
  // lookahead bound).
  const topo::ShardMap clamped = topo::make_shard_map(df, 8);
  expect_valid_map(clamped, df, 4);

  const topo::ShardMap one = topo::make_shard_map(df, 1);
  expect_valid_map(one, df, 1);
  EXPECT_EQ(one.ranks[0].size(), 16u);
}

TEST(ShardMap, MachineBlocksAreNodes) {
  const topo::Machine machine(topo::cori(4), 128);
  const topo::MachineTopology mt(machine);
  EXPECT_EQ(mt.blocks(), 4);
  EXPECT_GT(mt.min_cross_block_alpha(), 0);
  const topo::ShardMap map = topo::make_shard_map(mt, 4);
  expect_valid_map(map, mt, 4);
  for (Rank r = 0; r < 128; ++r) {
    EXPECT_EQ(map.shard_of[static_cast<std::size_t>(r)], r / 32);
  }
}

TEST(ShardMap, InterleavesBlocksByPopulation) {
  // Equal blocks go round-robin, so neighbouring nodes — where a pipelined
  // collective's front is at any one time — land on different shards.
  const topo::Machine eight(topo::cori(8), 256);
  const topo::MachineTopology mt(eight);
  const topo::ShardMap map = topo::make_shard_map(mt, 4);
  expect_valid_map(map, mt, 4);
  for (Rank r = 0; r < 256; ++r) {
    EXPECT_EQ(map.shard_of[static_cast<std::size_t>(r)], (r / 32) % 4);
  }
  // A short last block goes to a shard holding fewest ranks, keeping shard
  // populations within one block of each other.
  const topo::Machine ragged(topo::cori(4), 100);
  const topo::MachineTopology rt(ragged);
  const topo::ShardMap three = topo::make_shard_map(rt, 3);
  expect_valid_map(three, rt, 3);
  EXPECT_EQ(three.ranks[0].size(), 36u);  // blocks 0 and 3 (32 + 4 ranks)
  EXPECT_EQ(three.ranks[1].size(), 32u);
  EXPECT_EQ(three.ranks[2].size(), 32u);
}

// ---------------------------------------------------------------------------
// Engine determinism: byte-identical artefacts for any shard count.
// ---------------------------------------------------------------------------

struct ShardedRun {
  runtime::RunResult result;
  std::string trace;
  std::string csv;
  std::uint64_t state_bytes = 0;  ///< deterministic gauge
  std::uint64_t peak_bytes = 0;   ///< budget figure (not shard-stable)
};

/// Fig10-style pipelined ADAPT bcast over a Cori-like machine (32 ranks per
/// node). Null payloads unless `real_payload` — the cost model and schedule
/// are payload-independent, and 65k real buffers would swamp the test.
ShardedRun run_sharded_bcast(int nranks, int shards, Bytes msg, Bytes seg,
                             bool real_payload,
                             const topo::ProcTopology* topology = nullptr) {
  const topo::Machine machine(topo::cori(std::max(1, nranks / 32)), nranks);
  const mpi::Comm world = mpi::Comm::world(nranks);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);

  runtime::ShardedEngineOptions options;
  options.shards = shards;
  options.recorder = std::make_shared<obs::Recorder>();
  options.topology = topology;
  runtime::ShardedEngine engine(machine, options);

  std::vector<mpi::Payload> buffers;
  if (real_payload) {
    buffers.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      buffers.push_back(mpi::Payload::real(msg));
      mpi::MutView view = buffers.back().view();
      for (Bytes i = 0; i < msg; i += 61) {
        view.data[i] = static_cast<std::byte>((r * 131 + i * 7) & 0xff);
      }
    }
  }

  const coll::CollOpts opts{.segment_size = seg};
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    mpi::MutView buf = real_payload
                           ? buffers[static_cast<std::size_t>(ctx.rank())].view()
                           : mpi::MutView{nullptr, msg};
    co_await coll::bcast(ctx, world, buf, 0, tree, coll::Style::kAdapt, opts);
  };

  ShardedRun out;
  out.result = engine.run(program);
  out.state_bytes = engine.rank_state_bytes();
  out.peak_bytes = engine.rank_state_peak_bytes();
  {
    std::ostringstream os;
    obs::write_trace_json(*options.recorder, os);
    out.trace = os.str();
  }
  {
    std::ostringstream os;
    obs::write_metrics_csv(*options.recorder, os);
    out.csv = os.str();
  }

  if (real_payload) {
    // Every rank must hold the root's pattern after the bcast.
    for (int r = 0; r < nranks; ++r) {
      const mpi::MutView view = buffers[static_cast<std::size_t>(r)].view();
      for (Bytes i = 0; i < msg; i += 61) {
        const auto want = static_cast<std::byte>((i * 7) & 0xff);
        if (view.data[i] != want) {
          ADD_FAILURE() << "payload mismatch at rank " << r << " byte " << i
                        << " under shards=" << shards;
          return out;
        }
      }
    }
  }
  return out;
}

/// The two metrics rows whose values are coroutine-frame sizes: the arena
/// rounds each compiler-chosen frame size up to a power-of-two class, so
/// these follow the compiler and its flags, not the simulated schedule.
constexpr const char* kFrameSizedRows[] = {"counter,sim.frame_bytes,",
                                           "counter,sim.rank_state_bytes,"};

/// `csv` without the kFrameSizedRows lines; `removed` counts them.
std::string without_frame_sized_rows(const std::string& csv, int* removed) {
  std::string out;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    const bool frame_sized =
        std::any_of(std::begin(kFrameSizedRows), std::end(kFrameSizedRows),
                    [&](const char* row) { return line.starts_with(row); });
    if (frame_sized) {
      ++*removed;
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

// A deadlocked run destroys the frames of the ranks that never finished,
// whatever shard they ran on.
TEST(ShardedEngine, DeadlockDestroysUnfinishedFrames) {
  struct Flag {
    int* destroyed;
    ~Flag() { ++*destroyed; }
  };
  const topo::Machine machine(topo::cori(2), 64);
  runtime::ShardedEngine engine(machine, {.shards = 2});
  int destroyed = 0;
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    if (ctx.rank() % 2 == 0) co_return;
    const Flag flag{&destroyed};
    co_await ctx.recv(ctx.rank() - 1, 1, mpi::MutView{nullptr, 8});
  };
  EXPECT_THROW(engine.run(program), Error);
  EXPECT_EQ(destroyed, 32);
}

TEST(ShardedEngine, SmallBcastPayloadCorrectAcrossShards) {
  for (const int shards : {1, 2}) {
    const ShardedRun run =
        run_sharded_bcast(64, shards, kib(64), kib(16), /*real_payload=*/true);
    EXPECT_GT(run.result.total_time, 0) << "shards=" << shards;
  }
}

TEST(ShardedEngine, TraceMetricsAndGaugeInvariantToShardCount) {
  const ShardedRun base =
      run_sharded_bcast(4096, 1, kib(256), kib(64), /*real_payload=*/false);
  ASSERT_GT(base.result.total_time, 0);
  ASSERT_FALSE(base.trace.empty());
  for (const char* row : kFrameSizedRows) {
    EXPECT_NE(base.csv.find(row), std::string::npos)
        << row << " missing from metrics export";
  }

  for (const int shards : {2, 4, 8}) {
    const ShardedRun run =
        run_sharded_bcast(4096, shards, kib(256), kib(64), false);
    EXPECT_EQ(run.result.total_time, base.result.total_time)
        << "shards=" << shards;
    EXPECT_EQ(run.result.rank_finish, base.result.rank_finish)
        << "shards=" << shards;
    EXPECT_EQ(verify::fnv1a64(run.trace), verify::fnv1a64(base.trace))
        << "trace diverged at shards=" << shards;
    EXPECT_EQ(run.trace, base.trace) << "trace bytes at shards=" << shards;
    EXPECT_EQ(run.csv, base.csv) << "metrics bytes at shards=" << shards;
    EXPECT_EQ(run.state_bytes, base.state_bytes)
        << "rank-state gauge at shards=" << shards;
  }
}

TEST(ShardedEngine, DragonflyTopologyDeterminism) {
  // Procedural topology as the locality oracle: 4 groups of 16 ranks, so the
  // mapper has real blocks to deal and the lookahead comes from the dragonfly
  // cross-group alpha rather than the machine's inter-node lane.
  topo::Dragonfly df(4, 4, 4, {500, 0.0625}, {300, 0.25}, {1100, 0.5});
  ASSERT_EQ(df.nranks(), 64);
  const ShardedRun base =
      run_sharded_bcast(64, 1, kib(128), kib(32), /*real_payload=*/true, &df);
  for (const int shards : {2, 4}) {
    const ShardedRun run = run_sharded_bcast(64, shards, kib(128), kib(32),
                                             /*real_payload=*/true, &df);
    EXPECT_EQ(run.result.rank_finish, base.result.rank_finish)
        << "shards=" << shards;
    EXPECT_EQ(run.trace, base.trace) << "shards=" << shards;
    EXPECT_EQ(run.csv, base.csv) << "shards=" << shards;
  }
}

// Golden pins for the 4096-rank artefacts (captured at shards=1; the
// invariance test above proves every other shard count matches, frame-sized
// rows included). The metrics pin hashes the CSV without the frame-sized
// rows, which move with the compiler's coroutine frame layout. Regenerate
// with tests/golden/README in mind: any intentional cost-model or export
// change moves these.
TEST(ShardedEngine, GoldenHashes4096) {
  const std::string path =
      std::string(ADAPT_TESTS_DIR) + "/golden/sharded_hashes.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::map<std::string, std::pair<std::string, std::size_t>> want;
  std::string name, hash;
  std::size_t size = 0;
  while (in >> name >> hash >> size) want[name] = {hash, size};
  ASSERT_EQ(want.size(), 2u) << "expected trace+metrics pins in " << path;

  const ShardedRun run =
      run_sharded_bcast(4096, 4, kib(256), kib(64), /*real_payload=*/false);
  const auto hex = [](std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
  };
  EXPECT_EQ(hex(verify::fnv1a64(run.trace)), want["bcast4096_trace"].first);
  EXPECT_EQ(run.trace.size(), want["bcast4096_trace"].second);
  int removed = 0;
  const std::string csv = without_frame_sized_rows(run.csv, &removed);
  EXPECT_EQ(removed, 2) << "expected one row each of " << kFrameSizedRows[0]
                        << " and " << kFrameSizedRows[1];
  EXPECT_EQ(hex(verify::fnv1a64(csv)), want["bcast4096_metrics"].first);
  EXPECT_EQ(csv.size(), want["bcast4096_metrics"].second);
}

// ---------------------------------------------------------------------------
// Cross-engine differential: both engines run ranks on one RankCore,
// messages on one set of MessageLegs priced by each pair's transmit clock,
// and events in one keyed order, so the sharded engine at any shard count
// reproduces the uncontended SimEngine rank by rank and record by record.
// ---------------------------------------------------------------------------

void expect_engines_agree(const topo::Machine& machine,
                          const runtime::RankProgram& program,
                          const std::string& what) {
  auto reference_rec = std::make_shared<obs::Recorder>(true);
  runtime::SimEngine reference(
      machine, {.sharing = net::SharingPolicy::kUncontended,
                .recorder = reference_rec});
  const std::vector<TimeNs> want = reference.run(program).rank_finish;
  const std::string want_trace = obs::canonical_trace_json(*reference_rec);
  ASSERT_FALSE(reference_rec->transfers().empty()) << what;
  for (const int shards : {1, 2, 4}) {
    auto rec = std::make_shared<obs::Recorder>(true);
    runtime::ShardedEngine engine(machine, {.shards = shards, .recorder = rec});
    EXPECT_EQ(engine.run(program).rank_finish, want)
        << what << " at shards=" << shards;
    std::ostringstream trace;
    obs::write_trace_json(*rec, trace);
    EXPECT_TRUE(trace.str() == want_trace)
        << what << " at shards=" << shards << ": the merged trace ("
        << trace.str().size() << " B) differs from the uncontended "
        << "SimEngine's (" << want_trace.size() << " B)";
  }
}

TEST(EngineDifferential, Fig10PointMatchesUncontendedSimEngine) {
  // The paper's Fig. 10 point: Cori 8 x 32 ranks, 4 MiB, every end-to-end
  // personality, both operations, a node-leader root and an interior one.
  const topo::Machine machine(topo::cori(8), 256);
  const mpi::Comm world = mpi::Comm::world(256);
  for (const std::string& name : coll::end_to_end_libraries("cori")) {
    const std::shared_ptr<coll::MpiLibrary> lib =
        coll::make_library(name, machine);
    for (const bool is_bcast : {true, false}) {
      for (const Rank root : {0, 37}) {
        const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
          const mpi::MutView buf{nullptr, mib(4)};
          if (is_bcast) {
            co_await lib->bcast(ctx, world, buf, root);
          } else {
            co_await lib->reduce(ctx, world, buf, mpi::ReduceOp::kSum,
                                 mpi::Datatype::kFloat, root);
          }
        };
        expect_engines_agree(machine, program,
                             name + (is_bcast ? " bcast" : " reduce") +
                                 " root=" + std::to_string(root));
      }
    }
  }
}

TEST(EngineDifferential, AdaptAt1024RanksMatchesUncontendedSimEngine) {
  // ADAPT topo-chain bcast and reduce, 1 MiB in 64 KiB segments: the
  // leaders' inter-node and intra-node sends overlap on both engines.
  const int n = 1024;
  const topo::Machine machine(topo::cori(n / 32), n);
  const mpi::Comm world = mpi::Comm::world(n);
  const coll::Tree tree = coll::build_topo_tree(machine, world, 0);
  const coll::CollOpts opts{.segment_size = kib(64)};
  for (const bool is_bcast : {true, false}) {
    const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
      const mpi::MutView buf{nullptr, mib(1)};
      if (is_bcast) {
        co_await coll::bcast(ctx, world, buf, 0, tree, coll::Style::kAdapt,
                             opts);
      } else {
        co_await coll::reduce(ctx, world, buf, mpi::ReduceOp::kSum,
                              mpi::Datatype::kFloat, 0, tree,
                              coll::Style::kAdapt, opts);
      }
    };
    expect_engines_agree(machine, program,
                         is_bcast ? "adapt bcast" : "adapt reduce");
  }
}

// ---------------------------------------------------------------------------
// Engine reuse: a run starts where the previous one's last event left the
// clocks (DESIGN.md §14.2), on every shard.
// ---------------------------------------------------------------------------

TEST(EngineReuse, BackToBackRunsMatchFreshOneShardEngine) {
  // Two different collectives: the bcast ends on some shard's clock first,
  // the reduce then starts every rank from the globally last event.
  const topo::Machine machine(topo::cori(8), 256);
  const mpi::Comm world = mpi::Comm::world(256);
  const coll::Tree chain = coll::build_topo_tree(machine, world, 0);
  const coll::Tree binomial =
      coll::build_tree(coll::TreeKind::kBinomial, world.size(), 37);
  const coll::CollOpts opts{.segment_size = kib(64)};
  const runtime::RankProgram bcast =
      [&](runtime::Context& ctx) -> sim::Task<> {
    co_await coll::bcast(ctx, world, mpi::MutView{nullptr, kib(512)}, 0,
                         chain, coll::Style::kAdapt, opts);
  };
  const runtime::RankProgram reduce =
      [&](runtime::Context& ctx) -> sim::Task<> {
    co_await coll::reduce(ctx, world, mpi::MutView{nullptr, kib(256)},
                          mpi::ReduceOp::kSum, mpi::Datatype::kFloat, 37,
                          binomial, coll::Style::kNonblocking, opts);
  };
  struct Runs {
    std::vector<TimeNs> finish[2];
    std::string trace[2];  ///< the merged export after each run
  };
  const auto run_both = [&](int shards) {
    auto rec = std::make_shared<obs::Recorder>(true);
    runtime::SimEngine engine(
        machine, runtime::ShardedEngineOptions{.shards = shards,
                                               .recorder = rec});
    EXPECT_EQ(engine.shards(), shards);
    Runs out;
    for (int i = 0; i < 2; ++i) {
      out.finish[i] = engine.run(i == 0 ? bcast : reduce).rank_finish;
      std::ostringstream trace;
      obs::write_trace_json(*rec, trace);
      out.trace[i] = trace.str();
    }
    return out;
  };
  const Runs want = run_both(1);
  ASSERT_GT(*std::min_element(want.finish[1].begin(), want.finish[1].end()),
            *std::max_element(want.finish[0].begin(), want.finish[0].end()))
      << "the second run must start after the first one's last event";
  for (const int shards : {1, 2, 4}) {
    const Runs got = run_both(shards);
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(got.finish[i], want.finish[i])
          << "run " << i << " at shards=" << shards;
      EXPECT_TRUE(got.trace[i] == want.trace[i])
          << "merged trace after run " << i << " at shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Memory budget: compact per-rank state at scale.
// ---------------------------------------------------------------------------

// Documented per-rank budget (DESIGN.md §14): peak resident rank state —
// live coroutine-frame high-water + matcher footprint + pool-cached blocks —
// divided by nranks must stay under this for the fig10-style bcast.
constexpr std::uint64_t kPerRankPeakBudget = 8 * 1024;

TEST(ShardedEngine, RankStateBudgetAt4096) {
  const ShardedRun run =
      run_sharded_bcast(4096, 1, kib(256), kib(64), /*real_payload=*/false);
  ASSERT_GT(run.peak_bytes, 0u);
  EXPECT_LE(run.peak_bytes / 4096, kPerRankPeakBudget)
      << "peak " << run.peak_bytes << " B total";
}

TEST(ShardedEngine, SixtyFourKRanksDeterministicWithinBudget) {
  // 65,536 ranks, one 64 KiB segment each: the scale acceptance case. Null
  // payloads keep the test about simulator state, not user buffers.
  const ShardedRun base =
      run_sharded_bcast(65536, 1, kib(64), kib(64), /*real_payload=*/false);
  ASSERT_GT(base.result.total_time, 0);
  EXPECT_LE(base.peak_bytes / 65536, kPerRankPeakBudget)
      << "peak " << base.peak_bytes << " B total at shards=1";

  const ShardedRun wide =
      run_sharded_bcast(65536, 8, kib(64), kib(64), /*real_payload=*/false);
  EXPECT_EQ(wide.result.total_time, base.result.total_time);
  EXPECT_EQ(verify::fnv1a64(wide.trace), verify::fnv1a64(base.trace));
  EXPECT_EQ(wide.csv, base.csv);
  EXPECT_EQ(wide.state_bytes, base.state_bytes);
  EXPECT_LE(wide.peak_bytes / 65536, kPerRankPeakBudget)
      << "peak " << wide.peak_bytes << " B total at shards=8";
}

// ---------------------------------------------------------------------------
// Conformance composition: --shards rows stay pinned, also under --jobs.
// ---------------------------------------------------------------------------

TEST(ShardedConformance, MatrixRowsStayPinnedUnderJobs) {
  std::vector<verify::CaseConfig> cases;
  {
    verify::CaseConfig c;
    c.collective = verify::Collective::kBcast;
    c.world = 16;
    c.bytes = 4096;
    c.segment = 1024;
    cases.push_back(c);
    c.collective = verify::Collective::kReduce;
    c.world = 9;  // non-power-of-two tree
    cases.push_back(c);
    c.collective = verify::Collective::kGather;
    c.world = 12;
    c.comm = verify::CommKind::kEven;
    cases.push_back(c);
    c.collective = verify::Collective::kAllgather;
    c.world = 8;
    c.comm = verify::CommKind::kWorld;
    cases.push_back(c);
  }

  verify::MatrixOptions options;
  options.sim_seeds = 2;
  options.thread_engine = false;
  options.shrink = false;
  options.sharded_shards = 2;

  const verify::Report serial = verify::run_matrix(cases, options);
  EXPECT_TRUE(serial.ok()) << serial.summary()
                           << (serial.failures.empty()
                                   ? ""
                                   : "\n  " + serial.failures[0].repro + "\n  " +
                                         serial.failures[0].detail);
  // stable + 2 perturbations + sharded@{1,2} per case.
  EXPECT_EQ(serial.cases, 4);
  EXPECT_EQ(serial.runs, 4 * 5);

  options.jobs = 4;
  const verify::Report parallel = verify::run_matrix(cases, options);
  EXPECT_EQ(parallel.cases, serial.cases);
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.summary(), serial.summary());
  ASSERT_EQ(parallel.failures.size(), serial.failures.size());
}

TEST(ShardedConformance, ReproRoundTripCarriesShards) {
  verify::CaseConfig config;
  config.collective = verify::Collective::kAllgather;
  config.world = 12;
  verify::RunSpec spec;
  spec.engine = verify::EngineKind::kSharded;
  spec.shards = 4;
  const std::string line = verify::repro_string(config, spec);
  EXPECT_NE(line.find("engine=sharded"), std::string::npos);
  EXPECT_NE(line.find("shards=4"), std::string::npos);

  verify::CaseConfig parsed_config;
  verify::RunSpec parsed_spec;
  verify::Fault parsed_fault = verify::Fault::kNone;
  ASSERT_TRUE(
      verify::parse_repro(line, &parsed_config, &parsed_spec, &parsed_fault));
  EXPECT_EQ(parsed_spec.engine, verify::EngineKind::kSharded);
  EXPECT_EQ(parsed_spec.shards, 4);
  EXPECT_EQ(verify::repro_string(parsed_config, parsed_spec, parsed_fault),
            line);
}

}  // namespace
}  // namespace adapt
