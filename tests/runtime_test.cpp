// SimEngine-specific behaviour: main-thread vs progress-context timelines,
// noise deferral semantics, compute/sleep, determinism of whole simulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/bench/imb.hpp"
#include "src/coll/coll.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/log.hpp"
#include "src/topo/presets.hpp"

namespace adapt::runtime {
namespace {

TEST(SimEngine, ComputeOccupiesAndAdvancesVirtualTime) {
  topo::Machine m(topo::cori(1), 2);
  SimEngine engine(m);
  std::vector<TimeNs> marks;
  auto program = [&](Context& ctx) -> sim::Task<> {
    if (ctx.rank() != 0) co_return;
    marks.push_back(ctx.now());
    co_await ctx.compute(microseconds(500));
    marks.push_back(ctx.now());
    co_await ctx.sleep_for(microseconds(250));
    marks.push_back(ctx.now());
  };
  engine.run(program);
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[1] - marks[0], microseconds(500));
  EXPECT_EQ(marks[2] - marks[1], microseconds(250));
}

TEST(SimEngine, MainThreadWorkSerialises) {
  topo::Machine m(topo::cori(1), 1);
  SimEngine engine(m);
  std::vector<TimeNs> fired;
  auto program = [&](Context& ctx) -> sim::Task<> {
    // Two deferred jobs with CPU cost occupy the main thread back to back.
    ctx.defer(microseconds(10), [&] { fired.push_back(ctx.now()); });
    ctx.defer(microseconds(10), [&] { fired.push_back(ctx.now()); });
    co_await ctx.sleep_for(microseconds(100));
  };
  engine.run(program);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1] - fired[0], microseconds(10));
}

TEST(SimEngine, ProgressContextIgnoresNoise) {
  topo::Machine m(topo::cori(1), 1);
  SimEngineOptions options;
  // Constant heavy noise: bursts of up to 50ms at 10Hz.
  options.noise = std::make_shared<noise::UniformBurstNoise>(
      milliseconds(50), 10.0, 123);
  SimEngine engine(m, options);
  TimeNs progress_done = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    ctx.defer_progress(microseconds(5),
                       [&] { progress_done = ctx.now(); });
    co_await ctx.sleep_for(milliseconds(400));
  };
  engine.run(program);
  // The progress job never waits for a noise burst to end.
  EXPECT_EQ(progress_done, microseconds(5));
}

TEST(SimEngine, NoiseDefersMainThreadWork) {
  topo::Machine m(topo::cori(1), 1);
  SimEngineOptions options;
  auto noise_model = std::make_shared<noise::UniformBurstNoise>(
      milliseconds(20), 10.0, 77);
  options.noise = noise_model;
  SimEngine engine(m, options);
  // Find a time inside a burst of rank 0 and schedule main work there.
  const auto [burst_start, burst_end] = noise_model->burst(0, 1);
  ASSERT_GT(burst_end, burst_start);  // seed 77 period 1 has a real burst
  TimeNs fired = -1;
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await ctx.sleep_for(burst_start + (burst_end - burst_start) / 2);
    ctx.defer(0, [&] { fired = ctx.now(); });
    co_await ctx.sleep_for(seconds(1));
  };
  engine.run(program);
  EXPECT_EQ(fired, burst_end);
}

TEST(SimEngine, RunCanBeCalledRepeatedly) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await ctx.compute(microseconds(10));
  };
  const auto first = engine.run(program);
  const auto second = engine.run(program);
  EXPECT_GE(second.total_time, first.total_time);  // time is monotonic
}

TEST(SimEngine, RunResultReportsPerRankFinish) {
  topo::Machine m(topo::cori(1), 4);
  SimEngine engine(m);
  auto program = [&](Context& ctx) -> sim::Task<> {
    co_await ctx.sleep_for(microseconds(100) * (ctx.rank() + 1));
  };
  const auto result = engine.run(program);
  ASSERT_EQ(result.rank_finish.size(), 4u);
  for (int r = 1; r < 4; ++r) {
    EXPECT_GT(result.rank_finish[static_cast<std::size_t>(r)],
              result.rank_finish[static_cast<std::size_t>(r - 1)]);
  }
  EXPECT_EQ(result.total_time, result.rank_finish[3]);
}

// Both engines run rank callbacks through the shared RankCore, which stamps
// log lines with the rank and its virtual time while logging is on.
template <typename Engine, typename Options>
std::vector<std::string> log_lines_of_compute(Options options) {
  std::vector<std::string> lines;
  set_log_level(LogLevel::kInfo);
  set_log_sink([&lines](const std::string& line) { lines.push_back(line); });
  {
    topo::Machine m(topo::cori(1), 2);
    Engine engine(m, options);
    auto program = [&](Context& ctx) -> sim::Task<> {
      co_await ctx.compute(100 * (ctx.rank() + 1));
      ADAPT_LOG(kInfo) << "computed";
    };
    engine.run(program);
  }
  set_log_sink(nullptr);
  set_log_level(LogLevel::kOff);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(RankCore, LogLinesCarryRankAndVirtualTime) {
  const std::vector<std::string> want = {
      "[adapt INFO  t=100ns r=0] computed",
      "[adapt INFO  t=200ns r=1] computed"};
  EXPECT_EQ(log_lines_of_compute<SimEngine>(SimEngineOptions{}), want);
  EXPECT_EQ(log_lines_of_compute<SimEngine>(ShardedEngineOptions{}),
            want);
}

// ----------------------------------------------------------- determinism ---

TimeNs run_bcast_sim(std::uint64_t noise_seed) {
  topo::Machine m(topo::cori(2), 64);
  SimEngineOptions options;
  options.noise = noise::paper_noise(5, noise_seed);
  SimEngine engine(m, options);
  const mpi::Comm world = mpi::Comm::world(64);
  const coll::Tree tree = coll::build_topo_tree(m, world, 0);
  auto program = [&](Context& ctx) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await coll::bcast(ctx, world, mpi::MutView{nullptr, mib(1)}, 0, tree,
                           coll::Style::kAdapt,
                           coll::CollOpts{.segment_size = kib(64)});
    }
  };
  return engine.run(program).total_time;
}

TEST(Determinism, SameSeedSameVirtualTrace) {
  const TimeNs a = run_bcast_sim(42);
  const TimeNs b = run_bcast_sim(42);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_bcast_sim(1), run_bcast_sim(2));
}

// -------------------------------------------------------------- harness ---

TEST(ImbHarness, MeasuresBarrierSeparatedIterations) {
  topo::Machine m(topo::cori(1), 8);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(8);
  auto fn = [&](Context& ctx, int) -> sim::Task<> {
    co_await ctx.compute(microseconds(100));
  };
  const auto result =
      bench::measure(engine, world, fn, {.warmup = 2, .iterations = 5});
  EXPECT_EQ(result.op_ms.count(), 5u);
  EXPECT_NEAR(result.avg_ms(), 0.1, 0.02);
  EXPECT_LE(result.min_ms(), result.max_ms());
}

TEST(ImbHarness, ThroughputLoopAveragesPerRank) {
  topo::Machine m(topo::cori(1), 8);
  SimEngine engine(m);
  const mpi::Comm world = mpi::Comm::world(8);
  auto fn = [&](Context& ctx, int) -> sim::Task<> {
    co_await ctx.compute(microseconds(50));
  };
  const auto result = bench::measure_throughput(
      engine, world, fn, {.warmup = 1, .iterations = 10});
  EXPECT_EQ(result.op_ms.count(), 8u);  // one sample per rank
  EXPECT_NEAR(result.avg_ms(), 0.05, 0.01);
}

TEST(ImbHarness, SubCommunicatorMeasurement) {
  topo::Machine m(topo::cori(1), 8);
  SimEngine engine(m);
  const mpi::Comm sub({0, 2, 4, 6});
  auto fn = [&](Context& ctx, int) -> sim::Task<> {
    co_await coll::barrier(ctx, sub);
  };
  const auto result =
      bench::measure(engine, sub, fn, {.warmup = 0, .iterations = 3});
  EXPECT_EQ(result.op_ms.count(), 3u);
  EXPECT_GT(result.avg_ms(), 0.0);
}

}  // namespace
}  // namespace adapt::runtime
