#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <vector>

#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/task.hpp"
#include "src/support/error.hpp"

namespace adapt::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  auto h = q.push(1, [&] { ++fired; });
  q.push(2, [&] { ++fired; });
  h.cancel();
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  auto a = q.push(1, [] {});
  auto b = q.push(2, [] {});
  a.cancel();
  b.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto a = q.push(1, [] {});
  q.push(7, [] {});
  a.cancel();
  EXPECT_EQ(q.next_time(), 7);
}

TEST(EventQueue, HasLiveAtLeavesTheCursor) {
  EventQueue q;
  auto a = q.push(10, [] {});
  q.push(10, [] {});
  q.push(40, [] {});
  a.cancel();
  EXPECT_EQ(q.pop().first, 10);
  EXPECT_FALSE(q.has_live_at(10));
  EXPECT_FALSE(q.has_live_at(40));
  // The query did not move the cursor to 40: an earlier push stays legal.
  q.push(15, [] {});
  EXPECT_EQ(q.pop().first, 15);
  EXPECT_FALSE(q.has_live_at(15));
  q.push(15, [] {});
  EXPECT_TRUE(q.has_live_at(15));
}

TEST(Simulator, AdvancesTime) {
  Simulator s;
  TimeNs seen = -1;
  s.after(100, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<TimeNs> times;
  s.after(10, [&] {
    times.push_back(s.now());
    s.after(5, [&] { times.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(times, (std::vector<TimeNs>{10, 15}));
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator s;
  int fired = 0;
  s.after(10, [&] { ++fired; });
  s.after(100, [&] { ++fired; });
  s.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsSchedulingIntoPast) {
  Simulator s;
  s.after(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), Error);
  EXPECT_THROW(s.after(-1, [] {}), Error);
}

TEST(Simulator, StepExecutesOne) {
  Simulator s;
  int fired = 0;
  s.after(1, [&] { ++fired; });
  s.after(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, InstantEndRunsOnceTheInstantDrains) {
  Simulator s;
  std::vector<int> log;
  s.after(10, [&] {
    log.push_back(1);
    s.at_instant_end([&] { log.push_back(-static_cast<int>(s.now())); });
  });
  s.after(10, [&] { log.push_back(2); });
  s.after(20, [&] { log.push_back(3); });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, -10, 3}));
  // Not an event: no sequence number, not counted as processed.
  EXPECT_EQ(s.events_scheduled(), 3u);
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, InstantEndMayExtendTheInstant) {
  Simulator s;
  std::vector<int> log;
  int passes = 0;
  std::function<void()> request = [&] {
    s.at_instant_end([&] {
      ++passes;
      log.push_back(100 + passes);
      // Work scheduled at now() belongs to the same instant, and may ask
      // for another pass.
      if (passes == 1) {
        s.after(0, [&] {
          log.push_back(2);
          request();
        });
      }
    });
  };
  s.after(5, [&] {
    log.push_back(1);
    request();
  });
  s.after(6, [&] { log.push_back(3); });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 101, 2, 102, 3}));
}

TEST(Simulator, InstantEndSlotIsSingle) {
  Simulator s;
  s.after(1, [&] {
    s.at_instant_end([] {});
    EXPECT_THROW(s.at_instant_end([] {}), Error);
  });
  s.run();
}

TEST(Simulator, InstantEndTakesNoJitter) {
  Simulator s;
  s.set_perturbation(PerturbConfig{3, true, 1000});
  TimeNs requested = -1, ran = -1;
  s.after(10, [&] {
    requested = s.now();
    s.at_instant_end([&] { ran = s.now(); });
    s.after(0, [] {});  // jittered: may fire later, never earlier
  });
  s.run();
  EXPECT_GE(requested, 10);
  EXPECT_EQ(ran, requested);
}

TEST(Simulator, StepRunsPendingInstantEnd) {
  Simulator s;
  bool ran = false;
  s.after(1, [&] { s.at_instant_end([&] { ran = true; }); });
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(ran);
  EXPECT_FALSE(s.idle());
  EXPECT_FALSE(s.step());
  EXPECT_TRUE(ran);
  EXPECT_TRUE(s.idle());
}

// ---------------------------------------------------------------- Tasks ---

Task<int> make_value(int v) { co_return v; }

Task<int> add_two(int v) {
  const int a = co_await make_value(v);
  const int b = co_await make_value(1);
  co_return a + b + 1;
}

TEST(Task, ChainsValues) {
  int result = 0;
  auto body = [&]() -> Task<> { result = co_await add_two(5); };
  run_detached(body(), [](std::exception_ptr ep) { EXPECT_FALSE(ep); });
  EXPECT_EQ(result, 7);
}

TEST(Task, PropagatesExceptions) {
  auto boom = []() -> Task<> {
    throw Error("boom");
    co_return;
  };
  bool caught = false;
  auto body = [&]() -> Task<> {
    try {
      co_await boom();
    } catch (const Error&) {
      caught = true;
    }
  };
  run_detached(body(), [](std::exception_ptr) {});
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedReportsException) {
  auto boom = []() -> Task<> {
    throw Error("boom");
    co_return;
  };
  std::exception_ptr seen;
  run_detached(boom(), [&](std::exception_ptr ep) { seen = ep; });
  EXPECT_TRUE(seen);
}

TEST(Task, SuspendResumesThroughSimulator) {
  Simulator s;
  std::vector<TimeNs> trace;
  auto prog = [&]() -> Task<> {
    trace.push_back(s.now());
    co_await Suspend([&](std::coroutine_handle<> h) {
      s.after(25, [h] { h.resume(); });
    });
    trace.push_back(s.now());
  };
  bool done = false;
  s.after(0, [&] {
    run_detached(prog(), [&](std::exception_ptr) { done = true; });
  });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(trace, (std::vector<TimeNs>{0, 25}));
}

TEST(Trigger, FireResumesAllWaiters) {
  Trigger t;
  int woke = 0;
  auto waiter = [&]() -> Task<> {
    co_await t;
    ++woke;
  };
  run_detached(waiter(), [](std::exception_ptr) {});
  run_detached(waiter(), [](std::exception_ptr) {});
  EXPECT_EQ(woke, 0);
  t.fire();
  EXPECT_EQ(woke, 2);
}

TEST(Trigger, AwaitAfterFireDoesNotSuspend) {
  Trigger t;
  t.fire();
  int woke = 0;
  auto body = [&]() -> Task<> {
    co_await t;
    ++woke;
  };
  run_detached(body(), [](std::exception_ptr) {});
  EXPECT_EQ(woke, 1);
}

// -- schedule perturbation (src/verify's engine hook) ----------------------

TEST(EventQueuePerturb, ShufflesTiesButKeepsAllEvents) {
  EventQueue q;
  q.set_perturbation(PerturbConfig{.seed = 99, .shuffle_ties = true});
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  std::vector<int> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> identity(16);
  for (int i = 0; i < 16; ++i) identity[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(sorted, identity);   // nothing lost or duplicated
  EXPECT_NE(fired, identity);    // and the FIFO tie order is actually broken
}

TEST(EventQueuePerturb, SameSeedSameOrder) {
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    q.set_perturbation(PerturbConfig{.seed = seed, .max_jitter = 50});
    std::vector<int> fired;
    for (int i = 0; i < 12; ++i) {
      q.push(10 * (i % 3), [&fired, i] { fired.push_back(i); });
    }
    while (!q.empty()) q.pop().second();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(EventQueuePerturb, JitterIsBoundedAndNeverEarly) {
  EventQueue q;
  const TimeNs jitter = 100;
  q.set_perturbation(PerturbConfig{.seed = 3, .max_jitter = jitter});
  const TimeNs scheduled[] = {0, 10, 10, 500, 500, 500, 1000};
  for (TimeNs t : scheduled) q.push(t, [] {});
  // Pop times are nondecreasing and each lies in [t, t + jitter] for SOME
  // scheduled t — never before any event's own schedule time (causality).
  TimeNs prev = -1;
  std::size_t popped = 0;
  while (!q.empty()) {
    const TimeNs t = q.pop().first;
    EXPECT_GE(t, prev);
    prev = t;
    bool legal = false;
    for (TimeNs s : scheduled) legal = legal || (t >= s && t <= s + jitter);
    EXPECT_TRUE(legal) << "pop time " << t;
    ++popped;
  }
  EXPECT_EQ(popped, std::size(scheduled));
}

TEST(EventQueuePerturb, DisablingRestoresFifo) {
  EventQueue q;
  q.set_perturbation(PerturbConfig{.seed = 4});
  q.set_perturbation(std::nullopt);
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) q.push(5, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_FALSE(q.perturbed());
}

}  // namespace
}  // namespace adapt::sim
