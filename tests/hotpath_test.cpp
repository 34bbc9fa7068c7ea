// Hot-path overhaul tests: the allocation-free event queue (slab + radix
// levels + bounded lazy cancellation), InlineFunction SBO callables, the
// size-classed BufferPool, bucketed matching, the fork-join parallel_for,
// and the two contracts the overhaul must uphold:
//
//  * determinism — same-seed Perfetto traces stay byte-identical to the
//    hashes captured before the overhaul (tests/golden/trace_hashes.txt),
//    and a conformance matrix run reports identically for any --jobs value;
//  * allocation-freedom — a counting global operator new proves the event
//    queue, the buffer pool, and the matcher allocate NOTHING in steady
//    state (after their slabs/free-lists/buckets have warmed up), also when
//    every round takes fresh tags, and that SimEngine's per-message state
//    (matcher buckets, rendezvous slots, pooled requests) stays bounded
//    across one-shot and baseline collectives.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/coll/coll.hpp"
#include "src/coll/persistent.hpp"
#include "src/coll/topo_tree.hpp"
#include "src/coll/tree.hpp"
#include "src/mpi/match.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/sim/event_queue.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/inline_fn.hpp"
#include "src/support/parallel.hpp"
#include "src/topo/presets.hpp"
#include "src/tune/tuner.hpp"
#include "src/verify/conformance.hpp"
#include "tests/trace_trio.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator: every path into the heap (plain, array, and
// aligned forms) bumps one counter. The steady-state tests below snapshot it
// around a measured loop and assert the delta is zero.
// ---------------------------------------------------------------------------

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

/// Pushes as producer 0, whose keys follow insertion order (as one rank's
/// events do).
sim::EventHandle push0(sim::EventQueue& q, TimeNs t, sim::EventFn fn) {
  static sim::EventKeys keys(1);
  return q.push(t, keys.next(0), std::move(fn));
}

// ------------------------------------------------------------ InlineFunction

TEST(InlineFunction, InvokesInlineCapture) {
  int x = 41;
  InlineFunction<int(), 32> fn = [x] { return x + 1; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  auto token = std::make_shared<int>(7);
  InlineFunction<int(), 32> fn = [token] { return *token; };
  EXPECT_EQ(token.use_count(), 2);
  InlineFunction<int(), 32> moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(token.use_count(), 2);      // moved, not copied
  EXPECT_EQ(moved(), 7);
  moved.reset();
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed
}

TEST(InlineFunction, OversizedCaptureTakesBoxedPath) {
  struct Big {
    char bytes[200];
  };
  Big big{};
  big.bytes[0] = 3;
  big.bytes[199] = 4;
  InlineFunction<int(), 32> fn = [big] {
    return big.bytes[0] + big.bytes[199];
  };
  EXPECT_EQ(fn(), 7);
  InlineFunction<int(), 32> moved = std::move(fn);
  EXPECT_EQ(moved(), 7);
}

TEST(InlineFunction, MoveOnlyCapture) {
  auto p = std::make_unique<int>(9);
  InlineFunction<int(), 32> fn = [p = std::move(p)] { return *p; };
  EXPECT_EQ(fn(), 9);
}

TEST(InlineFunction, ResetReleasesCapture) {
  auto token = std::make_shared<int>(0);
  InlineFunction<void(), 64> fn = [token] {};
  EXPECT_EQ(token.use_count(), 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------- BufferPool

TEST(BufferPool, SizeClassRounding) {
  using support::BufferPool;
  EXPECT_EQ(BufferPool::class_of(1), 0);
  EXPECT_EQ(BufferPool::class_of(64), 0);
  EXPECT_EQ(BufferPool::class_of(65), 1);
  EXPECT_EQ(BufferPool::class_of(128), 1);
  EXPECT_EQ(BufferPool::class_of(129), 2);
  EXPECT_EQ(BufferPool::capacity_of(0), 64u);
  EXPECT_EQ(BufferPool::capacity_of(3), 512u);
}

TEST(BufferPool, RecyclesFreedBlocks) {
  support::BufferPool pool;
  std::byte* first;
  {
    support::BufferRef ref = pool.acquire(100);
    first = ref.data();
    EXPECT_GE(ref.capacity(), 100u);
  }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.cached_bytes(), support::BufferPool::capacity_of(1));
  support::BufferRef again = pool.acquire(90);  // same class, reused block
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.cached_bytes(), 0u);
}

TEST(BufferPool, AcquireZeroesRequestedBytes) {
  support::BufferPool pool;
  {
    support::BufferRef dirty = pool.acquire_raw(64);
    for (int i = 0; i < 64; ++i) dirty.data()[i] = std::byte{0xAB};
  }
  support::BufferRef clean = pool.acquire(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(clean.data()[i], std::byte{0}) << "byte " << i;
  }
}

TEST(BufferPool, CopiesShareTheBlock) {
  support::BufferPool pool;
  support::BufferRef a = pool.acquire(32);
  a.data()[0] = std::byte{0x5A};
  support::BufferRef b = a;
  EXPECT_EQ(a.data(), b.data());
  a.reset();
  EXPECT_EQ(b.data()[0], std::byte{0x5A});  // b keeps the block alive
  EXPECT_EQ(pool.cached_bytes(), 0u);
  b.reset();
  EXPECT_GT(pool.cached_bytes(), 0u);  // last drop returned it
}

TEST(BufferPool, PoolLessHeapMode) {
  support::BufferRef ref = support::BufferRef::heap(48);
  ASSERT_TRUE(static_cast<bool>(ref));
  for (int i = 0; i < 48; ++i) ASSERT_EQ(ref.data()[i], std::byte{0});
  ref.data()[5] = std::byte{1};
  support::BufferRef copy = ref;
  ref.reset();
  EXPECT_EQ(copy.data()[5], std::byte{1});
}

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsAcrossWideTimeSpreadInOrder) {
  sim::EventQueue q;
  // Times spanning many radix levels, with deliberate ties; record the push
  // index so tie order (FIFO) is observable.
  const std::vector<TimeNs> times = {5,  1'000'000, 7, 42, 999,
                                     5,  123'456'789, 42, 0, 7};
  std::vector<int> fired;
  for (int i = 0; i < static_cast<int>(times.size()); ++i) {
    push0(q, times[i], [&fired, i] { fired.push_back(i); });
  }
  std::vector<TimeNs> popped;
  while (!q.empty()) {
    auto [t, key, fn] = q.pop();
    popped.push_back(t);
    fn();
  }
  const std::vector<TimeNs> want_times = {0, 5, 5, 7, 7, 42, 42, 999,
                                          1'000'000, 123'456'789};
  EXPECT_EQ(popped, want_times);
  // Ties fire in push order: 5 -> {0,5}, 7 -> {2,9}, 42 -> {3,7}.
  const std::vector<int> want_fired = {8, 0, 5, 2, 9, 3, 7, 4, 1, 6};
  EXPECT_EQ(fired, want_fired);
}

TEST(EventQueue, MonotoneInterleavedPushPop) {
  sim::EventQueue q;
  std::vector<TimeNs> popped;
  push0(q, 10, [] {});
  push0(q, 30, [] {});
  popped.push_back(q.pop().time);  // 10
  // New work at or after the current time, including a same-time event.
  push0(q, 10, [] {});
  push0(q, 20, [] {});
  push0(q, 1'000'000'000'000, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<TimeNs>{10, 10, 20, 30, 1'000'000'000'000}));
}

TEST(EventQueue, LiveCountTracksCancellation) {
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(push0(q, 100 + i, [] {}));
  }
  EXPECT_EQ(q.size(), 4u);
  handles[1].cancel();
  handles[2].cancel();
  handles[2].cancel();  // idempotent
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.depth(), 4u);  // lazy: entries still buried
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 100);
  EXPECT_EQ(q.pop().time, 100);
  EXPECT_EQ(q.pop().time, 103);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EmptyAfterCancellingEverything) {
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(push0(q, i * 50, [] {}));
  for (auto& h : handles) h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CompactionBoundsCancelledBacklog) {
  sim::EventQueue q;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(push0(q, 1000 + i * 3, [] {}));
  }
  for (int i = 0; i < 60; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(q.depth(), 100u);
  // The next push sees cancelled (60) outnumber live (41) and compacts.
  push0(q, 5000, [] {});
  EXPECT_EQ(q.size(), 41u);
  EXPECT_EQ(q.depth(), 41u);
  // Survivors still pop in time order.
  TimeNs prev = 0;
  while (!q.empty()) {
    const TimeNs t = q.pop().time;
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_EQ(prev, 5000);
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot) {
  sim::EventQueue q;
  sim::EventHandle stale = push0(q, 1, [] {});
  q.pop();  // fires; the slot returns to the free list
  bool ran = false;
  push0(q, 2, [&ran] { ran = true; });  // recycles the slot, new generation
  stale.cancel();                     // must be a no-op
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

// ------------------------------------------------------------------- Matcher

mpi::PostedRecv make_recv(Rank src, Tag tag) {
  mpi::PostedRecv recv;
  recv.request =
      mpi::RequestPtr::make(mpi::Request::Kind::kRecv, src, tag, 0);
  recv.src = src;
  recv.tag = tag;
  return recv;
}

mpi::Envelope make_env(Rank src, Tag tag) {
  mpi::Envelope env;
  env.src = src;
  env.dst = 0;
  env.tag = tag;
  return env;
}

TEST(Matcher, SpecificPostedEarlierBeatsWildcard) {
  mpi::Matcher m;
  auto specific = make_recv(1, 7);
  auto wild = make_recv(kAnyRank, 7);
  EXPECT_FALSE(m.post(specific).has_value());
  EXPECT_FALSE(m.post(wild).has_value());
  auto hit = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.get(), specific.request.get());
  auto hit2 = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->request.get(), wild.request.get());
  EXPECT_FALSE(m.arrive(make_env(1, 7)).has_value());  // now unexpected
  EXPECT_EQ(m.unexpected_count(), 1u);
}

TEST(Matcher, WildcardPostedEarlierBeatsSpecific) {
  mpi::Matcher m;
  auto wild = make_recv(kAnyRank, 7);
  auto specific = make_recv(1, 7);
  EXPECT_FALSE(m.post(wild).has_value());
  EXPECT_FALSE(m.post(specific).has_value());
  auto hit = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.get(), wild.request.get());
  auto hit2 = m.arrive(make_env(1, 7));
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->request.get(), specific.request.get());
}

TEST(Matcher, WildcardPostDrainsUnexpectedInArrivalOrder) {
  mpi::Matcher m;
  EXPECT_FALSE(m.arrive(make_env(1, 7)).has_value());  // stamp 0
  EXPECT_FALSE(m.arrive(make_env(2, 7)).has_value());  // stamp 1
  EXPECT_FALSE(m.arrive(make_env(1, 7)).has_value());  // stamp 2
  EXPECT_EQ(m.unexpected_count(), 3u);
  EXPECT_EQ(m.total_unexpected(), 3u);
  auto a = m.post(make_recv(kAnyRank, 7));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->src, 1);  // the earliest arrival, across buckets
  auto b = m.post(make_recv(kAnyRank, 7));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->src, 2);
  auto c = m.post(make_recv(1, 7));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->src, 1);
  EXPECT_EQ(m.unexpected_count(), 0u);
}

TEST(Matcher, WildcardTagMatches) {
  mpi::Matcher m;
  auto recv = make_recv(3, kAnyTag);
  EXPECT_FALSE(m.post(recv).has_value());
  auto hit = m.arrive(make_env(3, 99));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->request.get(), recv.request.get());
  EXPECT_FALSE(m.arrive(make_env(4, 99)).has_value());  // wrong source
}

TEST(Matcher, ExactBucketsKeepFifoWithinPair) {
  mpi::Matcher m;
  auto r1 = make_recv(5, 2);
  auto r2 = make_recv(5, 2);
  EXPECT_FALSE(m.post(r1).has_value());
  EXPECT_FALSE(m.post(r2).has_value());
  EXPECT_EQ(m.posted_count(), 2u);
  EXPECT_EQ(m.arrive(make_env(5, 2))->request.get(), r1.request.get());
  EXPECT_EQ(m.arrive(make_env(5, 2))->request.get(), r2.request.get());
}

// Drained buckets retire to a spare list and fresh keys revive spare nodes;
// none of that may disturb earliest-stamp order. Each envelope's size is its
// arrival order, so the wildcard drain below reads the order it took.
TEST(Matcher, WildcardOrderSurvivesBucketRetirementAndReuse) {
  mpi::Matcher m;
  const auto env = [](Rank src, Tag tag, Bytes order) {
    mpi::Envelope e = make_env(src, tag);
    e.size = order;
    return e;
  };
  // (1, 7) fills and drains, retiring its node; (2, 8) revives it.
  EXPECT_FALSE(m.arrive(env(1, 7, 0)).has_value());
  ASSERT_TRUE(m.post(make_recv(1, 7)).has_value());
  EXPECT_FALSE(m.arrive(env(2, 8, 1)).has_value());
  EXPECT_FALSE(m.arrive(env(1, 7, 2)).has_value());
  EXPECT_FALSE(m.arrive(env(2, 8, 3)).has_value());
  EXPECT_FALSE(m.arrive(env(3, 7, 4)).has_value());
  // A specific post drains (2, 8)'s front only; the wildcards then take the
  // earliest remaining stamps across buckets, retiring each as it empties.
  auto first = m.post(make_recv(2, 8));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size, 1);
  std::vector<Bytes> order;
  while (auto hit = m.post(make_recv(kAnyRank, kAnyTag))) {
    order.push_back(hit->size);
    if (order.size() > 8) break;
  }
  EXPECT_EQ(order, (std::vector<Bytes>{2, 3, 4}));
  EXPECT_EQ(m.unexpected_count(), 0u);
  // That last wildcard found nothing and parked on the posted side. Now a
  // specific receive revives a retired node for (5, 9) while an older
  // wildcard for source 5 is still posted: the older one wins.
  EXPECT_EQ(m.posted_count(), 1u);
  auto wild = make_recv(5, kAnyTag);
  auto specific = make_recv(5, 9);
  auto later = make_recv(5, 9);
  EXPECT_FALSE(m.post(wild).has_value());
  EXPECT_FALSE(m.post(specific).has_value());
  auto any = m.arrive(env(6, 1, 5));  // the (any, any) wildcard, oldest
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->src, kAnyRank);
  EXPECT_EQ(m.arrive(env(5, 9, 6))->request.get(), wild.request.get());
  EXPECT_EQ(m.arrive(env(5, 9, 7))->request.get(), specific.request.get());
  // (5, 9) drained and retired; posting it again revives a spare node.
  EXPECT_FALSE(m.post(later).has_value());
  EXPECT_EQ(m.arrive(env(5, 9, 8))->request.get(), later.request.get());
  EXPECT_EQ(m.posted_count(), 0u);
  EXPECT_EQ(m.unexpected_count(), 0u);
}

// -------------------------------------------------- steady-state allocation

TEST(AllocationFree, EventQueueSteadyState) {
  sim::EventQueue q;
  struct Capture {
    std::uint64_t a, b;
  };
  // Warm-up: grow the slab, the cohort, and the radix buckets to the depth
  // the measured loop uses.
  TimeNs t = 0;
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 64; ++i) {
        const Capture c{static_cast<std::uint64_t>(r),
                        static_cast<std::uint64_t>(i)};
        push0(q, t + 1 + (i * 37) % 1000, [c] { (void)c; });
      }
      while (!q.empty()) {
        auto [time, key, fn] = q.pop();
        t = time;
        fn();
      }
    }
  };
  // Pre-touch every radix level the measured loop can reach at the loop's
  // full fan-out (advancing time crosses ever-higher power-of-two
  // boundaries, so later rounds land entries in buckets earlier rounds never
  // used — those vectors must have grown before counting starts).
  for (int b = 5; b <= 45; ++b) {
    for (int j = 0; j < 64; ++j) {
      push0(q, (static_cast<TimeNs>(1) << b) + j * 37, [] {});
    }
  }
  while (!q.empty()) {
    auto [time, key, fn] = q.pop();
    t = time;
    fn();
  }
  churn(4);
  const std::uint64_t before = g_alloc_count.load();
  churn(50);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "event scheduling allocated in steady state";
}

TEST(AllocationFree, ShardCohortPreReserve) {
  // The sharded engine sizes each shard's queue for its rank cohort up
  // front (EventQueue(expected_cohort) reserves the cohort vector and every
  // radix level), so after one warm-up fill — slab record chunks are still
  // allocated on demand — keyed pushes across the full radix-level spread
  // allocate nothing. This is the --shards>1 hot path: no queue growth while
  // worker threads run their windows.
  constexpr int kCohort = 512;
  sim::EventQueue q(kCohort);
  std::uint64_t tie = 0;
  TimeNs t = 0;
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < kCohort; ++i) {
        // Spread across radix levels 5..45 like the default steady-state
        // test — the ctor's per-level reserve must cover them unwarmed.
        const int level = 5 + (i % 41);
        q.push(t + (static_cast<TimeNs>(1) << level) + i * 37, tie++,
                     [] {});
      }
      while (!q.empty()) {
        auto [time, key, fn] = q.pop();
        t = time;
        fn();
      }
    }
  };
  churn(1);  // warm the record slab (one full-cohort chunk set)
  const std::uint64_t before = g_alloc_count.load();
  churn(20);
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "pre-reserved shard cohort allocated in steady state";
}

TEST(AllocationFree, BufferPoolSteadyState) {
  support::BufferPool pool;
  const auto churn = [&] {
    support::BufferRef a = pool.acquire(1000);
    support::BufferRef b = pool.acquire_raw(64);
    support::BufferRef c = pool.acquire(4096);
    support::BufferRef d = a;  // shared drop path
    a.reset();
  };
  churn();  // warm the free lists
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) churn();
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "buffer churn allocated in steady state";
}

TEST(AllocationFree, MatcherSteadyState) {
  mpi::Matcher m;
  // Requests are made once outside the loop: the matcher itself must not
  // allocate when the same (src, tag) working set recurs.
  std::vector<mpi::PostedRecv> recvs;
  for (int src = 0; src < 4; ++src) recvs.push_back(make_recv(src, 11));
  mpi::PostedRecv wild = make_recv(kAnyRank, 11);
  const auto churn = [&] {
    for (int src = 0; src < 4; ++src) {
      (void)m.arrive(make_env(src, 11));  // all unexpected
    }
    for (int src = 0; src < 4; ++src) {
      (void)m.post(recvs[static_cast<std::size_t>(src)]);  // all hits
    }
    (void)m.post(wild);                // parks on the wildcard list
    (void)m.arrive(make_env(2, 11));   // drains it
  };
  for (int i = 0; i < 4; ++i) churn();  // warm buckets and fifos
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) churn();
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "matching allocated in steady state";
}

TEST(AllocationFree, MatcherFreshTagsSteadyState) {
  // The one-shot pattern: every round takes fresh tags (one per segment, as
  // ctx.alloc_tags does per collective). Half the segments find a pre-posted
  // receive, half arrive unexpected and are posted for later. Drained buckets
  // retire and fresh keys revive them, so after warm-up neither table grows
  // and matching touches no heap.
  mpi::Matcher m;
  constexpr int kSources = 3;
  constexpr int kSegs = 8;
  std::vector<mpi::PostedRecv> recvs;
  for (int i = 0; i < kSources * kSegs; ++i) recvs.push_back(make_recv(0, 0));
  Tag next_tag = 1 << 20;
  const auto round = [&] {
    const Tag base = next_tag;
    next_tag += kSegs;
    for (int src = 0; src < kSources; ++src) {
      for (int seg = 0; seg < kSegs; ++seg) {
        mpi::PostedRecv& recv = recvs[static_cast<std::size_t>(src * kSegs + seg)];
        recv.src = src;
        recv.tag = base + seg;
        if (seg % 2 == 0) (void)m.post(recv);  // pre-posted
      }
    }
    for (int seg = 0; seg < kSegs; ++seg) {
      for (int src = 0; src < kSources; ++src) {
        (void)m.arrive(make_env(src, base + seg));
      }
    }
    for (int src = 0; src < kSources; ++src) {
      for (int seg = 1; seg < kSegs; seg += 2) {  // late posts: unexpected hits
        (void)m.post(recvs[static_cast<std::size_t>(src * kSegs + seg)]);
      }
    }
  };
  for (int i = 0; i < 4; ++i) round();  // warm the spares and the tables
  ASSERT_EQ(m.posted_count(), 0u);
  ASSERT_EQ(m.unexpected_count(), 0u);
  constexpr int kRounds = 1000;
  std::vector<std::size_t> footprints;
  footprints.reserve(kRounds + 1);
  footprints.push_back(m.footprint_bytes());
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < kRounds; ++i) {
    round();
    footprints.push_back(m.footprint_bytes());
  }
  EXPECT_EQ(g_alloc_count.load() - before, 0u)
      << "fresh-tag matching allocated in steady state";
  for (int i = 1; i <= kRounds; ++i) {
    ASSERT_EQ(footprints[static_cast<std::size_t>(i)], footprints[0])
        << "matcher footprint grew at round " << i;
  }
}

// One-shot ADAPT bcasts of rendezvous-sized segments, back to back on one
// engine: each collective takes fresh tags, and each segment runs the full
// RTS -> grant -> CTS -> bulk -> finalise journey. The matcher gauge must
// stop growing after warm-up, and the per-message state must come from
// recycled slots — what is left per message is the collective's own
// bookkeeping, amortised.
TEST(SimEngineMessageState, OneShotRendezvousBcastsStayBounded) {
  constexpr int kRanks = 8;
  constexpr Bytes kBytes = mib(4);
  constexpr Bytes kSegment = mib(1);  // > eager threshold: all rendezvous
  constexpr int kRounds = 24;
  constexpr int kWarm = 4;
  topo::Machine machine(topo::cori(1), kRanks);
  ASSERT_GT(kSegment, machine.spec().eager_threshold);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const coll::Tree tree = coll::binomial_tree(kRanks, 0);
  const coll::CollOpts opts{.segment_size = kSegment};
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    co_await coll::bcast(ctx, world, mpi::MutView{nullptr, kBytes}, 0, tree,
                         coll::Style::kAdapt, opts);
  };

  // Traced engine: sim.matcher_bytes is assigned after every run.
  runtime::SimEngineOptions traced;
  traced.recorder = std::make_shared<obs::Recorder>(true);
  runtime::SimEngine gauged(machine, traced);
  std::vector<std::int64_t> matcher_bytes;
  for (int round = 1; round <= kRounds; ++round) {
    gauged.run(program);
    matcher_bytes.push_back(
        traced.recorder->metrics().counter("sim.matcher_bytes"));
  }
  ASSERT_GT(matcher_bytes[1], 0);
  EXPECT_EQ(matcher_bytes[19], matcher_bytes[1])
      << "matcher gauge after round 20 differs from round 2";
  EXPECT_EQ(matcher_bytes.back(), matcher_bytes[1]);

  // Untraced engine (trace buffers would allocate): heap allocations per
  // rendezvous message once the pools, spares and route table are warm.
  runtime::SimEngine engine(machine);
  for (int round = 0; round < kWarm; ++round) engine.run(program);
  const auto sends = [&] {
    std::uint64_t total = 0;
    for (Rank r = 0; r < kRanks; ++r) {
      total += engine.endpoint(r).sends_started();
    }
    return total;
  };
  const std::uint64_t sends_before = sends();
  const std::uint64_t before = g_alloc_count.load();
  for (int round = kWarm; round < kRounds; ++round) engine.run(program);
  const std::uint64_t allocs = g_alloc_count.load() - before;
  const std::uint64_t messages = sends() - sends_before;
  ASSERT_EQ(messages, static_cast<std::uint64_t>((kRanks - 1) * 4 *
                                                 (kRounds - kWarm)));
  // About 1.75, none of them in the transport, the matcher or the request
  // lifecycle (pooled requests, frame-resident waits): what remains is the
  // engine run's and the one-shot collective's per-call set-up (ROADMAP
  // item 3), spread over the round's 28 messages.
  const double per_message =
      static_cast<double>(allocs) / static_cast<double>(messages);
  EXPECT_LE(per_message, 2.0) << allocs << " allocations over " << messages
                              << " rendezvous messages";
}

// The baselines' path (paper Algs. 1-2): bcast + reduce on blocking or
// nonblocking P2P, one Wait/Waitall per message or segment. Once the engine
// is warm, requests come from the endpoint pools and every wait parks on its
// own frame; blocking P2P allocates (almost) nothing per message, and
// nonblocking pays only for its request vectors.
double baseline_allocs_per_message(coll::Style style) {
  constexpr int kRanks = 8;
  constexpr Bytes kBytes = mib(4);  // the Fig. 10 message
  constexpr Bytes kSegment = kib(8);
  constexpr int kRounds = 8;
  constexpr int kWarm = 2;
  topo::Machine machine(topo::cori(1), kRanks);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  const coll::Tree tree = coll::binomial_tree(kRanks, 0);
  const coll::CollOpts opts{.segment_size = kSegment};
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    co_await coll::bcast(ctx, world, mpi::MutView{nullptr, kBytes}, 0, tree,
                         style, opts);
    co_await coll::reduce(ctx, world, mpi::MutView{nullptr, kBytes},
                          mpi::ReduceOp::kSum, mpi::Datatype::kInt32, 0, tree,
                          style, opts);
  };
  runtime::SimEngine engine(machine);
  for (int round = 0; round < kWarm; ++round) engine.run(program);
  const auto sends = [&] {
    std::uint64_t total = 0;
    for (Rank r = 0; r < kRanks; ++r) {
      total += engine.endpoint(r).sends_started();
    }
    return total;
  };
  const std::uint64_t sends_before = sends();
  const std::uint64_t before = g_alloc_count.load();
  for (int round = kWarm; round < kRounds; ++round) engine.run(program);
  const std::uint64_t allocs = g_alloc_count.load() - before;
  const std::uint64_t messages = sends() - sends_before;
  EXPECT_EQ(messages, static_cast<std::uint64_t>(2 * (kRanks - 1) *
                                                 (kBytes / kSegment) *
                                                 (kRounds - kWarm)));
  return static_cast<double>(allocs) / static_cast<double>(messages);
}

TEST(SimEngineMessageState, BlockingBaselineAllocatesNothingPerMessage) {
  EXPECT_LE(baseline_allocs_per_message(coll::Style::kBlocking), 0.1);
}

TEST(SimEngineMessageState, NonblockingBaselineStaysUnderOnePerMessage) {
  EXPECT_LE(baseline_allocs_per_message(coll::Style::kNonblocking), 1.0);
}

// ------------------------------------------------------------ payload copies

// On the fair-share fabric a send borrows its buffer and the data leg copies
// it once, straight into the posted receive, and a reduce receive folds a
// child's segment straight into the accumulator where it lands. A pool
// block is taken only for an unexpected arrival's staging copy (one block
// per message used to be the eager send copy, and one per reduce receive
// its fold window), and, in a partitioned round, for the window of each
// reduce receive posted before its segment was released. Returns the
// blocks, the unexpected payload arrivals and the lent windows of four warm
// persistent 64-rank bcast + reduce rounds with real payload.
struct RoundBlocks {
  std::uint64_t blocks = 0;
  std::uint64_t unexpected = 0;
  std::uint64_t lent = 0;
};

RoundBlocks persistent_round_blocks(int partitions) {
  constexpr int kRanks = 64;
  constexpr Bytes kBytes = kib(64);
  constexpr int kWarm = 3;
  constexpr int kMeasured = 4;
  topo::Machine machine(topo::cori(2), kRanks);
  runtime::SimEngine engine(machine);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  std::vector<std::vector<std::byte>> bufs(
      kRanks, std::vector<std::byte>(static_cast<std::size_t>(kBytes)));
  struct Totals {
    std::uint64_t blocks = 0;
    std::uint64_t unexpected = 0;
    std::uint64_t sends = 0;
  };
  const auto totals = [&] {
    Totals t;
    t.blocks = engine.pool().hits() + engine.pool().misses();
    for (Rank r = 0; r < kRanks; ++r) {
      t.unexpected += engine.endpoint(r).unexpected_payloads();
      t.sends += engine.endpoint(r).sends_started();
    }
    return t;
  };
  Totals before;
  Totals after;
  std::uint64_t windows_per_round = 0;  // summed over the ranks
  auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    auto& mine = bufs[static_cast<std::size_t>(ctx.rank())];
    const mpi::MutView view{mine.data(), kBytes};
    coll::PersistentOpts popts;
    popts.partitions = partitions;
    auto bcast = coll::bcast_init(ctx, world, view, /*root=*/0);
    auto reduce = coll::reduce_init(ctx, world, view, mpi::ReduceOp::kSum,
                                    mpi::Datatype::kInt32, /*root=*/0, popts);
    auto bar = coll::barrier_init(ctx, world);
    if (partitions > 0) {
      // Every receive a round posts at its start precedes the release of
      // its segment, and every later one follows it: min(S, M) windows per
      // child edge.
      windows_per_round +=
          reduce->plan().tree.kids(ctx.rank()).size() *
          static_cast<std::size_t>(std::min(
              reduce->segments(), coll::CollOpts{}.outstanding_recvs));
    }
    for (int r = 0; r < kWarm + kMeasured; ++r) {
      // Every rank is past the previous barrier and no payload moves
      // before the root starts the bcast, so the snapshot is exact.
      if (r == kWarm && ctx.rank() == 0) before = totals();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = std::byte(ctx.rank() + static_cast<int>(i));
      }
      EXPECT_EQ(bcast->start(), mpi::ErrCode::kOk);
      co_await bcast->wait();
      EXPECT_EQ(reduce->start(), mpi::ErrCode::kOk);
      if (partitions > 0) {
        // Children's segments arrive before their parents release theirs,
        // so folds park on the windows.
        co_await ctx.sleep_for(microseconds(20));
        for (int p = 0; p < partitions; ++p) {
          EXPECT_EQ(reduce->pready(p), mpi::ErrCode::kOk);
        }
      }
      co_await reduce->wait();
      EXPECT_EQ(bar->start(), mpi::ErrCode::kOk);
      co_await bar->wait();
    }
    if (ctx.rank() == 0) after = totals();
  };
  EXPECT_NO_THROW(engine.run(program));
  EXPECT_GT(after.sends, before.sends);
  return RoundBlocks{after.blocks - before.blocks,
                     after.unexpected - before.unexpected,
                     windows_per_round * kMeasured};
}

TEST(PayloadCopies, PersistentRoundTakesBlocksOnlyForUnexpectedArrivals) {
  const RoundBlocks round = persistent_round_blocks(/*partitions=*/0);
  EXPECT_EQ(round.blocks, round.unexpected)
      << round.blocks << " pool blocks for " << round.unexpected
      << " unexpected payload arrivals";
}

TEST(PayloadCopies, PartitionedRoundLendsWindowsOnlyBeforeRelease) {
  const RoundBlocks round = persistent_round_blocks(/*partitions=*/2);
  ASSERT_GT(round.lent, 0u);
  EXPECT_EQ(round.blocks, round.unexpected + round.lent)
      << round.blocks << " pool blocks for " << round.unexpected
      << " unexpected payload arrivals and " << round.lent
      << " lent fold windows";
}

// ---------------------------------------------------------- tree building

// A one-shot collective builds its tree on every rank in every call (any
// tree plugs into any style, paper §2.2.4), so a build is a few flat
// arrays whatever the size: the tree's three, the builder's edge list, and
// the topology-aware builder's sort keys, members and leaders.
TEST(TreeBuild, DecisionTreeAllocatesAFewArrays) {
  constexpr int kRanks = 64;
  const topo::Machine machine(topo::cori(2), kRanks);
  const mpi::Comm world = mpi::Comm::world(kRanks);
  tune::Decision d;
  d.topology = tune::Topology::kTopoKnomial;
  d.radix = 4;
  for (Rank root = 0; root < kRanks; ++root) {
    const std::uint64_t before = g_alloc_count.load();
    const coll::Tree tree = tune::decision_tree(machine, world, root, d);
    const std::uint64_t allocs = g_alloc_count.load() - before;
    EXPECT_LE(allocs, 8u) << "root " << root;
    EXPECT_EQ(tree.size(), kRanks);
  }
}

TEST(TreeBuild, FourThousandRankTopoTreeAllocatesAFewArrays) {
  const topo::Machine machine(topo::cori(128), 4096);
  const mpi::Comm world = mpi::Comm::world(4096);
  for (const Rank root : {0, 1234, 4095}) {
    const std::uint64_t before = g_alloc_count.load();
    const coll::Tree tree = coll::build_topo_tree(machine, world, root);
    const std::uint64_t allocs = g_alloc_count.load() - before;
    EXPECT_LE(allocs, 8u) << "root " << root;
    EXPECT_EQ(tree.size(), 4096);
  }
}

// -------------------------------------------------------------- parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr int kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  support::parallel_for(8, kN, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SequentialWhenJobsIsOne) {
  std::vector<int> order;
  support::parallel_for(1, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsLowestFailingIndex) {
  try {
    support::parallel_for(4, 16, [](int i) {
      if (i == 3 || i == 9) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  support::parallel_for(4, 0, [](int) { FAIL(); });
}

// -------------------------------------------------------- jobs equivalence

// The conformance report must be identical for any jobs value. Run a small
// matrix seeded with the arrival-order fault (so there ARE failures whose
// order, shrink results, and repro lines can disagree if the merge is wrong)
// sequentially and on four workers, and compare everything.
TEST(JobsEquivalence, MatrixReportIsIdenticalAcrossJobCounts) {
  using namespace adapt::verify;
  std::vector<CaseConfig> cases;
  for (const int world : {8, 12}) {
    CaseConfig config;
    config.collective = Collective::kGather;
    config.world = world;
    config.root = 1;
    config.bytes = 600;
    cases.push_back(config);
  }

  const auto run = [&](int jobs) {
    MatrixOptions options;
    options.sim_seeds = 6;
    options.thread_engine = false;
    options.shrink = true;
    options.jobs = jobs;
    options.fault = Fault::kGatherArrivalOrder;
    return run_matrix(cases, options);
  };
  const Report seq = run(1);
  const Report par = run(4);

  EXPECT_EQ(seq.cases, par.cases);
  EXPECT_EQ(seq.runs, par.runs);
  ASSERT_EQ(seq.failures.size(), par.failures.size());
  for (std::size_t i = 0; i < seq.failures.size(); ++i) {
    EXPECT_EQ(seq.failures[i].repro, par.failures[i].repro) << "failure " << i;
    EXPECT_EQ(seq.failures[i].detail, par.failures[i].detail)
        << "failure " << i;
  }
  EXPECT_EQ(seq.summary(), par.summary());
}

// ------------------------------------------------------- trace byte-identity

// Same-seed traces must be byte-identical to the pre-overhaul pin. The trio
// covers bcast/reduce/allreduce at 64 ranks, stable and perturbed; the golden
// hashes were captured before the slab/radix/pool work landed.
TEST(TraceRegression, TrioMatchesGoldenHashes) {
  using namespace adapt::verify;
  std::ifstream golden(std::string(ADAPT_TESTS_DIR) +
                       "/golden/trace_hashes.txt");
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/trace_hashes.txt";
  std::map<std::string, std::pair<std::string, std::size_t>> want;
  std::string name, mode, hash;
  std::size_t size = 0;
  while (golden >> name >> mode >> hash >> size) {
    want[name + " " + mode] = {hash, size};
  }
  ASSERT_EQ(want.size(), 6u);

  for (const TrioOp op :
       {TrioOp::kBcast, TrioOp::kReduce, TrioOp::kAllreduce}) {
    for (const bool perturbed : {false, true}) {
      const std::string key =
          std::string(trio_name(op)) + (perturbed ? " perturbed" : " stable");
      const std::string trace = trio_trace(op, perturbed);
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(fnv1a64(trace)));
      ASSERT_TRUE(want.count(key)) << key;
      EXPECT_EQ(buf, want[key].first) << key << " trace bytes changed";
      EXPECT_EQ(trace.size(), want[key].second) << key << " trace size";
    }
  }
}

}  // namespace
