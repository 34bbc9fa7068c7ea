// Pending-event priority queue for the discrete-event kernel.
//
// Ordering is (time, insertion sequence): events at equal times fire in the
// order they were scheduled, which makes whole-simulation traces reproducible
// bit-for-bit — a property the determinism tests pin down.
//
// Schedule perturbation (verification mode): a seeded PerturbConfig replaces
// the same-time tie-break with a random draw and may add bounded delivery
// jitter to every event's firing time. Causality is preserved — an event
// never fires before its scheduled time, so anything scheduled from inside a
// callback still runs after it — but the interleaving of *concurrently
// pending* events becomes one of the many legal schedules instead of always
// the same one. Two queues with the same seed replay the same schedule.
//
// Storage is allocation-free in steady state: event records live in a
// chunked slab (fixed 512-record chunks recycled through a LIFO free list,
// so records never relocate and recently-freed slots are cache-hot), and
// callbacks are small-buffer-optimised EventFns stored inside the record.
//
// The queue itself is a two-level monotone radix structure rather than a
// comparison heap. Simulated time only moves forward — Simulator::at checks
// t >= now — so the queue may assume every push is at or after the last
// popped time (checked). That admits the classic radix-heap layout: an entry
// whose time differs from the current time at highest bit b sits in bucket
// b, appended in O(1) with no comparisons; when the current-time cohort
// drains, the lowest non-empty bucket is scanned once for its minimum and
// redistributed into strictly lower buckets (amortised O(word bits) per
// event, sequential memory traffic). Only the cohort of events at exactly
// the current time lives in a comparison heap, ordered by (tie, seq) — which
// is where same-time FIFO stability and perturbed tie-shuffling are decided.
// The pop sequence is the unique ascending (time, tie, seq) order either
// way, so swapping the comparison heap for the radix layout cannot change a
// schedule, and the perturbation RNG draw order is exactly that of the
// original shared_ptr<State> queue: same-seed traces stay byte-identical.
//
// Lifetime contract: an EventHandle may not outlive its EventQueue (handles
// hold an unowned pointer to the queue's slab; cancel() on a handle whose
// queue is gone is undefined). Every holder in the tree satisfies this by
// construction — e.g. SimEngine declares the Simulator before the Fabric
// whose flows hold completion handles.
//
// Cancellation is lazy — a cancelled entry stays buried until it surfaces in
// the current-time cohort — but bounded: a live count tracks cancelled
// entries, and when they outnumber the live ones every level is compacted in
// O(n), so mass cancellation (e.g. fabric rebalances rescheduling every
// completion) can no longer grow the queue without bound.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/support/inline_fn.hpp"
#include "src/support/rng.hpp"
#include "src/support/units.hpp"

namespace adapt::sim {

/// The kernel's callable: inline storage covers the runtime's scheduling
/// lambdas (capturing this + an envelope + a completion), heap fallback for
/// anything bigger. 112 bytes of storage makes the pooled event record an
/// exact 128-byte pair of cache lines.
using EventFn = InlineFunction<void(), 112>;

/// Seeded schedule perturbation for conformance testing (off by default).
struct PerturbConfig {
  std::uint64_t seed = 1;
  /// Replace FIFO ordering of same-time events with a seeded random order.
  bool shuffle_ties = true;
  /// Uniform random delay in [0, max_jitter] added to every event's firing
  /// time, so events scheduled within `max_jitter` of each other may fire in
  /// either order. 0 = tie-shuffling only.
  TimeNs max_jitter = 0;
};

namespace detail {

/// One pooled event record. `gen` stamps the slot's current incarnation;
/// handles carry the stamp they were issued with. Field order puts the
/// metadata and the callable's dispatch pointer (plus the first 48 capture
/// bytes) on the record's first cache line.
struct EventRecord {
  std::uint32_t gen = 0;
  bool cancelled = false;
  EventFn fn;
};
static_assert(sizeof(EventRecord) == 128);

/// Record storage in fixed chunks: slot addresses stay stable for the
/// queue's lifetime (no vector-growth relocation of live callables).
struct EventSlab {
  static constexpr std::uint32_t kChunkShift = 9;  // 512 records per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  std::vector<std::unique_ptr<EventRecord[]>> chunks;
  std::vector<std::uint32_t> free_slots;
  std::uint32_t next_slot = 0;
  std::uint64_t cancelled_in_heap = 0;

  EventRecord& record(std::uint32_t slot) {
    return chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= next_slot) return;
    EventRecord& rec = record(slot);
    if (rec.gen != gen || rec.cancelled) return;
    rec.cancelled = true;
    rec.fn.reset();  // release captures eagerly; the entry is dead weight
    ++cancelled_in_heap;
  }
};

}  // namespace detail

/// Cancellable handle to a scheduled event. Generation-stamped: cancelling
/// after the event fired (or after its slot was recycled) is a no-op. Must
/// not outlive the queue that issued it (see the header comment).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event's callback from running. Idempotent; safe after fire.
  void cancel() {
    if (slab_) slab_->cancel(slot_, gen_);
  }
  bool valid() const { return slab_ != nullptr; }

 private:
  friend class EventQueue;
  EventHandle(detail::EventSlab* slab, std::uint32_t slot, std::uint32_t gen)
      : slab_(slab), slot_(slot), gen_(gen) {}

  detail::EventSlab* slab_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Monotone priority queue of timed callbacks with stable same-time
/// ordering. Pushes must not be earlier than the last popped event's time
/// (the discrete-event invariant; Simulator::at enforces it upstream).
class EventQueue {
 public:
  /// `expected_cohort` sizes the up-front reservation of the cohort heap and
  /// radix levels (entries, not bytes). The default matches the historical
  /// constant; sharded engines pass their shard-local steady-state bound so
  /// per-shard queues never reallocate mid-run (see the ctor comment).
  explicit EventQueue(std::size_t expected_cohort = kDefaultReserve);
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventHandle push(TimeNs time, EventFn fn);

  /// Push with a caller-supplied tie key instead of the insertion sequence.
  /// The sharded engine derives the key from (producer rank, per-producer
  /// sequence), which is invariant to how ranks are partitioned across
  /// shards — the foundation of byte-identical traces for any --shards
  /// value. Keys must be unique per (time, tie) or ordering falls back to
  /// the shard-local insertion sequence (which IS shard-dependent), so the
  /// caller owns uniqueness. Incompatible with perturbation (checked).
  EventHandle push_keyed(TimeNs time, std::uint64_t tie, EventFn fn);

  /// Enables (or, with nullopt, disables) schedule perturbation for all
  /// subsequently pushed events. Typically set before any push.
  void set_perturbation(std::optional<PerturbConfig> config);
  bool perturbed() const { return perturb_.has_value(); }

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return count_ == slab_->cancelled_in_heap; }

  /// Count of live (non-cancelled) events.
  std::size_t size() const {
    return count_ - static_cast<std::size_t>(slab_->cancelled_in_heap);
  }

  /// Raw entry count including cancelled entries awaiting collection.
  std::size_t depth() const { return count_; }

  /// Time of the earliest live event; precondition: !empty().
  /// ADVANCES the monotone cursor: after this call, pushes below the
  /// returned time are rejected (the radix refill commits `last_` to the
  /// minimum it found). Use peek_min_time() to query without committing.
  TimeNs next_time() const;

  /// Time of the earliest live event WITHOUT advancing the monotone cursor:
  /// later pushes at or after the current cursor remain legal even below the
  /// returned time. The sharded engine's window barrier peeks every shard's
  /// queue between rounds; a cursor committed to a far-future local event
  /// would reject legitimate cross-shard messages that land nearer. Exact
  /// (not a bound): with the cohort empty, the lowest non-empty radix bucket
  /// contains the queue minimum. Sweeps cancelled entries it scans over so a
  /// dead entry cannot pin a stale minimum. Precondition: !empty().
  TimeNs peek_min_time() const;

  /// True when a live event at exactly time `t` is still pending. Like
  /// peek_min_time() it never refills, so the cursor stays put and pushes at
  /// or after it remain legal; only the current-time cohort is inspected
  /// (anything at `t` is there when `t` is the cursor time). The simulator
  /// asks this to decide when an instant is over.
  bool has_live_at(TimeNs t) const;

  /// Pops the earliest live event and returns (time, callback).
  /// Precondition: !empty().
  std::pair<TimeNs, EventFn> pop();

  std::uint64_t total_scheduled() const { return seq_; }

  /// Installs (or clears, with nullptr) observability counters: scheduled
  /// events and peak queue depth. One branch per push when installed; nothing
  /// on the path otherwise — the zero-overhead contract.
  void set_stats(obs::QueueStats* stats) { stats_ = stats; }

  /// Historical per-level reservation (PR 6): 64 entries per radix level.
  static constexpr std::size_t kDefaultReserve = 64;
  /// Reservation ceiling per radix level: a single level briefly holding the
  /// whole in-flight set is possible but rare, and reserving expected_cohort
  /// on all 64 levels would cost 64x the steady-state need. Levels get
  /// min(expected_cohort, kLevelReserveCap); the cohort heap (which genuinely
  /// can hold every same-time event of a shard) gets the full expectation.
  static constexpr std::size_t kLevelReserveCap = 4096;

 private:
  /// 32-byte POD entry; the callback lives in the slab record.
  struct Entry {
    TimeNs time;
    std::uint64_t tie;  ///< seq normally; a seeded random draw when perturbed
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Strict total order (seq is unique): a fires before b.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.seq < b.seq;
  }

  /// Shared tail of push/push_keyed: slot acquisition, radix placement,
  /// stats, bounded compaction.
  EventHandle emplace(TimeNs fire_time, std::uint64_t tie, EventFn fn);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) const;
  /// Highest set bit of a non-zero time difference: the bucket level.
  static int level_of(std::uint64_t diff);
  /// Refills the cohort heap from the lowest non-empty bucket, advancing
  /// `last_` to the queue's minimum remaining time. Pre: cohort empty,
  /// count_ > 0.
  void refill() const;
  /// Drops cancelled entries off the cohort top (refilling as needed) until
  /// a live entry surfaces. Pre: !empty().
  void settle() const;
  /// Drops cancelled entries off the cohort top without refilling; returns
  /// false when the cohort drains.
  bool sweep_cohort_top() const;
  /// Removes every cancelled entry from every level in one O(n) pass.
  void compact();

  // Binary-heap primitives over the current-time cohort; pop_top uses
  // bottom-up replacement.
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void pop_top() const;  ///< removes cohort_[0]

  std::unique_ptr<detail::EventSlab> slab_;
  /// Events at exactly time `last_`, heap-ordered by (tie, seq).
  mutable std::vector<Entry> cohort_;
  /// Future events, bucketed by the highest bit of (time XOR last_).
  mutable std::array<std::vector<Entry>, 64> buckets_;
  mutable std::uint64_t bucket_mask_ = 0;  ///< bit b set ⇔ buckets_[b] non-empty
  mutable TimeNs last_ = 0;                ///< current cohort time
  mutable std::size_t count_ = 0;          ///< entries across all levels
  obs::QueueStats* stats_ = nullptr;
  std::uint64_t seq_ = 0;
  std::optional<PerturbConfig> perturb_;
  Rng perturb_rng_{0};
};

}  // namespace adapt::sim
