// Pending-event priority queue for the discrete-event kernel.
//
// Ordering is (time, key). Every event carries a key
// (per-producer sequence << kProducerBits) | producer from EventKeys, the
// producer being the rank whose code scheduled it: at equal times a rank's
// own events fire in the order it scheduled them, different ranks' by
// sequence, then rank. A key depends only on what one rank has scheduled,
// never on how ranks are spread over queues, so the SimEngine's per-shard
// queues run the same schedule at any shard count and produce
// byte-identical traces — the property the determinism tests pin down.
//
// Schedule perturbation (verification mode): a seeded PerturbConfig replaces
// each key's sequence with a seeded draw and may add bounded delivery jitter
// to every event's firing time. Causality is preserved — an event never
// fires before its scheduled time — but the interleaving of concurrently
// pending events becomes one of the many legal schedules. The draws come in
// push order, so a seed replays only on the same queue layout.
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
// the current time lives in a comparison heap, ordered by (key, seq) — which
// is where same-time order and perturbed tie-shuffling are decided. The pop
// sequence is the unique ascending (time, key, seq) order either way, so
// the radix layout cannot change a schedule.
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
#include "src/support/error.hpp"
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

/// An event key reserves its low kProducerBits bits for the producer rank.
inline constexpr int kProducerBits = 20;
inline constexpr std::uint64_t kProducerMask = (1ull << kProducerBits) - 1;

/// Per-producer sequence counters, the one place keys are made. Only a
/// producer's own code touches its counter: shards share one without locks.
class EventKeys {
 public:
  /// Rejects producer counts whose ranks do not fit the key's rank field.
  explicit EventKeys(int producers);

  /// The next key of `producer`: (sequence << kProducerBits) | producer.
  std::uint64_t next(int producer) {
    std::uint64_t& seq = seq_[static_cast<std::size_t>(producer)];
    ADAPT_CHECK(seq < (1ull << (64 - kProducerBits)))
        << "per-rank event sequence overflow";
    return (seq++ << kProducerBits) | static_cast<std::uint64_t>(producer);
  }

  static int producer_of(std::uint64_t key) {
    return static_cast<int>(key & kProducerMask);
  }

 private:
  std::vector<std::uint64_t> seq_;
};

/// A popped event (its key as perturbed, when perturbation is on).
struct Event {
  TimeNs time;
  std::uint64_t key;
  EventFn fn;
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

/// Monotone priority queue of timed callbacks, ordered by (time, key).
/// Pushes must not be earlier than the last popped event's time (the
/// discrete-event invariant; Simulator::at enforces it upstream).
class EventQueue {
 public:
  /// `expected_cohort` sizes the up-front reservation of the cohort heap and
  /// radix levels (entries, not bytes). The default matches the historical
  /// constant; a sharded engine passes each shard's steady-state bound so
  /// per-shard queues never reallocate mid-run (see the ctor comment).
  explicit EventQueue(std::size_t expected_cohort = kDefaultReserve);
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at `time` under `key` (from EventKeys::next). Keys
  /// from one EventKeys are unique, so the order is total; equal keys fall
  /// back to insertion order. Under perturbation the key's sequence field is
  /// replaced by a seeded draw (its producer field stays) and the time may
  /// be jittered.
  EventHandle push(TimeNs time, std::uint64_t key, EventFn&& fn);

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
  /// returned time. The SimEngine's window loop peeks every shard's queue
  /// between windows, and a bounded Simulator::run peeks its own; a cursor
  /// committed to a far-future local event would reject legitimate
  /// cross-shard messages that land nearer. Exact (not a bound): with the
  /// cohort empty, the lowest non-empty radix bucket contains the queue
  /// minimum. Sweeps cancelled entries it scans over so a dead entry cannot
  /// pin a stale minimum. Precondition: !empty().
  TimeNs peek_min_time() const;

  /// True when a live event at exactly time `t` is still pending. Like
  /// peek_min_time() it never refills, so the cursor stays put and pushes at
  /// or after it remain legal; only the current-time cohort is inspected
  /// (anything at `t` is there when `t` is the cursor time). The simulator
  /// asks this to decide when an instant is over.
  bool has_live_at(TimeNs t) const;

  /// Pops the earliest live event. Precondition: !empty().
  Event pop();

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
    std::uint64_t key;  ///< the pushed key; its sequence drawn when perturbed
    std::uint64_t seq;  ///< insertion order, for equal keys
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Strict total order (seq is unique): a fires before b.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

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
  /// Events at exactly time `last_`, heap-ordered by (key, seq).
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
