#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <bit>

#include "src/support/error.hpp"

namespace adapt::sim {

EventQueue::EventQueue(std::size_t expected_cohort)
    : slab_(std::make_unique<detail::EventSlab>()) {
  // Pre-size the cohort heap and every radix level once, up front. Level
  // vectors keep their capacity forever, but a level is first *touched* only
  // when some event is scheduled across that power-of-two virtual-time
  // boundary — which can happen arbitrarily late (a busy-until timer
  // straddling 2^k ns deep into a run). Reserving here moves that one-time
  // growth to construction, so bounded-fan-out steady states are genuinely
  // allocation-free — the invariant the persistent-collective zero-alloc
  // regression test pins down. The historical constant (64 entries per
  // level) under-reserved for sharded queues, where the cohort scales with
  // the shard's rank count: callers now pass their expected shard-local
  // cohort, the cohort heap reserves it in full, and each radix level
  // reserves it up to kLevelReserveCap (default: 64 levels x 64 x 32 B =
  // 128 KiB, unchanged).
  const std::size_t expect = std::max(expected_cohort, kDefaultReserve);
  cohort_.reserve(expect);
  const std::size_t per_level = std::min(expect, kLevelReserveCap);
  for (std::vector<Entry>& level : buckets_) {
    level.reserve(per_level);
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (!slab_->free_slots.empty()) {
    const std::uint32_t slot = slab_->free_slots.back();
    slab_->free_slots.pop_back();
    return slot;
  }
  if ((slab_->next_slot & (detail::EventSlab::kChunkSize - 1)) == 0) {
    // Default-init, not make_unique: value-initialising would zero every
    // record's inline storage (57 KB per chunk) for nothing.
    slab_->chunks.emplace_back(
        new detail::EventRecord[detail::EventSlab::kChunkSize]);
  }
  return slab_->next_slot++;
}

void EventQueue::release_slot(std::uint32_t slot) const {
  detail::EventRecord& rec = slab_->record(slot);
  ++rec.gen;  // invalidate outstanding handles before the slot is reused
  rec.cancelled = false;
  rec.fn.reset();
  slab_->free_slots.push_back(slot);
}

int EventQueue::level_of(std::uint64_t diff) {
  return 63 - std::countl_zero(diff);
}

void EventQueue::sift_up(std::size_t i) const {
  const Entry e = cohort_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 1;
    if (!earlier(e, cohort_[parent])) break;
    cohort_[i] = cohort_[parent];
    i = parent;
  }
  cohort_[i] = e;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = cohort_.size();
  const Entry e = cohort_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(cohort_[child + 1], cohort_[child])) ++child;
    if (!earlier(cohort_[child], e)) break;
    cohort_[i] = cohort_[child];
    i = child;
  }
  cohort_[i] = e;
}

void EventQueue::pop_top() const {
  const std::size_t n = cohort_.size() - 1;
  const Entry last = cohort_[n];
  cohort_.pop_back();
  if (n == 0) return;
  // Bottom-up replacement (one comparison per level instead of two): pull
  // the min-child chain up into the root hole all the way to a leaf, then
  // bubble the displaced last element back up — it came from the bottom, so
  // it almost never rises more than a step or two.
  std::size_t hole = 0;
  std::size_t child;
  while ((child = 2 * hole + 1) < n) {
    if (child + 1 < n && earlier(cohort_[child + 1], cohort_[child])) ++child;
    cohort_[hole] = cohort_[child];
    hole = child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 1;
    if (!earlier(last, cohort_[parent])) break;
    cohort_[hole] = cohort_[parent];
    hole = parent;
  }
  cohort_[hole] = last;
}

EventHandle EventQueue::push(TimeNs time, EventFn fn) {
  TimeNs fire_time = time;
  std::uint64_t tie = seq_;
  if (perturb_) {
    if (perturb_->max_jitter > 0) {
      fire_time += static_cast<TimeNs>(perturb_rng_.next_below(
          static_cast<std::uint64_t>(perturb_->max_jitter) + 1));
    }
    if (perturb_->shuffle_ties) tie = perturb_rng_.next_u64();
  }
  return emplace(fire_time, tie, std::move(fn));
}

EventHandle EventQueue::push_keyed(TimeNs time, std::uint64_t tie,
                                   EventFn fn) {
  // Perturbation draws would desynchronise the caller's canonical keys from
  // the actual schedule; the sharded engine rejects perturbed runs upstream.
  ADAPT_CHECK(!perturb_)
      << "push_keyed is incompatible with schedule perturbation";
  return emplace(time, tie, std::move(fn));
}

EventHandle EventQueue::emplace(TimeNs fire_time, std::uint64_t tie,
                                EventFn fn) {
  ADAPT_CHECK(fire_time >= last_)
      << "event scheduled at " << fire_time
      << " is before the queue's current time " << last_
      << " (simulated time is monotone)";
  const std::uint32_t slot = acquire_slot();
  detail::EventRecord& rec = slab_->record(slot);
  rec.fn = std::move(fn);
  const Entry e{fire_time, tie, seq_++, slot, rec.gen};
  const std::uint64_t diff = static_cast<std::uint64_t>(fire_time) ^
                             static_cast<std::uint64_t>(last_);
  if (diff == 0) {
    cohort_.push_back(e);
    sift_up(cohort_.size() - 1);
  } else {
    const int level = level_of(diff);
    buckets_[static_cast<std::size_t>(level)].push_back(e);
    bucket_mask_ |= 1ull << level;
  }
  ++count_;
  if (stats_) {
    ++stats_->scheduled;
    stats_->max_depth = std::max<std::uint64_t>(stats_->max_depth, count_);
  }
  // Lazy cancellation, bounded: once cancelled entries outnumber live ones,
  // sweep them out so mass cancel/reschedule churn cannot grow the queue.
  if (slab_->cancelled_in_heap * 2 > count_) compact();
  return EventHandle(slab_.get(), slot, rec.gen);
}

void EventQueue::set_perturbation(std::optional<PerturbConfig> config) {
  if (config) {
    ADAPT_CHECK(config->max_jitter >= 0)
        << "negative jitter bound " << config->max_jitter;
    perturb_rng_ = Rng(config->seed);
  }
  perturb_ = std::move(config);
}

void EventQueue::refill() const {
  // The lowest non-empty bucket holds the queue's minimum remaining time:
  // find it with one linear scan, advance last_, and redistribute. Every
  // entry lands in a strictly lower bucket (it agreed with the old last_
  // above the bucket's bit and differs from the new minimum below it), so
  // each entry is reshuffled at most once per level — amortised O(64).
  while (cohort_.empty()) {
    const int level = std::countr_zero(bucket_mask_);
    std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(level)];
    const Entry* min = &bucket.front();
    for (const Entry& e : bucket) {
      if (earlier(e, *min)) min = &e;
    }
    last_ = min->time;
    for (const Entry& e : bucket) {
      const std::uint64_t diff = static_cast<std::uint64_t>(e.time) ^
                                 static_cast<std::uint64_t>(last_);
      if (diff == 0) {
        cohort_.push_back(e);
      } else {
        const int nl = level_of(diff);
        buckets_[static_cast<std::size_t>(nl)].push_back(e);
        bucket_mask_ |= 1ull << nl;
      }
    }
    bucket.clear();
    bucket_mask_ &= ~(1ull << level);
    for (std::size_t i = cohort_.size() / 2; i-- > 0;) sift_down(i);
  }
}

void EventQueue::settle() const {
  for (;;) {
    if (cohort_.empty()) {
      refill();
      continue;
    }
    const Entry& top = cohort_.front();
    if (!slab_->record(top.slot).cancelled) return;
    release_slot(top.slot);
    --slab_->cancelled_in_heap;
    --count_;
    pop_top();
  }
}

void EventQueue::compact() {
  // An in-queue entry's slot always carries the entry's own gen (slots are
  // released only when their entry leaves the queue), so `cancelled` alone
  // identifies dead entries.
  auto sweep = [this](std::vector<Entry>& level) {
    auto kept = level.begin();
    for (Entry& e : level) {
      if (slab_->record(e.slot).cancelled) {
        release_slot(e.slot);
        --count_;
      } else {
        *kept++ = e;
      }
    }
    level.erase(kept, level.end());
  };
  sweep(cohort_);
  for (std::size_t i = cohort_.size() / 2; i-- > 0;) sift_down(i);
  std::uint64_t mask = bucket_mask_;
  while (mask != 0) {
    const int level = std::countr_zero(mask);
    mask &= mask - 1;
    std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(level)];
    sweep(bucket);
    if (bucket.empty()) bucket_mask_ &= ~(1ull << level);
  }
  slab_->cancelled_in_heap = 0;
}

TimeNs EventQueue::next_time() const {
  ADAPT_CHECK(!empty()) << "next_time on empty event queue";
  settle();
  return cohort_.front().time;
}

bool EventQueue::sweep_cohort_top() const {
  // Collect dead cohort-top entries as settle() would, but never refill():
  // refill is what commits the cursor.
  while (!cohort_.empty()) {
    const Entry& top = cohort_.front();
    if (!slab_->record(top.slot).cancelled) return true;
    release_slot(top.slot);
    --slab_->cancelled_in_heap;
    --count_;
    pop_top();
  }
  return false;
}

bool EventQueue::has_live_at(TimeNs t) const {
  return sweep_cohort_top() && cohort_.front().time == t;
}

TimeNs EventQueue::peek_min_time() const {
  ADAPT_CHECK(!empty()) << "peek_min_time on empty event queue";
  if (sweep_cohort_top()) return cohort_.front().time;
  // Cohort drained: the minimum lives in the lowest non-empty bucket (every
  // entry in a higher bucket differs from last_ in a higher bit, hence fires
  // later). Sweep cancelled entries out of the buckets scanned so they can
  // neither pin a stale minimum nor be rescanned.
  for (;;) {
    const int level = std::countr_zero(bucket_mask_);
    std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(level)];
    auto kept = bucket.begin();
    for (Entry& e : bucket) {
      if (slab_->record(e.slot).cancelled) {
        release_slot(e.slot);
        --slab_->cancelled_in_heap;
        --count_;
      } else {
        *kept++ = e;
      }
    }
    bucket.erase(kept, bucket.end());
    if (bucket.empty()) {
      bucket_mask_ &= ~(1ull << level);
      continue;  // empty() precondition guarantees a live entry remains
    }
    TimeNs min = bucket.front().time;
    for (const Entry& e : bucket) min = std::min(min, e.time);
    return min;
  }
}

std::pair<TimeNs, EventFn> EventQueue::pop() {
  ADAPT_CHECK(!empty()) << "pop on empty event queue";
  settle();
  const Entry top = cohort_.front();
  pop_top();
  --count_;
  // The next pop's record is a data-dependent load the caller's event
  // dispatch can hide — start it now.
  if (!cohort_.empty()) {
    __builtin_prefetch(&slab_->record(cohort_.front().slot));
  }
  std::pair<TimeNs, EventFn> out{top.time,
                                 std::move(slab_->record(top.slot).fn)};
  release_slot(top.slot);
  return out;
}

}  // namespace adapt::sim
