// SlotPool: recycled slots for per-message state.
//
// A message's state is parked in a slot for the length of an asynchronous
// leg, and the callbacks handed to the event queue, the fabric or the
// transport capture only {this, slot}. That fits std::function's and
// EventFn's inline storage, so no callback is heap-boxed, and a warmed-up
// pool hands out slots without touching the heap. Slot indices are
// bookkeeping only: nothing simulated depends on which slot a message got.
//
// A ref() names one parking of a slot, not the slot: it goes stale when the
// value is released and stays stale after the slot is reused, so a
// reference that outlives its message (a retransmitted frame that names a
// failed rendezvous) can be told from the message now parked there.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace adapt::support {

template <typename T>
class SlotPool {
 public:
  /// Parks `value` in a free slot (growing the pool only when none is free).
  std::uint32_t acquire(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slots_.emplace_back();
      generations_.push_back(0);
      slot = static_cast<std::uint32_t>(slots_.size() - 1);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot] = std::move(value);
    return slot;
  }

  /// The parked state. The reference is invalidated by the next acquire().
  T& operator[](std::uint32_t slot) { return slots_[slot]; }

  /// A name for the value parked in `slot`, stale once it is released.
  std::uint64_t ref(std::uint32_t slot) const {
    return std::uint64_t{generations_[slot]} << 32 | slot;
  }
  /// The slot `ref` names.
  static std::uint32_t slot_of(std::uint64_t ref) {
    return static_cast<std::uint32_t>(ref);
  }
  /// Whether the value `ref` names is still parked.
  bool live(std::uint64_t ref) const {
    const std::uint32_t slot = slot_of(ref);
    return slot < slots_.size() && this->ref(slot) == ref;
  }

  /// Visits every slot, parked or free (a free slot holds a reset value).
  template <typename F>
  void for_each(F&& visit) {
    for (T& value : slots_) visit(value);
  }

  /// Moves the state out and recycles the slot, resetting it so it holds no
  /// references (payload buffers, requests) while it waits for reuse.
  T release(std::uint32_t slot) {
    T value = std::move(slots_[slot]);
    slots_[slot] = {};
    ++generations_[slot];
    free_.push_back(slot);
    return value;
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> generations_;  ///< releases per slot
  std::vector<std::uint32_t> free_;
};

}  // namespace adapt::support
