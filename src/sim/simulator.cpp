#include "src/sim/simulator.hpp"

#include "src/support/error.hpp"

namespace adapt::sim {

EventHandle Simulator::schedule(int producer, TimeNs t, EventFn&& fn) {
  ADAPT_CHECK(t >= now_) << "scheduling into the past: t=" << t
                         << " now=" << now_;
  return queue_.push(t, keys_->next(producer), std::move(fn));
}

void Simulator::schedule_keyed(TimeNs t, std::uint64_t key, EventFn&& fn) {
  ADAPT_CHECK(t >= now_) << "scheduling into the past: t=" << t
                         << " now=" << now_;
  queue_.push(t, key, std::move(fn));
}

EventHandle Simulator::at(TimeNs t, EventFn fn) {
  return schedule(producer_, t, std::move(fn));
}

EventHandle Simulator::after(TimeNs delay, EventFn fn) {
  ADAPT_CHECK(delay >= 0) << "negative delay " << delay;
  return queue_.push(now_ + delay, keys_->next(producer_), std::move(fn));
}

void Simulator::advance_to(TimeNs t) {
  ADAPT_CHECK(t >= now_) << "advance_to(" << t << ") at " << now_;
  now_ = t;
}

void Simulator::at_instant_end(EventFn fn) {
  ADAPT_CHECK(!instant_end_) << "the end-of-instant slot is already taken";
  instant_end_ = std::move(fn);
}

bool Simulator::end_instant_if_due() {
  // has_live_at never refills, so the queue cursor is still now_ and the
  // callback may schedule at any delay >= 0.
  if (!instant_end_ || queue_.has_live_at(now_)) return false;
  EventFn fn = std::move(instant_end_);  // empties the slot for re-requests
  fn();
  return true;
}

void Simulator::fire() {
  Event ev = queue_.pop();
  now_ = ev.time;
  producer_ = EventKeys::producer_of(ev.key);
  ++processed_;
  ev.fn();
}

TimeNs Simulator::run(TimeNs until) {
  for (;;) {
    if (end_instant_if_due()) continue;
    if (queue_.empty()) break;
    // Peek, never next_time(): committing the queue's monotone cursor past
    // `until` would reject an event another shard delivers below it.
    if (until != kForever && queue_.peek_min_time() > until) break;
    fire();
  }
  return now_;
}

bool Simulator::step() {
  end_instant_if_due();
  if (queue_.empty()) return false;
  fire();
  return true;
}

}  // namespace adapt::sim
