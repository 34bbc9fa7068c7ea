#include "src/sim/simulator.hpp"

#include "src/support/error.hpp"

namespace adapt::sim {

EventHandle Simulator::at(TimeNs t, EventFn fn) {
  ADAPT_CHECK(t >= now_) << "scheduling into the past: t=" << t
                         << " now=" << now_;
  return queue_.push(t, std::move(fn));
}

EventHandle Simulator::after(TimeNs delay, EventFn fn) {
  ADAPT_CHECK(delay >= 0) << "negative delay " << delay;
  return queue_.push(now_ + delay, std::move(fn));
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

TimeNs Simulator::run(TimeNs until) {
  for (;;) {
    if (end_instant_if_due()) continue;
    if (queue_.empty() || queue_.next_time() > until) break;
    auto [t, fn] = queue_.pop();
    now_ = t;
    ++processed_;
    fn();
  }
  return now_;
}

bool Simulator::step() {
  end_instant_if_due();
  if (queue_.empty()) return false;
  auto [t, fn] = queue_.pop();
  now_ = t;
  ++processed_;
  fn();
  return true;
}

}  // namespace adapt::sim
