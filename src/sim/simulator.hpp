// The discrete-event simulation kernel: a virtual clock plus an event queue.
//
// The kernel knows nothing about networks or MPI — higher layers
// (net::Fabric, runtime::SimEngine) schedule closures on it. It knows ranks
// only as event producers: every event is keyed by the rank that scheduled
// it (EventQueue's one ordering rule), either named by the caller
// (schedule) or, by default, the producer of the event now running.
// Strictly single-threaded; determinism follows from the keyed order.
//
// runtime::SimEngine runs one Simulator per shard, all keyed by one shared
// EventKeys: at one shard its run() is the engine's whole event loop; at N
// shards each window is a bounded run() on every shard.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

#include "src/sim/event_queue.hpp"
#include "src/support/units.hpp"

namespace adapt::sim {

class Simulator {
 public:
  static constexpr TimeNs kForever = std::numeric_limits<TimeNs>::max();

  /// A standalone simulator with its own keys; `producers` is the number of
  /// ranks that may produce events (keys reserve kProducerBits bits for the
  /// rank; checked).
  explicit Simulator(int producers = 1)
      : own_keys_(std::in_place, producers), keys_(&*own_keys_) {}
  /// One shard of an engine: keys events with `keys`, which the engine's
  /// shards share (a rank's counter is only touched where the rank runs),
  /// and sizes the queue for `expected_cohort` same-time events.
  Simulator(EventKeys& keys, std::size_t expected_cohort)
      : queue_(expected_cohort), keys_(&keys) {}

  /// Current virtual time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Seeded schedule perturbation (see sim::PerturbConfig): randomizes the
  /// order of concurrently pending events while preserving causality. Used by
  /// the conformance harness; leave unset for the keyed order.
  void set_perturbation(std::optional<PerturbConfig> config) {
    queue_.set_perturbation(std::move(config));
  }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()) as the
  /// next event of rank `producer`.
  EventHandle schedule(int producer, TimeNs t, EventFn&& fn);

  /// Schedules `fn` at `t` (must be >= now()) under `key`, drawn from the
  /// shared keys where its producer ran (an event another shard produced).
  void schedule_keyed(TimeNs t, std::uint64_t key, EventFn&& fn);

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()) as the
  /// next event of the running event's producer (outside any event, of the
  /// last event's producer; rank 0 before the first).
  EventHandle at(TimeNs t, EventFn fn);

  /// Like at(), after a relative delay (must be >= 0).
  EventHandle after(TimeNs delay, EventFn fn);

  /// Runs until the event queue drains or `until` is passed; returns the
  /// final virtual time. Events exactly at `until` still fire, and a
  /// requested end-of-instant callback runs before the loop returns. A
  /// bounded run only peeks at the next event's time, so events pushed
  /// after it returns may land anywhere at or after now().
  TimeNs run(TimeNs until = kForever);

  /// Executes at most one event (first running a requested end-of-instant
  /// callback if the current instant has drained); returns false when none
  /// are pending.
  bool step();

  /// Time of the earliest pending event, kForever when none; a peek that
  /// leaves later pushes at or after now() legal.
  TimeNs pending_time() const {
    return queue_.empty() ? kForever : queue_.peek_min_time();
  }

  /// Moves the clock forward to `t` (>= now()); between runs only.
  void advance_to(TimeNs t);

  /// Requests `fn` to run once the current virtual instant is over: run()
  /// and step() invoke it when no live event remains at now(), before the
  /// clock advances. A single slot, for a layer that batches its work per
  /// instant (net::Fabric recomputes fair-share rates here); requesting
  /// while a request is pending is an error. It is not an event: it takes no
  /// key, no perturbation draw and no jitter, so it runs at
  /// exactly the instant that requested it. Events it schedules at now()
  /// extend the instant, and may request the slot again.
  void at_instant_end(EventFn fn);

  /// Observability pass-through (see EventQueue::set_stats).
  void set_queue_stats(obs::QueueStats* stats) { queue_.set_stats(stats); }

  std::uint64_t events_processed() const { return processed_; }
  std::uint64_t events_scheduled() const { return queue_.total_scheduled(); }
  bool idle() const { return queue_.empty() && !instant_end_; }

 private:
  /// Runs the pending end-of-instant callback if nothing live is left at
  /// now(); returns whether it ran.
  bool end_instant_if_due();
  /// Pops and runs the earliest event.
  void fire();

  EventQueue queue_;
  std::optional<EventKeys> own_keys_;  ///< standalone simulators only
  EventKeys* keys_;
  int producer_ = 0;  ///< producer of the running (or last run) event
  TimeNs now_ = 0;
  std::uint64_t processed_ = 0;
  EventFn instant_end_;  ///< pending end-of-instant callback, if any
};

}  // namespace adapt::sim
