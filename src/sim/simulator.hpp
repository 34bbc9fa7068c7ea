// The discrete-event simulation kernel: a virtual clock plus an event queue.
//
// The kernel knows nothing about ranks, networks or MPI — higher layers
// (net::Fabric, runtime::SimEngine) schedule closures on it. Strictly
// single-threaded; determinism follows from EventQueue's stable ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "src/sim/event_queue.hpp"
#include "src/support/units.hpp"

namespace adapt::sim {

class Simulator {
 public:
  /// Current virtual time. Starts at 0.
  TimeNs now() const { return now_; }

  /// Seeded schedule perturbation (see sim::PerturbConfig): randomizes the
  /// order of concurrently pending events while preserving causality. Used by
  /// the conformance harness; leave unset for bit-reproducible traces.
  void set_perturbation(std::optional<PerturbConfig> config) {
    queue_.set_perturbation(std::move(config));
  }
  bool perturbed() const { return queue_.perturbed(); }

  /// Schedules `fn` at absolute virtual time `t` (must be >= now()).
  EventHandle at(TimeNs t, EventFn fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventHandle after(TimeNs delay, EventFn fn);

  /// Runs until the event queue drains or `until` is passed; returns the
  /// final virtual time. Events exactly at `until` still fire, and a
  /// requested end-of-instant callback runs before the loop returns.
  TimeNs run(TimeNs until = std::numeric_limits<TimeNs>::max());

  /// Executes at most one event (first running a requested end-of-instant
  /// callback if the current instant has drained); returns false when none
  /// are pending.
  bool step();

  /// Requests `fn` to run once the current virtual instant is over: run()
  /// and step() invoke it when no live event remains at now(), before the
  /// clock advances. A single slot, for a layer that batches its work per
  /// instant (net::Fabric recomputes fair-share rates here); requesting
  /// while a request is pending is an error. It is not an event: it takes no
  /// sequence number, no perturbation draw and no jitter, so it runs at
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

  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t processed_ = 0;
  EventFn instant_end_;  ///< pending end-of-instant callback, if any
};

}  // namespace adapt::sim
