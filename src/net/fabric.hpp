// Contention-aware network model (fluid-flow / progressive filling).
//
// Every in-flight message is a *flow* across a set of shared *links*. Link
// bandwidth is divided among its flows by max–min fairness (each flow further
// bounded by a per-flow cap — the single-stream bandwidth of its lane), and
// rates are recomputed once per virtual instant in which flows started or
// finished: a rate that lasts zero nanoseconds moves zero bytes, so the pass
// runs at the end of the instant (sim::Simulator::at_instant_end), over each
// touched connected component once. Per-message latency (Hockney α) elapses
// before the flow enters the bandwidth-sharing phase.
//
// This model is the minimal one that preserves the paper's performance
// arguments: flows on *different* lanes (intra-socket / QPI / NIC / PCIe)
// overlap perfectly, flows on the *same* lane contend proportionally — which
// is exactly the distinction §3.2.2 and §4.1 reason about.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/fault.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/units.hpp"

namespace adapt::net {

/// Sharing discipline. kFairShare divides each link max-min fairly among
/// its flows. kUncontended gives links unbounded capacity (pure Hockney, for
/// the contention ablation and as the sharded engine's model), but a keyed
/// message still waits for its pair's transmit queue (PairClock), so
/// neither policy lets a message overtake an earlier one to the same peer.
enum class SharingPolicy { kFairShare, kUncontended };

/// Time to stream `bytes` at `per_flow_cap`, rounded up to a whole ns.
inline TimeNs stream_time(Bytes bytes, double per_flow_cap) {
  return static_cast<TimeNs>(
      std::ceil(static_cast<double>(bytes) / per_flow_cap));
}

/// A (src, dst) pair's serial transmit queue in closed form, shared by the
/// fabric's kUncontended path and the sharded engine: a message streams once
/// its alpha has elapsed and the pair's previous message has arrived.
struct PairClock {
  TimeNs free_at = 0;

  /// Prices one message posted at `now`; returns its arrival time.
  TimeNs arrive(TimeNs now, TimeNs alpha, TimeNs stream) {
    free_at = std::max(now + alpha, free_at) + stream;
    return free_at;
  }
};

/// Route + cost parameters of one message.
struct Route {
  std::vector<LinkId> links;       ///< shared resources crossed (may be empty)
  double per_flow_cap = 0.0;       ///< bytes/ns single-stream bound (>0)
  TimeNs alpha = 0;                ///< startup latency before bytes move
  /// Flows sharing a non-negative key serialise FIFO (a NIC's per-peer
  /// transmit queue): concurrent segments between one (src, dst) pair go out
  /// back to back at full stream rate instead of fair-sharing the lane —
  /// keeping per-segment latency flat while the pipe stays busy. Queueing
  /// time counts against alpha. Keys are dense indices (the fabric keeps a
  /// table sized by the largest key seen), e.g. a sender-assigned pair
  /// number; -1 opts out.
  std::int64_t serial_key = -1;
  /// Trace-record id from obs::Recorder::transfer_begin (0 = untraced). The
  /// fabric fills in activation and completion times.
  std::uint64_t trace = 0;
};

class Fabric {
 public:
  explicit Fabric(sim::Simulator& simulator,
                  SharingPolicy policy = SharingPolicy::kFairShare);

  /// Registers a shared resource with aggregate capacity in bytes/ns.
  LinkId add_link(double capacity_bytes_per_ns);

  /// Starts a message; `on_complete` runs (once) at the virtual time the last
  /// byte arrives. Under kUncontended a message with a serial key takes its
  /// arrival from the pair's PairClock. Under kFairShare a zero-byte message
  /// completes after alpha alone when its route is empty or its pair's
  /// transmit queue is idle; behind a busy queue it waits for the messages
  /// posted before it, like any other. The callback type matches the event
  /// queue's: captures up to EventFn's capacity (including a boxed
  /// std::function) stay inline, so posting a transfer never heap-allocates
  /// — the invariant the persistent-collective steady state is built on.
  void transfer(const Route& route, Bytes bytes, sim::EventFn on_complete);

  /// Installs (or clears, with nullptr) the fault injector consulted by
  /// transfer_tagged. The fabric does not own the injector.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }
  const FaultInjector* fault_injector() const { return injector_; }

  /// Installs (or clears) the trace/metrics recorder: traced routes get
  /// their activation/completion times filled in, per-link byte counters
  /// accumulate, and link occupancy samples record contention shares. The
  /// fabric does not own the recorder. Disabled cost: one null test per
  /// flow activation/finish.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Fate-reporting transfer: like transfer(), but consults the fault
  /// injector for this transmission. Dropped/corrupted messages still occupy
  /// the fabric for their full duration ("lost at the far end"); extra fault
  /// delay is folded into the route's alpha. With no injector installed this
  /// is a single branch on top of transfer() — the zero-overhead guarantee
  /// the bench guard measures.
  void transfer_tagged(const Route& route, Bytes bytes, const FaultKey& key,
                       std::function<void(const TransferFate&)> on_complete);

  // -- introspection / stats ---------------------------------------------
  std::uint64_t flows_completed() const { return completed_; }
  std::uint64_t peak_active_flows() const { return peak_active_; }

 private:
  struct Flow {
    std::vector<LinkId> links;
    double cap = 0.0;              // per-flow rate bound, bytes/ns
    double remaining = 0.0;        // bytes
    double rate = 0.0;             // bytes/ns
    TimeNs settled_at = 0;         // virtual time `remaining` refers to
    std::int64_t serial_key = -1;
    std::uint64_t trace = 0;       // obs record id (0 = untraced)
    Bytes bytes_total = 0;         // original size, for link byte counters
    TimeNs ideal = 0;              // uncontended duration at `cap`
    sim::EventFn on_complete;
    sim::EventHandle completion;
    bool active = false;
  };

  /// A transfer parked behind its pair's busy transmit queue. Lives in a
  /// recycled pool slot; the Route copy-assign reuses the slot's link-vector
  /// capacity, so steady-state queueing is allocation-free.
  struct Pending {
    Route route;
    Bytes bytes = 0;
    TimeNs posted_at = 0;
    sim::EventFn on_complete;
    int next = -1;  ///< intrusive FIFO link within the pair's queue
  };
  void start_flow(const Route& route, Bytes bytes, TimeNs alpha_remaining,
                  sim::EventFn on_complete);
  int allocate_pending();

  void activate(int flow_index);
  void finish(int flow_index);
  /// Records links whose flow set changed and requests flush() at the end
  /// of the current instant (once per instant).
  void mark_dirty(const std::vector<LinkId>& links);
  /// End-of-instant pass: rebalances each component touched this instant
  /// exactly once.
  void flush();
  /// Recomputes max-min rates within the connected component of flows
  /// reachable from `seed` (rates outside it cannot change), settling only
  /// flows whose rate moved or whose bottleneck link is dirty, and
  /// rescheduling those whose completion time moved. Pre: flush() opened
  /// the visit epoch and marked the dirty links.
  void rebalance_component(LinkId seed);
  void collect_component(LinkId seed, std::vector<int>& flows_out,
                         std::vector<LinkId>& links_out);
  int allocate_slot();

  sim::Simulator& sim_;
  SharingPolicy policy_;
  const FaultInjector* injector_ = nullptr;
  obs::Recorder* recorder_ = nullptr;
  std::vector<double> capacity_;            // per link
  std::vector<std::vector<int>> link_flows_;  // active flows per link
  std::vector<Flow> flows_;                 // slot-reused
  std::vector<int> free_slots_;
  int active_count_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_active_ = 0;

  // Links whose flow set changed during the current instant (duplicates
  // allowed), drained by flush(); non-empty exactly while a flush is pending.
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint64_t> link_dirty_;  // == visit_epoch_: dirty this flush

  // Scratch state reused across rebalances (epoch-marked visit flags; one
  // epoch per flush).
  std::uint64_t visit_epoch_ = 0;
  std::vector<std::uint64_t> link_seen_;
  std::vector<std::uint64_t> flow_seen_;
  std::vector<int> scratch_flows_;
  std::vector<LinkId> scratch_links_;
  std::vector<LinkId> finish_links_;  // finish(): completed flow's links
  std::vector<LinkId> bfs_queue_;     // collect_component() BFS worklist
  std::vector<double> residual_;
  std::vector<int> unfixed_on_;
  std::vector<double> rates_;
  std::vector<char> neck_dirty_;  // per component flow: bottleneck is dirty

  // Per-serial-key FIFO state, indexed by the key. Under kFairShare a key is
  // "busy" while one of its flows is queued for activation or active;
  // waiters chain through pending_pool_ slots. Under kUncontended only the
  // clock is used. The table grows to the largest key seen (bounded by
  // the number of communicating pairs) and never shrinks, so steady-state
  // queueing never touches the heap.
  struct SerialQueue {
    bool busy = false;
    int head = -1;
    int tail = -1;
    PairClock clock;  ///< kUncontended: the queue in closed form
  };
  SerialQueue& serial_queue(std::int64_t key);
  std::vector<SerialQueue> serial_;
  std::vector<Pending> pending_pool_;
  std::vector<int> pending_free_;
};

}  // namespace adapt::net
