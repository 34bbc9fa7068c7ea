#include "src/net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/error.hpp"

namespace adapt::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRateEps = 1e-9;

TimeNs duration_of(double bytes, double rate) {
  return static_cast<TimeNs>(std::ceil(bytes / rate));
}
}  // namespace

Fabric::Fabric(sim::Simulator& simulator, SharingPolicy policy)
    : sim_(simulator), policy_(policy) {}

LinkId Fabric::add_link(double capacity_bytes_per_ns) {
  ADAPT_CHECK(capacity_bytes_per_ns > 0.0);
  capacity_.push_back(capacity_bytes_per_ns);
  link_flows_.emplace_back();
  return static_cast<LinkId>(capacity_.size() - 1);
}

int Fabric::allocate_slot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  flows_.emplace_back();
  return static_cast<int>(flows_.size() - 1);
}

int Fabric::allocate_pending() {
  if (!pending_free_.empty()) {
    const int slot = pending_free_.back();
    pending_free_.pop_back();
    return slot;
  }
  pending_pool_.emplace_back();
  return static_cast<int>(pending_pool_.size() - 1);
}

Fabric::SerialQueue& Fabric::serial_queue(std::int64_t key) {
  const auto k = static_cast<std::size_t>(key);
  if (k >= serial_.size()) serial_.resize(k + 1);
  return serial_[k];
}

void Fabric::transfer(const Route& route, Bytes bytes,
                      sim::EventFn on_complete) {
  ADAPT_CHECK(bytes >= 0);
  ADAPT_CHECK(route.per_flow_cap > 0.0) << "route without a rate cap";
  for (LinkId l : route.links)
    ADAPT_CHECK(l >= 0 && l < static_cast<LinkId>(capacity_.size()));

  // Paths that never enter bandwidth sharing. Under kUncontended a keyed
  // message still queues behind its pair, in closed form. Under kFairShare a
  // zero-byte message skips sharing only while its pair's transmit queue is
  // idle: behind a busy queue it waits like any other message (below), or it
  // would overtake the messages posted before it.
  const bool shared =
      !route.links.empty() && policy_ == SharingPolicy::kFairShare;
  const bool zero_unqueued =
      bytes == 0 &&
      (route.serial_key < 0 || !serial_queue(route.serial_key).busy);
  if (!shared || zero_unqueued) {
    const TimeNs stream = stream_time(bytes, route.per_flow_cap);
    const TimeNs arrive =
        policy_ == SharingPolicy::kUncontended && route.serial_key >= 0
            ? serial_queue(route.serial_key)
                  .clock.arrive(sim_.now(), route.alpha, stream)
            : sim_.now() + route.alpha + stream;
    if (recorder_ && route.trace) {
      recorder_->transfer_active(route.trace, arrive - stream, stream);
      recorder_->transfer_end(route.trace, arrive);
      for (LinkId l : route.links)
        recorder_->metrics().link_bytes(l) += bytes;
    }
    sim_.at(arrive, std::move(on_complete));
    return;
  }

  if (route.serial_key >= 0) {
    SerialQueue& q = serial_queue(route.serial_key);
    if (q.busy) {
      // The pair's transmit queue is busy: park in a recycled pool slot and
      // wait for the predecessor; the time spent waiting counts against this
      // message's startup latency.
      const int slot = allocate_pending();
      Pending& p = pending_pool_[static_cast<std::size_t>(slot)];
      p.route = route;  // copy-assign reuses the slot's links capacity
      p.bytes = bytes;
      p.posted_at = sim_.now();
      p.on_complete = std::move(on_complete);
      p.next = -1;
      if (q.tail >= 0) {
        pending_pool_[static_cast<std::size_t>(q.tail)].next = slot;
      } else {
        q.head = slot;
      }
      q.tail = slot;
      return;
    }
    q.busy = true;
  }
  start_flow(route, bytes, route.alpha, std::move(on_complete));
}

void Fabric::transfer_tagged(const Route& route, Bytes bytes,
                             const FaultKey& key,
                             std::function<void(const TransferFate&)> on_complete) {
  if (injector_ == nullptr) {
    transfer(route, bytes,
             [cb = std::move(on_complete)] { cb(TransferFate{}); });
    return;
  }
  const TransferFate fate = injector_->decide(key, route.links, sim_.now());
  Route shifted = route;
  shifted.alpha += fate.delay;
  transfer(shifted, bytes, [cb = std::move(on_complete), fate] { cb(fate); });
}

void Fabric::start_flow(const Route& route, Bytes bytes,
                        TimeNs alpha_remaining, sim::EventFn on_complete) {
  const int slot = allocate_slot();
  Flow& f = flows_[static_cast<std::size_t>(slot)];
  f.links = route.links;
  f.cap = route.per_flow_cap;
  f.remaining = static_cast<double>(bytes);
  f.rate = 0.0;
  f.serial_key = route.serial_key;
  f.trace = route.trace;
  f.bytes_total = bytes;
  f.ideal = stream_time(bytes, route.per_flow_cap);
  f.on_complete = std::move(on_complete);
  f.active = false;
  sim_.after(alpha_remaining, [this, slot] { activate(slot); });
}

void Fabric::activate(int flow_index) {
  Flow& f = flows_[static_cast<std::size_t>(flow_index)];
  f.active = true;
  f.settled_at = sim_.now();
  for (LinkId l : f.links)
    link_flows_[static_cast<std::size_t>(l)].push_back(flow_index);
  ++active_count_;
  peak_active_ = std::max<std::uint64_t>(
      peak_active_, static_cast<std::uint64_t>(active_count_));
  if (recorder_) {
    if (f.trace) recorder_->transfer_active(f.trace, sim_.now(), f.ideal);
    for (LinkId l : f.links) {
      recorder_->link_sample(
          l, sim_.now(),
          static_cast<std::int64_t>(
              link_flows_[static_cast<std::size_t>(l)].size()));
    }
  }
  mark_dirty(f.links);
}

void Fabric::finish(int flow_index) {
  Flow& f = flows_[static_cast<std::size_t>(flow_index)];
  ADAPT_CHECK(f.active);
  f.active = false;
  for (LinkId l : f.links) {
    auto& lst = link_flows_[static_cast<std::size_t>(l)];
    lst.erase(std::find(lst.begin(), lst.end(), flow_index));
  }
  --active_count_;
  ++completed_;
  auto cb = std::move(f.on_complete);
  f.on_complete = nullptr;
  const std::int64_t key = f.serial_key;
  f.serial_key = -1;
  // Swap the links into a member scratch instead of moving to a local: the
  // slot is recycled before `cb` runs and may be reused underneath us, but a
  // move would strand the vector's capacity in a dying temporary — the swap
  // keeps capacities circulating between the scratch and the slots, so
  // steady-state flow churn never reallocates.
  finish_links_.swap(f.links);
  f.links.clear();
  const std::vector<LinkId>& links = finish_links_;
  if (recorder_) {
    if (f.trace) recorder_->transfer_end(f.trace, sim_.now());
    for (LinkId l : links) {
      recorder_->metrics().link_bytes(l) += f.bytes_total;
      recorder_->link_sample(
          l, sim_.now(),
          static_cast<std::int64_t>(
              link_flows_[static_cast<std::size_t>(l)].size()));
    }
  }
  f.trace = 0;
  f.bytes_total = 0;
  f.ideal = 0;
  free_slots_.push_back(flow_index);

  // Hand the pair's transmit queue to the next waiting message.
  if (key >= 0) {
    SerialQueue& q = serial_queue(key);
    if (q.head >= 0) {
      const int slot = q.head;
      Pending& next = pending_pool_[static_cast<std::size_t>(slot)];
      q.head = next.next;
      if (q.head < 0) q.tail = -1;
      const TimeNs waited = sim_.now() - next.posted_at;
      const TimeNs alpha_remaining =
          std::max<TimeNs>(0, next.route.alpha - waited);
      start_flow(next.route, next.bytes, alpha_remaining,
                 std::move(next.on_complete));
      pending_free_.push_back(slot);  // links capacity stays with the slot
    } else {
      q.busy = false;
    }
  }

  mark_dirty(links);
  cb();
}

void Fabric::mark_dirty(const std::vector<LinkId>& links) {
  // A flow always crosses at least one link, so an empty list means no
  // flush is pending for this instant yet.
  if (dirty_links_.empty()) sim_.at_instant_end([this] { flush(); });
  dirty_links_.insert(dirty_links_.end(), links.begin(), links.end());
}

// Runs once per virtual instant that activated or finished a flow. A rate
// held for zero nanoseconds moves zero bytes, so only the flow set at the
// end of the instant matters: one progressive filling per touched component
// replaces one per event, and each flow's completion is rescheduled at most
// once per instant.
void Fabric::flush() {
  // One visit epoch for the whole flush: a dirty link already reached by an
  // earlier seed belongs to a component that has just been rebalanced.
  ++visit_epoch_;
  link_seen_.resize(capacity_.size(), 0);
  link_dirty_.resize(capacity_.size(), 0);
  flow_seen_.resize(flows_.size(), 0);
  for (LinkId l : dirty_links_)
    link_dirty_[static_cast<std::size_t>(l)] = visit_epoch_;
  for (LinkId l : dirty_links_) {
    if (link_seen_[static_cast<std::size_t>(l)] != visit_epoch_)
      rebalance_component(l);
  }
  dirty_links_.clear();
}

// Collects the connected component of flows reachable from `seed` through
// shared links, marking what it visits with the flush's epoch. Rates in
// max-min fair sharing can only change within this component, so everything
// else is left untouched — the key to keeping per-instant cost proportional
// to local congestion, not cluster size.
void Fabric::collect_component(LinkId seed, std::vector<int>& flows_out,
                               std::vector<LinkId>& links_out) {
  std::vector<LinkId>& link_queue = bfs_queue_;  // member scratch: no alloc
  link_queue.clear();
  link_seen_[static_cast<std::size_t>(seed)] = visit_epoch_;
  link_queue.push_back(seed);
  links_out.push_back(seed);
  for (std::size_t qi = 0; qi < link_queue.size(); ++qi) {
    const LinkId l = link_queue[qi];
    for (int fi : link_flows_[static_cast<std::size_t>(l)]) {
      if (flow_seen_[static_cast<std::size_t>(fi)] == visit_epoch_) continue;
      flow_seen_[static_cast<std::size_t>(fi)] = visit_epoch_;
      flows_out.push_back(fi);
      for (LinkId fl : flows_[static_cast<std::size_t>(fi)].links) {
        if (link_seen_[static_cast<std::size_t>(fl)] != visit_epoch_) {
          link_seen_[static_cast<std::size_t>(fl)] = visit_epoch_;
          link_queue.push_back(fl);
          links_out.push_back(fl);
        }
      }
    }
  }
}

void Fabric::rebalance_component(LinkId seed) {
  scratch_flows_.clear();
  scratch_links_.clear();
  collect_component(seed, scratch_flows_, scratch_links_);
  if (scratch_flows_.empty()) return;

  const std::vector<int>& flows = scratch_flows_;
  const std::vector<LinkId>& links = scratch_links_;
  const std::size_t n = flows.size();

  // Progressive filling restricted to the component. Links outside carry
  // none of these flows by construction.
  residual_.resize(capacity_.size());
  unfixed_on_.resize(capacity_.size());
  for (LinkId l : links) {
    residual_[static_cast<std::size_t>(l)] =
        capacity_[static_cast<std::size_t>(l)];
    unfixed_on_[static_cast<std::size_t>(l)] = static_cast<int>(
        link_flows_[static_cast<std::size_t>(l)].size());
  }

  rates_.assign(n, -1.0);
  neck_dirty_.assign(n, 0);
  std::size_t nfixed = 0;
  while (nfixed < n) {
    double link_share = kInf;
    for (LinkId l : links) {
      const auto lu = static_cast<std::size_t>(l);
      if (unfixed_on_[lu] > 0)
        link_share = std::min(link_share, residual_[lu] / unfixed_on_[lu]);
    }
    double flow_cap = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] < 0.0)
        flow_cap = std::min(flow_cap,
                            flows_[static_cast<std::size_t>(flows[i])].cap);
    }
    const bool cap_binds = flow_cap <= link_share;
    const double level = cap_binds ? flow_cap : link_share;
    ADAPT_CHECK(level > 0.0 && level < kInf);
    const double threshold = level * (1.0 + 1e-12);

    bool fixed_any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (rates_[i] >= 0.0) continue;
      const Flow& f = flows_[static_cast<std::size_t>(flows[i])];
      bool binds;
      bool neck_dirty = false;  // binds on a link that is dirty this instant
      if (cap_binds) {
        binds = f.cap <= threshold;
      } else {
        binds = false;
        for (LinkId l : f.links) {
          const auto lu = static_cast<std::size_t>(l);
          if (residual_[lu] / unfixed_on_[lu] <= threshold) {
            binds = true;
            if (link_dirty_[lu] == visit_epoch_) {
              neck_dirty = true;
              break;
            }
          }
        }
      }
      if (!binds) continue;
      neck_dirty_[i] = neck_dirty;
      rates_[i] = level;
      ++nfixed;
      fixed_any = true;
      for (LinkId l : f.links) {
        const auto lu = static_cast<std::size_t>(l);
        residual_[lu] = std::max(0.0, residual_[lu] - level);
        --unfixed_on_[lu];
      }
    }
    ADAPT_CHECK(fixed_any) << "progressive filling made no progress";
  }

  // Settle and reschedule the flows whose rate changed, plus every flow
  // bottlenecked on a link whose flow set changed this instant even when its
  // final rate is the old one (a segment finishing and the next starting on
  // the same link moves the share down and back up). Settling re-rounds the
  // completion up to a whole nanosecond, and a per-event rebalance settled
  // exactly these flows, so existing simulated times stay unchanged. A
  // re-settled flow whose rate did not move usually rounds to the completion
  // it already has; that event is kept instead of cancelled and re-pushed.
  const TimeNs now = sim_.now();
  for (std::size_t i = 0; i < n; ++i) {
    const int fi = flows[i];
    Flow& f = flows_[static_cast<std::size_t>(fi)];
    const double new_rate = rates_[i];
    const bool changed =
        std::abs(new_rate - f.rate) > kRateEps * std::max(1.0, f.rate);
    if (!changed && f.completion.valid() && !neck_dirty_[i]) continue;

    const TimeNs due_before = changed ? 0 : f.settled_at + duration_of(
                                                               f.remaining, f.rate);
    f.remaining =
        std::max(0.0, f.remaining - f.rate * static_cast<double>(
                                                 now - f.settled_at));
    f.settled_at = now;
    f.rate = new_rate;
    ADAPT_CHECK(f.rate > 0.0) << "active flow starved";
    const TimeNs due = now + duration_of(f.remaining, f.rate);
    if (!changed && due == due_before) continue;
    f.completion.cancel();
    f.completion = sim_.at(due, [this, fi] { finish(fi); });
  }
}

}  // namespace adapt::net
