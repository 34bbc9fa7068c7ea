// Reference model for the differential fabric test: the fluid max-min
// fabric with its rates recomputed after EVERY flow activation and finish,
// each pass rescheduling the completion of every flow whose rate moved.
// This is the straightforward formulation net::Fabric coalesces into one
// pass per virtual instant; it is kept here, and only here, so the two can
// be compared on random scenarios. It models exactly what the comparison
// needs: progressive filling over connected components, per-flow caps,
// per-pair FIFO transmit queues (including zero-byte messages waiting behind
// a busy queue), and alpha before bytes move. No recorder, no fault hooks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/net/fabric.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"

namespace adapt::net::testing {

class PerEventFabric {
 public:
  explicit PerEventFabric(sim::Simulator& simulator) : sim_(simulator) {}

  LinkId add_link(double capacity_bytes_per_ns) {
    capacity_.push_back(capacity_bytes_per_ns);
    link_flows_.emplace_back();
    return static_cast<LinkId>(capacity_.size() - 1);
  }

  void transfer(const Route& route, Bytes bytes, sim::EventFn on_complete) {
    const bool unqueued_empty =
        bytes == 0 &&
        (route.serial_key < 0 || !serial_queue(route.serial_key).busy);
    if (route.links.empty() || unqueued_empty) {
      const TimeNs stream =
          bytes > 0 ? duration_of(static_cast<double>(bytes),
                                  route.per_flow_cap)
                    : 0;
      sim_.after(route.alpha + stream, std::move(on_complete));
      return;
    }
    if (route.serial_key >= 0) {
      SerialQueue& q = serial_queue(route.serial_key);
      if (q.busy) {
        q.waiting.push_back(
            Pending{route, bytes, sim_.now(), std::move(on_complete)});
        return;
      }
      q.busy = true;
    }
    start_flow(route, bytes, route.alpha, std::move(on_complete));
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kRateEps = 1e-9;

  static TimeNs duration_of(double bytes, double rate) {
    return static_cast<TimeNs>(std::ceil(bytes / rate));
  }

  struct Flow {
    std::vector<LinkId> links;
    double cap = 0.0;
    double remaining = 0.0;
    double rate = 0.0;
    TimeNs settled_at = 0;
    std::int64_t serial_key = -1;
    sim::EventFn on_complete;
    sim::EventHandle completion;
  };
  struct Pending {
    Route route;
    Bytes bytes = 0;
    TimeNs posted_at = 0;
    sim::EventFn on_complete;
  };
  struct SerialQueue {
    bool busy = false;
    std::vector<Pending> waiting;  // FIFO; front is next
  };

  SerialQueue& serial_queue(std::int64_t key) {
    const auto k = static_cast<std::size_t>(key);
    if (k >= serial_.size()) serial_.resize(k + 1);
    return serial_[k];
  }

  void start_flow(const Route& route, Bytes bytes, TimeNs alpha_remaining,
                  sim::EventFn on_complete) {
    const int slot = static_cast<int>(flows_.size());
    flows_.emplace_back();
    Flow& f = flows_.back();
    f.links = route.links;
    f.cap = route.per_flow_cap;
    f.remaining = static_cast<double>(bytes);
    f.serial_key = route.serial_key;
    f.on_complete = std::move(on_complete);
    sim_.after(alpha_remaining, [this, slot] { activate(slot); });
  }

  void activate(int fi) {
    Flow& f = flows_[static_cast<std::size_t>(fi)];
    f.settled_at = sim_.now();
    for (LinkId l : f.links)
      link_flows_[static_cast<std::size_t>(l)].push_back(fi);
    rebalance(f.links);
  }

  void finish(int fi) {
    Flow& f = flows_[static_cast<std::size_t>(fi)];
    for (LinkId l : f.links) {
      auto& lst = link_flows_[static_cast<std::size_t>(l)];
      lst.erase(std::find(lst.begin(), lst.end(), fi));
    }
    sim::EventFn cb = std::move(f.on_complete);
    const std::vector<LinkId> links = f.links;
    if (f.serial_key >= 0) {
      SerialQueue& q = serial_queue(f.serial_key);
      if (!q.waiting.empty()) {
        Pending next = std::move(q.waiting.front());
        q.waiting.erase(q.waiting.begin());
        const TimeNs waited = sim_.now() - next.posted_at;
        start_flow(next.route, next.bytes,
                   std::max<TimeNs>(0, next.route.alpha - waited),
                   std::move(next.on_complete));
      } else {
        q.busy = false;
      }
    }
    rebalance(links);
    cb();
  }

  void rebalance(const std::vector<LinkId>& seed_links) {
    // Connected component of flows reachable from the seed links.
    std::vector<int> flows;
    std::vector<LinkId> links;
    std::vector<char> link_seen(capacity_.size(), 0);
    std::vector<char> flow_seen(flows_.size(), 0);
    for (LinkId l : seed_links) {
      if (!link_seen[static_cast<std::size_t>(l)]) {
        link_seen[static_cast<std::size_t>(l)] = 1;
        links.push_back(l);
      }
    }
    for (std::size_t qi = 0; qi < links.size(); ++qi) {
      for (int fi : link_flows_[static_cast<std::size_t>(links[qi])]) {
        if (flow_seen[static_cast<std::size_t>(fi)]) continue;
        flow_seen[static_cast<std::size_t>(fi)] = 1;
        flows.push_back(fi);
        for (LinkId fl : flows_[static_cast<std::size_t>(fi)].links) {
          if (!link_seen[static_cast<std::size_t>(fl)]) {
            link_seen[static_cast<std::size_t>(fl)] = 1;
            links.push_back(fl);
          }
        }
      }
    }
    if (flows.empty()) return;

    // Progressive filling.
    std::vector<double> residual(capacity_.size());
    std::vector<int> unfixed_on(capacity_.size());
    for (LinkId l : links) {
      const auto lu = static_cast<std::size_t>(l);
      residual[lu] = capacity_[lu];
      unfixed_on[lu] = static_cast<int>(link_flows_[lu].size());
    }
    const std::size_t n = flows.size();
    std::vector<double> rates(n, -1.0);
    std::size_t nfixed = 0;
    while (nfixed < n) {
      double link_share = kInf;
      for (LinkId l : links) {
        const auto lu = static_cast<std::size_t>(l);
        if (unfixed_on[lu] > 0)
          link_share = std::min(link_share, residual[lu] / unfixed_on[lu]);
      }
      double flow_cap = kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (rates[i] < 0.0)
          flow_cap = std::min(flow_cap,
                              flows_[static_cast<std::size_t>(flows[i])].cap);
      }
      const bool cap_binds = flow_cap <= link_share;
      const double level = cap_binds ? flow_cap : link_share;
      const double threshold = level * (1.0 + 1e-12);
      for (std::size_t i = 0; i < n; ++i) {
        if (rates[i] >= 0.0) continue;
        const Flow& f = flows_[static_cast<std::size_t>(flows[i])];
        bool binds = false;
        if (cap_binds) {
          binds = f.cap <= threshold;
        } else {
          for (LinkId l : f.links) {
            const auto lu = static_cast<std::size_t>(l);
            if (residual[lu] / unfixed_on[lu] <= threshold) {
              binds = true;
              break;
            }
          }
        }
        if (!binds) continue;
        rates[i] = level;
        ++nfixed;
        for (LinkId l : f.links) {
          const auto lu = static_cast<std::size_t>(l);
          residual[lu] = std::max(0.0, residual[lu] - level);
          --unfixed_on[lu];
        }
      }
    }

    // Settle and reschedule the flows whose rate moved (new flows always).
    const TimeNs now = sim_.now();
    for (std::size_t i = 0; i < n; ++i) {
      const int fi = flows[i];
      Flow& f = flows_[static_cast<std::size_t>(fi)];
      const bool changed =
          std::abs(rates[i] - f.rate) > kRateEps * std::max(1.0, f.rate);
      if (!changed && f.completion.valid()) continue;
      f.remaining = std::max(
          0.0, f.remaining - f.rate * static_cast<double>(now - f.settled_at));
      f.settled_at = now;
      f.rate = rates[i];
      f.completion.cancel();
      ADAPT_CHECK(f.rate > 0.0) << "active flow starved";
      f.completion = sim_.after(duration_of(f.remaining, f.rate),
                                [this, fi] { finish(fi); });
    }
  }

  sim::Simulator& sim_;
  std::vector<double> capacity_;
  std::vector<std::vector<int>> link_flows_;
  std::vector<Flow> flows_;  // one slot per flow, never reused
  std::vector<SerialQueue> serial_;
};

}  // namespace adapt::net::testing
