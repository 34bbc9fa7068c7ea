#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/net/fabric.hpp"
#include "src/net/routes.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/rng.hpp"
#include "src/topo/presets.hpp"
#include "tests/per_event_fabric.hpp"

namespace adapt::net {
namespace {

TEST(Fabric, SingleFlowHockneyExact) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(2.0);  // 2 B/ns
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 2.0, 100}, 2000, [&] { done = sim.now(); });
  sim.run();
  // alpha 100 + 2000 B / 2 B/ns = 1100.
  EXPECT_EQ(done, 1100);
  EXPECT_EQ(fabric.flows_completed(), 1u);
}

TEST(Fabric, ZeroBytesCostAlphaOnly) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 1.0, 700}, 0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 700);
}

TEST(Fabric, TwoFlowsShareOneLink) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  std::vector<TimeNs> done;
  for (int i = 0; i < 2; ++i) {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000,
                    [&] { done.push_back(sim.now()); });
  }
  sim.run();
  // Fair sharing: both progress at 0.5 B/ns, both finish at 2000.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 2000);
  EXPECT_EQ(done[1], 2000);
}

TEST(Fabric, FlowsOnDifferentLinksDoNotInteract) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId a = fabric.add_link(1.0);
  const LinkId b = fabric.add_link(1.0);
  std::vector<TimeNs> done(2, -1);
  fabric.transfer(Route{{a}, 1.0, 0}, 1000, [&] { done[0] = sim.now(); });
  fabric.transfer(Route{{b}, 1.0, 0}, 1000, [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
}

TEST(Fabric, PerFlowCapBindsBelowFairShare) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(10.0);  // plenty of capacity
  TimeNs done = -1;
  fabric.transfer(Route{{l}, 2.0, 0}, 2000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1000);  // capped at 2 B/ns, not 10
}

TEST(Fabric, LateFlowSlowsEarlyFlow) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  TimeNs done_a = -1, done_b = -1;
  fabric.transfer(Route{{l}, 1.0, 0}, 1000, [&] { done_a = sim.now(); });
  sim.after(500, [&] {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000, [&] { done_b = sim.now(); });
  });
  sim.run();
  // A runs alone for 500 (500 B left), then shares: 500 B at 0.5 = 1000 more.
  EXPECT_EQ(done_a, 1500);
  // B: 500 B at 0.5 while A lives (until 1500 -> 500 B done), then 500 B at 1.
  EXPECT_EQ(done_b, 2000);
}

TEST(Fabric, BottleneckAndCapInteraction) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(3.0);
  // Flow 1 capped at 0.5; flows 2 and 3 uncapped share the rest (1.25 each).
  std::vector<TimeNs> done(3, -1);
  fabric.transfer(Route{{l}, 0.5, 0}, 500, [&] { done[0] = sim.now(); });
  fabric.transfer(Route{{l}, 5.0, 0}, 1250, [&] { done[1] = sim.now(); });
  fabric.transfer(Route{{l}, 5.0, 0}, 1250, [&] { done[2] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 1000);
  EXPECT_EQ(done[2], 1000);
}

TEST(Fabric, MultiHopLimitedByTightestLink) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId wide = fabric.add_link(10.0);
  const LinkId narrow = fabric.add_link(1.0);
  TimeNs done = -1;
  fabric.transfer(Route{{wide, narrow}, 10.0, 0}, 1000,
                  [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 1000);
}

TEST(Fabric, UncontendedPolicyIgnoresSharing) {
  sim::Simulator sim;
  Fabric fabric(sim, SharingPolicy::kUncontended);
  const LinkId l = fabric.add_link(1.0);
  std::vector<TimeNs> done;
  for (int i = 0; i < 4; ++i) {
    fabric.transfer(Route{{l}, 1.0, 0}, 1000,
                    [&] { done.push_back(sim.now()); });
  }
  sim.run();
  for (TimeNs t : done) EXPECT_EQ(t, 1000);
}

TEST(Fabric, ManyFlowsConserveCapacity) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(4.0);
  const int kFlows = 16;
  TimeNs last = 0;
  int completed = 0;
  for (int i = 0; i < kFlows; ++i) {
    fabric.transfer(Route{{l}, 10.0, 0}, 1000, [&] {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, kFlows);
  // 16 kB over a 4 B/ns link: exactly 4000 ns if capacity is conserved.
  EXPECT_EQ(last, 4000);
}

TEST(Fabric, SameInstantBurstRebalancesOnce) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(4.0);
  const int kFlows = 64;
  std::vector<TimeNs> done;
  for (int i = 0; i < kFlows; ++i) {
    fabric.transfer(Route{{l}, 10.0, 0}, 1000,
                    [&] { done.push_back(sim.now()); });
  }
  sim.run();
  // One activation and one completion per flow: the 64 activations share
  // an instant, so a single pass gives every flow its final 1/64 share and
  // no completion is ever cancelled and re-pushed.
  EXPECT_EQ(sim.events_scheduled(), 2u * kFlows);
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kFlows));
  // 1000 B at 4/64 B/ns each.
  for (TimeNs t : done) EXPECT_EQ(t, 16000);
}

TEST(Fabric, HandoffAtOneInstantKeepsUnchangedCompletion) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  TimeNs a_done = -1, b_done = -1, c_done = -1;
  fabric.transfer(Route{{l}, 1.0, 0}, 1000, [&] { a_done = sim.now(); });
  fabric.transfer(Route{{l}, 1.0, 0}, 100, [&] { b_done = sim.now(); });
  // C activates exactly when B finishes (100 B at 0.5 B/ns), so A's share
  // stays 0.5 across the instant and its completion at 2000 still holds.
  fabric.transfer(Route{{l}, 1.0, 200}, 300, [&] { c_done = sim.now(); });
  sim.run();
  EXPECT_EQ(b_done, 200);
  EXPECT_EQ(c_done, 800);   // 300 B at 0.5 B/ns from 200
  EXPECT_EQ(a_done, 1400);  // 600 B left at 800, then alone at 1 B/ns
  // Three activations and four completion pushes: A's at 0 and again at
  // 800, when its rate moves; none at 200, where A is re-settled but keeps
  // its completion time.
  EXPECT_EQ(sim.events_scheduled(), 7u);
}

TEST(Fabric, ZeroByteMessageWaitsBehindBusyPairQueue) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const LinkId l = fabric.add_link(1.0);
  std::vector<int> order;
  const Route route{{l}, 1.0, 100, /*serial_key=*/0};
  fabric.transfer(route, 1000, [&] { order.push_back(1); });
  fabric.transfer(route, 0, [&] { order.push_back(0); });
  TimeNs empty_done = -1;
  fabric.transfer(Route{{l}, 1.0, 100, /*serial_key=*/1}, 0,
                  [&] { empty_done = sim.now(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
  EXPECT_EQ(empty_done, 100);  // idle pair queue: alpha alone
}

// Differential test: the per-instant fabric against the per-event reference
// (tests/per_event_fabric.hpp) on random scenarios built to make many
// activations and finishes coincide: few distinct alphas and start times,
// shared links, caps from a small set, zero-byte and serialised messages.
// A flow may finish at most 1 ns apart from the reference: the reference
// re-rounds ceil(remaining / rate) at every intermediate reschedule, and its
// kRateEps skip compares against the intermediate rate rather than the
// rate the flow held before the instant.
struct ScenarioFlow {
  TimeNs start;
  Route route;
  Bytes bytes;
};

std::vector<ScenarioFlow> random_scenario(std::uint64_t seed,
                                          std::vector<double>& capacities) {
  Rng rng(seed);
  static constexpr double kCapacities[] = {0.5, 1.0, 2.0, 3.0, 8.0};
  static constexpr double kCaps[] = {0.25, 0.5, 1.0, 2.5, 16.0};
  static constexpr TimeNs kAlphas[] = {0, 0, 50, 100, 400};
  static constexpr TimeNs kStarts[] = {0, 0, 100, 250, 1000, 4000};
  static constexpr Bytes kSizes[] = {0, 1, 100, 1000, 4096, 10000, 65536};
  const int nlinks = 2 + static_cast<int>(rng.next_below(5));
  capacities.clear();
  for (int i = 0; i < nlinks; ++i) {
    capacities.push_back(kCapacities[rng.next_below(std::size(kCapacities))]);
  }
  const int nflows = 20 + static_cast<int>(rng.next_below(181));
  std::vector<ScenarioFlow> flows;
  for (int i = 0; i < nflows; ++i) {
    ScenarioFlow f;
    f.start = kStarts[rng.next_below(std::size(kStarts))];
    for (LinkId l = 0; l < nlinks; ++l) {
      if (rng.next_below(3) == 0) f.route.links.push_back(l);
    }
    if (f.route.links.empty()) {
      f.route.links.push_back(static_cast<LinkId>(rng.next_below(
          static_cast<std::uint64_t>(nlinks))));
    }
    f.route.per_flow_cap = kCaps[rng.next_below(std::size(kCaps))];
    f.route.alpha = kAlphas[rng.next_below(std::size(kAlphas))];
    if (rng.next_below(4) == 0) {
      f.route.serial_key = static_cast<std::int64_t>(rng.next_below(3));
    }
    f.bytes = kSizes[rng.next_below(std::size(kSizes))];
    flows.push_back(std::move(f));
  }
  return flows;
}

template <typename F>
std::vector<TimeNs> finish_times(const std::vector<double>& capacities,
                                 const std::vector<ScenarioFlow>& flows) {
  sim::Simulator sim;
  F fabric(sim);
  for (double c : capacities) fabric.add_link(c);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    sim.at(flows[i].start, [&, i] {
      fabric.transfer(flows[i].route, flows[i].bytes,
                      [&, i] { done[i] = sim.now(); });
    });
  }
  sim.run();
  return done;
}

TEST(Fabric, PerInstantMatchesPerEventReference) {
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kScenarios = 500;
  std::uint64_t flows_total = 0;
  std::uint64_t exact = 0;
  std::vector<double> capacities;
  for (int s = 0; s < kScenarios; ++s) {
    const std::vector<ScenarioFlow> flows =
        random_scenario(static_cast<std::uint64_t>(s) + 1, capacities);
    const std::vector<TimeNs> got = finish_times<Fabric>(capacities, flows);
    const std::vector<TimeNs> want =
        finish_times<testing::PerEventFabric>(capacities, flows);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      ASSERT_GE(got[i], 0) << "scenario " << s << " flow " << i;
      EXPECT_LE(std::abs(got[i] - want[i]), 1)
          << "scenario " << s << " flow " << i << ": " << got[i] << " vs "
          << want[i];
      exact += got[i] == want[i] ? 1 : 0;
    }
    flows_total += flows.size();
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("%d scenarios, %llu flows, %.4f%% exact matches, %.2f s\n",
              kScenarios, static_cast<unsigned long long>(flows_total),
              100.0 * static_cast<double>(exact) /
                  static_cast<double>(flows_total),
              secs);
}

TEST(Fabric, RejectsBadRoutes) {
  sim::Simulator sim;
  Fabric fabric(sim);
  EXPECT_THROW(fabric.transfer(Route{{}, 0.0, 0}, 10, [] {}), adapt::Error);
  EXPECT_THROW(fabric.transfer(Route{{99}, 1.0, 0}, 10, [] {}), adapt::Error);
}

// ------------------------------------------------------------ ClusterNet ---

TEST(ClusterNet, CpuRouteLevels) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(2), 64);
  ClusterNet net(sim, m);
  const Route same_socket = net.route(0, 1);
  EXPECT_EQ(same_socket.links.size(), 1u);
  EXPECT_EQ(same_socket.alpha, m.spec().intra_socket.alpha);
  const Route cross_socket = net.route(0, 16);
  EXPECT_EQ(cross_socket.links, std::vector<LinkId>{net.qpi(0)});
  const Route cross_node = net.route(0, 32);
  EXPECT_EQ(cross_node.links,
            (std::vector<LinkId>{net.nic_tx(0), net.nic_rx(1)}));
  EXPECT_EQ(cross_node.alpha, m.spec().inter_node.alpha);
}

TEST(ClusterNet, RouteToSelfRejected) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(1), 4);
  ClusterNet net(sim, m);
  EXPECT_THROW(net.route(2, 2), adapt::Error);
}

TEST(ClusterNet, InterNodeFlowsContendOnNic) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(3), 96);
  ClusterNet net(sim, m);
  // Two flows out of node 0 to different nodes share nic_tx(0).
  std::vector<TimeNs> done(2, -1);
  const Bytes bytes = 1000000;
  net.transfer(net.route(0, 32), bytes, [&] { done[0] = sim.now(); });
  net.transfer(net.route(1, 64), bytes, [&] { done[1] = sim.now(); });
  sim.run();
  const TimeNs solo = m.spec().inter_node.time(bytes);
  EXPECT_GT(done[0], solo + solo / 2);  // roughly halved bandwidth
  EXPECT_EQ(done[0], done[1]);
}

TEST(ClusterNet, DifferentLanesOverlapPerfectly) {
  sim::Simulator sim;
  topo::Machine m(topo::cori(2), 64);
  ClusterNet net(sim, m);
  // The paper's three-Isend example (§3.2.2): intra-socket, inter-socket and
  // inter-node transfers progress at full speed simultaneously.
  const Bytes bytes = 1000000;
  std::vector<TimeNs> done(3, -1);
  net.transfer(net.route(0, 1), bytes, [&] { done[0] = sim.now(); });
  net.transfer(net.route(0, 16), bytes, [&] { done[1] = sim.now(); });
  net.transfer(net.route(0, 32), bytes, [&] { done[2] = sim.now(); });
  sim.run();
  // Within the ceil-to-nanosecond rounding of flow completion.
  EXPECT_NEAR(done[0], m.spec().intra_socket.time(bytes), 2);
  EXPECT_NEAR(done[1], m.spec().inter_socket.time(bytes), 2);
  EXPECT_NEAR(done[2], m.spec().inter_node.time(bytes), 2);
}

TEST(ClusterNet, GpuPeerDmaVsRootPortBounce) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(1), 4, topo::PlacementPolicy::kByGpu);
  GpuConfig direct{false, true};
  GpuConfig bounce{false, false};
  ClusterNet net_direct(sim, m, SharingPolicy::kFairShare, direct);
  ClusterNet net_bounce(sim, m, SharingPolicy::kFairShare, bounce);
  const Route rd = net_direct.route_mem(0, MemSpace::kDevice, 1,
                                        MemSpace::kDevice);
  EXPECT_EQ(rd.links, std::vector<LinkId>{net_direct.gpu_peer(0)});
  const Route rb = net_bounce.route_mem(0, MemSpace::kDevice, 1,
                                        MemSpace::kDevice);
  EXPECT_EQ(rb.links, (std::vector<LinkId>{net_bounce.pcie_up(0),
                                           net_bounce.pcie_down(0)}));
}

TEST(ClusterNet, GpuInterNodeCrossesNicAndPcie) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(2), 8, topo::PlacementPolicy::kByGpu);
  ClusterNet net(sim, m, SharingPolicy::kFairShare, GpuConfig{true, true});
  const Route r =
      net.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  EXPECT_EQ(r.links, (std::vector<LinkId>{net.pcie_up(0), net.nic_tx(0),
                                          net.nic_rx(1), net.pcie_down(2)}));
}

TEST(ClusterNet, NoGpuDirectAddsStagingLatency) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(2), 8, topo::PlacementPolicy::kByGpu);
  ClusterNet with(sim, m, SharingPolicy::kFairShare, GpuConfig{true, false});
  ClusterNet without(sim, m, SharingPolicy::kFairShare,
                     GpuConfig{false, false});
  const Route a = with.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  const Route b =
      without.route_mem(0, MemSpace::kDevice, 4, MemSpace::kDevice);
  EXPECT_GT(b.alpha, a.alpha);
}

// ------------------------------------------------------ SHM node channel ---

TEST(ClusterNet, ShmChannelRoutesSameNodePairs) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(2, 4), 8);
  ClusterNet net(sim, m);
  // Every same-node pair rides the per-node SHM link; cross-node pairs still
  // cross the NICs with the fabric's alpha.
  const Route same = net.route(0, 1);
  EXPECT_EQ(same.links, std::vector<LinkId>{net.shm_node(0)});
  EXPECT_EQ(same.alpha, m.spec().shm_node.alpha);
  const Route far = net.route(1, 5);
  EXPECT_EQ(far.links, (std::vector<LinkId>{net.nic_tx(0), net.nic_rx(1)}));
  EXPECT_EQ(far.alpha, m.spec().inter_node.alpha);
}

TEST(ClusterNet, ShmChannelTimingPinsFromAlphaBeta) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(1, 4), 4);
  ClusterNet net(sim, m);
  // A single stream below the node memory system's aggregate capacity moves
  // at exactly the channel's Hockney time.
  const Bytes bytes = 1000000;
  TimeNs done = -1;
  net.transfer(net.route(1, 3), bytes, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, m.spec().shm_node.time(bytes), 2);
}

TEST(ClusterNet, SameNodeTrafficNeverTouchesFabricLinks) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(2, 4), 8);
  ClusterNet net(sim, m);
  obs::Recorder rec;
  net.fabric().set_recorder(&rec);
  // All-pairs traffic within node 0: the per-link byte counters must show
  // every byte on node 0's SHM channel and none on the QPI or NIC lanes —
  // same-node traffic is invisible to the fabric.
  Bytes sent = 0;
  for (Rank a = 0; a < 4; ++a) {
    for (Rank b = 0; b < 4; ++b) {
      if (a == b) continue;
      net.transfer(net.route(a, b), 10000, [] {});
      sent += 10000;
    }
  }
  sim.run();
  EXPECT_EQ(rec.metrics().link_bytes(net.shm_node(0)), sent);
  EXPECT_EQ(rec.metrics().link_bytes(net.shm_node(1)), 0);
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(rec.metrics().link_bytes(net.qpi(node)), 0);
    EXPECT_EQ(rec.metrics().link_bytes(net.nic_tx(node)), 0);
    EXPECT_EQ(rec.metrics().link_bytes(net.nic_rx(node)), 0);
  }
}

TEST(ClusterNet, ShmBandwidthContendsAmongOnNodePairs) {
  sim::Simulator sim;
  topo::Machine m(topo::han_cluster(1, 16), 16);
  ClusterNet net(sim, m);
  // Eight disjoint on-node pairs stream at once. Each flow is capped at the
  // single-stream rate 1/beta = 10 B/ns, but the node memory system only
  // supplies shm_node_parallel/beta = 60 B/ns in aggregate, so the fair
  // share is 7.5 B/ns per flow — node memory bandwidth is a real, shared
  // resource, not eight private wires.
  const Bytes bytes = 1 << 20;
  int completed = 0;
  TimeNs last = 0;
  for (Rank p = 0; p < 8; ++p) {
    net.transfer(net.route(2 * p, 2 * p + 1), bytes, [&] {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, 8);
  const auto& spec = m.spec();
  const double share =
      spec.shm_node_parallel / spec.shm_node.beta_ns_per_byte / 8.0;
  const TimeNs expected =
      spec.shm_node.alpha +
      static_cast<TimeNs>(static_cast<double>(bytes) / share);
  EXPECT_NEAR(last, expected, 3);
  EXPECT_GT(last, spec.shm_node.time(bytes));  // slower than a solo stream
}

TEST(ClusterNet, HostLocalDeviceCopyUsesPcie) {
  sim::Simulator sim;
  topo::Machine m(topo::psg(1), 4, topo::PlacementPolicy::kByGpu);
  ClusterNet net(sim, m);
  const Route r = net.route_mem(2, MemSpace::kHost, 2, MemSpace::kDevice);
  EXPECT_EQ(r.links, std::vector<LinkId>{net.pcie_down(1)});
}

}  // namespace
}  // namespace adapt::net
