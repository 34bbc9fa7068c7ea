#include "src/tune/cost.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/support/error.hpp"

namespace adapt::tune {

const char* op_name(Op op) {
  switch (op) {
    case Op::kBcast: return "bcast";
    case Op::kReduce: return "reduce";
  }
  return "?";
}

bool op_from_name(const std::string& name, Op* out) {
  if (name == "bcast") {
    *out = Op::kBcast;
    return true;
  }
  if (name == "reduce") {
    *out = Op::kReduce;
    return true;
  }
  return false;
}

namespace {

using coll::Style;
using coll::Tree;
using topo::Level;

/// One tree edge in its transfer direction (bcast: parent→child, reduce:
/// child→parent). `port_free` is the edge's FIFO transmit port — the model's
/// mirror of the fabric's per-(src,dst) serial key: segments between one pair
/// leave back to back, never fair-shared against each other.
struct Edge {
  Rank src = 0;  // local sender
  Rank dst = 0;  // local receiver
  TimeNs alpha = 0;
  double beta = 0.0;      ///< uncontended lane ns/B
  double beta_eff = 0.0;  ///< after the max–min contention pass
  TimeNs port_free = 0;
};

/// Shared-link inventory for the contention pass. Capacities are normalised
/// to "full-rate flows": a QPI hop or NIC direction carries one flow at full
/// lane bandwidth; a socket's shared memory carries spec.shm_parallel.
class LinkTable {
 public:
  enum Kind { kShm, kQpi, kNicTx, kNicRx, kNodeShm };

  int get(Kind kind, int index, double cap) {
    const auto [it, fresh] =
        ids_.try_emplace({static_cast<int>(kind), index},
                         static_cast<int>(capacity_.size()));
    if (fresh) capacity_.push_back(cap);
    return it->second;
  }
  const std::vector<double>& capacity() const { return capacity_; }

 private:
  std::map<std::pair<int, int>, int> ids_;
  std::vector<double> capacity_;
};

std::vector<Rank> bfs_order(const Tree& tree) {
  std::vector<Rank> order{tree.root};
  order.reserve(static_cast<std::size_t>(tree.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Rank r = order[i];
    for (const Rank c : tree.kids(r)) order.push_back(c);
  }
  return order;
}

/// Edges indexed by the non-root rank they attach to the tree (for bcast that
/// rank is the receiver, for reduce the sender).
std::vector<Edge> build_edges(const topo::Machine& machine,
                              const mpi::Comm& comm, const Tree& tree, Op op) {
  std::vector<Edge> edges(static_cast<std::size_t>(tree.size()));
  for (Rank r = 0; r < tree.size(); ++r) {
    const Rank parent = tree.up(r);
    if (parent < 0) continue;
    Edge& e = edges[static_cast<std::size_t>(r)];
    e.src = op == Op::kBcast ? parent : r;
    e.dst = op == Op::kBcast ? r : parent;
    const Level level =
        machine.level_between(comm.global(e.src), comm.global(e.dst));
    const topo::LinkParams& lane = machine.lane(level);
    e.alpha = lane.alpha;
    e.beta = e.beta_eff = lane.beta_ns_per_byte;
  }
  return edges;
}

/// Static steady-state contention: every tree edge is assumed concurrently
/// active (the pipelined steady state) and link bandwidth is split max–min,
/// exactly the fabric's sharing policy. Under kBlocking a rank's sends are
/// serialised by the style itself, so its same-level edges count as ONE flow.
void apply_contention(const topo::Machine& machine, const mpi::Comm& comm,
                      const Tree& tree, Style style, std::vector<Edge>* edges) {
  struct Flow {
    std::vector<int> links;
    std::vector<Rank> members;  ///< edge indices (non-root ranks)
  };
  LinkTable links;
  std::vector<Flow> flows;
  std::map<std::pair<Rank, int>, int> blocking_groups;  // (src, level) -> flow

  const topo::MachineSpec& spec = machine.spec();
  for (Rank r = 0; r < tree.size(); ++r) {
    if (tree.up(r) < 0) continue;
    const Edge& e = (*edges)[static_cast<std::size_t>(r)];
    const Rank gsrc = comm.global(e.src);
    const Rank gdst = comm.global(e.dst);
    const Level level = machine.level_between(gsrc, gdst);

    std::vector<int> edge_links;
    if (spec.has_shm_channel() && level != Level::kInterNode &&
        level != Level::kSelf) {
      // First-class SHM channel: same-node edges share the node's memory
      // bandwidth, mirroring ClusterNet's shm_node link.
      edge_links = {links.get(LinkTable::kNodeShm, machine.node_of(gsrc),
                              spec.shm_node_parallel)};
    } else
    switch (level) {
      case Level::kIntraSocket:
        edge_links = {links.get(LinkTable::kShm, machine.socket_id(gsrc),
                                spec.shm_parallel)};
        break;
      case Level::kInterSocket:
        edge_links = {links.get(LinkTable::kQpi, machine.node_of(gsrc), 1.0)};
        break;
      case Level::kInterNode:
        edge_links = {
            links.get(LinkTable::kNicTx, machine.node_of(gsrc), 1.0),
            links.get(LinkTable::kNicRx, machine.node_of(gdst), 1.0)};
        break;
      case Level::kSelf: continue;
    }

    int flow_id;
    if (style == Style::kBlocking) {
      const auto key = std::make_pair(e.src, static_cast<int>(level));
      const auto [it, fresh] =
          blocking_groups.try_emplace(key, static_cast<int>(flows.size()));
      if (fresh) flows.emplace_back();
      flow_id = it->second;
    } else {
      flow_id = static_cast<int>(flows.size());
      flows.emplace_back();
    }
    Flow& flow = flows[static_cast<std::size_t>(flow_id)];
    flow.members.push_back(r);
    for (const int l : edge_links)
      if (std::find(flow.links.begin(), flow.links.end(), l) ==
          flow.links.end())
        flow.links.push_back(l);
  }

  // Progressive filling: repeatedly saturate the most contended link, fixing
  // its flows at the fair share; flows never exceed 1.0 (the lane rate).
  std::vector<double> rate(flows.size(), 0.0);
  std::vector<bool> fixed(flows.size(), false);
  std::vector<double> residual = links.capacity();
  std::vector<int> unfixed_on(residual.size(), 0);
  for (const Flow& f : flows)
    for (const int l : f.links) ++unfixed_on[static_cast<std::size_t>(l)];

  std::size_t remaining = flows.size();
  while (remaining > 0) {
    double share = 1.0;
    int bottleneck = -1;
    for (std::size_t l = 0; l < residual.size(); ++l) {
      if (unfixed_on[l] <= 0) continue;
      const double s = residual[l] / unfixed_on[l];
      if (s < share) {
        share = s;
        bottleneck = static_cast<int>(l);
      }
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (fixed[f]) continue;
      const bool capped =
          bottleneck < 0 ||
          std::find(flows[f].links.begin(), flows[f].links.end(),
                    bottleneck) == flows[f].links.end();
      if (capped && bottleneck >= 0) continue;  // only the bottleneck's flows
      rate[f] = share;
      fixed[f] = true;
      --remaining;
      for (const int l : flows[f].links) {
        residual[static_cast<std::size_t>(l)] -= share;
        --unfixed_on[static_cast<std::size_t>(l)];
      }
    }
    if (bottleneck < 0) break;  // everyone fixed at the 1.0 lane cap
  }

  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double r = std::max(rate[f], 1e-9);
    for (const Rank m : flows[f].members)
      (*edges)[static_cast<std::size_t>(m)].beta_eff =
          (*edges)[static_cast<std::size_t>(m)].beta / r;
  }
}

/// One segment over one edge. Eager: the payload ships immediately and is
/// matched NIC-side. Rendezvous: two α-only control legs (RTS, CTS) precede
/// the bulk fabric transfer and the receiver finalises the match for
/// cpu_overhead on its progress context.
struct Xfer {
  TimeNs arrival = 0;      ///< data usable at the receiver
  TimeNs sender_done = 0;  ///< send-completion visible to the sender
};

Xfer transfer(Edge& e, Bytes len, TimeNs ready, const topo::MachineSpec& spec) {
  const TimeNs wire =
      e.alpha + static_cast<TimeNs>(e.beta_eff * static_cast<double>(len));
  if (len <= spec.eager_threshold) {
    const TimeNs start = std::max(ready, e.port_free);
    e.port_free = start + wire;
    return {start + wire, start + wire};
  }
  const TimeNs start = std::max(ready + 2 * e.alpha, e.port_free);
  e.port_free = start + wire;
  return {start + wire + spec.cpu_overhead, start + wire};
}

TimeNs walk_bcast(const topo::MachineSpec& spec, const Tree& tree,
                  const coll::Segmenter& seg, Style style,
                  std::vector<Edge>* edges) {
  const int S = seg.count();
  const TimeNs oh = spec.cpu_overhead;
  std::vector<std::vector<TimeNs>> have(
      static_cast<std::size_t>(tree.size()),
      std::vector<TimeNs>(static_cast<std::size_t>(S), 0));
  const auto at = [edges](Rank r) -> Edge& {
    return (*edges)[static_cast<std::size_t>(r)];
  };

  TimeNs total = 0;
  for (const Rank r : bfs_order(tree)) {
    const auto kids = tree.kids(r);
    const bool is_root = tree.up(r) < 0;
    const auto& mine = have[static_cast<std::size_t>(r)];
    TimeNs cur = 0;

    switch (style) {
      case Style::kBlocking:
        // Algorithm 1: recv segment s, then await each child send in order.
        for (int s = 0; s < S; ++s) {
          if (!is_root)
            cur = std::max(cur + oh, mine[static_cast<std::size_t>(s)]);
          for (const Rank c : kids) {
            cur += oh;
            const Xfer x = transfer(at(c), seg.length(s), cur, spec);
            have[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
                x.arrival;
            cur = x.sender_done;
          }
        }
        break;

      case Style::kNonblocking:
        // Algorithm 2: two pre-posted receives, isend fan-out, Waitall per
        // segment.
        if (!is_root) cur += std::min(2, S) * oh;
        for (int s = 0; s < S; ++s) {
          if (!is_root) {
            cur = std::max(cur, mine[static_cast<std::size_t>(s)]);
            if (s + 2 < S) cur += oh;  // re-arm the receive window
          }
          TimeNs waitall = cur;
          for (const Rank c : kids) {
            cur += oh;
            const Xfer x = transfer(at(c), seg.length(s), cur, spec);
            have[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
                x.arrival;
            waitall = std::max(waitall, x.sender_done);
          }
          cur = std::max(cur, waitall);
        }
        break;

      case Style::kAdapt: {
        // Algorithm 3: the arrival callback forwards each segment from the
        // progress context; the per-edge FIFO port does the pipelining.
        TimeNs prog = 0;
        for (int s = 0; s < S; ++s) {
          const TimeNs ready =
              is_root ? 0 : mine[static_cast<std::size_t>(s)];
          for (const Rank c : kids) {
            prog = std::max(prog, ready) + oh;
            const Xfer x = transfer(at(c), seg.length(s), prog, spec);
            have[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)] =
                x.arrival;
            cur = std::max(cur, x.sender_done);
          }
        }
        break;
      }
    }

    if (!is_root && S > 0)
      cur = std::max(cur, mine[static_cast<std::size_t>(S - 1)]);
    total = std::max(total, cur);
  }
  return total;
}

TimeNs walk_reduce(const topo::MachineSpec& spec, const Tree& tree,
                   const coll::Segmenter& seg, Style style, double gamma_scale,
                   std::vector<Edge>* edges) {
  const int S = seg.count();
  const TimeNs oh = spec.cpu_overhead;
  const auto fold = [&](int s) {
    return static_cast<TimeNs>(spec.reduce_gamma * gamma_scale *
                               static_cast<double>(seg.length(s)));
  };
  const auto at = [edges](Rank r) -> Edge& {
    return (*edges)[static_cast<std::size_t>(r)];
  };
  // up[r][s]: when rank r's segment-s contribution is usable at its parent.
  std::vector<std::vector<TimeNs>> up(
      static_cast<std::size_t>(tree.size()),
      std::vector<TimeNs>(static_cast<std::size_t>(S), 0));

  std::vector<Rank> order = bfs_order(tree);
  std::reverse(order.begin(), order.end());  // children before parents

  TimeNs total = 0;
  for (const Rank r : order) {
    const auto kids = tree.kids(r);
    const bool is_root = tree.up(r) < 0;
    TimeNs cur = 0;

    switch (style) {
      case Style::kBlocking:
        // Recv + accumulate each child in order on the main thread, then one
        // awaited send up.
        for (int s = 0; s < S; ++s) {
          for (const Rank c : kids) {
            cur = std::max(
                cur + oh,
                up[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)]);
            cur += fold(s);
          }
          if (!is_root) {
            cur += oh;
            const Xfer x = transfer(at(r), seg.length(s), cur, spec);
            up[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)] =
                x.arrival;
            cur = x.sender_done;
          }
        }
        break;

      case Style::kNonblocking: {
        // Waitall the child receives per segment, accumulate sequentially,
        // keep one send up in flight.
        TimeNs pending = 0;
        for (int s = 0; s < S; ++s) {
          for (const Rank c : kids) {
            cur = std::max(
                cur + oh,
                up[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)]);
            cur += fold(s);
          }
          if (!is_root) {
            cur = std::max(cur, pending);
            cur += oh;
            const Xfer x = transfer(at(r), seg.length(s), cur, spec);
            up[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)] =
                x.arrival;
            pending = x.sender_done;
          }
        }
        cur = std::max(cur, pending);
        break;
      }

      case Style::kAdapt: {
        // Folds run on the progress context (defer_progress) — serialised
        // per rank, in ARRIVAL order (the sim is event-driven: an early
        // child's contribution folds while a slow subtree is still in
        // flight). Each child has M pre-posted receive windows, reposted
        // from the fold callback: once a fast sender drains them, later
        // segments land unexpected and pay the allocation+copy penalty
        // instead of the pre-posted finalise (endpoint.cpp's eager paths).
        struct Arrival {
          TimeNs at = 0;
          Rank child = 0;
          int s = 0;
        };
        std::vector<Arrival> arrivals;
        arrivals.reserve(kids.size() * static_cast<std::size_t>(S));
        for (std::size_t c = 0; c < kids.size(); ++c)
          for (int s = 0; s < S; ++s)
            arrivals.push_back(
                {up[static_cast<std::size_t>(kids[c])]
                   [static_cast<std::size_t>(s)],
                 static_cast<Rank>(c), s});
        std::stable_sort(arrivals.begin(), arrivals.end(),
                         [](const Arrival& a, const Arrival& b) {
                           return a.at < b.at;
                         });
        const int windows = coll::CollOpts{}.outstanding_recvs;
        // fold_done[c][s]: when child c's segment-s fold finished (the
        // moment window s+M is reposted for that child).
        std::vector<std::vector<TimeNs>> fold_done(
            kids.size(), std::vector<TimeNs>(static_cast<std::size_t>(S), 0));
        std::vector<int> contributed(static_cast<std::size_t>(S), 0);
        std::vector<TimeNs> contrib(static_cast<std::size_t>(S), 0);
        TimeNs prog = 0;
        for (const Arrival& a : arrivals) {
          const std::size_t c = static_cast<std::size_t>(a.child);
          const TimeNs posted =
              a.s < windows
                  ? 0
                  : fold_done[c][static_cast<std::size_t>(a.s - windows)];
          TimeNs cost = fold(a.s);
          TimeNs match = a.at;
          if (posted <= a.at) {
            cost += oh;  // pre-posted: NIC match + finalise
          } else {
            // Waits in the unexpected queue for the repost and pays the
            // allocation+copy penalty. A saturated progress context also
            // starves the upstream sender's completion callbacks (its pump
            // restarts queue behind the fold backlog), so the fold/wire
            // overlap collapses: charge the child's wire time serially.
            const Edge& ce = at(kids[c]);
            match = posted;
            cost += spec.unexpected_overhead +
                    static_cast<TimeNs>(spec.memcpy_beta *
                                        static_cast<double>(seg.length(a.s))) +
                    ce.alpha +
                    static_cast<TimeNs>(ce.beta_eff *
                                        static_cast<double>(seg.length(a.s)));
          }
          prog = std::max(prog, match) + cost;
          fold_done[c][static_cast<std::size_t>(a.s)] = prog;
          if (++contributed[static_cast<std::size_t>(a.s)] ==
              static_cast<int>(kids.size()))
            contrib[static_cast<std::size_t>(a.s)] = prog;
        }
        if (is_root) {
          for (const TimeNs t : contrib) cur = std::max(cur, t);
        } else {
          for (int s = 0; s < S; ++s) {
            const TimeNs ready = contrib[static_cast<std::size_t>(s)] + oh;
            const Xfer x = transfer(at(r), seg.length(s), ready, spec);
            up[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)] =
                x.arrival;
            cur = std::max(cur, x.sender_done);
          }
        }
        break;
      }
    }
    total = std::max(total, cur);
  }
  return total;
}

}  // namespace

TimeNs CostModel::predict(const Workload& work, const mpi::Comm& comm,
                          const coll::Tree& tree) const {
  ADAPT_CHECK(tree.size() == comm.size())
      << "tree over " << tree.size() << " ranks priced on a " << comm.size()
      << "-rank communicator";
  const coll::Segmenter seg(work.bytes, std::max<Bytes>(1, work.segment));
  std::vector<Edge> edges = build_edges(machine_, comm, tree, work.op);
  apply_contention(machine_, comm, tree, work.style, &edges);
  return work.op == Op::kBcast
             ? walk_bcast(machine_.spec(), tree, seg, work.style, &edges)
             : walk_reduce(machine_.spec(), tree, seg, work.style,
                           work.gamma_scale, &edges);
}

}  // namespace adapt::tune
