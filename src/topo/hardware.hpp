// Hardware topology model — the hwloc/PMIx substitute (paper §3.2.1).
//
// A Machine describes a cluster as node × socket × core (optionally with GPUs
// hanging off each socket's PCIe switch), the Hockney parameters (α latency,
// β inverse bandwidth) of every communication lane, and where each MPI rank is
// placed. All topology-aware logic (tree building, path routing, level
// classification) reads from this one structure, exactly as ADAPT reads
// hwloc data inside Open MPI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/units.hpp"

namespace adapt::topo {

/// Hockney model parameters of one lane: transfer time = alpha + beta * bytes.
struct LinkParams {
  TimeNs alpha = 0;           ///< per-message startup latency
  double beta_ns_per_byte = 0.0;  ///< inverse bandwidth

  /// Point-to-point time for `bytes` over this lane, uncontended.
  TimeNs time(Bytes bytes) const {
    return alpha + static_cast<TimeNs>(beta_ns_per_byte *
                                       static_cast<double>(bytes));
  }
  double bandwidth_gbs() const {
    return beta_ns_per_byte > 0 ? 1.0 / beta_ns_per_byte : 0.0;
  }
};

/// Static description of the cluster hardware.
struct MachineSpec {
  std::string name = "generic";

  int nodes = 1;
  int sockets_per_node = 2;
  int cores_per_socket = 16;
  int gpus_per_socket = 0;

  // Communication lanes between CPU ranks.
  LinkParams intra_socket;  ///< shared-memory within one socket
  LinkParams inter_socket;  ///< QPI / HyperTransport between sockets
  LinkParams inter_node;    ///< NIC + switch fabric between nodes

  // GPU lanes (only meaningful when gpus_per_socket > 0).
  LinkParams pcie;     ///< host<->GPU and GPU<->GPU (IPC) over one PCIe switch
  LinkParams nic_bus;  ///< NIC's own PCIe attachment (GPUDirect path)

  /// Aggregate intra-socket shared-memory capacity, as a multiple of the
  /// single-pair bandwidth: several core pairs can stream concurrently before
  /// the socket's memory system saturates.
  double shm_parallel = 4.0;

  /// First-class per-node shared-memory channel (the HAN transport). When
  /// enabled (beta > 0) every same-node pair — regardless of socket — talks
  /// over one node-local SHM link with these Hockney parameters instead of
  /// the intra/inter-socket wires, and the contention pass treats the node's
  /// memory bandwidth as its own resource (capacity = shm_node_parallel ×
  /// the single-pair bandwidth). Disabled by default so every existing
  /// machine keeps its lane model, fingerprint and golden hashes.
  LinkParams shm_node{0, 0.0};
  double shm_node_parallel = 4.0;

  bool has_shm_channel() const { return shm_node.beta_ns_per_byte > 0.0; }

  // Local memory-system costs.
  double memcpy_beta = 0.1;        ///< ns/B for host buffer copies
  TimeNs unexpected_overhead = 0;  ///< alloc+bookkeeping per unexpected msg
  /// Messages at or below this size use the eager protocol (buffered at the
  /// receiver, sender never waits for a match); larger ones use rendezvous
  /// (an RTS/CTS handshake gates the data, so an unresponsive receiver
  /// stalls the sender — the coupling the paper's §2 noise analysis rests
  /// on). Pre-posted receives are matched by the NIC (Aries/Portals-style
  /// hardware matching), without the receiver's CPU.
  Bytes eager_threshold = kib(64);
  double reduce_gamma = 0.25;      ///< ns/B CPU reduction (γ in Hockney+γ)
  double gpu_reduce_gamma = 0.02;  ///< ns/B GPU reduction
  TimeNs gpu_kernel_launch = 0;    ///< per-kernel launch latency
  TimeNs cpu_overhead = 0;         ///< rank-side cost to post/progress one P2P

  int cores_per_node() const { return sockets_per_node * cores_per_socket; }
  int gpus_per_node() const { return sockets_per_node * gpus_per_socket; }
};

/// Physical placement of one rank.
struct Loc {
  int node = 0;
  int socket = 0;  ///< socket index within the node
  int core = 0;    ///< core index within the socket
  int gpu = -1;    ///< GPU index within the socket; -1 = CPU rank

  bool operator==(const Loc&) const = default;
};

/// Relationship between two ranks' placements, ordered nearest to farthest.
enum class Level { kSelf = 0, kIntraSocket = 1, kInterSocket = 2, kInterNode = 3 };

const char* level_name(Level level);

/// How ranks are laid out on the machine.
enum class PlacementPolicy {
  kByCore,  ///< dense: fill cores of socket 0, then socket 1, then next node
  kByGpu,   ///< one rank per GPU, dense across sockets then nodes
};

/// A machine plus a concrete rank placement. Immutable after construction.
class Machine {
 public:
  Machine(MachineSpec spec, int nranks,
          PlacementPolicy policy = PlacementPolicy::kByCore);
  /// Permuted placement: rank r occupies the dense kByCore slot `slots[r]`.
  /// `slots` must be a permutation of a subset of [0, nodes*cores_per_node).
  /// Models launchers that scatter ranks across nodes (cyclic, reversed,
  /// random bindings) — the layouts two-level collectives must stay correct
  /// under.
  Machine(MachineSpec spec, std::vector<int> slots);

  const MachineSpec& spec() const { return spec_; }
  int nranks() const { return static_cast<int>(locs_.size()); }
  PlacementPolicy policy() const { return policy_; }

  const Loc& loc(Rank r) const;
  Level level_between(Rank a, Rank b) const;
  /// Hockney parameters of the lane used by a CPU-rank pair at this level.
  const LinkParams& lane(Level level) const;

  int node_of(Rank r) const { return loc(r).node; }
  /// Globally unique socket id: node * sockets_per_node + socket.
  int socket_id(Rank r) const;

  /// Ranks grouped by node (index = node id; empty groups removed).
  std::vector<std::vector<Rank>> ranks_by_node() const;
  /// Ranks grouped by global socket id (empty groups removed).
  std::vector<std::vector<Rank>> ranks_by_socket() const;

  /// Stable one-line signature of everything the analytical cost model reads:
  /// shape, placement, the α/β of every lane, γ costs, protocol thresholds and
  /// per-message overheads. Two machines with equal fingerprints are
  /// interchangeable for tuning; a persisted decision table records the
  /// fingerprint and is rejected on a machine whose parameters differ.
  std::string fingerprint() const;

  /// Process-unique identity, drawn from a counter when the machine is
  /// built; a copy keeps it (a Machine is immutable). Caches keyed per
  /// machine use it: an address can be reused after a free, and
  /// fingerprint() builds a string on every call.
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
  MachineSpec spec_;
  PlacementPolicy policy_;
  std::vector<Loc> locs_;
  std::uint64_t placement_hash_ = 0;  ///< 0 = dense kByCore placement
};

}  // namespace adapt::topo
