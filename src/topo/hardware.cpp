#include "src/topo/hardware.hpp"

#include <atomic>
#include <functional>
#include <map>

#include "src/support/error.hpp"

namespace adapt::topo {

const char* level_name(Level level) {
  switch (level) {
    case Level::kSelf: return "self";
    case Level::kIntraSocket: return "intra-socket";
    case Level::kInterSocket: return "inter-socket";
    case Level::kInterNode: return "inter-node";
  }
  return "?";
}

namespace {

std::uint64_t next_machine_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Machine::Machine(MachineSpec spec, int nranks, PlacementPolicy policy)
    : id_(next_machine_id()), spec_(std::move(spec)), policy_(policy) {
  ADAPT_CHECK(nranks > 0);
  ADAPT_CHECK(spec_.nodes > 0 && spec_.sockets_per_node > 0 &&
              spec_.cores_per_socket > 0);
  locs_.reserve(static_cast<std::size_t>(nranks));

  if (policy == PlacementPolicy::kByCore) {
    const int capacity = spec_.nodes * spec_.cores_per_node();
    ADAPT_CHECK(nranks <= capacity)
        << "nranks=" << nranks << " exceeds " << capacity << " cores on "
        << spec_.name;
    for (int r = 0; r < nranks; ++r) {
      const int node = r / spec_.cores_per_node();
      const int within = r % spec_.cores_per_node();
      locs_.push_back(Loc{node, within / spec_.cores_per_socket,
                          within % spec_.cores_per_socket, -1});
    }
  } else {
    ADAPT_CHECK(spec_.gpus_per_socket > 0)
        << "by-GPU placement on a machine without GPUs";
    const int capacity = spec_.nodes * spec_.gpus_per_node();
    ADAPT_CHECK(nranks <= capacity)
        << "nranks=" << nranks << " exceeds " << capacity << " GPUs on "
        << spec_.name;
    for (int r = 0; r < nranks; ++r) {
      const int node = r / spec_.gpus_per_node();
      const int within = r % spec_.gpus_per_node();
      const int socket = within / spec_.gpus_per_socket;
      const int gpu = within % spec_.gpus_per_socket;
      // One rank per GPU; the rank's CPU core is the gpu-th core of the socket.
      locs_.push_back(Loc{node, socket, gpu, gpu});
    }
  }
}

Machine::Machine(MachineSpec spec, std::vector<int> slots)
    : id_(next_machine_id()),
      spec_(std::move(spec)),
      policy_(PlacementPolicy::kByCore) {
  ADAPT_CHECK(!slots.empty());
  ADAPT_CHECK(spec_.nodes > 0 && spec_.sockets_per_node > 0 &&
              spec_.cores_per_socket > 0);
  const int capacity = spec_.nodes * spec_.cores_per_node();
  std::vector<char> used(static_cast<std::size_t>(capacity), 0);
  locs_.reserve(slots.size());
  bool dense = true;
  for (std::size_t r = 0; r < slots.size(); ++r) {
    const int slot = slots[r];
    ADAPT_CHECK(slot >= 0 && slot < capacity)
        << "slot " << slot << " outside " << capacity << " cores on "
        << spec_.name;
    ADAPT_CHECK(!used[static_cast<std::size_t>(slot)])
        << "slot " << slot << " assigned twice";
    used[static_cast<std::size_t>(slot)] = 1;
    const int node = slot / spec_.cores_per_node();
    const int within = slot % spec_.cores_per_node();
    locs_.push_back(Loc{node, within / spec_.cores_per_socket,
                        within % spec_.cores_per_socket, -1});
    dense = dense && slot == static_cast<int>(r);
  }
  if (!dense) {
    // FNV-1a over the slot sequence: distinguishes placements in the
    // fingerprint so tuner tables recorded under one mapping are not replayed
    // under another.
    std::uint64_t h = 1469598103934665603ull;
    for (const int slot : slots) {
      h ^= static_cast<std::uint64_t>(slot);
      h *= 1099511628211ull;
    }
    placement_hash_ = h != 0 ? h : 1;
  }
}

const Loc& Machine::loc(Rank r) const {
  ADAPT_CHECK(r >= 0 && r < nranks()) << "rank " << r << " of " << nranks();
  return locs_[static_cast<std::size_t>(r)];
}

Level Machine::level_between(Rank a, Rank b) const {
  const Loc& la = loc(a);
  const Loc& lb = loc(b);
  if (a == b) return Level::kSelf;
  if (la.node != lb.node) return Level::kInterNode;
  if (la.socket != lb.socket) return Level::kInterSocket;
  return Level::kIntraSocket;
}

const LinkParams& Machine::lane(Level level) const {
  switch (level) {
    case Level::kIntraSocket:
      return spec_.has_shm_channel() ? spec_.shm_node : spec_.intra_socket;
    case Level::kInterSocket:
      return spec_.has_shm_channel() ? spec_.shm_node : spec_.inter_socket;
    case Level::kInterNode: return spec_.inter_node;
    case Level::kSelf: break;
  }
  ADAPT_UNREACHABLE("no lane for Level::kSelf");
}

int Machine::socket_id(Rank r) const {
  const Loc& l = loc(r);
  return l.node * spec_.sockets_per_node + l.socket;
}

namespace {

std::vector<std::vector<Rank>> group_by(
    int nranks, const std::function<int(Rank)>& key) {
  std::map<int, std::vector<Rank>> groups;
  for (Rank r = 0; r < nranks; ++r) groups[key(r)].push_back(r);
  std::vector<std::vector<Rank>> out;
  out.reserve(groups.size());
  for (auto& [k, v] : groups) out.push_back(std::move(v));
  return out;
}

}  // namespace

std::vector<std::vector<Rank>> Machine::ranks_by_node() const {
  return group_by(nranks(), [this](Rank r) { return node_of(r); });
}

std::vector<std::vector<Rank>> Machine::ranks_by_socket() const {
  return group_by(nranks(), [this](Rank r) { return socket_id(r); });
}

std::string Machine::fingerprint() const {
  char buf[512];
  const auto lane_sig = [](const LinkParams& l) {
    char s[64];
    std::snprintf(s, sizeof(s), "%lld/%.9g", static_cast<long long>(l.alpha),
                  l.beta_ns_per_byte);
    return std::string(s);
  };
  std::snprintf(
      buf, sizeof(buf),
      "%s n%dx%dx%dg%d r%dp%d shm=%s qpi=%s nic=%s par=%.9g "
      "memcpy=%.9g unexp=%lld eager=%lld gamma=%.9g cpu=%lld",
      spec_.name.c_str(), spec_.nodes, spec_.sockets_per_node,
      spec_.cores_per_socket, spec_.gpus_per_socket, nranks(),
      static_cast<int>(policy_), lane_sig(spec_.intra_socket).c_str(),
      lane_sig(spec_.inter_socket).c_str(), lane_sig(spec_.inter_node).c_str(),
      spec_.shm_parallel, spec_.memcpy_beta,
      static_cast<long long>(spec_.unexpected_overhead),
      static_cast<long long>(spec_.eager_threshold), spec_.reduce_gamma,
      static_cast<long long>(spec_.cpu_overhead));
  std::string out = buf;
  // Appended only when non-default so every pre-existing machine keeps its
  // exact fingerprint (persisted decision tables stay loadable).
  if (spec_.has_shm_channel()) {
    std::snprintf(buf, sizeof(buf), " shmnode=%s/%.9g",
                  lane_sig(spec_.shm_node).c_str(), spec_.shm_node_parallel);
    out += buf;
  }
  if (placement_hash_ != 0) {
    std::snprintf(buf, sizeof(buf), " perm=%llx",
                  static_cast<unsigned long long>(placement_hash_));
    out += buf;
  }
  return out;
}

}  // namespace adapt::topo
