// The adaptive decision engine (paper §5.2.1; MPI Advance-style caching).
//
// A Tuner enumerates a fixed candidate grid (tuner.cpp) — topology ×
// segment size × radix — prices every candidate with the analytical
// CostModel, and caches the predicted-best Decision per (collective,
// communicator size, message-size bucket). Decisions depend only on those
// keys plus the machine, so the cache is eviction-free and deterministic,
// and a filled table is a reusable artifact: dump_json()/load_json()
// persist it together with the machine fingerprint, and loading rejects a
// table recorded on a machine whose α/β/γ parameters differ.
//
// Candidate evaluation lays trees over a dense rank prefix of the machine
// (the cache is keyed by communicator SIZE, not membership — the MPI Advance
// compromise), one communicator per grid, so each shape is built once;
// decision_tree() then maps the chosen shape onto the actual communicator
// and root through the tree cache on that communicator.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/coll/shape.hpp"
#include "src/tune/cost.hpp"

namespace adapt::obs {
class Recorder;
}  // namespace adapt::obs

namespace adapt::tune {

/// Candidate tree families. kTopoChain is the paper's ADAPT configuration
/// (chains at every hardware level); kTopoKnomial keeps the hardware grouping
/// but uses k-nomial shapes per level; kBinomial/kChain are rank-order shapes;
/// kHan is the two-level HAN tree (binomial over node leaders + k-nomial per
/// node over the SHM channel), priced only on machines with a first-class SHM
/// channel whose communicator spans more than one node.
enum class Topology { kTopoChain, kTopoKnomial, kBinomial, kChain, kHan };

const char* topology_name(Topology t);
bool topology_from_name(const std::string& name, Topology* out);

/// One tuned configuration. segment == 0 means "whole message" (a single
/// pipeline segment at any size in the bucket).
struct Decision {
  Topology topology = Topology::kTopoChain;
  int radix = 4;         ///< used by kTopoKnomial levels
  Bytes segment = 0;     ///< pipeline granularity; 0 = unsegmented
  TimeNs predicted = 0;  ///< model time at the bucket's representative size
  bool operator==(const Decision&) const = default;
};

struct TableKey {
  Op op = Op::kBcast;
  int ranks = 0;   ///< communicator size
  int bucket = 0;  ///< floor(log2(bytes))
  auto operator<=>(const TableKey&) const = default;
};

/// The per-communicator decision cache. Eviction-free (the key space is tiny:
/// ops × comm sizes × ~40 buckets) so lookups are deterministic forever.
class DecisionTable {
 public:
  explicit DecisionTable(std::string machine_fingerprint)
      : machine_(std::move(machine_fingerprint)) {}

  const std::string& machine() const { return machine_; }
  int size() const { return static_cast<int>(map_.size()); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Counted lookup: bumps hits or misses.
  std::optional<Decision> find(const TableKey& key);
  void insert(const TableKey& key, const Decision& decision);

  /// Serialises the table (schema "adapt-decision-table-v1"), decisions in
  /// deterministic key order.
  std::string dump_json() const;
  /// Replaces this table's decisions with `text`'s. Fails (false + *error)
  /// on malformed JSON, a wrong schema, or a machine fingerprint that does
  /// not match this table's — a stale table must never steer a different
  /// machine. Counters are reset on success.
  bool load_json(const std::string& text, std::string* error);

 private:
  std::string machine_;
  std::map<TableKey, Decision> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Thread-safe decision engine bound to one machine (personalities are
/// invoked concurrently on the ThreadEngine).
class Tuner {
 public:
  explicit Tuner(const topo::Machine& machine);

  /// Observability out-params for one choose() call: whether the decision
  /// table already held the answer, and how many grid candidates were
  /// priced on a miss (0 on a hit). Call sites feed these to the trace
  /// recorder as kTune events.
  struct ChooseStats {
    bool cache_hit = false;
    int grid_priced = 0;
  };

  /// The tuned configuration for `op` over a `ranks`-member communicator at
  /// message size `bytes`: cached per (op, ranks, bucket(bytes)), computed on
  /// miss by pricing every candidate at the bucket's representative size.
  Decision choose(Op op, int ranks, Bytes bytes, ChooseStats* stats = nullptr);

  /// Every candidate in the grid with its prediction for (op, ranks,
  /// bucket(bytes)) — the guideline harness forces each of these in the
  /// simulator and checks the tuned choice is no worse.
  std::vector<Decision> candidates(Op op, int ranks, Bytes bytes) const;

  /// Model time of one explicit decision at the actual message size.
  TimeNs predict(Op op, int ranks, const Decision& decision, Bytes bytes) const;

  /// Message-size bucket: floor(log2(bytes)), 0 for bytes <= 1.
  static int bucket(Bytes bytes);
  /// The size a bucket's decisions are priced at (2^bucket).
  static Bytes bucket_bytes(int bucket);

  const topo::Machine& machine() const { return machine_; }

  // Decision-table access (serialised against concurrent choose()).
  std::string dump_json() const;
  bool load_json(const std::string& text, std::string* error);
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  int table_size() const;

 private:
  /// predict() over the dense-prefix communicator `comm`, rooted at 0.
  TimeNs predict_on(Op op, const mpi::Comm& comm, const Decision& decision,
                    Bytes bytes) const;

  const topo::Machine& machine_;
  CostModel model_;
  mutable std::mutex mutex_;
  DecisionTable table_;
};

/// The tree shape a decision names (the only Decision::topology switch).
coll::TreeShape decision_shape(const Decision& decision);

/// Maps a decision onto a concrete communicator: the tree coll::bcast/reduce
/// should run, build_tree() over decision_shape(). Built once per
/// (machine, root, shape) and cached on `comm` (coll::cached_tree); every
/// call returns a copy of the cached tree, so the result outlives a
/// temporary communicator. The tuned personality runs the same cached
/// tree in place.
coll::Tree decision_tree(const topo::Machine& machine, const mpi::Comm& comm,
                         Rank root, const Decision& decision);

/// The CollOpts segment size a decision implies for a concrete message.
Bytes decision_segment(const Decision& decision, Bytes message);

/// Short label for a decision — "topo-chain/s65536" — used as the trace
/// "winner" grouping key by kTune events (see adapt-trace summarize).
std::string decision_label(const Decision& decision);

/// The decision engine's trace hook, shared by the tuned personalities and
/// persistent init: bumps tuner.{hits,misses} and the tuner.bucket
/// histogram and emits the kTune "tune <winner>" instant carrying
/// `predicted`. Returns the winner label.
std::string trace_choice(obs::Recorder& rec, int pid,
                         const Tuner::ChooseStats& stats, Bytes message,
                         const Decision& decision, TimeNs predicted);

}  // namespace adapt::tune
