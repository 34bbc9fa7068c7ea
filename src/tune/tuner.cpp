#include "src/tune/tuner.hpp"

#include <algorithm>
#include <sstream>

#include "src/coll/shape.hpp"
#include "src/obs/trace.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace adapt::tune {

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kTopoChain: return "topo-chain";
    case Topology::kTopoKnomial: return "topo-knomial";
    case Topology::kBinomial: return "binomial";
    case Topology::kChain: return "chain";
    case Topology::kHan: return "han";
  }
  return "?";
}

bool topology_from_name(const std::string& name, Topology* out) {
  for (const Topology t : {Topology::kTopoChain, Topology::kTopoKnomial,
                           Topology::kBinomial, Topology::kChain,
                           Topology::kHan}) {
    if (name == topology_name(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- DecisionTable ---

std::optional<Decision> DecisionTable::find(const TableKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void DecisionTable::insert(const TableKey& key, const Decision& decision) {
  map_[key] = decision;
}

std::string DecisionTable::dump_json() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"adapt-decision-table-v1\",\n  \"machine\": "
      << json_quote(machine_) << ",\n  \"decisions\": [";
  bool first = true;
  for (const auto& [key, d] : map_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"op\": " << json_quote(op_name(key.op))
        << ", \"ranks\": " << key.ranks << ", \"bucket\": " << key.bucket
        << ", \"topology\": " << json_quote(topology_name(d.topology))
        << ", \"radix\": " << d.radix << ", \"segment\": " << d.segment
        << ", \"predicted\": " << d.predicted << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool DecisionTable::load_json(const std::string& text, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  try {
    const JsonValue doc = parse_json(text);
    if (!doc.has("schema") ||
        doc.at("schema").as_string() != "adapt-decision-table-v1")
      return fail("not an adapt-decision-table-v1 document");
    const std::string recorded = doc.at("machine").as_string();
    if (recorded != machine_)
      return fail("decision table was tuned for a different machine:\n  table:   " +
                  recorded + "\n  current: " + machine_);
    std::map<TableKey, Decision> loaded;
    for (const JsonValue& entry : doc.at("decisions").as_array()) {
      TableKey key;
      if (!op_from_name(entry.at("op").as_string(), &key.op))
        return fail("unknown op \"" + entry.at("op").as_string() + "\"");
      key.ranks = static_cast<int>(entry.at("ranks").as_int());
      key.bucket = static_cast<int>(entry.at("bucket").as_int());
      Decision d;
      if (!topology_from_name(entry.at("topology").as_string(), &d.topology))
        return fail("unknown topology \"" + entry.at("topology").as_string() +
                    "\"");
      d.radix = static_cast<int>(entry.at("radix").as_int());
      d.segment = entry.at("segment").as_int();
      d.predicted = entry.at("predicted").as_int();
      loaded[key] = d;
    }
    map_ = std::move(loaded);
    hits_ = misses_ = 0;
    return true;
  } catch (const Error& e) {
    return fail(e.what());
  }
}

// ---------------------------------------------------------------- Tuner ---

namespace {

/// Segment-size grid; the trailing 0 is the whole-message candidate.
constexpr Bytes kSegments[] = {kib(16), kib(32), kib(64), kib(128), 0};
/// Radix grid for the k-nomial topology families.
constexpr int kRadices[] = {2, 4};
/// Tuned plans run the ADAPT style at γ 1.0 (library.cpp), so the model
/// prices them that way.
constexpr coll::Style kStyle = coll::Style::kAdapt;
constexpr double kGammaScale = 1.0;

}  // namespace

Tuner::Tuner(const topo::Machine& machine)
    : machine_(machine), model_(machine), table_(machine.fingerprint()) {}

int Tuner::bucket(Bytes bytes) {
  int b = 0;
  for (Bytes v = bytes; v > 1; v >>= 1) ++b;
  return b;
}

Bytes Tuner::bucket_bytes(int bucket) { return Bytes{1} << bucket; }

std::vector<Decision> Tuner::candidates(Op op, int ranks, Bytes bytes) const {
  ADAPT_CHECK(ranks >= 1 && ranks <= machine_.nranks())
      << "cannot tune a " << ranks << "-rank communicator on a "
      << machine_.nranks() << "-rank machine";
  const Bytes rep = bucket_bytes(bucket(bytes));

  std::vector<Decision> out;
  const auto price = [&](Decision d) {
    d.predicted = predict(op, ranks, d, rep);
    out.push_back(d);
  };
  // Two-level HAN candidates only exist on machines with a first-class SHM
  // channel, and only when the (dense-prefix) communicator spans more than
  // one node — a single-node comm's HAN tree degenerates to the flat shape.
  // Gating keeps the default grid byte-identical on every legacy machine.
  const bool han = machine_.spec().has_shm_channel() &&
                   ranks > machine_.spec().cores_per_node();
  for (const Bytes seg : kSegments) {
    price({Topology::kTopoChain, 4, seg, 0});
    for (const int radix : kRadices)
      price({Topology::kTopoKnomial, radix, seg, 0});
    price({Topology::kBinomial, 4, seg, 0});
    if (han)
      for (const int radix : kRadices)
        price({Topology::kHan, radix, seg, 0});
  }
  return out;
}

TimeNs Tuner::predict(Op op, int ranks, const Decision& decision,
                      Bytes bytes) const {
  const mpi::Comm comm = mpi::Comm::world(ranks);
  const coll::Tree tree = decision_tree(machine_, comm, /*root=*/0, decision);
  Workload work;
  work.op = op;
  work.style = kStyle;
  work.bytes = bytes;
  work.segment = decision_segment(decision, bytes);
  work.gamma_scale = kGammaScale;
  return model_.predict(work, comm, tree);
}

Decision Tuner::choose(Op op, int ranks, Bytes bytes, ChooseStats* stats) {
  const TableKey key{op, ranks, bucket(bytes)};
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto cached = table_.find(key)) {
    if (stats != nullptr) *stats = ChooseStats{true, 0};
    return *cached;
  }
  const std::vector<Decision> grid = candidates(op, ranks, bytes);
  if (stats != nullptr) {
    *stats = ChooseStats{false, static_cast<int>(grid.size())};
  }
  const Decision best = *std::min_element(
      grid.begin(), grid.end(), [](const Decision& a, const Decision& b) {
        return a.predicted < b.predicted;  // grid order breaks ties
      });
  table_.insert(key, best);
  return best;
}

std::string Tuner::dump_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.dump_json();
}

bool Tuner::load_json(const std::string& text, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.load_json(text, error);
}

std::uint64_t Tuner::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.hits();
}

std::uint64_t Tuner::cache_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.misses();
}

int Tuner::table_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.size();
}

// ---------------------------------------------------------- application ---

coll::TreeShape decision_shape(const Decision& decision) {
  switch (decision.topology) {
    case Topology::kTopoChain: return coll::TopoTreeSpec{};
    case Topology::kTopoKnomial:
      return coll::TopoTreeSpec{coll::TreeKind::kKNomial,
                                coll::TreeKind::kKNomial,
                                coll::TreeKind::kKNomial, decision.radix};
    case Topology::kBinomial:
      return coll::RankOrderShape{coll::TreeKind::kBinomial};
    case Topology::kChain: return coll::RankOrderShape{coll::TreeKind::kChain};
    case Topology::kHan:
      return coll::TwoLevelShape{.radix = decision.radix};
  }
  ADAPT_UNREACHABLE("bad tuned topology");
}

coll::Tree decision_tree(const topo::Machine& machine, const mpi::Comm& comm,
                         Rank root, const Decision& decision) {
  return coll::build_tree(machine, comm, root, decision_shape(decision));
}

Bytes decision_segment(const Decision& decision, Bytes message) {
  if (decision.segment == 0) return std::max<Bytes>(1, message);
  return decision.segment;
}

std::string decision_label(const Decision& decision) {
  std::ostringstream ss;
  ss << topology_name(decision.topology) << "/s" << decision.segment;
  return ss.str();
}

std::string trace_choice(obs::Recorder& rec, int pid,
                         const Tuner::ChooseStats& stats, Bytes message,
                         const Decision& decision, TimeNs predicted) {
  obs::MetricsRegistry& m = rec.metrics();
  m.counter(stats.cache_hit ? "tuner.hits" : "tuner.misses") += 1;
  m.histogram("tuner.bucket").record(Tuner::bucket(message));
  std::string winner = decision_label(decision);
  rec.instant(pid, obs::kTidMain, obs::Cat::kTune, "tune " + winner,
              rec.now(), predicted);
  return winner;
}

}  // namespace adapt::tune
