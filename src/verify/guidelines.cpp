#include "src/verify/guidelines.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/coll/coll.hpp"
#include "src/coll/moreops.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"
#include "src/support/parallel.hpp"
#include "src/topo/presets.hpp"

namespace adapt::verify {

const char* guideline_name(Guideline g) {
  switch (g) {
    case Guideline::kModelSim: return "model-sim";
    case Guideline::kTunedBest: return "tuned-best";
    case Guideline::kSegmentation: return "segmentation";
    case Guideline::kComposition: return "composition";
    case Guideline::kMonotone: return "monotone";
  }
  return "?";
}

bool guideline_from_name(const std::string& name, Guideline* out) {
  for (const Guideline g :
       {Guideline::kModelSim, Guideline::kTunedBest, Guideline::kSegmentation,
        Guideline::kComposition, Guideline::kMonotone}) {
    if (name == guideline_name(g)) {
      *out = g;
      return true;
    }
  }
  return false;
}

topo::Machine guideline_machine(const GuidelineCase& config) {
  if (config.cluster == "uniform") {
    // Every rank on its own single-core node, identical lanes, no local
    // overheads: the regime where Hockney is exact.
    topo::MachineSpec spec;
    spec.name = "uniform";
    spec.nodes = config.ranks;
    spec.sockets_per_node = 1;
    spec.cores_per_socket = 1;
    const topo::LinkParams lane{1000, 1.0 / 8.0};  // 1 us, 8 GB/s
    spec.intra_socket = spec.inter_socket = spec.inter_node = lane;
    spec.shm_parallel = 1.0;
    spec.memcpy_beta = 0.0;
    spec.unexpected_overhead = 0;
    spec.cpu_overhead = 0;
    return topo::Machine(spec, config.ranks);
  }
  return topo::Machine(topo::preset(config.cluster, config.nodes),
                       config.ranks);
}

std::string guideline_repro(const GuidelineCase& config, Guideline g) {
  std::ostringstream out;
  out << "guideline=" << guideline_name(g) << " cluster=" << config.cluster
      << " nodes=" << config.nodes << " ranks=" << config.ranks
      << " op=" << tune::op_name(config.op) << " bytes=" << config.bytes;
  return out.str();
}

bool parse_guideline_repro(const std::string& line, GuidelineCase* config,
                           Guideline* g) {
  GuidelineCase c;
  Guideline parsed_g = Guideline::kModelSim;
  bool have_g = false;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "guideline") {
        if (!guideline_from_name(value, &parsed_g)) return false;
        have_g = true;
      } else if (key == "cluster") {
        c.cluster = value;
      } else if (key == "nodes") {
        c.nodes = std::stoi(value);
      } else if (key == "ranks") {
        c.ranks = std::stoi(value);
      } else if (key == "op") {
        if (!tune::op_from_name(value, &c.op)) return false;
      } else if (key == "bytes") {
        c.bytes = std::stoll(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (!have_g) return false;
  *config = c;
  *g = parsed_g;
  return true;
}

namespace {

/// One engine run of (op, decision) over a world communicator on `machine`.
TimeNs run_sim(const topo::Machine& machine, tune::Op op,
               const coll::Tree& tree, coll::Style style,
               const coll::CollOpts& opts, Bytes bytes, long* sim_runs) {
  const mpi::Comm comm = mpi::Comm::world(machine.nranks());
  runtime::SimEngine engine(machine);
  mpi::MutView buffer{nullptr, bytes};  // synthetic payload: times, no data
  const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    if (op == tune::Op::kBcast) {
      co_await coll::bcast(ctx, comm, buffer, 0, tree, style, opts);
    } else {
      co_await coll::reduce(ctx, comm, buffer, mpi::ReduceOp::kSum,
                            mpi::Datatype::kFloat, 0, tree, style, opts);
    }
  };
  if (sim_runs) ++*sim_runs;
  return engine.run(program).total_time;
}

TimeNs simulate_sag(const topo::Machine& machine, Bytes bytes,
                    coll::AllgatherAlgo algo, long* sim_runs) {
  const mpi::Comm comm = mpi::Comm::world(machine.nranks());
  runtime::SimEngine engine(machine);
  mpi::MutView buffer{nullptr, bytes};
  const auto program = [&](runtime::Context& ctx) -> sim::Task<> {
    co_await coll::bcast_scatter_allgather(ctx, comm, buffer, 0, algo);
  };
  if (sim_runs) ++*sim_runs;
  return engine.run(program).total_time;
}

std::string show_decision(const tune::Decision& d) {
  std::ostringstream out;
  out << tune::topology_name(d.topology);
  if (d.topology == tune::Topology::kTopoKnomial) out << "/r" << d.radix;
  if (d.segment == 0)
    out << " seg=whole";
  else
    out << " seg=" << d.segment;
  return out.str();
}

double ms(TimeNs t) { return static_cast<double>(t) * 1e-6; }

std::string times_detail(const char* what, TimeNs tuned, TimeNs bound,
                         double tol, const std::string& extra) {
  std::ostringstream out;
  out.precision(4);
  out << what << ": tuned " << ms(tuned) << "ms > " << ms(bound)
      << "ms * (1 + " << tol << ")" << extra;
  return out.str();
}

bool within(TimeNs tuned, TimeNs bound, double tol) {
  return static_cast<double>(tuned) <=
         (1.0 + tol) * static_cast<double>(bound);
}

std::optional<std::string> check_one(const GuidelineCase& config, Guideline g,
                                     const GuidelineOptions& options,
                                     long* sim_runs) {
  const topo::Machine machine = guideline_machine(config);
  tune::Tuner tuner(machine);
  const int ranks = config.ranks;
  const tune::Op op = config.op;
  const Bytes bytes = config.bytes;

  const tune::Decision tuned = tuner.choose(op, ranks, bytes);
  const TimeNs t_tuned = simulate_decision(machine, op, ranks, tuned, bytes);
  if (sim_runs) ++*sim_runs;

  switch (g) {
    case Guideline::kModelSim: {
      const TimeNs predicted = tuner.predict(op, ranks, tuned, bytes);
      const double err =
          std::abs(static_cast<double>(predicted) -
                   static_cast<double>(t_tuned)) /
          std::max(1.0, static_cast<double>(t_tuned));
      if (err <= options.model_tolerance) return std::nullopt;
      std::ostringstream out;
      out.precision(4);
      out << "model-sim: predicted " << ms(predicted) << "ms vs simulated "
          << ms(t_tuned) << "ms, error " << err << " > tolerance "
          << options.model_tolerance << " [" << show_decision(tuned) << "]";
      return out.str();
    }

    case Guideline::kTunedBest: {
      for (const tune::Decision& cand : tuner.candidates(op, ranks, bytes)) {
        const TimeNs t =
            simulate_decision(machine, op, ranks, cand, bytes);
        if (sim_runs) ++*sim_runs;
        if (!within(t_tuned, t, options.sim_tolerance))
          return times_detail("tuned-best", t_tuned, t, options.sim_tolerance,
                              " [tuned " + show_decision(tuned) +
                                  " vs candidate " + show_decision(cand) +
                                  "]");
      }
      return std::nullopt;
    }

    case Guideline::kSegmentation: {
      // Above the pipeline threshold the tuned (possibly segmented) choice
      // must not lose to forcing one whole-message segment.
      if (bytes <= kib(64)) return std::nullopt;  // below the threshold
      tune::Decision whole = tuned;
      whole.segment = 0;
      const TimeNs t_whole =
          simulate_decision(machine, op, ranks, whole, bytes);
      if (sim_runs) ++*sim_runs;
      if (within(t_tuned, t_whole, options.sim_tolerance)) return std::nullopt;
      return times_detail("segmentation", t_tuned, t_whole,
                          options.sim_tolerance,
                          " [tuned " + show_decision(tuned) +
                              " vs whole-message]");
    }

    case Guideline::kComposition: {
      if (op != tune::Op::kBcast) return std::nullopt;
      TimeNs bound = simulate_sag(machine, bytes, coll::AllgatherAlgo::kRing,
                                  sim_runs);
      if ((ranks & (ranks - 1)) == 0)
        bound = std::min(
            bound, simulate_sag(machine, bytes,
                                coll::AllgatherAlgo::kRecursiveDoubling,
                                sim_runs));
      if (within(t_tuned, bound, options.sim_tolerance)) return std::nullopt;
      return times_detail("composition", t_tuned, bound, options.sim_tolerance,
                          " [bcast must not lose to scatter+allgather]");
    }

    case Guideline::kMonotone: {
      const Bytes half = bytes / 2;
      if (half < 1) return std::nullopt;
      const tune::Decision small = tuner.choose(op, ranks, half);
      const TimeNs t_half =
          simulate_decision(machine, op, ranks, small, half);
      if (sim_runs) ++*sim_runs;
      if (within(t_half, t_tuned, options.sim_tolerance)) return std::nullopt;
      return times_detail("monotone", t_half, t_tuned, options.sim_tolerance,
                          " [T(m/2) exceeds T(m), m=" +
                              std::to_string(bytes) + "]");
    }
  }
  ADAPT_UNREACHABLE("bad guideline");
}

/// Greedy shrink: halve bytes, then ranks (and nodes with them), while the
/// check still fails; bounded re-runs keep replay cheap.
GuidelineCase shrink_guideline(const GuidelineCase& config, Guideline g,
                               const GuidelineOptions& options,
                               long* sim_runs) {
  GuidelineCase best = config;
  int budget = 10;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    std::vector<GuidelineCase> smaller;
    if (best.bytes > 4096) {
      GuidelineCase c = best;
      c.bytes /= 2;
      smaller.push_back(c);
    }
    if (best.ranks > 4) {
      GuidelineCase c = best;
      c.ranks = std::max(4, best.ranks / 2);
      smaller.push_back(c);
    }
    if (best.nodes > 1 && best.cluster != "uniform") {
      GuidelineCase c = best;
      c.nodes = best.nodes / 2;
      c.ranks = std::min(c.ranks, c.nodes * 64);  // keep within capacity
      smaller.push_back(c);
    }
    for (const GuidelineCase& c : smaller) {
      if (budget <= 0) break;
      --budget;
      if (check_one(c, g, options, sim_runs)) {
        best = c;
        progress = true;
        break;
      }
    }
  }
  return best;
}

std::vector<Guideline> applicable(const GuidelineCase& config) {
  std::vector<Guideline> out{Guideline::kModelSim, Guideline::kTunedBest,
                             Guideline::kSegmentation, Guideline::kMonotone};
  if (config.op == tune::Op::kBcast) out.push_back(Guideline::kComposition);
  return out;
}

}  // namespace

TimeNs simulate_decision(const topo::Machine& machine, tune::Op op, int ranks,
                         const tune::Decision& decision, Bytes bytes) {
  ADAPT_CHECK(ranks == machine.nranks())
      << "guideline sims run on a machine sized to the communicator";
  const mpi::Comm comm = mpi::Comm::world(ranks);
  const coll::Tree tree = tune::decision_tree(machine, comm, 0, decision);
  coll::CollOpts opts;
  opts.segment_size = tune::decision_segment(decision, bytes);
  return run_sim(machine, op, tree, coll::Style::kAdapt, opts, bytes, nullptr);
}

std::optional<std::string> check_guideline(const GuidelineCase& config,
                                           Guideline g,
                                           const GuidelineOptions& options,
                                           long* sim_runs) {
  return check_one(config, g, options, sim_runs);
}

std::vector<GuidelineCase> guideline_sweep() {
  std::vector<GuidelineCase> cases;
  struct ClusterPick {
    const char* cluster;
    int nodes;
  };
  for (const ClusterPick pick : {ClusterPick{"cori", 2},
                                 ClusterPick{"stampede2", 2},
                                 ClusterPick{"uniform", 0}}) {
    for (const int ranks : {8, 24}) {
      for (const tune::Op op : {tune::Op::kBcast, tune::Op::kReduce}) {
        for (const Bytes bytes : {kib(64), kib(512), mib(2)}) {
          GuidelineCase c;
          c.cluster = pick.cluster;
          c.nodes = pick.cluster == std::string("uniform") ? ranks : pick.nodes;
          c.ranks = ranks;
          c.op = op;
          c.bytes = bytes;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

std::string GuidelineReport::summary() const {
  std::ostringstream out;
  out << cases << " cases, " << checks << " guideline checks, " << sim_runs
      << " sim runs: ";
  if (failures.empty()) {
    out << "all guidelines hold";
  } else {
    out << failures.size() << " VIOLATION(S)";
    for (const GuidelineFailure& f : failures)
      out << "\n  " << f.repro << "\n    " << f.detail;
  }
  return out.str();
}

GuidelineReport run_guidelines(const std::vector<GuidelineCase>& cases,
                               const GuidelineOptions& options) {
  struct Slot {
    std::vector<GuidelineFailure> failures;
    long sim_runs = 0;
    int checks = 0;
  };
  std::vector<Slot> slots(cases.size());

  support::parallel_for(
      std::max(1, options.jobs), static_cast<int>(cases.size()), [&](int i) {
        const GuidelineCase& config = cases[static_cast<std::size_t>(i)];
        Slot& slot = slots[static_cast<std::size_t>(i)];
        for (const Guideline g : applicable(config)) {
          const std::string repro = guideline_repro(config, g);
          if (options.on_run) options.on_run(repro);
          ++slot.checks;
          auto detail = check_one(config, g, options, &slot.sim_runs);
          if (!detail) continue;
          GuidelineCase shrunk = config;
          if (options.shrink) {
            shrunk = shrink_guideline(config, g, options, &slot.sim_runs);
            // Re-derive the detail for the minimised case.
            if (auto d = check_one(shrunk, g, options, &slot.sim_runs))
              detail = d;
          }
          GuidelineFailure failure;
          failure.config = shrunk;
          failure.guideline = g;
          failure.detail = *detail;
          failure.repro = guideline_repro(shrunk, g);
          slot.failures.push_back(failure);
          if (options.log)
            options.log("GUIDELINE VIOLATION: " + failure.repro + "\n  " +
                        failure.detail);
        }
      });

  GuidelineReport report;
  report.cases = static_cast<int>(cases.size());
  for (const Slot& slot : slots) {  // index order: jobs-invariant report
    report.checks += slot.checks;
    report.sim_runs += slot.sim_runs;
    report.failures.insert(report.failures.end(), slot.failures.begin(),
                           slot.failures.end());
  }
  return report;
}

std::string dump_decision_tables(const std::vector<GuidelineCase>& cases) {
  // One tuner per distinct machine, filled with the sweep's decisions.
  std::vector<std::string> seen;
  std::ostringstream out;
  out << "{\n\"schema\": \"adapt-decision-tables-v1\",\n\"tables\": [\n";
  bool first_table = true;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GuidelineCase& c = cases[i];
    const std::string machine_key =
        c.cluster + "/" + std::to_string(c.nodes) + "/" +
        std::to_string(c.ranks);
    if (std::find(seen.begin(), seen.end(), machine_key) != seen.end())
      continue;
    seen.push_back(machine_key);
    const topo::Machine machine = guideline_machine(c);
    tune::Tuner tuner(machine);
    for (const GuidelineCase& other : cases) {
      if (other.cluster != c.cluster || other.nodes != c.nodes ||
          other.ranks != c.ranks)
        continue;
      tuner.choose(other.op, other.ranks, other.bytes);
    }
    if (!first_table) out << ",\n";
    first_table = false;
    out << tuner.dump_json();
  }
  out << "\n]\n}\n";
  return out.str();
}

}  // namespace adapt::verify
