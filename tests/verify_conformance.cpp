// Standalone conformance driver (registered with ctest as
// `verify_conformance`, chaos mode as `verify_chaos`).
//
// Default run, in order:
//   1. the full matrix — every collective × style × library × datatype/op ×
//      communicator subset, each on the stable SimEngine schedule, on
//      --seeds perturbed schedules, and on the ThreadEngine, diffed against
//      the sequential oracle;
//   2. a harness self-test — the same machinery pointed at a deliberately
//      buggy gather (wildcard-source arrival-order assumption) MUST report a
//      failure with a reproducer seed, proving the perturbation matrix
//      catches what it claims to catch.
//
// --chaos appends (and --chaos-only substitutes) the chaos matrix: every
// case re-run under seeded fault schedules (drops, corruption, delay, link
// outages, rank deaths) with the fault-tolerant runtime enabled, classified
// by run_case's chaos rules (byte-exact OR one consistent error code on
// every live rank). Chaos mode carries its own self-test: the same fault
// schedules pointed at the seed's non-retransmitting protocols MUST be
// caught by the classifier.
//
// A wall-clock watchdog guards every run: if a single case hangs the
// process longer than --watchdog seconds, the driver prints the exact repro
// line of the stuck run and exits 3 instead of hanging CI.
//
// A reported failure line is replayable:  verify_conformance --repro '<line>'.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "src/support/parallel.hpp"
#include "src/verify/chaos.hpp"
#include "src/verify/conformance.hpp"

namespace {

using namespace adapt;
using namespace adapt::verify;

int usage() {
  std::cerr
      << "usage: verify_conformance [--seeds=K] [--jitter=NS] [--no-thread]\n"
         "                          [--no-shrink] [--no-selftest]\n"
         "                          [--han-only]\n"
         "                          [--chaos] [--chaos-only]\n"
         "                          [--soft-seeds=K] [--kill-seeds=K]\n"
         "                          [--watchdog=SECONDS]  (0 disables)\n"
         "                          [--jobs=N]  (0 = all hardware threads)\n"
         "                          [--shards=N]\n"
         "                          [--trace-dir=DIR]\n"
         "                          [--repro '<failure line>']\n"
         "--shards: also run every eligible case on the sharded engine, at 1\n"
         "shard and at N shards, under the stable schedule — the sharded\n"
         "rows must report byte-identically for any N and any --jobs — and\n"
         "once per sharded run on the uncontended SimEngine, whose per-rank\n"
         "finish times every sharded run must match.\n"
         "--han-only: restrict the conformance matrix to the HAN two-level\n"
         "rows (ppn > 0) — the CI TSan subset.\n"
         "--jobs: run matrix cases on N worker threads. Every run is an\n"
         "independent deterministic engine, so the report is identical for\n"
         "any N; only wall clock changes.\n"
         "--trace-dir: re-run every shrunken failure (and any --repro that\n"
         "reproduces) with the obs recorder and write a Perfetto trace\n"
         "(failure-N.trace.json) into DIR; a sharded-engine failure also\n"
         "writes the uncontended SimEngine's (failure-N.reference.trace.json)\n"
         "for adapt-trace diff.\n";
  return 2;
}

/// Wall-clock deadman switch: every run publishes its repro line before it
/// starts; if no run finishes for `limit` seconds the watchdog prints that
/// line and hard-exits. This turns an engine deadlock (a bug this PR's
/// virtual-time watchdogs are supposed to make impossible) into a failed,
/// replayable ctest run instead of a CI timeout with no information.
class Watchdog {
 public:
  explicit Watchdog(long limit_seconds) : limit_(limit_seconds) {
    if (limit_ > 0) thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  void tick(const std::string& repro) {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = repro;
    last_ = std::chrono::steady_clock::now();
  }

 private:
  void loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      std::lock_guard<std::mutex> lock(mutex_);
      const auto stuck = std::chrono::steady_clock::now() - last_;
      if (stuck > std::chrono::seconds(limit_)) {
        std::cerr << "WATCHDOG: a run exceeded " << limit_
                  << "s of wall clock; likely deadlocked.\n  repro: "
                  << (current_.empty() ? "<none started>" : current_) << "\n";
        std::_Exit(3);
      }
    }
  }

  const long limit_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::string current_;
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
  std::thread thread_;
};

int replay(const std::string& line, const std::string& trace_dir) {
  CaseConfig config;
  RunSpec spec;
  Fault fault = Fault::kNone;
  if (!parse_repro(line, &config, &spec, &fault)) {
    std::cerr << "unparseable repro line: " << line << "\n";
    return 2;
  }
  std::cout << "replaying: " << repro_string(config, spec, fault) << "\n";
  if (auto mismatch = run_case(config, spec, fault)) {
    std::cout << "REPRODUCED: " << *mismatch << "\n";
    if (!trace_dir.empty()) {
      const std::string path =
          write_failure_trace(config, spec, fault, trace_dir, 0);
      if (!path.empty()) std::cout << "trace: " << path << "\n";
    }
    return 1;
  }
  std::cout << "case passed (bug not reproduced)\n";
  return 0;
}

/// The seeded-fault self-test: the faulty gather must slip through the stable
/// schedule's rank-order arrivals but be caught by some perturbation seed.
bool selftest(int seeds, TimeNs jitter, Watchdog& watchdog) {
  CaseConfig config;
  config.collective = Collective::kGather;
  config.world = 12;
  config.comm = CommKind::kWorld;
  config.root = 1;
  config.bytes = 1000;

  MatrixOptions options;
  options.sim_seeds = seeds;
  options.max_jitter = jitter;
  options.thread_engine = false;  // keep the self-test deterministic
  options.fault = Fault::kGatherArrivalOrder;
  options.on_run = [&](const std::string& repro) { watchdog.tick(repro); };
  Report report = run_matrix({config}, options);
  if (report.ok()) {
    std::cout << "SELF-TEST FAILED: no perturbation seed caught the seeded "
                 "arrival-order fault ("
              << report.runs << " runs)\n";
    return false;
  }
  const Failure& failure = report.failures.front();
  std::cout << "self-test: harness caught the seeded fault under "
               "perturbation seed "
            << failure.spec.perturb_seed << "\n  repro: " << failure.repro
            << "\n  " << failure.detail << "\n";
  return true;
}

/// The chaos self-test: the same fault schedules, but with the reliability
/// protocol disabled (Fault::kNoRetransmit) — the seed's perfect-delivery
/// protocols meet a lossy fabric. The chaos classifier must report at least
/// one failure (hung ranks, one-sided errors, or corrupted payloads
/// delivered as success); if it stays green it cannot be trusted to certify
/// the fault-tolerant runtime either.
bool chaos_selftest(int soft_seeds, Watchdog& watchdog) {
  CaseConfig config;
  config.collective = Collective::kBcast;
  config.style = coll::Style::kAdapt;
  config.world = 8;
  config.comm = CommKind::kWorld;
  config.root = 1;
  config.bytes = 3000;
  config.segment = 256;
  config.data_seed = 77;

  ChaosOptions options;
  options.soft_seeds = std::max(3, soft_seeds);
  options.kill_seeds = 0;
  options.perturb = false;
  options.shrink = false;
  options.fault = Fault::kNoRetransmit;
  options.on_run = [&](const std::string& repro) { watchdog.tick(repro); };
  Report report = run_chaos_matrix({config}, options);
  if (report.ok()) {
    std::cout << "CHAOS SELF-TEST FAILED: no fault schedule caught the "
                 "non-retransmitting protocol ("
              << report.runs << " runs)\n";
    return false;
  }
  const Failure& failure = report.failures.front();
  std::cout << "chaos self-test: classifier caught the non-retransmitting "
               "protocol under fault seed "
            << failure.spec.chaos_seed << "\n  repro: " << failure.repro
            << "\n  " << failure.detail << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 20;
  TimeNs jitter = microseconds(5);
  bool thread_engine = true;
  bool shrink = true;
  bool run_selftest = true;
  bool chaos = false;
  bool chaos_only = false;
  bool han_only = false;
  int soft_seeds = 6;
  int kill_seeds = 4;
  long watchdog_seconds = 120;
  int jobs = 1;
  int sharded_shards = 0;
  std::string trace_dir;
  std::string repro_line;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      seeds = std::stoi(arg.substr(8));
    } else if (arg.rfind("--jitter=", 0) == 0) {
      jitter = std::stoll(arg.substr(9));
    } else if (arg == "--no-thread") {
      thread_engine = false;
    } else if (arg == "--no-shrink") {
      shrink = false;
    } else if (arg == "--no-selftest") {
      run_selftest = false;
    } else if (arg == "--han-only") {
      han_only = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--chaos-only") {
      chaos = chaos_only = true;
    } else if (arg.rfind("--soft-seeds=", 0) == 0) {
      soft_seeds = std::stoi(arg.substr(13));
    } else if (arg.rfind("--kill-seeds=", 0) == 0) {
      kill_seeds = std::stoi(arg.substr(13));
    } else if (arg.rfind("--watchdog=", 0) == 0) {
      watchdog_seconds = std::stol(arg.substr(11));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::stoi(arg.substr(7));
      if (jobs <= 0) jobs = support::hardware_jobs();
    } else if (arg.rfind("--shards=", 0) == 0) {
      sharded_shards = std::stoi(arg.substr(9));
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      trace_dir = arg.substr(12);
    } else if (arg == "--repro" && i + 1 < argc) {
      repro_line = argv[++i];
    } else {
      return usage();
    }
  }
  if (!repro_line.empty()) return replay(repro_line, trace_dir);

  Watchdog watchdog(watchdog_seconds);
  const auto log = [](const std::string& line) { std::cerr << line << "\n"; };
  const auto on_run = [&](const std::string& repro) { watchdog.tick(repro); };

  if (!chaos_only) {
    MatrixOptions options;
    options.sim_seeds = seeds;
    options.max_jitter = jitter;
    options.thread_engine = thread_engine;
    options.shrink = shrink;
    options.jobs = jobs;
    options.log = log;
    options.on_run = on_run;
    options.trace_dir = trace_dir;
    options.sharded_shards = sharded_shards;

    std::vector<CaseConfig> cases = full_matrix();
    if (han_only) {
      std::erase_if(cases, [](const CaseConfig& c) { return c.ppn == 0; });
    }
    std::cout << "conformance matrix: " << cases.size()
              << " cases × (1 stable + " << seeds << " perturbed"
              << (thread_engine ? " + 1 thread" : "");
    if (sharded_shards > 0) {
      std::cout << " + sharded@{1," << sharded_shards << "}";
    }
    std::cout << ") runs\n";
    const Report report = run_matrix(cases, options);
    std::cout << report.summary() << "\n";
    if (!report.ok()) {
      std::cout << "replay any line with: verify_conformance --repro '<line>'\n";
      return 1;
    }
    if (run_selftest && !selftest(seeds, jitter, watchdog)) return 1;
  }

  if (chaos) {
    ChaosOptions options;
    options.soft_seeds = soft_seeds;
    options.kill_seeds = kill_seeds;
    options.shrink = shrink;
    options.jobs = jobs;
    options.log = log;
    options.on_run = on_run;
    options.trace_dir = trace_dir;

    const std::vector<CaseConfig> cases = chaos_matrix();
    std::cout << "chaos matrix: " << cases.size() << " cases × (" << soft_seeds
              << " soft + " << kill_seeds << " kill) fault schedules × "
              << "(stable + perturbed) runs\n";
    const Report report = run_chaos_matrix(cases, options);
    std::cout << report.summary() << "\n";
    if (!report.ok()) {
      std::cout << "replay any line with: verify_conformance --repro '<line>'\n";
      return 1;
    }
    if (run_selftest && !chaos_selftest(soft_seeds, watchdog)) return 1;
  }

  std::cout << "OK\n";
  return 0;
}

// The self-tests' faults live in src/verify/faulty.cpp (arrival order) and
// in run_case's kNoRetransmit branch (reliability disabled under chaos);
// this deliberate wiring keeps the ctest targets self-certifying: a green
// run proves both "all collectives conform" and "the harness can actually
// see a bug".
