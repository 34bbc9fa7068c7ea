#include "src/runtime/sharded_engine.hpp"

#include <algorithm>
#include <limits>

#include "src/mpi/reliable.hpp"
#include "src/obs/merge.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

namespace {

constexpr TimeNs kInf = std::numeric_limits<TimeNs>::max();

}  // namespace

// ------------------------------------------------------------- RankHost ---

net::Route ShardedEngine::route(Rank src, MemSpace src_space, Rank dst,
                                MemSpace dst_space) {
  ADAPT_CHECK(src_space == MemSpace::kHost && dst_space == MemSpace::kHost)
      << "the sharded engine is host-only; use SimEngine for GPU runs";
  const topo::RouteCost rc = topo_->route(src, dst);
  net::Route route;
  route.alpha = rc.alpha;
  route.per_flow_cap = 1.0 / rc.beta_ns_per_byte;
  return route;
}

// --------------------------------------------------------- ShardedEngine ---

ShardedEngine::ShardedEngine(const topo::Machine& machine,
                             ShardedEngineOptions options)
    : machine_(machine),
      options_(std::move(options)),
      machine_topo_(machine),
      topo_(options_.topology ? options_.topology : &machine_topo_),
      map_(topo::make_shard_map(*topo_, std::max(options_.shards, 1))),
      keys_(machine.nranks()),
      core_(*this, machine, legs_, pool_, options_.noise),
      legs_(*this, core_, machine, map_.shards) {
  const int n = machine_.nranks();
  ADAPT_CHECK(topo_->nranks() == n)
      << "topology describes " << topo_->nranks() << " ranks but the machine "
      << "places " << n;
  ADAPT_CHECK(options_.shards >= 1);

  lookahead_ = topo_->min_cross_block_alpha();
  ADAPT_CHECK(map_.shards == 1 || lookahead_ > 0)
      << "conservative sharding needs positive cross-block latency";

  shards_.reserve(static_cast<std::size_t>(map_.shards));
  for (int s = 0; s < map_.shards; ++s) {
    // Steady-state bound on the same-time cohort and radix levels: a few
    // in-flight events per local rank plus the historical floor, so shard
    // queues never reallocate mid-run (pinned by the allocation regression
    // test).
    const std::size_t local = map_.ranks[static_cast<std::size_t>(s)].size();
    shards_.push_back(std::make_unique<Shard>(local * 4 + 64));
    shards_.back()->outbox.resize(static_cast<std::size_t>(map_.shards));
  }
  if (map_.shards > 1) {
    workers_ = std::make_unique<support::ShardPool>(map_.shards);
  }

  if (options_.recorder && options_.recorder->enabled()) {
    options_.recorder->init_ranks(n);
  }
}

ShardedEngine::~ShardedEngine() { core_.abandon(); }

void ShardedEngine::schedule(Rank producer, Rank at, TimeNs t,
                             sim::EventFn&& fn) {
  const int from = shard_of(producer);
  const int to = shard_of(at);
  const std::uint64_t key = keys_.next(producer);
  if (from == to) {
    shards_[static_cast<std::size_t>(to)]->queue.push(t, key, std::move(fn));
    return;
  }
  // Cross-shard: t is at least this window's end (route alpha >= lookahead),
  // so delivery at the next round's drain is never late.
  Shard& sh = *shards_[static_cast<std::size_t>(from)];
  sh.outbox[static_cast<std::size_t>(to)][epoch_ & 1].push_back(
      Msg{t, key, std::move(fn)});
}

TimeNs ShardedEngine::pending_min(const Shard& sh) const {
  // peek_min_time, not next_time: this is a between-rounds probe, and
  // committing the queue's monotone cursor to a far-future local event would
  // reject legitimate nearer cross-shard messages drained next round.
  TimeNs t = sh.queue.empty() ? kInf : sh.queue.peek_min_time();
  for (const auto& box : sh.outbox) {
    for (const auto& epoch : box) {
      for (const Msg& m : epoch) t = std::min(t, m.time);
    }
  }
  return t;
}

void ShardedEngine::round(int s, TimeNs window) {
  Shard& sh = *shards_[static_cast<std::size_t>(s)];
  try {
    support::FrameArena::Scope frames(&sh.arena);
    // Drain the off-epoch inboxes: everything peers appended last round.
    const std::size_t prev = (epoch_ + 1) & 1;
    for (auto& peer : shards_) {
      auto& box = peer->outbox[static_cast<std::size_t>(s)][prev];
      for (Msg& m : box) sh.queue.push(m.time, m.key, std::move(m.fn));
      box.clear();
    }
    // peek_min_time for the guard too: evaluating it on an idle shard must
    // not commit the cursor past messages the next drain will deliver. pop()
    // advances the cursor only to events actually executed (< window).
    while (!sh.queue.empty() && sh.queue.peek_min_time() < window) {
      sim::Event ev = sh.queue.pop();
      sh.now = ev.time;
      ev.fn();
    }
  } catch (...) {
    sh.fatal = std::current_exception();
  }
}

RunResult ShardedEngine::run(const RankProgram& program) {
  const int n = machine_.nranks();
  const int S = shards();
  obs::Recorder* out = (options_.recorder && options_.recorder->enabled())
                           ? options_.recorder.get()
                           : nullptr;
  std::uint64_t scheduled_before = 0;
  if (out != nullptr) {
    for (auto& sh : shards_) {
      sh->rec = std::make_unique<obs::Recorder>(true);
      sh->rec->init_ranks(n);
      Shard* p = sh.get();
      sh->rec->set_clock([p] { return p->now; });
    }
    for (Rank r = 0; r < n; ++r) {
      endpoint(r).set_recorder(shard_for(r).rec.get());
    }
    scheduled_before = total_scheduled();
  }

  // Re-align the shard clocks before reusing the engine: each shard's clock
  // stopped at its OWN last event of the previous run, and the conservative
  // window protocol is only sound when clocks start within the lookahead of
  // each other. The alignment point — the time of the globally last event —
  // is shard-invariant, so back-to-back runs stay byte-identical for any
  // shard count (it is exactly where the single-shard clock already is).
  TimeNs start_time = 0;
  for (const auto& sh : shards_) start_time = std::max(start_time, sh->now);
  for (auto& sh : shards_) {
    sh->now = start_time;
    sh->fatal = nullptr;
  }

  core_.launch(program);

  if (S == 1) {
    Shard& sh = *shards_[0];
    support::FrameArena::Scope frames(&sh.arena);
    while (!sh.queue.empty()) {
      sim::Event ev = sh.queue.pop();
      sh.now = ev.time;
      ev.fn();
    }
  } else {
    while (true) {
      TimeNs horizon = kInf;
      for (const auto& sh : shards_) {
        horizon = std::min(horizon, pending_min(*sh));
      }
      if (horizon == kInf) break;
      const TimeNs window =
          horizon > kInf - lookahead_ ? kInf : horizon + lookahead_;
      workers_->run_round([this, window](int s) { round(s, window); });
      ++epoch_;
      for (const auto& sh : shards_) {
        if (sh->fatal) std::rethrow_exception(sh->fatal);
      }
    }
  }

  if (out != nullptr) {
    std::vector<const obs::Recorder*> parts;
    parts.reserve(shards_.size());
    for (const auto& sh : shards_) parts.push_back(sh->rec.get());
    obs::merge_recorders(parts, *out);
    out->queue_stats().scheduled += total_scheduled() - scheduled_before;
    // The rank-state gauge and its components: cumulative, shard-invariant
    // quantities only (peaks and pool-cache occupancy are interleaving-
    // dependent and must never reach byte-compared output).
    core_.record_state(out->metrics(), frame_bytes());
    for (Rank r = 0; r < n; ++r) endpoint(r).set_recorder(nullptr);
    for (auto& sh : shards_) sh->rec.reset();
  }
  return core_.finish();
}

std::uint64_t ShardedEngine::total_scheduled() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->queue.total_scheduled();
  return total;
}

std::uint64_t ShardedEngine::frame_bytes() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.total_bytes();
  return total;
}

std::uint64_t ShardedEngine::rank_state_bytes() const {
  return core_.state_bytes(frame_bytes());
}

std::uint64_t ShardedEngine::rank_state_peak_bytes() const {
  // The pair tables only grow, so their size is their peak.
  std::uint64_t peak = 0;
  for (const auto& sh : shards_) peak += sh->arena.peak_bytes();
  return peak + legs_.pair_bytes() + core_.matcher_bytes() +
         pool_.cached_bytes();
}

}  // namespace adapt::runtime
