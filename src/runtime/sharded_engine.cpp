#include "src/runtime/sharded_engine.hpp"

#include <algorithm>
#include <limits>

#include "src/mpi/reliable.hpp"
#include "src/obs/merge.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

namespace {

constexpr TimeNs kInf = std::numeric_limits<TimeNs>::max();

/// Rank field of the event key occupies the low 20 bits.
constexpr int kRankBits = 20;

}  // namespace

// ------------------------------------------------------------ transport ---

// The engine is the transport of every shard: all mutable state a submit
// touches (pair clocks, shard queues, mailboxes, recorders) is owned by the
// producing rank's shard, so concurrent submits from different shards never
// share data. Delivery, completion and protocol legs are events keyed by the
// producing rank — the rank whose callback is executing at schedule time —
// which is what keeps per-rank sequence draws invariant to sharding.
void ShardedEngine::submit(mpi::Envelope env, MemSpace src_space,
                           MemSpace dst_space, std::function<void()> on_sent,
                           std::function<void(mpi::ErrCode)> on_failed) {
  ADAPT_CHECK(src_space == MemSpace::kHost && dst_space == MemSpace::kHost)
      << "the sharded engine is host-only; use SimEngine for GPU runs";
  (void)on_failed;  // no fault injection here: every submit succeeds
  const Rank src = env.src;
  const Rank dst = env.dst;
  const int ss = shard_of(src);
  const topo::RouteCost rc = topo_->route(src, dst);
  if (env.size <= machine_.spec().eager_threshold) {
    // Eager: data goes on the wire at once, behind the pair's earlier
    // messages, and is buffered at the receiver if nothing matches. The
    // sender completes at arrival (the last byte left the wire), as in the
    // SimEngine's raw eager path.
    const TimeNs arrive = transmit(src, dst, rc, env.size,
                                   static_cast<int>(mpi::Frame::Kind::kEager));
    post_at(ss, ss, arrive, next_key(src),
            [this, src, on_sent = std::move(on_sent)]() mutable {
              core_.run_progress(src, std::move(on_sent), 0);
            });
    post_at(ss, shard_of(dst), arrive, next_key(src),
            [this, dst, env = std::move(env)]() mutable {
              endpoint(dst).deliver(std::move(env));
            });
    return;
  }
  // Rendezvous: an alpha-only RTS races ahead; the matched receive grants on
  // the receiver's shard, an alpha-only CTS returns to the sender, and only
  // then does the bulk data go on the wire (see rendezvous_grant/bulk).
  Shard& sh = *shards_[static_cast<std::size_t>(ss)];
  const TimeNs rts_arrive = sh.now + rc.alpha;
  if (sh.rec) {
    sh.rec->transfer_alpha_only(src, dst,
                                static_cast<int>(mpi::Frame::Kind::kRts),
                                sh.now, rts_arrive);
  }
  mpi::Envelope rts;
  rts.src = src;
  rts.dst = dst;
  rts.tag = env.tag;
  rts.size = env.size;
  rts.grant = [this, rc, env = std::move(env),
               on_sent = std::move(on_sent)](mpi::PostedRecv recv) mutable {
    rendezvous_grant(rc, std::move(env), std::move(on_sent), std::move(recv));
  };
  post_at(ss, shard_of(dst), rts_arrive, next_key(src),
          [this, dst, rts = std::move(rts)]() mutable {
            endpoint(dst).deliver(std::move(rts));
          });
}

TimeNs ShardedEngine::transmit(Rank src, Rank dst, const topo::RouteCost& rc,
                               Bytes bytes, int kind) {
  Shard& sh = shard_for(src);
  const TimeNs stream = net::stream_time(bytes, 1.0 / rc.beta_ns_per_byte);
  const std::uint64_t pair_key =
      static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(nranks()) +
      static_cast<std::uint64_t>(dst);
  const TimeNs arrive = sh.pairs[pair_key].arrive(sh.now, rc.alpha, stream);
  if (sh.rec) {
    const std::uint64_t id = sh.rec->transfer_begin(src, dst, bytes, kind,
                                                    sh.now);
    if (id != 0) {
      sh.rec->transfer_active(id, arrive - stream, stream);
      sh.rec->transfer_end(id, arrive);
    }
  }
  return arrive;
}

/// A receive matched the RTS: runs on the RECEIVER's shard at match time.
/// The CTS leg back to the sender is keyed by the receiver (the producing
/// rank here), then the bulk leg continues on the sender's shard.
void ShardedEngine::rendezvous_grant(topo::RouteCost rc, mpi::Envelope env,
                                     std::function<void()> on_sent,
                                     mpi::PostedRecv recv) {
  const Rank src = env.src;
  const Rank dst = env.dst;
  const int ds = shard_of(dst);
  Shard& sh = *shards_[static_cast<std::size_t>(ds)];
  const TimeNs now = sh.now;
  const TimeNs cts_arrive = now + rc.alpha;
  if (sh.rec) {
    sh.rec->transfer_alpha_only(dst, src,
                                static_cast<int>(mpi::Frame::Kind::kCts), now,
                                cts_arrive);
  }
  post_at(ds, shard_of(src), cts_arrive, next_key(dst),
          [this, rc, env = std::move(env), on_sent = std::move(on_sent),
           recv = std::move(recv)]() mutable {
            rendezvous_bulk(rc, std::move(env), std::move(on_sent),
                            std::move(recv));
          });
}

/// CTS reached the sender: runs on the SENDER's shard. The bulk data goes
/// on the wire behind the pair's earlier messages; completion fires at the
/// sender and finalisation at the receiver, both at arrival time.
void ShardedEngine::rendezvous_bulk(topo::RouteCost rc, mpi::Envelope env,
                                    std::function<void()> on_sent,
                                    mpi::PostedRecv recv) {
  const Rank src = env.src;
  const Rank dst = env.dst;
  const int ss = shard_of(src);
  const TimeNs arrive = transmit(src, dst, rc, env.size,
                                 static_cast<int>(mpi::Frame::Kind::kBulk));
  post_at(ss, ss, arrive, next_key(src),
          [this, src, on_sent = std::move(on_sent)]() mutable {
            core_.run_progress(src, std::move(on_sent), 0);
          });
  const TimeNs overhead = machine_.spec().cpu_overhead;
  post_at(ss, shard_of(dst), arrive, next_key(src),
          [this, dst, overhead, env = std::move(env),
           recv = std::move(recv)]() mutable {
            core_.run_progress(
                dst,
                [this, dst, env = std::move(env), recv = std::move(recv)] {
                  endpoint(dst).finalize_recv(recv, env);
                },
                overhead);
          });
}

// --------------------------------------------------------- ShardedEngine ---

ShardedEngine::ShardedEngine(const topo::Machine& machine,
                             ShardedEngineOptions options)
    : machine_(machine),
      options_(std::move(options)),
      machine_topo_(machine),
      topo_(options_.topology ? options_.topology : &machine_topo_),
      core_(*this, machine, *this, pool_, options_.noise) {
  const int n = machine_.nranks();
  ADAPT_CHECK(topo_->nranks() == n)
      << "topology describes " << topo_->nranks() << " ranks but the machine "
      << "places " << n;
  ADAPT_CHECK(n < (1 << kRankBits))
      << "event keys reserve " << kRankBits << " bits for the rank";
  ADAPT_CHECK(options_.shards >= 1);

  map_ = topo::make_shard_map(*topo_, options_.shards);
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

  rank_seq_.assign(static_cast<std::size_t>(n), 0);
  if (options_.recorder && options_.recorder->enabled()) {
    options_.recorder->init_ranks(n);
  }
}

ShardedEngine::~ShardedEngine() = default;

std::uint64_t ShardedEngine::next_key(Rank r) {
  std::uint64_t& seq = rank_seq_[static_cast<std::size_t>(r)];
  ADAPT_CHECK(seq < (1ull << (64 - kRankBits)))
      << "per-rank event sequence overflow";
  return (seq++ << kRankBits) | static_cast<std::uint64_t>(r);
}

void ShardedEngine::post_at(int from, int to, TimeNs t, std::uint64_t tie,
                            sim::EventFn fn) {
  if (from == to) {
    shards_[static_cast<std::size_t>(to)]->queue.push_keyed(t, tie,
                                                            std::move(fn));
    return;
  }
  // Cross-shard: t is at least this window's end (route alpha >= lookahead),
  // so delivery at the next round's drain is never late.
  Shard& sh = *shards_[static_cast<std::size_t>(from)];
  sh.outbox[static_cast<std::size_t>(to)][epoch_ & 1].push_back(
      Msg{t, tie, std::move(fn)});
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
      for (Msg& m : box) sh.queue.push_keyed(m.time, m.tie, std::move(m.fn));
      box.clear();
    }
    // peek_min_time for the guard too: evaluating it on an idle shard must
    // not commit the cursor past messages the next drain will deliver. pop()
    // advances the cursor only to events actually executed (< window).
    while (!sh.queue.empty() && sh.queue.peek_min_time() < window) {
      auto [t, fn] = sh.queue.pop();
      sh.now = t;
      fn();
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
      auto [t, fn] = sh.queue.pop();
      sh.now = t;
      fn();
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
  // A pair clock lives in one hash node (link + key + clock) behind one
  // bucket pointer; the maps only grow, so their size is their peak.
  constexpr std::uint64_t kPairNodeBytes =
      sizeof(void*) + sizeof(std::pair<const std::uint64_t, net::PairClock>);
  std::uint64_t peak = 0;
  for (const auto& sh : shards_) {
    peak += sh->arena.peak_bytes() + sh->pairs.size() * kPairNodeBytes +
            sh->pairs.bucket_count() * sizeof(void*);
  }
  return peak + core_.matcher_bytes() + pool_.cached_bytes();
}

}  // namespace adapt::runtime
