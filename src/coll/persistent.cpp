// Persistent collectives: rounds of ADAPT's segment machine replayed from a
// cached plan with zero steady-state allocation (see persistent.hpp).
#include "src/coll/persistent.hpp"

#include <algorithm>

#include "src/coll/pipeline.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/error.hpp"
#include "src/tune/tuner.hpp"

namespace adapt::coll {

namespace {

/// Round-robin tag blocks per handle: enough that a straggler frame from a
/// failed round k can never match a receive of round k+block (blocks cycle
/// long after any fault-injected retransmit window closed).
constexpr int kTagRounds = 4;

int ceil_log2(int n) {
  int rounds = 0;
  for (int span = 1; span < n; span *= 2) ++rounds;
  return rounds;
}

const char* kind_name(PersistentOp::Kind kind) {
  switch (kind) {
    case PersistentOp::Kind::kBcast: return "bcast";
    case PersistentOp::Kind::kReduce: return "reduce";
    case PersistentOp::Kind::kAllreduce: return "allreduce";
    case PersistentOp::Kind::kBarrier: return "barrier";
  }
  return "?";
}

/// Drops the plans the context's cache keyed by `comm` (a freed or revoked
/// communicator) and records the "plan_invalidate" instant.
void invalidate_plans(runtime::Context& ctx, const mpi::Comm& comm) {
  tune::PlanCache* cache = ctx.plan_cache();
  if (cache == nullptr) return;
  cache->invalidate_comm(comm.fingerprint());
  if (obs::Recorder* rec = ctx.recorder()) {
    rec->instant(obs::rank_pid(ctx.rank()), obs::kTidMain, obs::Cat::kCache,
                 "plan_invalidate", rec->now(),
                 static_cast<std::int64_t>(comm.fingerprint()));
  }
}

tune::PlanOp plan_op_of(PersistentOp::Kind kind) {
  switch (kind) {
    case PersistentOp::Kind::kBcast: return tune::PlanOp::kBcast;
    case PersistentOp::Kind::kReduce: return tune::PlanOp::kReduce;
    case PersistentOp::Kind::kAllreduce: return tune::PlanOp::kAllreduce;
    case PersistentOp::Kind::kBarrier: return tune::PlanOp::kBarrier;
  }
  return tune::PlanOp::kBcast;
}

detail::AdaptPipeline::Stages stages_of(PersistentOp::Kind kind) {
  switch (kind) {
    case PersistentOp::Kind::kReduce:
      return detail::AdaptPipeline::Stages::kReduce;
    case PersistentOp::Kind::kAllreduce:
      return detail::AdaptPipeline::Stages::kReduceBcast;
    case PersistentOp::Kind::kBcast:
    case PersistentOp::Kind::kBarrier:
      break;
  }
  return detail::AdaptPipeline::Stages::kBcast;
}

}  // namespace

// ------------------------------------------------------------------- init ---

PersistentOp::PersistentOp() = default;

void PersistentOp::init_common(runtime::Context& ctx, const mpi::Comm& comm,
                               Kind kind, mpi::MutView buffer,
                               mpi::ReduceOp rop, mpi::Datatype dtype,
                               Rank root, const PersistentOpts& opts) {
  ADAPT_CHECK(comm.contains(ctx.rank()))
      << "rank " << ctx.rank() << " not a member of the communicator";
  ADAPT_CHECK(opts.partitions >= 0);
  ADAPT_CHECK(!opts.coll.gpu_host_cache && !opts.coll.gpu_reduce)
      << "persistent collectives are CPU-path only";
  ctx_ = &ctx;
  comm_ = comm;
  kind_ = kind;
  partitions_ = opts.partitions;
  me_local_ = comm.local_of(ctx.rank());
  const Bytes bytes = buffer.size;
  CollOpts coll = opts.coll;

  // -- plan: cache lookup, tuner pin, or explicit tree --------------------
  const bool has_tree = kind != Kind::kBarrier;
  if (has_tree) {
    ADAPT_CHECK(root >= 0 && root < comm.size());
  }
  tune::PlanCache* cache = ctx.plan_cache();
  const tune::PlanKey key{plan_op_of(kind), comm.fingerprint(),
                          tune::Tuner::bucket(bytes), root};
  if (opts.tree != nullptr) {
    // Caller-supplied tree: build a private (uncached) plan around it.
    ADAPT_CHECK(has_tree) << "barrier takes no tree";
    ADAPT_CHECK(opts.tree->root == root)
        << "tree rooted at " << opts.tree->root << ", collective root "
        << root;
    tune::CachedPlan plan;
    plan.tree = *opts.tree;
    plan.segment = coll.segment_size;
    plan.comm = comm.state();
    plan_ = std::make_shared<const tune::CachedPlan>(std::move(plan));
  } else {
    plan_ = cache ? cache->find(key) : nullptr;
    if (cache != nullptr) {
      // Plan-cache timeline event (the counters live in PlanCache itself);
      // arg is the size bucket so hit/miss streams line up across handles.
      if (obs::Recorder* rec = ctx.recorder()) {
        rec->instant(obs::rank_pid(ctx.rank()), obs::kTidMain,
                     obs::Cat::kCache, plan_ ? "plan_hit" : "plan_miss",
                     rec->now(), key.bucket);
      }
    }
    if (!plan_) {
      tune::CachedPlan plan;
      plan.comm = comm.state();
      if (tune::Tuner* tuner = ctx.tuner(); tuner != nullptr && has_tree) {
        // Pin the decision now: choose() also records it in the engine's
        // DecisionTable, so the table doubles as the persistent plan cache's
        // pricing layer.
        const tune::Op top = kind == Kind::kBcast ? tune::Op::kBcast
                                                  : tune::Op::kReduce;
        tune::Tuner::ChooseStats tstats;
        const tune::Decision d = tuner->choose(top, comm.size(), bytes,
                                               &tstats);
        if (obs::Recorder* rec = ctx.recorder()) {
          tune::trace_choice(*rec, obs::rank_pid(ctx.rank()), tstats, bytes,
                             d, d.predicted);
        }
        plan.decision = d;
        plan.tuned = true;
        plan.tree = tune::decision_tree(ctx.machine(), comm, root, d);
        plan.segment = tune::decision_segment(d, bytes);
      } else if (has_tree) {
        // Untuned default: the paper's topology-aware chain configuration.
        plan.tree = tune::decision_tree(ctx.machine(), comm, root,
                                        tune::Decision{});
        plan.segment = coll.segment_size;
      }
      plan_ = cache ? cache->insert(key, std::move(plan))
                    : std::make_shared<const tune::CachedPlan>(
                          std::move(plan));
    }
  }
  if (plan_->segment > 0) coll.segment_size = plan_->segment;

  if (kind == Kind::kBarrier) {
    bar_rounds_ = ceil_log2(comm.size());
    per_round_tags_ = std::max(bar_rounds_, 1);
    base_tag_ = ctx.alloc_tags(static_cast<Tag>(per_round_tags_) * kTagRounds);
    return;
  }

  // -- this rank's segment machine, every piece of round state pre-sized --
  detail::Edges edges = detail::resolve(ctx, comm, plan_->tree);
  const auto nkids = static_cast<int>(edges.kids_global.size());
  pipe_ = std::make_unique<detail::AdaptPipeline>(
      ctx, std::move(edges), stages_of(kind), buffer, rop, dtype, coll,
      /*gated=*/partitions_ > 0, [this] { check_round_done(); });
  per_round_tags_ = pipe_->tags();
  base_tag_ = ctx.alloc_tags(static_cast<Tag>(per_round_tags_) * kTagRounds);
  part_ready_.assign(static_cast<std::size_t>(partitions_), 0);

  // -- warm the engine pool for the round's footprint ---------------------
  // Captured payloads in flight: on the pair clocks each leg copies its
  // segment at carry, N per child edge plus N up; plus M unexpected staging
  // slots. (On the fair-share fabric a send borrows its buffer, so only
  // unexpected arrivals take a block.) Reduce receives fold where they
  // land and borrow nothing, except in a partitioned round, where a
  // receive posted before its segment's pready borrows a fold window until
  // its fold ran: at most min(S, M) per child edge (window_slots()). All
  // are one segment's size class. One reserve call at init keeps every
  // steady-state acquire a free-list hit.
  if (support::BufferPool* pool = ctx.pool();
      pool != nullptr && !buffer.synthetic() && bytes > 0) {
    const int in_flight =
        (nkids + 1) * coll.outstanding_sends + coll.outstanding_recvs +
        static_cast<int>(pipe_->window_slots());
    pool->reserve(std::min(coll.segment_size, std::max<Bytes>(bytes, 1)),
                  in_flight);
  }
}

PersistentOp::~PersistentOp() {
  // Destroying a handle mid-round would leave callbacks pointing at freed
  // state; wait() first (its drain guarantee is what makes `this` captures
  // safe).
  ADAPT_CHECK(!in_flight_) << "PersistentOp destroyed with a round in flight";
}

// -------------------------------------------------------------- lifecycle ---

mpi::ErrCode PersistentOp::start() {
  if (in_flight_) return mpi::ErrCode::kErrPending;
  if (!comm_.alive()) {
    // Either way no new round may start, but the codes differ: a freed
    // communicator is a programming error (handle gone for good), a revoked
    // one is the recovery layer saying "shrink and re-init" — recoverable.
    // Both drop any cached plans keyed by it, so the cache cannot serve this
    // plan to a future lookalike lookup.
    invalidate_plans(*ctx_, comm_);
    return comm_.state()->freed ? mpi::ErrCode::kErrCommFreed
                                : mpi::ErrCode::kErrRevoked;
  }
  std::fill(part_ready_.begin(), part_ready_.end(), char{0});
  in_flight_ = true;
  if (obs::Recorder* rec = ctx_->recorder()) {
    rec->instant(obs::rank_pid(ctx_->rank()), obs::kTidProgress,
                 obs::Cat::kTask, "pstart", rec->now(), rounds_completed_);
  }
  if (pipe_) {
    pipe_->start(round_base());
  } else {
    start_barrier();
  }
  check_round_done();  // trivial rounds (1-rank comms) finish synchronously
  return mpi::ErrCode::kOk;
}

std::pair<int, int> PersistentOp::partition_segments(int p) const {
  const int S = segments();
  return {static_cast<int>((static_cast<std::int64_t>(p) * S) / partitions_),
          static_cast<int>((static_cast<std::int64_t>(p + 1) * S) /
                           partitions_)};
}

mpi::ErrCode PersistentOp::pready(int p) {
  if (partitions_ <= 0 || !in_flight_) return mpi::ErrCode::kErrPartition;
  if (p < 0 || p >= partitions_) return mpi::ErrCode::kErrPartition;
  if (part_ready_[static_cast<std::size_t>(p)])
    return mpi::ErrCode::kErrPartition;  // duplicate pready
  part_ready_[static_cast<std::size_t>(p)] = 1;
  const auto [first, end] = partition_segments(p);
  pipe_->release(first, end);
  check_round_done();
  return mpi::ErrCode::kOk;
}

mpi::ErrCode PersistentOp::parrived(int p, bool* flag) const {
  ADAPT_CHECK(flag != nullptr);
  *flag = false;
  if (partitions_ <= 0 || !in_flight_) return mpi::ErrCode::kErrPartition;
  if (p < 0 || p >= partitions_) return mpi::ErrCode::kErrPartition;
  if (pipe_->error() != mpi::ErrCode::kOk) return mpi::ErrCode::kOk;  // dying
  const auto [first, end] = partition_segments(p);
  bool arrived = true;
  for (int s = first; s < end && arrived; ++s) arrived = pipe_->arrived(s);
  *flag = arrived;
  return mpi::ErrCode::kOk;
}

int PersistentOp::segments() const { return pipe_ ? pipe_->segments() : 1; }

mpi::ErrCode PersistentOp::last_error() const {
  return pipe_ ? pipe_->error() : bar_error_;
}

void PersistentOp::Awaiter::await_resume() const {
  if (op->last_error() != mpi::ErrCode::kOk) {
    throw mpi::FaultError(op->last_error(),
                          std::string("persistent ") + kind_name(op->kind_) +
                              " failed");
  }
}

void PersistentOp::check_round_done() {
  if (!in_flight_) return;
  if (pipe_ ? !pipe_->drained()
            : bar_outstanding_ != 0 ||
                  (bar_error_ == mpi::ErrCode::kOk && bar_remaining_ != 0)) {
    return;
  }
  // Success, or a failed round whose every posted callback has retired —
  // either way nothing references this handle any more.
  in_flight_ = false;
  ++rounds_completed_;
  if (obs::Recorder* rec = ctx_->recorder()) {
    rec->instant(obs::rank_pid(ctx_->rank()), obs::kTidProgress,
                 obs::Cat::kTask, "pdone", rec->now(),
                 static_cast<std::int64_t>(last_error()));
  }
  if (waiter_) {
    const std::coroutine_handle<> h = waiter_;
    waiter_ = nullptr;
    // Resume on the application thread, like the per-call collectives —
    // the round itself ran on the progress context.
    ctx_->defer(0, [h] { h.resume(); });
  }
}

Tag PersistentOp::round_base() const {
  const int block = rounds_completed_ % kTagRounds;
  return base_tag_ + static_cast<Tag>(block) * per_round_tags_;
}

// ---------------------------------------------------------------- barrier ---

void PersistentOp::barrier_cb_exit() {
  --bar_outstanding_;
  check_round_done();
}

void PersistentOp::start_barrier() {
  bar_error_ = mpi::ErrCode::kOk;
  bar_remaining_ = 0;
  bar_outstanding_ = 0;
  const int n = comm_.size();
  if (n == 1) return;  // nothing to synchronise
  bar_remaining_ = 2 * bar_rounds_;
  // Pre-post every round's receive (tags distinguish rounds), send round 0;
  // the recv of round k releases the send of round k+1 — the dissemination
  // dependency chain, replayed as callbacks.
  for (int k = 0; k < bar_rounds_; ++k) {
    const int span = 1 << k;
    const Rank from = comm_.global((me_local_ - span + n) % n);
    ++bar_outstanding_;
    auto req = ctx_->irecv(from, round_base() + k, mpi::MutView{});
    req->set_completion_cb([this, k](mpi::Request& r) {
      if (r.failed()) {
        if (bar_error_ == mpi::ErrCode::kOk) bar_error_ = r.error();
      } else {
        on_barrier_recv(k);
      }
      barrier_cb_exit();
    });
  }
  on_barrier_recv(-1);  // "round -1 received": releases the round-0 send
}

void PersistentOp::on_barrier_recv(int round) {
  if (round >= 0) {
    if (bar_error_ != mpi::ErrCode::kOk) return;
    --bar_remaining_;
  }
  const int next = round + 1;
  if (next >= bar_rounds_ || bar_error_ != mpi::ErrCode::kOk) return;
  const int n = comm_.size();
  const int span = 1 << next;
  const Rank to = comm_.global((me_local_ + span) % n);
  ++bar_outstanding_;
  auto req = ctx_->isend(to, round_base() + next, mpi::ConstView{});
  req->set_completion_cb([this](mpi::Request& r) {
    if (r.failed()) {
      if (bar_error_ == mpi::ErrCode::kOk) bar_error_ = r.error();
    } else {
      --bar_remaining_;
    }
    barrier_cb_exit();
  });
}

// -------------------------------------------------------------- factories ---

PersistentOpPtr bcast_init(runtime::Context& ctx, const mpi::Comm& comm,
                           mpi::MutView buffer, Rank root,
                           const PersistentOpts& opts) {
  PersistentOpPtr op(new PersistentOp());
  op->init_common(ctx, comm, PersistentOp::Kind::kBcast, buffer, {}, {}, root,
                  opts);
  return op;
}

PersistentOpPtr reduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                            mpi::MutView accum, mpi::ReduceOp rop,
                            mpi::Datatype dtype, Rank root,
                            const PersistentOpts& opts) {
  PersistentOpPtr op(new PersistentOp());
  op->init_common(ctx, comm, PersistentOp::Kind::kReduce, accum, rop, dtype,
                  root, opts);
  return op;
}

PersistentOpPtr allreduce_init(runtime::Context& ctx, const mpi::Comm& comm,
                               mpi::MutView accum, mpi::ReduceOp rop,
                               mpi::Datatype dtype,
                               const PersistentOpts& opts) {
  PersistentOpPtr op(new PersistentOp());
  op->init_common(ctx, comm, PersistentOp::Kind::kAllreduce, accum, rop,
                  dtype, /*root=*/0, opts);
  return op;
}

PersistentOpPtr barrier_init(runtime::Context& ctx, const mpi::Comm& comm,
                             const PersistentOpts& opts) {
  ADAPT_CHECK(opts.partitions == 0) << "barrier has no data to partition";
  ADAPT_CHECK(opts.tree == nullptr) << "barrier takes no tree";
  PersistentOpPtr op(new PersistentOp());
  op->init_common(ctx, comm, PersistentOp::Kind::kBarrier, mpi::MutView{}, {},
                  {}, /*root=*/0, opts);
  return op;
}

void free_comm(runtime::Context& ctx, const mpi::Comm& comm) {
  comm.free();
  invalidate_plans(ctx, comm);
}

}  // namespace adapt::coll
