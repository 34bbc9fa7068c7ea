#include "src/coll/eventual.hpp"

#include <cstring>
#include <memory>
#include <vector>

#include "src/coll/detail.hpp"
#include "src/mpi/comm_ft.hpp"
#include "src/runtime/recovery.hpp"

namespace adapt::coll {

namespace {

/// Shared state between the op, the per-request completion callbacks, and
/// the detached deadline coroutine. shared_ptr-owned so a contribution that
/// arrives *after* the op returned (or never) still has valid scratch to
/// land in — nothing dangles, it is simply not folded.
struct EcShared {
  sim::Trigger wake;  ///< fired by the deadline or by the last completion
  int finished = 0;
  int expected = 0;
  std::vector<mpi::Payload> scratch;
  std::vector<mpi::RequestPtr> reqs;
};

sim::Task<> ec_deadline(runtime::Context& ctx, TimeNs staleness,
                        std::shared_ptr<EcShared> sh) {
  co_await ctx.sleep_for(staleness);
  sh->wake.fire();
}

/// RAII poison shield + pre-op re-arm (see header).
struct ShieldGuard {
  runtime::Recovery* rec;
  explicit ShieldGuard(runtime::Recovery* r) : rec(r) {
    if (rec) {
      rec->clear_poison();
      rec->acquire_poison_shield();
    }
  }
  ShieldGuard(const ShieldGuard&) = delete;
  ShieldGuard& operator=(const ShieldGuard&) = delete;
  ~ShieldGuard() {
    if (rec) rec->release_poison_shield();
  }
};

TimeNs resolve_staleness(runtime::Recovery* rec, const EcOpts& opts) {
  if (opts.staleness > 0) return opts.staleness;
  return rec ? rec->options().staleness_bound : milliseconds(30);
}

/// Wait for the wake trigger, then hop back to this rank's MAIN context —
/// the trigger may fire inline on the progress context (last completion) or
/// on the raw timer (deadline), and the caller's control flow belongs on the
/// application thread.
sim::Task<> await_wake(runtime::Context& ctx, std::shared_ptr<EcShared> sh) {
  if (sh->expected > 0 && sh->finished < sh->expected) co_await sh->wake;
  co_await sim::Suspend([&ctx](std::coroutine_handle<> h) {
    ctx.defer(0, [h] { h.resume(); });
  });
}

/// Fire-and-forget sends of `data` to every live member but this rank. The
/// op returns (or folds into the caller's buffer) without waiting on them,
/// and a send borrows its buffer until it completes, so they go from a
/// pooled snapshot that each send keeps alive until then.
void send_to_all(runtime::Context& ctx, const mpi::Comm& comm, Tag tag,
                 std::uint64_t known_failed, mpi::ConstView data) {
  mpi::Payload snapshot =
      mpi::Payload::scratch(ctx.pool(), data.size, data.synthetic());
  if (!data.synthetic() && data.size > 0) {
    std::memcpy(snapshot.data(), data.data,
                static_cast<std::size_t>(data.size));
  }
  for (int i = 0; i < comm.size(); ++i) {
    const Rank peer = comm.global(i);
    if (peer == ctx.rank() || ((known_failed >> peer) & 1u)) continue;
    ctx.isend(peer, tag, snapshot.cview())
        ->set_completion_cb([snapshot](mpi::Request&) {});
  }
}

}  // namespace

sim::Task<EcResult> ec_allreduce(runtime::Context& ctx, const mpi::Comm& comm,
                                 mpi::MutView accum, mpi::ReduceOp op,
                                 mpi::Datatype dtype, const EcOpts& opts) {
  const Rank me = ctx.rank();
  ADAPT_CHECK(comm.contains(me));
  detail::CollSpan span(ctx, "ec_allreduce", "eventual", accum.size);
  runtime::Recovery* rec = ctx.recovery();
  const ShieldGuard shield(rec);
  const TimeNs staleness = resolve_staleness(rec, opts);
  const std::uint64_t known_failed = rec ? rec->failed_mask() : 0;
  const Tag tag = ctx.alloc_tags(1);
  const int n = comm.size();

  auto sh = std::make_shared<EcShared>();
  sh->scratch.resize(static_cast<std::size_t>(n));
  sh->reqs.resize(static_cast<std::size_t>(n));
  // Pre-post one receive per live peer (scratch-backed: a late frame lands
  // in the scratch, never in the caller's buffer), then fire the sends.
  for (int i = 0; i < n; ++i) {
    const Rank peer = comm.global(i);
    if (peer == me || ((known_failed >> peer) & 1u)) continue;
    sh->scratch[static_cast<std::size_t>(i)] =
        mpi::Payload::scratch(ctx.pool(), accum.size, accum.synthetic());
    auto req = ctx.irecv(peer, tag,
                         sh->scratch[static_cast<std::size_t>(i)].view());
    sh->reqs[static_cast<std::size_t>(i)] = req;
    ++sh->expected;
    req->set_completion_cb([sh](mpi::Request&) {
      if (++sh->finished == sh->expected) sh->wake.fire();
    });
  }
  send_to_all(ctx, comm, tag, known_failed, accum.as_const());
  sim::run_detached(ec_deadline(ctx, staleness, sh), [](std::exception_ptr) {});
  co_await await_wake(ctx, sh);

  // Fold whatever arrived, in member order — deterministic, and independent
  // of arrival order for commutative ops.
  EcResult res;
  res.contributors = 1ull << me;
  for (int i = 0; i < n; ++i) {
    const mpi::RequestPtr& req = sh->reqs[static_cast<std::size_t>(i)];
    if (!req || !req->complete() || req->failed()) continue;
    detail::apply_if_real(accum,
                          sh->scratch[static_cast<std::size_t>(i)].cview(), op,
                          dtype, accum.size);
    res.contributors |= 1ull << comm.global(i);
  }
  res.complete = res.contributors == mpi::member_mask(comm);
  co_return res;
}

sim::Task<EcResult> ec_bcast(runtime::Context& ctx, const mpi::Comm& comm,
                             mpi::MutView buffer, Rank root,
                             const EcOpts& opts) {
  const Rank me = ctx.rank();
  ADAPT_CHECK(comm.contains(me));
  ADAPT_CHECK(comm.contains(root));
  detail::CollSpan span(ctx, "ec_bcast", "eventual", buffer.size);
  runtime::Recovery* rec = ctx.recovery();
  const ShieldGuard shield(rec);
  const TimeNs staleness = resolve_staleness(rec, opts);
  const std::uint64_t known_failed = rec ? rec->failed_mask() : 0;
  const Tag tag = ctx.alloc_tags(1);

  EcResult res;
  res.contributors = 1ull << me;
  if (me == root) {
    // The root has the payload by definition; its sends are fire-and-forget
    // (a dead receiver costs nothing but a retry chain that gives up).
    send_to_all(ctx, comm, tag, known_failed, buffer.as_const());
    res.complete = true;
    co_return res;
  }
  if ((known_failed >> root) & 1u) {
    co_return res;  // known-dead source: nothing will ever arrive
  }
  auto sh = std::make_shared<EcShared>();
  sh->scratch.resize(1);
  sh->reqs.resize(1);
  sh->scratch[0] =
      mpi::Payload::scratch(ctx.pool(), buffer.size, buffer.synthetic());
  auto req = ctx.irecv(root, tag, sh->scratch[0].view());
  sh->reqs[0] = req;
  sh->expected = 1;
  req->set_completion_cb([sh](mpi::Request&) {
    if (++sh->finished == sh->expected) sh->wake.fire();
  });
  sim::run_detached(ec_deadline(ctx, staleness, sh), [](std::exception_ptr) {});
  co_await await_wake(ctx, sh);

  if (req->complete() && !req->failed()) {
    if (!buffer.synthetic() && buffer.size > 0) {
      std::memcpy(buffer.data, sh->scratch[0].data(),
                  static_cast<std::size_t>(buffer.size));
    }
    res.contributors |= 1ull << root;
    res.complete = true;
  }
  co_return res;
}

}  // namespace adapt::coll
