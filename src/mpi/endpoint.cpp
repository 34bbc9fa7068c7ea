#include "src/mpi/endpoint.hpp"

#include "src/obs/trace.hpp"
#include "src/support/error.hpp"

namespace adapt::mpi {

namespace {

/// MPI-style argument validation shared by isend/irecv. `wildcard_ok` admits
/// kAnyRank as a peer (receives only).
ErrCode validate(Rank peer, bool wildcard_ok, Rank self, int nranks,
                 Bytes count, Datatype dtype) {
  const bool wildcard = peer == kAnyRank && wildcard_ok;
  if (!wildcard) {
    if (peer < 0 || (nranks > 0 && peer >= nranks)) return ErrCode::kErrRank;
    if (peer == self) return ErrCode::kErrRank;  // self-send unsupported
  }
  if (count < 0) return ErrCode::kErrCount;
  if (count % size_of(dtype) != 0) return ErrCode::kErrType;
  return ErrCode::kOk;
}

}  // namespace

RequestPtr Endpoint::failed_request(Request::Kind kind, Rank peer, Tag tag,
                                    ErrCode code) {
  auto req = make_request(kind, peer, tag, 0);
  req->mark_failed(code);
  return req;
}

void Endpoint::finish_send(std::uint32_t slot, ErrCode code) {
  RequestPtr req = send_slots_.release(slot);
  if (code == ErrCode::kOk) {
    req->mark_complete();
  } else {
    req->mark_failed(code);
  }
}

void Endpoint::run_finalize_slot(std::uint32_t slot) {
  const PendingFinalize pf = finalize_slots_.release(slot);
  finalize_recv(pf.recv, pf.env);
}

void Endpoint::poison(ErrCode code) {
  ADAPT_CHECK(code != ErrCode::kOk);
  if (poisoned()) return;  // first cause wins
  poisoned_ = code;
  // A failed send's buffer may be freed as soon as the request fails (its
  // callback runs inline), so in-flight legs stop borrowing it first.
  transport_.end_borrows(rank_);
  // Completion unlinks each request, so this walks the list head by head in
  // issue order. Requests issued from here on fail at birth.
  while (RequestPtr req = requests_->oldest_pending()) req->mark_failed(code);
}

RequestPtr Endpoint::isend(Rank dst, Tag tag, ConstView data, SendOpts opts) {
  if (poisoned())
    return failed_request(Request::Kind::kSend, dst, tag, poisoned_);
  if (const ErrCode code = validate(dst, /*wildcard_ok=*/false, rank_,
                                    nranks_, data.size, opts.dtype);
      code != ErrCode::kOk) {
    return failed_request(Request::Kind::kSend, dst, tag, code);
  }
  auto req = make_request(Request::Kind::kSend, dst, tag, data.size);
  ++sends_;
  if (rec_) {
    auto& rc = rec_->metrics().rank(rank_);
    ++rc.sends;
    rc.send_bytes += data.size;
  }
  exec_.charge(costs_.cpu_overhead);

  Envelope env;
  env.src = rank_;
  env.dst = dst;
  env.tag = tag;
  env.size = data.size;
  // The payload is borrowed, not copied: the request stays pending until
  // the transport reports the data leg done, so the buffer cannot change
  // before the leg has read it (Envelope's borrow rule).
  if (data.size > 0) env.borrow(data.data);
  // Park the request in a recycled slot: both transport callbacks capture
  // {this, slot} (std::function inline storage, no boxing) and exactly one
  // of them fires, releasing the slot's ownership.
  const std::uint32_t slot = send_slots_.acquire(req);
  transport_.submit(std::move(env), opts.src_space, opts.dst_space,
                    [this, slot] { finish_send(slot, ErrCode::kOk); },
                    [this, slot](ErrCode code) { finish_send(slot, code); });
  return req;
}

RequestPtr Endpoint::irecv(Rank src, Tag tag, MutView buffer, Datatype dtype,
                          std::optional<ReduceOp> fold) {
  if (poisoned())
    return failed_request(Request::Kind::kRecv, src, tag, poisoned_);
  if (const ErrCode code = validate(src, /*wildcard_ok=*/true, rank_, nranks_,
                                    buffer.size, dtype);
      code != ErrCode::kOk) {
    return failed_request(Request::Kind::kRecv, src, tag, code);
  }
  auto req = make_request(Request::Kind::kRecv, src, tag, buffer.size);
  if (fold) req->set_fold(*fold, dtype);
  exec_.charge(costs_.cpu_overhead);

  PostedRecv posted{req, buffer, src, tag};
  if (auto env = matcher_.post(posted)) {
    if (rec_) {
      ++rec_->metrics().counter("unexpected_hits");
      rec_->instant(obs::rank_pid(rank_), obs::kTidProgress, obs::Cat::kP2p,
                    "unexpected_hit", rec_->now(), env->size);
    }
    if (env->rendezvous()) {
      // Late software match of a queued RTS: hand the receive back to the
      // transport, which runs CTS + data. No extra copy — rendezvous's point.
      env->grant(posted);
    } else {
      // Eager unexpected hit: the data already sits in a temporary buffer;
      // pay the allocation/copy penalty before completing (paper §2.2.1 —
      // the cost ADAPT's M > N rule exists to avoid).
      const TimeNs copy_cost =
          costs_.unexpected_overhead +
          static_cast<TimeNs>(costs_.memcpy_beta *
                              static_cast<double>(env->size));
      const std::uint32_t slot =
          finalize_slots_.acquire({posted, std::move(*env)});
      exec_.post_progress([this, slot] { run_finalize_slot(slot); },
                          copy_cost);
    }
  } else if (rec_) {
    rec_->metrics()
        .histogram("posted_queue_depth")
        .record(static_cast<std::int64_t>(matcher_.posted_count()));
  }
  return req;
}

void Endpoint::deliver(Envelope env) {
  // A poisoned endpoint has abandoned its operation: late arrivals (straggler
  // frames, retransmits that raced the abort) are dropped on the floor.
  if (poisoned()) return;
  // Runs at arrival time WITHOUT the receiver's CPU: matching against
  // pre-posted receives is NIC-offloaded (Aries/Portals-style). Anything that
  // does need the CPU (completion callbacks, unexpected copies, software
  // rendezvous matches) is deferred through the executor by the paths below.
  // arrive() moves from env only on the unexpected (miss) path; on a hit it
  // is untouched, so the rendezvous/finalise uses below stay valid.
  const bool payload = env.bytes() != nullptr;
  if (auto recv = matcher_.arrive(std::move(env), pool_)) {
    if (env.rendezvous()) {
      env.grant(*recv);
    } else {
      // Expected eager message: its one copy, from the sender's buffer
      // straight into the posted receive. The receive still completes at
      // its finalisation, after the progress overhead.
      env.place_into(*recv);
      const std::uint32_t slot =
          finalize_slots_.acquire({std::move(*recv), std::move(env)});
      exec_.post_progress([this, slot] { run_finalize_slot(slot); },
                          costs_.cpu_overhead);
    }
  } else {
    // Queued as unexpected (an eager payload or an RTS); a later irecv picks
    // it up. Sample the queue's depth at its high-water moments.
    if (payload) ++unexpected_payloads_;
    if (rec_ == nullptr) return;
    rec_->metrics()
        .histogram("unexpected_queue_depth")
        .record(static_cast<std::int64_t>(matcher_.unexpected_count()));
  }
}

void Endpoint::finalize_recv(const PostedRecv& recv, const Envelope& env) {
  // The receive may have failed (poison) while this finalisation was queued:
  // completion is final, so neither place into the buffer nor complete again.
  if (recv.request->complete()) return;
  // Only a captured payload is left to place here (an unexpected hit, a
  // reliable bulk frame); every other path placed its bytes on arrival.
  ADAPT_CHECK(!env.borrowing()) << "borrow outlived its data leg";
  env.write_into(recv);
  ++recvs_done_;
  if (rec_) {
    auto& rc = rec_->metrics().rank(rank_);
    ++rc.recvs;
    rc.recv_bytes += env.size;
  }
  recv.request->mark_complete(env.src, env.tag, env.size);
}

}  // namespace adapt::mpi
