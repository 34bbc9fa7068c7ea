#include "src/coll/pipeline.hpp"

#include <algorithm>

#include "src/gpu/device.hpp"
#include "src/support/error.hpp"

namespace adapt::coll::detail {

namespace {

/// A reduce callback's state: the receive slot (child * M' + k, M' =
/// min(S, M)) in bits 32-62, whether the receive landed in a lent window
/// (bit 63), and the segment in the low word.
constexpr std::uint64_t kWindowed = std::uint64_t{1} << 63;
constexpr std::uint64_t pack(std::size_t slot, int s, bool windowed) {
  return (windowed ? kWindowed : 0) |
         (static_cast<std::uint64_t>(slot) << 32) |
         static_cast<std::uint32_t>(s);
}
constexpr std::size_t slot_of(std::uint64_t v) {
  return static_cast<std::size_t>((v & ~kWindowed) >> 32);
}
constexpr int seg_of(std::uint64_t v) {
  return static_cast<int>(v & 0xffffffffu);
}
constexpr bool windowed_of(std::uint64_t v) { return (v & kWindowed) != 0; }

}  // namespace

AdaptPipeline::AdaptPipeline(runtime::Context& ctx, Edges edges,
                             Stages stages, mpi::MutView buffer,
                             mpi::ReduceOp op, mpi::Datatype dtype,
                             const CollOpts& opts, bool gated,
                             std::function<void()> on_drained)
    : ctx_(&ctx),
      edges_(std::move(edges)),
      stages_(stages),
      buffer_(buffer),
      op_(op),
      dtype_(dtype),
      opts_(opts),
      segs_(buffer.size, opts.segment_size),
      gated_(gated),
      on_drained_(std::move(on_drained)) {
  ADAPT_CHECK(opts_.outstanding_sends >= 1);
  ADAPT_CHECK(opts_.outstanding_recvs >= 1);
  const auto S = static_cast<std::size_t>(segs_.count());
  const std::size_t nkids = kids();
  if (gated_) local_ready_.assign(S, 0);
  if (has_bcast()) {
    received_.assign(S, 0);
    next_send_.assign(nkids, 0);
    inflight_.assign(nkids, 0);
    // §4.1 host-cache bookkeeping. A non-root rank whose parent edge lands
    // in HOST memory keeps the cache as its primary space and flushes each
    // segment down to its GPU; the root's data starts on the GPU, so it
    // pulls each segment UP into the cache.
    if (opts_.gpu_host_cache) {
      if (edges_.is_root) {
        flushes_ = true;
        stage_dst_ = MemSpace::kHost;
      } else {
        flushes_ = opts_.spaces(edges_.parent_global, ctx.rank()).dst_space ==
                   MemSpace::kHost;
        stage_dst_ = MemSpace::kDevice;
      }
    }
    if (flushes_) {
      ADAPT_CHECK(ctx.gpu() != nullptr) << "gpu_host_cache on a non-GPU rank";
      alt_ready_.assign(S, 0);
      child_needs_alt_.assign(nkids, 0);
      for (std::size_t c = 0; c < nkids; ++c) {
        child_needs_alt_[c] =
            opts_.spaces(ctx.rank(), edges_.kids_global[c]).src_space ==
            stage_dst_;
      }
    }
  }
  if (has_reduce()) {
    contributed_.assign(S, 0);
    next_recv_.assign(nkids, 0);
    ready_q_.assign(S, 0);
    // At most min(S, M) receives per child are ever posted at once, one per
    // slot; a slot is re-posted only once its fold event ran.
    slots_per_kid_ =
        std::min(S, static_cast<std::size_t>(opts_.outstanding_recvs));
    const std::size_t slots = nkids * slots_per_kid_;
    ADAPT_CHECK(slots < (std::size_t{1} << 31))
        << nkids << " children x " << slots_per_kid_
        << " receive slots overflow the callback packing";
    if (gated_) {
      windows_.resize(slots);  // empty until a receive borrows one
      parked_.reserve(slots);
    }
  }
}

int AdaptPipeline::tags() const {
  return stages_ == Stages::kReduceBcast ? 2 * segs_.count() : segs_.count();
}

mpi::MutView AdaptPipeline::piece(int s) {
  return buffer_.slice(segs_.offset(s), segs_.length(s));
}

Tag AdaptPipeline::bcast_tag(int s) const {
  return base_tag_ + (stages_ == Stages::kReduceBcast ? segs_.count() : 0) +
         s;
}

// ------------------------------------------------------------------ round ---

void AdaptPipeline::start(Tag base_tag) {
  base_tag_ = base_tag;
  error_ = mpi::ErrCode::kOk;
  remaining_ = 0;
  outstanding_ = 0;
  std::fill(local_ready_.begin(), local_ready_.end(), char{0});
  if (has_bcast()) {
    // A root's payload is there at start unless it is released piecewise or
    // produced by the reduce half.
    const bool root_ready =
        edges_.is_root && stages_ == Stages::kBcast && !gated_;
    std::fill(received_.begin(), received_.end(),
              root_ready ? char{1} : char{0});
    std::fill(alt_ready_.begin(), alt_ready_.end(), char{0});
    std::fill(next_send_.begin(), next_send_.end(), 0);
    std::fill(inflight_.begin(), inflight_.end(), 0);
    next_recv_post_ = 0;
  }
  if (has_reduce()) {
    std::fill(contributed_.begin(), contributed_.end(), 0);
    std::fill(next_recv_.begin(), next_recv_.end(), 0);
    parked_.clear();
    ready_head_ = ready_tail_ = 0;
    inflight_up_ = 0;
    start_reduce();
  }
  if (has_bcast()) start_bcast();
}

void AdaptPipeline::release(int first, int end) {
  if (error_ != mpi::ErrCode::kOk) return;  // round dying
  for (int s = first; s < end; ++s)
    local_ready_[static_cast<std::size_t>(s)] = 1;
  if (!has_reduce()) {
    if (edges_.is_root) {
      for (int s = first; s < end; ++s)
        received_[static_cast<std::size_t>(s)] = 1;
      pump_children();
    }
    return;
  }
  for (int s = first; s < end; ++s) {
    if (kids() == 0) {
      reduce_segment_ready(s);
      continue;
    }
    // Replay, in arrival order, the folds that beat the local data.
    auto keep = parked_.begin();
    for (const std::uint64_t packed : parked_) {
      if (seg_of(packed) == s) {
        schedule_fold(packed);
      } else {
        *keep++ = packed;
      }
    }
    parked_.erase(keep, parked_.end());
  }
}

bool AdaptPipeline::arrived(int s) const {
  const auto si = static_cast<std::size_t>(s);
  // The bcast half delivers the final bytes everywhere.
  if (has_bcast()) return received_[si] != 0;
  // contributed_ only advances once the local data is folded in, so
  // reaching the child count implies the local data too.
  if (kids() == 0) return !gated_ || local_ready_[si] != 0;
  return contributed_[si] == static_cast<int>(kids());
}

void AdaptPipeline::fail(mpi::ErrCode code) {
  if (error_ == mpi::ErrCode::kOk) error_ = code;
}

void AdaptPipeline::cb_exit() {
  --outstanding_;
  if (on_drained_) {
    if (drained()) {
      // Every callback that could touch a window has retired; a failed
      // round may have left some lent.
      for (mpi::Payload& w : windows_) w = mpi::Payload{};
      on_drained_();
    }
    return;
  }
  // One-shot: wake the caller once the round drained or at its first
  // failure, and free a machine whose caller has already left.
  if (waiter_ && caller_done()) {
    ctx_->defer(0, [h = waiter_] { h.resume(); });
    waiter_ = nullptr;
  }
  if (detached_ && outstanding_ == 0) delete this;
}

void AdaptPipeline::detach() {
  waiter_ = nullptr;
  if (outstanding_ == 0) {
    delete this;
  } else {
    detached_ = true;
  }
}

CollRequest AdaptPipeline::start_request(runtime::Context& ctx, Edges edges,
                                         Stages stages, mpi::MutView buffer,
                                         mpi::ReduceOp op, mpi::Datatype dtype,
                                         const CollOpts& opts, Tag base_tag) {
  auto* m = new AdaptPipeline(ctx, std::move(edges), stages, buffer, op,
                              dtype, opts, /*gated=*/false);
  m->start(base_tag);
  return CollRequest(m);
}

// -------------------------------------------------------------- bcast half ---

void AdaptPipeline::start_bcast() {
  const int S = segs_.count();
  remaining_ += (edges_.is_root ? 0 : S) + static_cast<int>(kids()) * S +
                (flushes_ ? S : 0);
  if (!edges_.is_root) {
    const int prepost = std::min(S, opts_.outstanding_recvs);
    for (int i = 0; i < prepost; ++i) post_bcast_recv();
  } else {
    if (flushes_) {
      for (int s = 0; s < S; ++s) stage(s);
    }
    pump_children();
  }
}

void AdaptPipeline::post_bcast_recv() {
  if (error_ != mpi::ErrCode::kOk) return;
  if (next_recv_post_ >= segs_.count()) return;
  const int s = next_recv_post_++;
  ++outstanding_;
  auto req = ctx_->irecv(edges_.parent_global, bcast_tag(s), piece(s));
  req->set_completion_cb([this, s](mpi::Request& r) {
    if (r.failed()) {
      fail(r.error());
    } else {
      on_bcast_recv(s);
    }
    cb_exit();
  });
}

void AdaptPipeline::on_bcast_recv(int s) {
  if (error_ != mpi::ErrCode::kOk) return;
  segment_event(*ctx_, "seg_recv", s);
  received_[static_cast<std::size_t>(s)] = 1;
  --remaining_;
  post_bcast_recv();
  if (flushes_) stage(s);
  pump_children();
}

// §4.1: an async stream copy into the other memory space, overlapped with
// everything else.
void AdaptPipeline::stage(int s) {
  gpu::Device* dev = ctx_->gpu();
  const MemSpace src = stage_dst_ == MemSpace::kDevice ? MemSpace::kHost
                                                       : MemSpace::kDevice;
  ++outstanding_;
  dev->stream(s % dev->num_streams())
      .memcpy_async(stage_dst_, src, segs_.length(s), [this, s] {
        if (error_ == mpi::ErrCode::kOk) {
          alt_ready_[static_cast<std::size_t>(s)] = 1;
          --remaining_;
          for (std::size_t c = 0; c < kids(); ++c) {
            if (child_needs_alt_[c]) pump_child(c);
          }
        }
        cb_exit();
      });
}

bool AdaptPipeline::sendable(std::size_t c, int s) const {
  if (flushes_ && child_needs_alt_[c])
    return alt_ready_[static_cast<std::size_t>(s)] != 0;
  return received_[static_cast<std::size_t>(s)] != 0;
}

void AdaptPipeline::pump_children() {
  for (std::size_t c = 0; c < kids(); ++c) pump_child(c);
}

// The Isend_cb loop: keep <= N sends in flight per child, advancing through
// segments in order as they become locally available.
void AdaptPipeline::pump_child(std::size_t c) {
  while (error_ == mpi::ErrCode::kOk &&
         inflight_[c] < opts_.outstanding_sends &&
         next_send_[c] < segs_.count() && sendable(c, next_send_[c])) {
    const int s = next_send_[c]++;
    ++inflight_[c];
    ++outstanding_;
    segment_event(*ctx_, "seg_send", s);
    const Rank child = edges_.kids_global[c];
    auto req = ctx_->isend(child, bcast_tag(s), piece(s).as_const(),
                           opts_.spaces(ctx_->rank(), child));
    req->set_completion_cb([this, c](mpi::Request& r) {
      if (r.failed()) {
        fail(r.error());
      } else {
        --inflight_[c];
        --remaining_;
        pump_child(c);
      }
      cb_exit();
    });
  }
}

// ------------------------------------------------------------- reduce half ---

void AdaptPipeline::start_reduce() {
  const int S = segs_.count();
  remaining_ += S;  // root: segments reduced; others: segments sent up
  if (kids() == 0) {
    // Leaf: every segment is ready as soon as its local data is; the
    // N-outstanding pipeline to the parent takes over.
    if (!gated_) {
      for (int s = 0; s < S; ++s) reduce_segment_ready(s);
    }
    return;
  }
  for (std::size_t slot = 0; slot < kids() * slots_per_kid_; ++slot)
    post_reduce_recv(slot);
}

void AdaptPipeline::post_reduce_recv(std::size_t slot) {
  if (error_ != mpi::ErrCode::kOk) return;
  const std::size_t c = slot / slots_per_kid_;
  if (next_recv_[c] >= segs_.count()) return;
  const int s = next_recv_[c]++;
  ++outstanding_;
  const Rank child = edges_.kids_global[c];
  // Once segment s's local data is in place, the child's bytes fold straight
  // into the accumulator where they land. Before a gated segment is
  // released its piece may still change, so they wait in a window lent for
  // this receive, sized for the largest segment, until the fold event.
  const bool windowed =
      gated_ && local_ready_[static_cast<std::size_t>(s)] == 0;
  mpi::RequestPtr req;
  if (windowed) {
    windows_[slot] = mpi::Payload::recv_scratch(
        ctx_->pool(), segs_.length(0), buffer_.synthetic());
    req = ctx_->irecv(child, base_tag_ + s,
                      windows_[slot].view().slice(0, segs_.length(s)));
  } else {
    req = ctx_->irecv(child, base_tag_ + s, piece(s), dtype_, op_);
  }
  req->set_completion_cb(
      [this, packed = pack(slot, s, windowed)](mpi::Request& r) {
        if (r.failed()) {
          fail(r.error());
        } else if (error_ == mpi::ErrCode::kOk) {
          segment_event(*ctx_, "seg_recv", seg_of(packed));
          schedule_fold(packed);
        }
        cb_exit();
      });
}

void AdaptPipeline::schedule_fold(std::uint64_t packed) {
  ++outstanding_;
  const int s = seg_of(packed);
  const Bytes len = segs_.length(s);
  auto fold = [this, packed] {
    run_fold(packed);
    cb_exit();
  };
  if (opts_.gpu_reduce) {
    gpu::Device* dev = ctx_->gpu();
    ADAPT_CHECK(dev != nullptr) << "gpu_reduce on a rank without a GPU";
    // §4.2: round-robin streams so independent segments overlap on the
    // device.
    dev->stream(s % dev->num_streams()).launch(dev->reduce_cost(len), fold);
  } else {
    // ADAPT folds run inside the event callbacks (progress context).
    ctx_->defer_progress(reduce_cost(*ctx_, opts_, len), fold);
  }
}

// The modelled fold: a folding receive already combined the bytes when
// they landed, so only a windowed one has arithmetic left to do here.
void AdaptPipeline::run_fold(std::uint64_t packed) {
  if (error_ != mpi::ErrCode::kOk) return;
  const std::size_t slot = slot_of(packed);
  const int s = seg_of(packed);
  const auto si = static_cast<std::size_t>(s);
  if (windowed_of(packed)) {
    if (local_ready_[si] == 0) {
      // Child data beat this rank's own contribution: park the fold until
      // release() covers segment s.
      parked_.push_back(packed);
      return;
    }
    const Bytes len = segs_.length(s);
    apply_if_real(piece(s), windows_[slot].cview().slice(0, len), op_, dtype_,
                  len);
    windows_[slot] = mpi::Payload{};  // back to the pool
  }
  post_reduce_recv(slot);
  if (++contributed_[si] == static_cast<int>(kids())) reduce_segment_ready(s);
}

void AdaptPipeline::reduce_segment_ready(int s) {
  segment_event(*ctx_, "seg_ready", s);
  if (edges_.is_root) {
    --remaining_;
    if (stages_ == Stages::kReduceBcast) {
      // The fully reduced segment is now this root's broadcast payload.
      received_[static_cast<std::size_t>(s)] = 1;
      pump_children();
    }
    return;
  }
  ready_q_[static_cast<std::size_t>(ready_tail_++)] = s;
  pump_parent();
}

void AdaptPipeline::pump_parent() {
  while (error_ == mpi::ErrCode::kOk &&
         inflight_up_ < opts_.outstanding_sends && ready_head_ < ready_tail_) {
    const int s = ready_q_[static_cast<std::size_t>(ready_head_++)];
    ++inflight_up_;
    ++outstanding_;
    segment_event(*ctx_, "seg_send", s);
    auto req = ctx_->isend(edges_.parent_global, base_tag_ + s,
                           piece(s).as_const(),
                           opts_.spaces(ctx_->rank(), edges_.parent_global));
    req->set_completion_cb([this](mpi::Request& r) {
      if (r.failed()) {
        fail(r.error());
      } else {
        --inflight_up_;
        --remaining_;
        pump_parent();
      }
      cb_exit();
    });
  }
}

}  // namespace adapt::coll::detail

namespace adapt::coll {

CollRequest::~CollRequest() {
  if (machine_) machine_->detach();
}

// The callback chains ran in the progress context; the collective's
// completion is observed on the application thread.
void CollRequest::Awaiter::await_suspend(std::coroutine_handle<> h) {
  ADAPT_CHECK(machine != nullptr) << "wait on a moved-from CollRequest";
  if (machine->caller_done()) {
    ctx->defer(0, [h] { h.resume(); });
  } else {
    machine->waiter_ = h;
  }
}

void CollRequest::Awaiter::await_resume() const {
  if (machine->error_ == mpi::ErrCode::kOk) return;
  throw mpi::FaultError(
      machine->error_,
      machine->has_bcast() ? "adapt bcast failed" : "adapt reduce failed");
}

}  // namespace adapt::coll
