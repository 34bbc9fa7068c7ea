// Communication requests.
//
// A Request tracks one nonblocking P2P operation. Two completion mechanisms
// coexist, mirroring Open MPI's layering as the paper describes (§2.2.1):
//
//  * `set_completion_cb` — the low-level hook "below MPI_Isend/MPI_Irecv"
//    that the ADAPT collectives attach their event callbacks to
//    (set_Isend_cb / set_Irecv_cb in the paper's Figure 4);
//  * `wait()`-style coroutine awaiting (src/mpi/p2p.hpp) — the MPI_Wait /
//    MPI_Waitall semantics the blocking and nonblocking baselines use, built
//    on top of the same completion event.
//
// Lifecycle. A request lives in a slot of its endpoint's RequestPool and is
// held through RequestPtr, an intrusively counted handle. The count is a
// plain integer: a request is only ever touched on its owner rank's
// execution context. Holders read a request's status after it completed
// (throw_if_failed, actual_size()) and nothing frees a request explicitly,
// so its slot returns to the pool's free list exactly when the last handle
// lets go. The pool also keeps its incomplete requests on an intrusive FIFO
// list in issue order: completion unlinks a request, poison() fails the list
// head by head. An endpoint that dies while handles are still alive orphans
// its pool, which frees itself when the last request comes back.
//
// Waiting costs no allocation either: a request has one waiter slot, and the
// waiter (a function pointer plus the awaiting coroutine's state) lives on
// the awaiting frame. Completion runs the callback first, then the waiter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/mpi/datatype.hpp"
#include "src/mpi/errors.hpp"
#include "src/mpi/op.hpp"
#include "src/support/error.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

class Request;
class RequestPool;
class RankExecutor;  // endpoint.hpp
using RequestCallback = std::function<void(Request&)>;

/// A request's waiter slot: `wake` runs once, after the completion callback,
/// with the waiter's own address (the enclosing awaiter recovers its state
/// from it). Waiters live on the awaiting coroutine's frame (p2p.hpp).
struct RequestWaiter {
  void (*wake)(RequestWaiter& self, Request& request) = nullptr;
};

namespace detail {

/// Intrusive circular list hook; a self-linked hook is on no list.
struct RequestLink {
  RequestLink* prev = this;
  RequestLink* next = this;

  bool linked() const { return next != this; }
  void unlink() {
    prev->next = next;
    next->prev = prev;
    prev = next = this;
  }
  void link_before(RequestLink& pos) {
    prev = pos.prev;
    next = &pos;
    pos.prev->next = this;
    pos.prev = this;
  }
};

}  // namespace detail

class Request : private detail::RequestLink {
 public:
  enum class Kind { kSend, kRecv };

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Executor of the owning rank's main thread; wait() wakes coroutines
  /// through it (completion callbacks fire in the progress context instead).
  RankExecutor* owner_exec() const { return owner_exec_; }

  Kind kind() const { return kind_; }
  Rank peer() const { return peer_; }       ///< dst for sends, src for recvs
  Tag tag() const { return tag_; }
  Bytes size() const { return size_; }
  bool complete() const { return complete_; }

  /// Receives only: a folding receive lands each message as
  /// `buffer = buffer OP message` over `fold_dtype()` elements instead of
  /// copying it (Endpoint::irecv's `fold`; Envelope::write_into).
  bool folds() const { return folds_; }
  ReduceOp fold_op() const { return static_cast<ReduceOp>(fold_op_); }
  Datatype fold_dtype() const { return static_cast<Datatype>(fold_dtype_); }
  /// Runtime-internal: makes this (receive) request a folding one.
  void set_fold(ReduceOp op, Datatype dtype) {
    folds_ = true;
    fold_op_ = static_cast<std::uint8_t>(op);
    fold_dtype_ = static_cast<std::uint8_t>(dtype);
  }

  /// Error code set at completion; kOk for successful operations. A failed
  /// request is complete (callbacks fire, waiters wake) but carries no data.
  ErrCode error() const { return error_; }
  bool failed() const { return error_ != ErrCode::kOk; }

  // Filled in at completion of a receive (meaningful with wildcards).
  Rank actual_src() const { return actual_src_; }
  Tag actual_tag() const { return actual_tag_; }
  Bytes actual_size() const { return actual_size_; }

  /// Attaches the event callback fired at completion. If the request already
  /// completed, the callback runs immediately. At most one callback.
  void set_completion_cb(RequestCallback cb) {
    ADAPT_CHECK(!on_complete_) << "completion callback already set";
    if (complete_) {
      cb(*this);
    } else {
      on_complete_ = std::move(cb);
    }
  }

  /// Parks `waiter` until completion (p2p.hpp). One waiter at a time; the
  /// request must still be incomplete.
  void park(RequestWaiter& waiter) {
    ADAPT_CHECK(!complete_) << "parking on a completed request";
    ADAPT_CHECK(waiter_ == nullptr || waiter_ == &waiter)
        << "request already has a waiter";
    waiter_ = &waiter;
  }
  /// Removes `waiter` if it is the one parked (no-op otherwise).
  void unpark(RequestWaiter& waiter) {
    if (waiter_ == &waiter) waiter_ = nullptr;
  }

  /// Runtime-internal: marks completion, fires the callback, wakes waiters.
  /// A no-op on a request that already failed (e.g. a transport completion
  /// racing a poison); completing the same request successfully twice is
  /// still a hard error.
  void mark_complete(Rank actual_src = kAnyRank, Tag actual_tag = kAnyTag,
                     Bytes actual_size = -1) {
    if (complete_) {
      ADAPT_CHECK(failed()) << "request completed twice";
      return;
    }
    complete_ = true;
    actual_src_ = actual_src == kAnyRank ? peer_ : actual_src;
    actual_tag_ = actual_tag == kAnyTag ? tag_ : actual_tag;
    actual_size_ = actual_size < 0 ? size_ : actual_size;
    notify();
  }

  /// Runtime-internal: completes the request with an error. Idempotent, and a
  /// no-op on an already-successful request — whichever outcome lands first
  /// wins, mirroring MPI's "completion is final" rule.
  void mark_failed(ErrCode code) {
    ADAPT_CHECK(code != ErrCode::kOk) << "mark_failed needs a nonzero code";
    if (complete_) return;
    complete_ = true;
    error_ = code;
    actual_src_ = peer_;
    actual_tag_ = tag_;
    actual_size_ = 0;
    notify();
  }

 private:
  friend class RequestPtr;
  friend class RequestPool;

  Request(Kind kind, Rank peer, Tag tag, Bytes size, RankExecutor* owner_exec)
      : kind_(kind), peer_(peer), tag_(tag), size_(size),
        owner_exec_(owner_exec) {}

  void notify() {
    unlink();  // off the pool's incomplete list
    if (on_complete_) {
      auto cb = std::move(on_complete_);
      on_complete_ = nullptr;
      cb(*this);
    }
    if (RequestWaiter* waiter = std::exchange(waiter_, nullptr)) {
      waiter->wake(*waiter, *this);
    }
  }

  /// Called by the last handle: back to the pool, or freed if standalone.
  static void release(Request* request);

  Kind kind_;
  Rank peer_;
  Tag tag_;
  Bytes size_;
  RankExecutor* owner_exec_ = nullptr;
  bool complete_ = false;
  // The fold spec sits in the padding after `complete_`, so it costs a
  // Request no bytes (static_assert in request.cpp).
  bool folds_ = false;
  std::uint8_t fold_op_ = 0;
  std::uint8_t fold_dtype_ = 0;
  ErrCode error_ = ErrCode::kOk;
  Rank actual_src_ = kAnyRank;
  Tag actual_tag_ = kAnyTag;
  Bytes actual_size_ = 0;
  std::uint32_t refs_ = 0;
  RequestPool* pool_ = nullptr;  ///< null: standalone (RequestPtr::make)
  RequestWaiter* waiter_ = nullptr;
  RequestCallback on_complete_;
};

/// Counted handle to a Request. Copying bumps a plain integer; the last
/// handle returns the request to its pool (see the lifecycle note above).
class RequestPtr {
 public:
  RequestPtr() = default;
  RequestPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  RequestPtr(const RequestPtr& other) : p_(other.p_) { retain(); }
  RequestPtr(RequestPtr&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  RequestPtr& operator=(const RequestPtr& other) {
    RequestPtr(other).swap(*this);
    return *this;
  }
  RequestPtr& operator=(RequestPtr&& other) noexcept {
    RequestPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~RequestPtr() {
    if (p_ != nullptr && --p_->refs_ == 0) Request::release(p_);
  }

  /// A standalone request outside any endpoint pool (unit tests of the
  /// matching layer); freed when its last handle goes.
  static RequestPtr make(Request::Kind kind, Rank peer, Tag tag, Bytes size,
                         RankExecutor* owner_exec = nullptr) {
    return RequestPtr(new Request(kind, peer, tag, size, owner_exec));
  }

  Request* get() const { return p_; }
  Request* operator->() const { return p_; }
  Request& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const RequestPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

  void swap(RequestPtr& other) noexcept { std::swap(p_, other.p_); }

 private:
  friend class RequestPool;
  /// Adopts `request` as one more holder.
  explicit RequestPtr(Request* request) : p_(request) { retain(); }
  void retain() {
    if (p_ != nullptr) ++p_->refs_;
  }

  Request* p_ = nullptr;
};

/// An endpoint's request slots: a free list of recycled requests and the
/// FIFO list of incomplete ones in issue order. Owned by one Endpoint
/// through `Owner`, which orphans rather than deletes it while handles are
/// alive.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// A fresh incomplete request, appended to the incomplete list.
  RequestPtr acquire(Request::Kind kind, Rank peer, Tag tag, Bytes size,
                     RankExecutor* owner_exec);

  /// True while any issued request is incomplete.
  bool has_pending() const { return pending_.linked(); }
  /// The oldest incomplete request, or null.
  RequestPtr oldest_pending() {
    return has_pending() ? RequestPtr(static_cast<Request*>(pending_.next))
                         : RequestPtr();
  }

  /// unique_ptr deleter for the owning endpoint.
  struct Owner {
    void operator()(RequestPool* pool) const { pool->orphan(); }
  };

 private:
  friend class Request;
  ~RequestPool();

  void recycle(Request* request);
  void orphan();

  detail::RequestLink pending_;     ///< sentinel of the incomplete list
  Request* free_ = nullptr;         ///< recycled requests, chained via `next`
  std::size_t live_ = 0;            ///< requests with handles outstanding
  bool orphaned_ = false;
};

}  // namespace adapt::mpi
