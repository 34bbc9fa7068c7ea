#include "src/mpi/request.hpp"

#include <new>

namespace adapt::mpi {

namespace {

/// A Request's fields without the fold spec, in declaration order.
struct RequestWithoutFold {
  detail::RequestLink link;
  Request::Kind kind;
  Rank peer;
  Tag tag;
  Bytes size;
  RankExecutor* owner_exec;
  bool complete;
  ErrCode error;
  Rank actual_src;
  Tag actual_tag;
  Bytes actual_size;
  std::uint32_t refs;
  RequestPool* pool;
  RequestWaiter* waiter;
  RequestCallback on_complete;
};

}  // namespace

// Folding receives cost no request memory: the op and datatype fill padding.
static_assert(sizeof(Request) == sizeof(RequestWithoutFold));

void Request::release(Request* request) {
  if (request->pool_ != nullptr) {
    request->pool_->recycle(request);
  } else {
    delete request;
  }
}

RequestPtr RequestPool::acquire(Request::Kind kind, Rank peer, Tag tag,
                                Bytes size, RankExecutor* owner_exec) {
  Request* request = free_;
  if (request != nullptr) {
    free_ = static_cast<Request*>(request->next);
    request->~Request();
    ::new (static_cast<void*>(request))
        Request(kind, peer, tag, size, owner_exec);
  } else {
    request = new Request(kind, peer, tag, size, owner_exec);
  }
  request->pool_ = this;
  request->link_before(pending_);
  ++live_;
  return RequestPtr(request);
}

void RequestPool::recycle(Request* request) {
  request->unlink();
  request->waiter_ = nullptr;
  {
    // The callback's captures may hold the last handles to other requests of
    // this pool: they recycle (recursively) while this one still counts as
    // live, so the pool cannot free itself underneath this call.
    RequestCallback cb = std::move(request->on_complete_);
    request->on_complete_ = nullptr;
  }
  request->next = free_;
  free_ = request;
  if (--live_ == 0 && orphaned_) delete this;
}

void RequestPool::orphan() {
  orphaned_ = true;
  // Requests still incomplete can no longer complete: drop them from the
  // list so their handles release into a pool nobody iterates.
  while (pending_.linked()) pending_.next->unlink();
  if (live_ == 0) delete this;
}

RequestPool::~RequestPool() {
  while (free_ != nullptr) {
    Request* next = static_cast<Request*>(free_->next);
    delete free_;
    free_ = next;
  }
}

}  // namespace adapt::mpi
