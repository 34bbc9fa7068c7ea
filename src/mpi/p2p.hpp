// Wait primitives on top of request completion — the synchronisation the
// blocking (Alg. 1) and nonblocking (Alg. 2) baselines rely on, implemented
// over exactly the same completion events ADAPT attaches callbacks to.
//
// A completed request fires in the PROGRESS context; waiters are application
// code, so their coroutines are woken through the owning rank's MAIN-thread
// executor — which is where injected noise can delay them. This is the
// asymmetry of Fig. 7: ADAPT's callback chains never cross this boundary,
// the Wait/Waitall baselines cross it once per synchronisation point.
//
// Waiting allocates nothing: each wait parks a RequestWaiter that lives on
// its own coroutine frame in the request's single waiter slot (request.hpp),
// and the resume posted through the owner's executor captures only the
// coroutine handle.
#pragma once

#include <algorithm>
#include <coroutine>
#include <span>
#include <string>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/mpi/request.hpp"
#include "src/sim/task.hpp"

namespace adapt::mpi {

namespace detail {

/// Resumes `h` on the request owner's main thread (directly when the request
/// carries no executor, e.g. in unit tests of the matching layer).
inline void wake_on_main(const Request& request, std::coroutine_handle<> h) {
  if (RankExecutor* exec = request.owner_exec()) {
    exec->post([h] { h.resume(); }, 0);
  } else {
    h.resume();
  }
}

/// Converts a failed request into an exception at the wait boundary — the
/// error-propagation contract: callbacks observe req.failed() themselves,
/// coroutine code gets a FaultError unwinding the whole collective.
inline void throw_if_failed(const RequestPtr& request) {
  if (!request->failed()) return;
  throw FaultError(request->error(),
                   std::string(request->kind() == Request::Kind::kSend
                                   ? "send to rank "
                                   : "recv from rank ") +
                       std::to_string(request->peer()) + " failed");
}

/// The awaiter of wait() and wait_any(): one waiter, living on the awaiting
/// frame, parked in the waiter slot of every request. The first completion
/// detaches it from the others before posting the resume, so later
/// completions touch nothing of this frame; a frame destroyed mid-wait
/// detaches it too.
class AwaitAny : RequestWaiter {
 public:
  explicit AwaitAny(std::span<const RequestPtr> requests)
      : requests_(requests) {}
  AwaitAny(const AwaitAny&) = delete;
  AwaitAny& operator=(const AwaitAny&) = delete;
  ~AwaitAny() { detach(); }

  bool await_ready() const noexcept {
    return std::any_of(requests_.begin(), requests_.end(),
                       [](const RequestPtr& r) { return r && r->complete(); });
  }
  void await_suspend(std::coroutine_handle<> h) {
    handle_ = h;
    wake = [](RequestWaiter& self, Request& request) {
      auto& any = static_cast<AwaitAny&>(self);
      any.detach();
      wake_on_main(request, any.handle_);
    };
    for (const RequestPtr& request : requests_) {
      if (request) request->park(*this);
    }
  }
  void await_resume() const noexcept {}

 private:
  void detach() {
    for (const RequestPtr& request : requests_) {
      if (request) request->unpark(*this);
    }
  }

  std::span<const RequestPtr> requests_;
  std::coroutine_handle<> handle_;
};

}  // namespace detail

/// MPI_Wait: suspends until the request completes; throws FaultError if it
/// completed with an error.
inline sim::Task<> wait(RequestPtr request) {
  ADAPT_CHECK(request != nullptr);
  co_await detail::AwaitAny(std::span<const RequestPtr>(&request, 1));
  detail::throw_if_failed(request);
}

/// MPI_Waitall: suspends until every request completes. (Awaiting requests in
/// sequence completes at the same instant all of them are done — this is the
/// synchronisation barrier the paper blames for serialising the baselines.)
inline sim::Task<> wait_all(std::vector<RequestPtr> requests) {
  for (auto& request : requests) {
    if (request) co_await wait(request);
  }
}

/// MPI_Waitany: suspends until at least one request completes; returns the
/// index of a completed request (lowest index among the completed). Throws
/// FaultError if the returned request completed with an error.
sim::Task<std::size_t> wait_any(std::vector<RequestPtr> requests);

}  // namespace adapt::mpi
