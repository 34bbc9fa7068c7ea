#include "src/mpi/p2p.hpp"

namespace adapt::mpi {

sim::Task<std::size_t> wait_any(std::vector<RequestPtr> requests) {
  ADAPT_CHECK(!requests.empty());
  co_await detail::AwaitAny(requests);
  std::size_t i = 0;
  while (i < requests.size() && !(requests[i] && requests[i]->complete())) ++i;
  ADAPT_CHECK(i < requests.size()) << "wait_any woke with nothing complete";
  detail::throw_if_failed(requests[i]);
  co_return i;
}

}  // namespace adapt::mpi
