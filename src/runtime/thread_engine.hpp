// Real-execution engine: every rank is an OS thread with its own mailbox
// event loop; messages are actual byte copies between address spaces;
// time is the steady clock. The same rank programs that run at paper scale on
// the SimEngine run here for real — this is the engine the examples default
// to, and it doubles as a stress test of the framework's concurrency
// assumptions (endpoints are rank-confined; cross-rank hand-off happens only
// through mailboxes).
//
// Protocol notes: the transport is eager-only. A payload stays in the
// sender's buffer until the receiver's thread delivers it: an expected
// message is copied once, straight into the posted receive, an unexpected
// one into a pool block; the send completes only after that. `compute` burns
// real CPU, and cost parameters of the machine model are ignored — real
// costs are real.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/mpi/endpoint.hpp"
#include "src/runtime/context.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/topo/hardware.hpp"

namespace adapt::tune {
class PlanCache;  // defined in src/tune/plan_cache.hpp
}

namespace adapt::runtime {

class ThreadEngine final : public Engine {
 public:
  /// The machine is used for rank count and topology queries (topo-aware
  /// trees still work); its timing parameters are ignored.
  explicit ThreadEngine(const topo::Machine& machine);
  ~ThreadEngine() override;

  int nranks() const override { return machine_.nranks(); }
  RunResult run(const RankProgram& program) override;
  const topo::Machine& machine() const { return machine_; }
  /// The engine's persistent-collective plan cache (never null).
  tune::PlanCache& plan_cache() { return *plan_cache_; }

 private:
  class Mailbox;
  class ThreadContext;
  class ThreadTransport;

  const topo::Machine& machine_;
  /// Declared before the endpoints/mailboxes that hold BufferRefs so it is
  /// destroyed after them (pool-lifetime contract). Mutex-guarded: rank
  /// threads acquire and release concurrently.
  support::BufferPool pool_;
  std::unique_ptr<ThreadTransport> transport_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<mpi::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<tune::PlanCache> plan_cache_;
};

}  // namespace adapt::runtime
