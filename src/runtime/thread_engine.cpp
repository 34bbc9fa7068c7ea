#include "src/runtime/thread_engine.hpp"

#include <atomic>
#include <chrono>
#include <functional>

#include "src/support/error.hpp"
#include "src/support/log.hpp"
#include "src/support/slot_pool.hpp"
#include "src/tune/plan_cache.hpp"

namespace adapt::runtime {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- Mailbox ---

/// Single-consumer work queue: the owning rank thread drains it; any thread
/// may enqueue. Everything a rank does after startup happens through here,
/// which confines Endpoint state to its owner thread.
class ThreadEngine::Mailbox final : public mpi::RankExecutor {
 public:
  explicit Mailbox(const ThreadEngine& engine) : engine_(engine) {}

  TimeNs now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - engine_.epoch_)
        .count();
  }

  void post(std::function<void()> fn, TimeNs cpu_cost) override {
    enqueue(std::move(fn), cpu_cost);
  }
  void post_progress(std::function<void()> fn, TimeNs cpu_cost) override {
    enqueue(std::move(fn), cpu_cost);
  }
  void charge(TimeNs /*cpu_cost*/) override {}  // real work costs real time

  void enqueue(std::function<void()> fn, TimeNs /*cpu_cost*/) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
  }

  /// Drains tasks until `stop` becomes true (checked between tasks).
  void drain_until(const std::atomic<bool>& stop) {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return !queue_.empty() || stop.load(); });
        if (queue_.empty() && stop.load()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  void wake() { cv_.notify_one(); }

 private:
  const ThreadEngine& engine_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
};

// ---------------------------------------------------------- ThreadContext ---

class ThreadEngine::ThreadContext final : public Context {
 public:
  ThreadContext(ThreadEngine& engine, Rank rank, Mailbox& mailbox)
      : engine_(engine), rank_(rank), mailbox_(mailbox) {}

  Rank rank() const override { return rank_; }
  int nranks() const override { return engine_.machine_.nranks(); }
  TimeNs now() const override { return mailbox_.now(); }
  mpi::Endpoint& endpoint() override {
    return *engine_.endpoints_[static_cast<std::size_t>(rank_)];
  }
  const topo::Machine& machine() const override { return engine_.machine_; }
  support::BufferPool* pool() override { return &engine_.pool_; }
  tune::PlanCache* plan_cache() override { return engine_.plan_cache_.get(); }

  sim::Task<> compute(TimeNs cost) override {
    ADAPT_CHECK(cost >= 0);
    // Busy-spin on the rank's own thread: compute really occupies the CPU.
    const TimeNs until = now() + cost;
    while (now() < until) {
    }
    co_return;
  }

  void defer(TimeNs cpu_cost, std::function<void()> fn) override {
    mailbox_.enqueue(
        [this, cpu_cost, fn = std::move(fn)] {
          const TimeNs until = now() + cpu_cost;
          while (now() < until) {
          }
          fn();
        },
        0);
  }

  void defer_progress(TimeNs cpu_cost, std::function<void()> fn) override {
    defer(cpu_cost, std::move(fn));
  }

  sim::Task<> sleep_for(TimeNs duration) override {
    ADAPT_CHECK(duration >= 0);
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration));
    co_return;
  }

 private:
  ThreadEngine& engine_;
  Rank rank_;
  Mailbox& mailbox_;
};

// -------------------------------------------------------- ThreadTransport ---

class ThreadEngine::ThreadTransport final : public mpi::Transport {
 public:
  explicit ThreadTransport(ThreadEngine& engine) : engine_(engine) {
    outboxes_.resize(static_cast<std::size_t>(engine.machine_.nranks()));
    for (auto& box : outboxes_) box = std::make_unique<Outbox>();
  }

  void submit(mpi::Envelope env, MemSpace /*src*/, MemSpace /*dst*/,
              std::function<void()> on_sent,
              std::function<void(mpi::ErrCode)> /*on_failed*/) override {
    // In-process hand-off never loses a message, so on_failed never fires.
    const Rank src = env.src;
    const Rank dst = env.dst;
    Outbox& box = outbox(src);
    std::uint32_t slot = 0;
    {
      std::lock_guard<std::mutex> lock(box.mutex);
      slot = box.inflight.acquire(std::move(env));
    }
    // Eager hand-off: the receiver's thread matches and copies straight
    // from the sender's buffer; the sender completes only after that.
    engine_.mailboxes_[static_cast<std::size_t>(dst)]->enqueue(
        [this, src, dst, slot, on_sent = std::move(on_sent)]() mutable {
          Outbox& from = outbox(src);
          {
            // Held while deliver reads the bytes, so a concurrent
            // end_borrows cannot let the sender free them mid-copy.
            std::lock_guard<std::mutex> lock(from.mutex);
            engine_.endpoints_[static_cast<std::size_t>(dst)]->deliver(
                from.inflight.release(slot));
          }
          engine_.mailboxes_[static_cast<std::size_t>(src)]->enqueue(
              std::move(on_sent), 0);
        },
        0);
  }

  void end_borrows(Rank src) override {
    Outbox& box = outbox(src);
    std::lock_guard<std::mutex> lock(box.mutex);
    box.inflight.for_each(
        [this](mpi::Envelope& env) { env.capture(&engine_.pool_); });
  }

 private:
  /// A sender's envelopes between submit and delivery, where end_borrows
  /// can reach them from the sender's thread.
  struct Outbox {
    std::mutex mutex;
    support::SlotPool<mpi::Envelope> inflight;
  };

  Outbox& outbox(Rank r) { return *outboxes_[static_cast<std::size_t>(r)]; }

  ThreadEngine& engine_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;
};

// ------------------------------------------------------------ ThreadEngine ---

ThreadEngine::ThreadEngine(const topo::Machine& machine)
    : machine_(machine), epoch_(Clock::now()) {
  const int n = machine_.nranks();
  transport_ = std::make_unique<ThreadTransport>(*this);
  plan_cache_ = std::make_unique<tune::PlanCache>();
  for (Rank r = 0; r < n; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>(*this));
    endpoints_.push_back(std::make_unique<mpi::Endpoint>(
        r, n, *mailboxes_.back(), *transport_, mpi::EndpointCosts{}));
    endpoints_.back()->set_pool(&pool_);
    contexts_.push_back(
        std::make_unique<ThreadContext>(*this, r, *mailboxes_.back()));
  }
}

ThreadEngine::~ThreadEngine() = default;

RunResult ThreadEngine::run(const RankProgram& program) {
  const int n = machine_.nranks();
  RunResult result;
  result.rank_finish.assign(static_cast<std::size_t>(n), 0);
  std::vector<std::unique_ptr<std::atomic<bool>>> done;
  done.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    done.push_back(std::make_unique<std::atomic<bool>>(false));
  std::atomic<bool> failed{false};
  std::exception_ptr failure;
  std::mutex failure_mutex;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      auto& mailbox = *mailboxes_[static_cast<std::size_t>(r)];
      auto& flag = *done[static_cast<std::size_t>(r)];
      // Everything this rank logs carries its rank + engine-relative time.
      ScopedLogContext log_ctx(
          r,
          [](const void* arg) -> std::int64_t {
            return static_cast<const Mailbox*>(arg)->now();
          },
          &mailbox);
      // Start the rank program from inside the loop thread so the coroutine
      // is owned (and only ever resumed) by this thread.
      mailbox.enqueue(
          [&] {
            sim::run_detached(
                program(*contexts_[static_cast<std::size_t>(r)]),
                [&](std::exception_ptr ep) {
                  if (ep) {
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure) failure = ep;
                    failed.store(true);
                  }
                  result.rank_finish[static_cast<std::size_t>(r)] =
                      mailbox.now();
                  flag.store(true);
                  mailbox.wake();
                });
          },
          0);
      mailbox.drain_until(flag);
    });
  }
  for (auto& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
  result.total_time =
      *std::max_element(result.rank_finish.begin(), result.rank_finish.end());
  return result;
}

}  // namespace adapt::runtime
