#include "src/runtime/rank_core.hpp"

#include <algorithm>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"
#include "src/support/log.hpp"

namespace adapt::runtime {

// ----------------------------------------------------------------- SimRank ---

/// One simulated rank: the Context its program sees and the executor its
/// endpoint posts through, both backed by the core's clocks.
class RankCore::SimRank final : public Context, public mpi::RankExecutor {
 public:
  SimRank(RankCore& core, Rank rank, int nranks, const topo::Machine& machine,
          mpi::Transport& transport, mpi::EndpointCosts costs)
      : core_(core),
        rank_(rank),
        machine_(machine),
        endpoint_(rank, nranks, *this, transport, costs) {}

  // Context and RankExecutor.
  TimeNs now() const override { return core_.engine_.now_of(rank_); }

  // RankExecutor.
  void post(std::function<void()> fn, TimeNs cpu_cost) override {
    core_.run_on(rank_, std::move(fn), cpu_cost);
  }
  void post_progress(std::function<void()> fn, TimeNs cpu_cost) override {
    core_.run_progress(rank_, std::move(fn), cpu_cost);
  }
  void charge(TimeNs cpu_cost) override {
    core_.occupy(rank_, /*progress=*/false, /*noisy=*/false, cpu_cost);
  }

  // Context.
  Rank rank() const override { return rank_; }
  int nranks() const override { return endpoint_.nranks(); }
  mpi::Endpoint& endpoint() override { return endpoint_; }
  const topo::Machine& machine() const override { return machine_; }

  sim::Task<> compute(TimeNs cost) override {
    ADAPT_CHECK(cost >= 0);
    co_await sim::Suspend([this, cost](std::coroutine_handle<> h) {
      core_.run_on(rank_, [h] { h.resume(); }, cost);
    });
  }

  void defer(TimeNs cpu_cost, std::function<void()> fn) override {
    core_.run_on(rank_, std::move(fn), cpu_cost);
  }

  void defer_progress(TimeNs cpu_cost, std::function<void()> fn) override {
    core_.run_progress(rank_, std::move(fn), cpu_cost);
  }

  sim::Task<> sleep_for(TimeNs duration) override {
    ADAPT_CHECK(duration >= 0);
    co_await sim::Suspend([this, duration](std::coroutine_handle<> h) {
      core_.post(rank_, now() + duration, [h] { h.resume(); });
    });
  }

  gpu::Device* gpu() override { return core_.engine_.gpu_of(rank_); }
  support::BufferPool* pool() override { return &core_.pool_; }
  obs::Recorder* recorder() override { return endpoint_.recorder(); }
  tune::Tuner* tuner() override { return core_.engine_.tuner_service(); }
  tune::PlanCache* plan_cache() override {
    return core_.engine_.plan_cache_service();
  }
  Recovery* recovery() override { return core_.engine_.recovery_of(rank_); }

 private:
  RankCore& core_;
  Rank rank_;
  const topo::Machine& machine_;
  mpi::Endpoint endpoint_;
};

// ---------------------------------------------------------------- RankCore ---

RankCore::RankCore(SimEngine& engine, const topo::Machine& machine,
                   mpi::Transport& transport, support::BufferPool& pool,
                   std::shared_ptr<noise::NoiseModel> noise)
    : engine_(engine),
      pool_(pool),
      noise_(noise ? std::move(noise) : std::make_shared<noise::NoNoise>()),
      log_ctx_(log_level() != LogLevel::kOff) {
  const int n = machine.nranks();
  const mpi::EndpointCosts costs{machine.spec().cpu_overhead,
                                 machine.spec().unexpected_overhead,
                                 machine.spec().memcpy_beta};
  ranks_.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    ranks_.push_back(
        std::make_unique<SimRank>(*this, r, n, machine, transport, costs));
    ranks_.back()->endpoint().set_pool(&pool_);
  }
  busy_until_.assign(static_cast<std::size_t>(n), 0);
  progress_busy_until_.assign(static_cast<std::size_t>(n), 0);
}

RankCore::~RankCore() = default;

Context& RankCore::context(Rank r) {
  ADAPT_CHECK(r >= 0 && r < nranks());
  return *ranks_[static_cast<std::size_t>(r)];
}

mpi::Endpoint& RankCore::endpoint(Rank r) {
  ADAPT_CHECK(r >= 0 && r < nranks());
  return ranks_[static_cast<std::size_t>(r)]->endpoint();
}

void RankCore::run_on(Rank r, sim::EventFn&& fn, TimeNs cpu_cost) {
  post(r, occupy(r, /*progress=*/false, /*noisy=*/true, cpu_cost),
       std::move(fn));
}

void RankCore::run_progress(Rank r, sim::EventFn&& fn, TimeNs cpu_cost) {
  post(r, occupy(r, /*progress=*/true, /*noisy=*/false, cpu_cost),
       std::move(fn));
}

TimeNs RankCore::occupy(Rank r, bool progress, bool noisy, TimeNs cpu_cost) {
  ADAPT_CHECK(cpu_cost >= 0);
  const auto i = static_cast<std::size_t>(r);
  TimeNs& busy = progress ? progress_busy_until_[i] : busy_until_[i];
  const TimeNs now = engine_.now_of(r);
  const TimeNs ready = std::max(now, busy);
  const TimeNs start = noisy ? noise_->next_free(r, ready) : ready;
  busy = start + cpu_cost;
  if (obs::Recorder* rec = ranks_[i]->endpoint().recorder()) {
    rec->cpu_task(r, progress, now, ready, start, busy);
  }
  return busy;
}

void RankCore::post(Rank r, TimeNs t, sim::EventFn&& fn) {
  if (!log_ctx_) {
    engine_.schedule(r, r, t, std::move(fn));
    return;
  }
  const SimRank* rank = ranks_[static_cast<std::size_t>(r)].get();
  engine_.schedule(r, r, t, [r, rank, fn = std::move(fn)]() mutable {
    ScopedLogContext lc(
        r, [](const void* p) { return static_cast<const SimRank*>(p)->now(); },
        rank);
    fn();
  });
}

void RankCore::launch(const RankProgram& program) {
  const int n = nranks();
  result_ = RunResult{};
  result_.rank_finish.assign(static_cast<std::size_t>(n), -1);
  failures_.assign(static_cast<std::size_t>(n), nullptr);
  frames_.assign(static_cast<std::size_t>(n), nullptr);
  for (Rank r = 0; r < n; ++r) {
    run_on(
        r,
        [this, r, &program] {
          const sim::Detached run = sim::run_detached(
              program(context(r)), [this, r](std::exception_ptr ep) {
                const auto i = static_cast<std::size_t>(r);
                result_.rank_finish[i] = engine_.now_of(r);
                failures_[i] = ep;
                frames_[i] = nullptr;
              });
          // A program that finished at once has already freed its frame.
          const auto i = static_cast<std::size_t>(r);
          if (result_.rank_finish[i] < 0) frames_[i] = run.frame;
        },
        0);
  }
}

void RankCore::abandon() {
  for (std::coroutine_handle<>& frame : frames_) {
    if (frame) std::exchange(frame, nullptr).destroy();
  }
}

RunResult RankCore::finish() {
  const int n = nranks();
  int remaining = 0;
  std::size_t failed = failures_.size();
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (result_.rank_finish[i] < 0) ++remaining;
    if (failures_[i] &&
        (failed == failures_.size() ||
         result_.rank_finish[i] < result_.rank_finish[failed])) {
      failed = i;
    }
  }
  if (failed < failures_.size() || remaining > 0) abandon();
  if (failed < failures_.size()) std::rethrow_exception(failures_[failed]);
  ADAPT_CHECK(remaining == 0)
      << remaining << " of " << n
      << " ranks never finished: deadlock (blocked on a message that is "
         "never sent)";
  result_.total_time =
      *std::max_element(result_.rank_finish.begin(), result_.rank_finish.end());
  return std::move(result_);
}

std::uint64_t RankCore::matcher_bytes() const {
  std::uint64_t total = 0;
  for (const auto& rank : ranks_) {
    total += static_cast<std::uint64_t>(
        rank->endpoint().matcher().footprint_bytes());
  }
  return total;
}

std::uint64_t RankCore::state_bytes(std::uint64_t frame_bytes) const {
  return frame_bytes + matcher_bytes() + pool_.acquired_bytes();
}

void RankCore::record_state(obs::MetricsRegistry& metrics,
                            std::uint64_t frame_bytes) const {
  metrics.counter("sim.frame_bytes") = static_cast<std::int64_t>(frame_bytes);
  metrics.counter("sim.matcher_bytes") =
      static_cast<std::int64_t>(matcher_bytes());
  metrics.counter("sim.pool_bytes") =
      static_cast<std::int64_t>(pool_.acquired_bytes());
  metrics.counter("sim.rank_state_bytes") =
      static_cast<std::int64_t>(state_bytes(frame_bytes));
}

}  // namespace adapt::runtime
