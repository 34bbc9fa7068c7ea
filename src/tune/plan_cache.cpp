#include "src/tune/plan_cache.hpp"

#include "src/mpi/comm.hpp"
#include "src/obs/trace.hpp"

namespace adapt::tune {

namespace {

bool plan_live(const CachedPlan& plan) {
  const auto state = plan.comm.lock();
  return state && state->alive();
}

void bump(std::int64_t* counter, std::int64_t by = 1) {
  if (counter != nullptr) *counter += by;
}

}  // namespace

void PlanCache::set_recorder(obs::Recorder* recorder) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (recorder == nullptr) {
    m_hits_ = m_misses_ = m_evictions_ = m_invalidations_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = recorder->metrics();
  m_hits_ = &m.counter("plan_cache.hits");
  m_misses_ = &m.counter("plan_cache.misses");
  m_evictions_ = &m.counter("plan_cache.evictions");
  m_invalidations_ = &m.counter("plan_cache.invalidations");
}

std::shared_ptr<const CachedPlan> PlanCache::find(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    bump(m_misses_);
    return nullptr;
  }
  if (!plan_live(*it->second)) {
    // Lazy invalidation: the communicator died since this plan was cached.
    map_.erase(it);
    ++misses_;
    bump(m_misses_);
    bump(m_evictions_);
    return nullptr;
  }
  ++hits_;
  bump(m_hits_);
  return it->second;
}

std::shared_ptr<const CachedPlan> PlanCache::insert(const PlanKey& key,
                                                    CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = map_[key];
  // First writer wins: concurrent ranks race to init the same plan and the
  // inputs are deterministic, so any winner's plan is every rank's plan.
  if (!slot || !plan_live(*slot)) {
    slot = std::make_shared<const CachedPlan>(std::move(plan));
  }
  return slot;
}

void PlanCache::invalidate_comm(std::uint64_t comm_fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t erased = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.comm_fingerprint == comm_fingerprint) {
      it = map_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  bump(m_invalidations_, erased);
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
}

int PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(map_.size());
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace adapt::tune
