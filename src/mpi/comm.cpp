#include "src/mpi/comm.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace adapt::mpi {

namespace {

std::uint64_t members_fingerprint(const std::vector<Rank>& members) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(members.size()));
  for (const Rank r : members) mix(static_cast<std::uint64_t>(r));
  return h;
}

}  // namespace

Comm Comm::world(int nranks) {
  ADAPT_CHECK(nranks > 0);
  std::vector<Rank> members(static_cast<std::size_t>(nranks));
  std::iota(members.begin(), members.end(), 0);
  return Comm(std::move(members));
}

Comm::Comm(std::vector<Rank> members) {
  ADAPT_CHECK(!members.empty());
  std::vector<std::pair<Rank, Rank>> by_global;
  by_global.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    by_global.emplace_back(members[i], static_cast<Rank>(i));
  std::sort(by_global.begin(), by_global.end());
  ADAPT_CHECK(std::adjacent_find(by_global.begin(), by_global.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.first == b.first;
                                 }) == by_global.end())
      << "duplicate member rank";
  state_ = std::make_shared<CommState>();
  state_->members = std::move(members);
  state_->by_global = std::move(by_global);
  state_->fingerprint = members_fingerprint(state_->members);
  cstate_ = state_;
}

std::vector<Comm> Comm::split_by(const std::function<int(Rank)>& color) const {
  std::map<int, std::vector<Rank>> groups;  // color -> members, comm order
  for (const Rank g : members()) groups[color(g)].push_back(g);
  std::vector<Comm> out;
  out.reserve(groups.size());
  for (auto& [c, group] : groups) out.emplace_back(std::move(group));
  return out;
}

Rank Comm::local_of(Rank global_rank) const {
  const auto& index = state_->by_global;
  const auto it = std::lower_bound(
      index.begin(), index.end(), global_rank,
      [](const std::pair<Rank, Rank>& e, Rank g) { return e.first < g; });
  if (it == index.end() || it->first != global_rank) return kAnyRank;
  return it->second;
}

}  // namespace adapt::mpi
