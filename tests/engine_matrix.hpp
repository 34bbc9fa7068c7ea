// The engine x arrival matrix the payload-placement contract tests run on
// (SendBufferContract in protocol_test, FoldOnPlacement in reliable_test;
// NonblockingColl in moreops_test runs on the engines alone):
// each engine ends a send's borrow and places the bytes its own way (fabric
// flows at landing, pair-clock legs at carry, the ThreadEngine on the
// receiver's thread), and each arrival takes a different placement path
// (on arrival, at finalisation of a captured payload, after a rendezvous).
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/fabric.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/runtime/thread_engine.hpp"

namespace adapt::runtime {

enum class EngineKind { kFairShare, kUncontended, kSharded, kThread };
enum class Arrival { kExpected, kUnexpected, kRendezvous };

inline constexpr EngineKind kAllEngines[] = {
    EngineKind::kFairShare, EngineKind::kUncontended, EngineKind::kSharded,
    EngineKind::kThread};

inline const char* engine_label(EngineKind kind) {
  static const char* const kEngines[] = {"FairShare", "Uncontended",
                                         "Sharded2", "Thread"};
  return kEngines[static_cast<int>(kind)];
}

struct ContractCase {
  EngineKind engine;
  Arrival arrival;
};

inline std::string contract_label(const ContractCase& c) {
  static const char* const kArrivals[] = {"EagerExpected", "EagerUnexpected",
                                          "Rendezvous"};
  return std::string(engine_label(c.engine)) +
         kArrivals[static_cast<int>(c.arrival)];
}

inline void PrintTo(const ContractCase& c, std::ostream* os) {
  *os << contract_label(c);
}

inline std::string contract_name(
    const testing::TestParamInfo<ContractCase>& info) {
  return contract_label(info.param);
}

/// Every engine with every arrival.
inline std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> cases;
  for (EngineKind engine : kAllEngines) {
    for (Arrival arrival :
         {Arrival::kExpected, Arrival::kUnexpected, Arrival::kRendezvous}) {
      cases.push_back({engine, arrival});
    }
  }
  return cases;
}

/// The sharded engine runs two shards; give it a machine whose two nodes
/// land on different shards.
inline std::unique_ptr<Engine> make_engine(EngineKind kind,
                                           const topo::Machine& m) {
  switch (kind) {
    case EngineKind::kFairShare:
      return std::make_unique<SimEngine>(m);
    case EngineKind::kUncontended: {
      SimEngineOptions options;
      options.sharing = net::SharingPolicy::kUncontended;
      return std::make_unique<SimEngine>(m, options);
    }
    case EngineKind::kSharded: {
      ShardedEngineOptions options;
      options.shards = 2;
      return std::make_unique<SimEngine>(m, options);
    }
    case EngineKind::kThread:
      return std::make_unique<ThreadEngine>(m);
  }
  return nullptr;
}

}  // namespace adapt::runtime
