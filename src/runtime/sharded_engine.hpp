// The sharded engine is runtime::SimEngine built from ShardedEngineOptions
// (src/runtime/sim_engine.hpp); this header keeps the older name compiling.
#pragma once

#include "src/runtime/sim_engine.hpp"

namespace adapt::runtime {

using ShardedEngine = SimEngine;

}  // namespace adapt::runtime
