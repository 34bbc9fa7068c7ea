#include "src/bench/cli.hpp"

#include <cstdlib>

#include "src/support/error.hpp"
#include "src/topo/presets.hpp"

namespace adapt::bench {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    ADAPT_CHECK(arg.rfind("--", 0) == 0) << "expected --flag, got " << arg;
    arg = arg.substr(2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      args_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args_[arg] = argv[++i];
    } else {
      args_[arg] = std::nullopt;  // a bare flag: present, without a value
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback)
    const {
  const auto it = args_.find(key);
  return it == args_.end() || !it->second ? fallback : *it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback)
    const {
  const auto it = args_.find(key);
  return it == args_.end() || !it->second
             ? fallback
             : std::strtoll(it->second->c_str(), nullptr, 10);
}

bool Cli::has(const std::string& key) const { return args_.count(key) > 0; }

ClusterSetup make_cluster(const std::string& cluster, int nodes, int ranks) {
  topo::MachineSpec spec = topo::preset(cluster, nodes);
  const auto policy = spec.gpus_per_socket > 0
                          ? topo::PlacementPolicy::kByGpu
                          : topo::PlacementPolicy::kByCore;
  return ClusterSetup{topo::Machine(spec, ranks, policy), cluster, ranks};
}

}  // namespace adapt::bench
