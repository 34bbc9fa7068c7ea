// Tiny flag parser + shared setup for the figure-reproduction binaries.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/topo/hardware.hpp"

namespace adapt::bench {

/// Parses "--key value", "--key=value" and "--flag" style arguments. Keys
/// the caller never asks for are ignored.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// The flag's value; `fallback` when the flag is absent or given bare
  /// ("--trace" alone). "--key=" reads as "".
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool has(const std::string& key) const;

 private:
  std::map<std::string, std::optional<std::string>> args_;  ///< nullopt: bare
};

/// Builds the paper's machine for a cluster name at a node count, with the
/// rank count the paper used unless overridden.
struct ClusterSetup {
  topo::Machine machine;
  std::string cluster;
  int ranks;
};

ClusterSetup make_cluster(const std::string& cluster, int nodes, int ranks);

}  // namespace adapt::bench
