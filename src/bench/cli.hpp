// Tiny flag parser + shared setup for the figure-reproduction binaries.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/topo/hardware.hpp"

namespace adapt::bench {

/// Parses "--key value", "--key=value" and "--flag" style arguments. Keys
/// the caller never asks for are ignored.
class Cli {
 public:
  Cli(int argc, char** argv);

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool has(const std::string& key) const;

 private:
  std::map<std::string, std::string> args_;
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
