// The four serving workloads (see servebench/README.md for why each exists
// and which layer metrics should move which end-to-end metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host.hpp"

namespace servebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< working directory for artifacts, stores and sockets
  std::string trace_out;  ///< where the traced run writes its spans
  std::string commit;     ///< source identity for the fingerprint
};

/// Run one workload.  Throws std::runtime_error when the workload cannot run
/// at all (for example its thread budget exceeds the online CPUs).
RunResult run_workload(const RunConfig& config);

}  // namespace servebench
