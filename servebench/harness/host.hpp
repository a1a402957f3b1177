// Process and host measurements (CPU time, peak memory, hypervisor steal),
// the run fingerprint, and the result line the benchmark prints last.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Process user + system CPU seconds (getrusage), all threads.
double process_cpu_s();

/// Peak resident set of the process in MiB (VmHWM), since the last
/// reset_peak_rss().
double peak_rss_mb();

/// Restart the peak at the current resident set, so the fixture's transient
/// memory stays out of the serving figure.  False when the kernel refuses.
bool reset_peak_rss();

/// Online CPUs (sysconf), the ceiling on busy threads.
std::size_t online_cpus();

/// Aggregate CPU jiffies from /proc/stat; steal is time the hypervisor ran
/// another guest while this one had work.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuJiffies read_cpu_jiffies();
/// Share of CPU time stolen between two readings (0 when unavailable).
double steal_fraction(const CpuJiffies& before, const CpuJiffies& after);

/// True when /proc/cpuinfo lists `flag` for the first CPU.
bool cpu_has_flag(const std::string& flag);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Host, build and noise fingerprint (a JSON object), printed beside the
  /// result line.
  std::string fingerprint;
};

/// The single-line JSON result, printed last.
std::string result_json(const RunResult& result);

/// Minimal JSON string escaping for names and diagnostics.
std::string json_escape(const std::string& s);

}  // namespace servebench
