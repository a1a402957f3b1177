// servebench: one serving workload per run, every verdict it counts checked,
// the result printed as one JSON line last.
//
//   servebench --workload district-motion --seed 1 --seconds 10 --trace 0
//              --workdir .bench_build/servebench-run/x
//              [--trace-out spans.jsonl] [--commit ID]
//
// Exit status: 0 when the run finished and every check passed, 1 when a
// check failed (the result line says correct=false), 2 on a usage error or a
// workload that cannot run (nothing is printed on stdout then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE] [--commit ID]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        cfg.workdir = value;
      } else if (flag == "--trace-out") {
        cfg.trace_out = value;
      } else if (flag == "--commit") {
        cfg.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (cfg.workdir.empty()) usage("--workdir is required");
  if (!(cfg.seconds >= 1.0)) usage("--seconds must be at least 1");
  std::filesystem::create_directories(cfg.workdir);

  try {
    const servebench::RunResult result = servebench::run_workload(cfg);
    std::printf("fingerprint %s\n", result.fingerprint.c_str());
    std::printf("%s\n", servebench::result_json(result).c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
