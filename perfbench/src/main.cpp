// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Workloads: wire_vgg_r1000, wire_zoo_closed.
// Prints host facts, a metric table, and as the last line of stdout one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics (from a traced pass) with
// --trace 1.  Exits 0 when the run completed, 1 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <wire_vgg_r1000|wire_zoo_closed> "
               "--seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.out_dir = ".bench_build/out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload")
      opts.workload = value;
    else if (key == "--seed")
      opts.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds")
      opts.seconds = std::strtod(value, nullptr);
    else if (key == "--trace")
      opts.trace = std::strcmp(value, "0") != 0;
    else if (key == "--out")
      opts.out_dir = value;
    else
      return usage(argv[0]);
  }
  if (argc % 2 != 1 || opts.workload.empty() || !(opts.seconds > 0.0))
    return usage(argv[0]);

  try {
    std::filesystem::create_directories(opts.out_dir);
    perfbench::print_host_facts(opts.workload, opts.seed);
    perfbench::Result result;
    if (opts.workload == "wire_vgg_r1000")
      result = perfbench::run_wire_poisson(opts, 1000.0);
    else if (opts.workload == "wire_zoo_closed")
      result = perfbench::run_wire_zoo_closed(opts);
    else
      return usage(argv[0]);
    perfbench::print_result(result, opts.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
