// The benchmark's workloads.  Each builds its stack from cold (several times,
// reporting the median set-up), measures for `seconds`, checks every output,
// and returns a Result carrying both the end-to-end metrics and, with
// `trace`, the per-layer metrics of a traced pass.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // compile-cache directories and the trace file
};

// Open-loop Poisson traffic at a fixed rate over loopback TCP, scaled
// VGG-16 (channels / 16) only.
Result run_wire_poisson(const RunOptions& opts, double rate_rps);

// Closed loop, 8 requests in flight on each of 2 connections, a seeded
// 50/25/25 mix of vgg / mobile / residual behind one ProgramRegistry.
Result run_wire_zoo_closed(const RunOptions& opts);

// Part of the traced run of wire_vgg_r1000, after its traffic: one cold
// start of scaled VGG-16 (channels / 8), then seeded images through the
// cycle engine for `seconds`, single-threaded, each checked against the
// fast path.  Adds the cycle-engine per-layer metrics to `layer` and a span
// per image to `spans`; marks `result` incorrect on any mismatch.
void run_cycle_profile(const RunOptions& opts, double seconds, Result& result,
                       Values& layer, SpanLog& spans);

}  // namespace perfbench
