// Result assembly and output: metrics, the final JSON line, host facts, and
// the in-memory span log written out in Chrome trace_event format.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

// CPU time consumed so far on `clock` (CLOCK_PROCESS_CPUTIME_ID: every
// thread of the process, exited ones included; CLOCK_THREAD_CPUTIME_ID: the
// calling thread; pthread_getcpuclockid: another thread), ns, or -1 once
// the clock's thread has ended.  Time spent blocked, and time the
// hypervisor holds the vCPU off (steal), are not counted.
inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's outcome.  `e2e` is printed with --trace 0, `layer` with
// --trace 1.  Failure reasons are counted by name (status, "missing",
// "wrong_output", "reconcile").
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> fail_reasons;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void fail(const std::string& reason, std::int64_t n = 1) {
    if (n <= 0) return;
    failed += n;
    fail_reasons[reason] += n;
  }
};

// Measured values by metric name.
using Values = std::map<std::string, double>;

// The end-to-end metrics, in schema order (BENCHMARK.json lists the same
// names and units).  Every workload measures all of them; a missing value
// is a benchmark bug and throws.
std::vector<Metric> e2e_metrics(const Values& values);

// The per-layer metrics, in schema order.  Layers a workload does not run
// read 0; a name outside the schema throws.
std::vector<Metric> layer_metrics(const Values& values);

// Prints the metric table and the failure breakdown (human-readable), then
// the single-line JSON result as the last line of stdout.
void print_result(const Result& result, bool trace);

// Host facts recorded with every result: nproc, SIMD backend, CPU flags,
// compiler, build type, workload name and seed.
void print_host_facts(const std::string& workload, std::uint64_t seed);

// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
double peak_rss_mb();

// Spans recorded by the benchmark around its calls into each layer.  Times
// are host wall-clock microseconds since the log's epoch; every span of one
// request carries the same `req` id.  Not thread-safe: each thread records
// into its own SpanLog and the logs are merged at the end.
struct Span {
  std::string name;
  std::string cat;
  std::string track;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::int64_t req = -1;
  std::vector<std::pair<std::string, std::int64_t>> args;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  Clock::time_point epoch() const { return epoch_; }
  std::int64_t us(Clock::time_point t) const {
    return ns_since(epoch_, t) / 1000;
  }
  void add(Span span) { spans_.push_back(std::move(span)); }
  // Closes a span begun at `begin` now.
  void add(std::string track, std::string name, std::string cat,
           Clock::time_point begin, Clock::time_point end, std::int64_t req,
           std::vector<std::pair<std::string, std::int64_t>> args = {});
  std::size_t size() const { return spans_.size(); }
  // Writes <out_dir>/trace-<workload>-<seed>.json in Chrome trace_event
  // format ("X" complete events, one tid per track) and says where.
  // Returns false when the file cannot be written.
  bool write_chrome(const std::string& out_dir, const std::string& workload,
                    std::uint64_t seed) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
