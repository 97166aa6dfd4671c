#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/simd.hpp"

namespace perfbench {
namespace {

void json_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fputc(' ', out);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

// Every digit of the measured value; non-finite values cannot be encoded in
// JSON and would mean a broken measurement, so they print as -1.
void json_number(std::FILE* out, double v) {
  std::fprintf(out, "%.17g", std::isfinite(v) ? v : -1.0);
}

std::string cpu_flags() {
  std::string flags;
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!flags.empty()) flags += ",";
    flags += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse2"), "sse2");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vbmi"), "avx512vbmi");
  add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
  return flags;
}

struct SchemaEntry {
  const char* name;
  const char* unit;
};

constexpr SchemaEntry kE2e[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_image", "ms"},
    {"sim_cycles_per_image", "cycles"},
    {"model_err_pct", "%"},
    {"peak_rss_mb", "MB"},
};

constexpr SchemaEntry kLayerFixed[] = {
    // serve front end (net_server, protocol)
    {"net.frontend_us.p50", "us"},
    {"net.frontend_us.p99", "us"},
    {"protocol.encode_request_us", "us"},
    {"protocol.decode_response_us", "us"},
    // serve scheduler (request_queue, batch_scheduler)
    {"sched.queued_us.p50", "us"},
    {"sched.queued_us.p99", "us"},
    {"sched.dispatch_us.p50", "us"},
    {"sched.batch_size.mean", "count"},
    {"sched.batch_full_frac", "ratio"},
    // serve workers + driver::Runtime
    {"exec.batch_us.p50", "us"},
    {"exec.batch_us.p99", "us"},
    {"exec.per_image_us.p50", "us"},
    // driver::ProgramRegistry
    {"registry.restages", "count"},
    {"registry.restage_frac", "ratio"},
    // core fast path (fastpath, simd), batch 8
    {"core.act_skip_frac", "ratio"},
    // hls cycle engine + sim DMA
    {"hls.sim_cycles_per_host_s", "cycles/s"},
    {"sim.dma_bytes_per_image", "bytes"},
    {"core.weight_bubbles", "count"},
    {"core.macs_performed", "count"},
    // set-up: quant, driver compile + CompileCache, server start
    {"quant.quantize_ms", "ms"},
    {"driver.compile_ms", "ms"},
    {"driver.cache_store_ms", "ms"},
    {"driver.cache_load_ms", "ms"},
    {"driver.stage_ms", "ms"},
    {"serve.start_ms", "ms"},
    // harness validity checks
    {"bench.gen_late_us.p99", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.layer_host_gap_pct", "%"},
};

// The fast-path profile's layer kinds per served model (kinds that do no
// host work on the fast path, pad fused into conv and softmax, are left out).
constexpr const char* kFastKinds[][6] = {
    {"vgg", "conv", "maxpool", "fc", nullptr, nullptr},
    {"mobile", "conv", "maxpool", "global_pool", "fc", nullptr},
    {"residual", "conv", "maxpool", "eltwise_add", "global_pool", "fc"},
};

struct NamedEntry {
  std::string name;
  std::string unit;
};

// Every per-layer metric name: the fixed ones, the fast-path profile per
// model and kind, and the cycle engine's per-layer rows for the 18 VGG
// layers that carry host time (conv steps include their fused pad).
const std::vector<NamedEntry>& layer_schema() {
  static const std::vector<NamedEntry> schema = [] {
    std::vector<NamedEntry> v;
    for (const SchemaEntry& e : kLayerFixed) v.push_back({e.name, e.unit});
    for (const auto& row : kFastKinds) {
      const std::string model = row[0];
      for (int k = 1; k < 6 && row[k] != nullptr; ++k)
        v.push_back({"layer." + model + "." + row[k] + ".host_us", "us"});
      v.push_back({"layer." + model + ".gmacs_per_s", "GMAC/s"});
    }
    const int convs_per_block[] = {2, 2, 3, 3, 3};
    for (int b = 1; b <= 5; ++b) {
      std::vector<std::string> names;
      for (int c = 1; c <= convs_per_block[b - 1]; ++c)
        names.push_back("conv" + std::to_string(b) + "_" + std::to_string(c));
      names.push_back("pool" + std::to_string(b));
      for (const std::string& n : names) {
        v.push_back({"layer.vgg8." + n + ".host_ms", "ms"});
        v.push_back({"layer.vgg8." + n + ".cycles", "cycles"});
        v.push_back({"layer.vgg8." + n + ".cycles_predicted", "cycles"});
      }
    }
    return v;
  }();
  return schema;
}

}  // namespace

std::vector<Metric> e2e_metrics(const Values& values) {
  std::vector<Metric> out;
  for (const SchemaEntry& e : kE2e) {
    const auto it = values.find(e.name);
    if (it == values.end())
      throw std::runtime_error(std::string("end-to-end metric not measured: ") +
                               e.name);
    out.push_back(Metric{e.name, it->second, e.unit});
  }
  return out;
}

std::vector<Metric> layer_metrics(const Values& values) {
  std::vector<Metric> out;
  std::size_t found = 0;
  for (const NamedEntry& e : layer_schema()) {
    const auto it = values.find(e.name);
    found += it != values.end();
    out.push_back(Metric{e.name, it != values.end() ? it->second : 0.0, e.unit});
  }
  if (found != values.size()) {
    for (const auto& [name, v] : values)
      std::fprintf(stderr, "unlisted per-layer metric %s = %g\n", name.c_str(), v);
    throw std::runtime_error("per-layer metric outside the schema");
  }
  return out;
}

void print_result(const Result& result, bool trace) {
  const std::vector<Metric>& metrics = trace ? result.layer : result.e2e;
  std::printf("%s metrics:\n", trace ? "per-layer" : "end-to-end");
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const double fail_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("attempted=%lld failed=%lld fail_frac=%.6g correct=%s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), fail_frac,
              result.correct ? "true" : "false");
  for (const auto& [reason, n] : result.fail_reasons)
    std::printf("  failed[%s]=%lld\n", reason.c_str(),
                static_cast<long long>(n));

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::printf(", ");
    json_string(stdout, metrics[i].name);
    std::printf(": {\"value\": ");
    json_number(stdout, metrics[i].value);
    std::printf(", \"unit\": ");
    json_string(stdout, metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_host_facts(const std::string& workload, std::uint64_t seed) {
  std::printf("host: {\"nproc\": %ld, \"simd_backend\": \"%s\", "
              "\"simd_width\": %d, \"cpu_flags\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu}\n",
              sysconf(_SC_NPROCESSORS_ONLN), tsca::core::simd::backend_name(),
              tsca::core::simd::backend().width, cpu_flags().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE, workload.c_str(),
              static_cast<unsigned long long>(seed));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanLog::add(std::string track, std::string name, std::string cat,
                  Clock::time_point begin, Clock::time_point end,
                  std::int64_t req,
                  std::vector<std::pair<std::string, std::int64_t>> args) {
  Span s;
  s.track = std::move(track);
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.ts_us = us(begin);
  s.dur_us = ns_since(begin, end) / 1000;
  s.req = req;
  s.args = std::move(args);
  spans_.push_back(std::move(s));
}

bool SpanLog::write_chrome(const std::string& out_dir,
                           const std::string& workload,
                           std::uint64_t seed) const {
  const std::string path =
      out_dir + "/trace-" + workload + "-" + std::to_string(seed) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  std::map<std::string, int> tids;
  for (const Span& s : spans_) tids.emplace(s.track, 0);
  int next = 0;
  for (auto& [name, tid] : tids) tid = next++;
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& [name, tid] : tids) {
    std::fprintf(out, "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                      "\"tid\":%d,\"args\":{\"name\":",
                 first ? "" : ",", tid);
    json_string(out, name);
    std::fprintf(out, "}}");
    first = false;
  }
  for (const Span& s : spans_) {
    std::fprintf(out, "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%lld,"
                      "\"dur\":%lld,\"name\":",
                 first ? "" : ",", tids[s.track],
                 static_cast<long long>(s.ts_us),
                 static_cast<long long>(s.dur_us));
    first = false;
    json_string(out, s.name);
    std::fprintf(out, ",\"cat\":");
    json_string(out, s.cat);
    std::fprintf(out, ",\"args\":{\"req\":%lld",
                 static_cast<long long>(s.req));
    for (const auto& [key, value] : s.args) {
      std::fprintf(out, ",");
      json_string(out, key);
      std::fprintf(out, ":%lld", static_cast<long long>(value));
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"time_unit\":\"host wall-clock microseconds\"}}\n");
  if (std::fclose(out) != 0) return false;
  std::printf("trace: %zu spans -> %s\n", spans_.size(), path.c_str());
  return true;
}

}  // namespace perfbench
