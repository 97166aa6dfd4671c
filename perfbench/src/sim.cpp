// The cycle-engine profile of a traced run: seeded images of scaled VGG-16
// (channels / 8) through Runtime::run_network in ExecMode::kCycle — the part
// of the benchmark that times hls:: (cycle engine), sim:: (DMA/SRAM) and
// driver::stripe_exec.  Each image also runs through kFast: outputs must
// match, and the fast run's PerfModel-predicted cycles are the prediction the
// cycle engine checks.
#include <cmath>
#include <cstdio>

#include "models.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Per-layer host time must account for the image's wall time to within
// this share (the rest is the runtime's own per-step overhead).
constexpr double kLayerCoverageTolerancePct = 5.0;

struct LayerAcc {
  std::string name;
  nn::LayerKind kind;
  Samples host_ms;
  std::uint64_t cycles = 0;
  std::uint64_t predicted = 0;
};

struct Pass {
  Samples host_ms;  // cycle-engine wall time per measured image
  std::int64_t images = 0;
  std::int64_t measured_ok = 0;
  std::uint64_t cycles = 0;    // of the first image
  std::uint64_t abs_err = 0;   // of the first image
  bool cycles_constant = true;
  std::vector<LayerAcc> layers;
  Samples layer_sum_ms;
  double dma_bytes = 0.0;
  double weight_bubbles = 0.0;
  double macs_performed = 0.0;
};

Pass run_pass(const driver::NetworkProgram& program, driver::Runtime& cycle,
              driver::Runtime& fast, std::uint64_t seed, double seconds,
              double warmup_s, Result& result, SpanLog& spans) {
  Pass p;
  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration<double>(warmup_s);
  const auto end = warm_end + std::chrono::duration<double>(seconds);
  for (std::int64_t i = 0; Clock::now() < end; ++i) {
    const nn::FeatureMapI8 input = random_input(
        program.net().input_shape(), seed, static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    const driver::NetworkRun crun = cycle.run_network(program, input);
    const auto t1 = Clock::now();

    const driver::NetworkRun frun = fast.run_network(program, input);
    const auto t2 = Clock::now();
    const CycleProfile prof = compare_cycles(crun, frun);
    const bool match = output_of(crun) == output_of(frun);
    ++p.images;
    ++result.attempted;
    if (!match) result.fail("wrong_output");
    if (i == 0) {
      p.cycles = prof.cycles;
      p.abs_err = prof.abs_err;
    } else if (prof.cycles != p.cycles || prof.abs_err != p.abs_err) {
      p.cycles_constant = false;
    }
    spans.add("sim", "cycle_engine", "image", t0, t1, i,
              {{"cycles", static_cast<std::int64_t>(prof.cycles)}});
    spans.add("sim", "fast_check", "image", t1, t2, i,
              {{"match", match ? 1 : 0}});
    if (t0 < warm_end) continue;
    if (!match) continue;
    ++p.measured_ok;
    p.host_ms.add(static_cast<double>(ns_since(t0, t1)) / 1e6);
    if (p.layers.empty())
      for (const driver::LayerRun& l : crun.layers)
        p.layers.push_back(LayerAcc{l.name, l.kind, {}, 0, 0});
    double sum_ms = 0.0;
    for (std::size_t k = 0; k < crun.layers.size(); ++k) {
      const driver::LayerRun& l = crun.layers[k];
      const double lms = static_cast<double>(l.host_wall_us) / 1e3;
      p.layers[k].host_ms.add(lms);
      p.layers[k].cycles = l.cycles;
      p.layers[k].predicted = frun.layers[k].cycles;
      sum_ms += lms;
      p.dma_bytes += static_cast<double>(l.dma.bytes_to_fpga + l.dma.bytes_to_dram);
      p.weight_bubbles += static_cast<double>(l.counters.weight_bubbles);
      p.macs_performed += static_cast<double>(l.counters.macs_performed);
    }
    p.layer_sum_ms.add(sum_ms);
  }
  return p;
}

}  // namespace

void run_cycle_profile(const RunOptions& opts, double seconds, Result& result,
                       Values& layer, SpanLog& spans) {
  const Recipe recipe = vgg_recipe("vgg8", 8);
  SetupTimes setup;
  const std::unique_ptr<SimStack> stack = cold_start_sim(
      recipe, opts.out_dir + "/cache-" + opts.workload + "-cycle", setup,
      &spans);
  const driver::NetworkProgram& program = *stack->program;
  LocalRuntime fast(program.config(), driver::ExecMode::kFast);
  const Pass p = run_pass(program, stack->cycle->runtime(), fast.runtime(),
                          opts.seed, seconds, std::min(1.0, 0.1 * seconds),
                          result, spans);
  if (!p.cycles_constant) {
    std::printf("cycle engine: cycles per image differ across images\n");
    result.correct = false;
  }
  const double n = std::max<double>(1.0, static_cast<double>(p.measured_ok));
  std::printf("\ncycle engine, scaled VGG-16 (channels / 8), %lld measured "
              "images:\n%-10s %12s %12s %12s %8s\n",
              static_cast<long long>(p.measured_ok), "layer", "host_ms",
              "cycles", "predicted", "err_%");
  for (const LayerAcc& l : p.layers) {
    const double host_ms = l.host_ms.mean();
    std::printf("%-10s %12.3f %12llu %12llu %8.2f\n", l.name.c_str(), host_ms,
                static_cast<unsigned long long>(l.cycles),
                static_cast<unsigned long long>(l.predicted),
                l.cycles > 0 ? 100.0 *
                                   (static_cast<double>(l.predicted) -
                                    static_cast<double>(l.cycles)) /
                                   static_cast<double>(l.cycles)
                             : 0.0);
    if (l.kind != nn::LayerKind::kConv && l.kind != nn::LayerKind::kMaxPool)
      continue;  // pads are fused into their conv; the rest is host-side
    layer["layer.vgg8." + l.name + ".host_ms"] = host_ms;
    layer["layer.vgg8." + l.name + ".cycles"] = static_cast<double>(l.cycles);
    layer["layer.vgg8." + l.name + ".cycles_predicted"] =
        static_cast<double>(l.predicted);
  }
  const double host_s = p.host_ms.sum() / 1e3;
  const double coverage_pct =
      host_s > 0 ? 100.0 * p.layer_sum_ms.sum() / p.host_ms.sum() : 0.0;
  std::printf("%-10s %12.3f %12llu (per-layer host time covers %.2f%% of "
              "the image's wall time)\n\n",
              "total", p.host_ms.mean(),
              static_cast<unsigned long long>(p.cycles), coverage_pct);
  if (std::fabs(coverage_pct - 100.0) > kLayerCoverageTolerancePct) {
    std::printf("per-layer host time misses the image wall time by more "
                "than %.0f%%\n", kLayerCoverageTolerancePct);
    result.correct = false;
  }
  layer["hls.sim_cycles_per_host_s"] =
      host_s > 0 ? static_cast<double>(p.cycles) * p.measured_ok / host_s
                 : 0.0;
  layer["bench.layer_host_gap_pct"] = std::fabs(coverage_pct - 100.0);
  layer["sim.dma_bytes_per_image"] = p.dma_bytes / n;
  layer["core.weight_bubbles"] = p.weight_bubbles / n;
  layer["core.macs_performed"] = p.macs_performed / n;
  layer["driver.stage_ms"] = setup.stage_ms;
}

}  // namespace perfbench
