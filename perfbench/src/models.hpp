// Models, cold set-up and reference outputs shared by the workloads.
//
// Set-up is measured from the first repository call to ready: quantize,
// compile through a CompileCache in a fresh empty directory (compile, store,
// then load back from the cache — what a cold process with an empty cache
// pays), then start the Server + NetServer (serving) or stage the program
// into a Runtime (cycle engine).  Generating the benchmark's own random
// weights and inputs is excluded.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "driver/compile_cache.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/network.hpp"
#include "quant/quantize.hpp"
#include "report.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"
#include "stats.hpp"

namespace perfbench {

namespace driver = tsca::driver;
namespace nn = tsca::nn;
namespace quant = tsca::quant;
namespace serve = tsca::serve;

// Every workload runs this architecture.
tsca::core::ArchConfig bench_arch();

// A model as the benchmark generates it.  VGG carries float weights and a
// calibration sample and is quantized during set-up; zoo::make_*
// quantizes internally, so its quantized model arrives ready-made and its
// quantization is part of (excluded) model generation.
struct Recipe {
  std::string id;
  nn::Network net;
  nn::WeightsF weights;
  std::vector<nn::FeatureMapF> calib;
  std::optional<quant::QuantizedModel> prequantized;
};

// Scaled VGG-16: 32 px input, channels / `channel_divisor`, 10 classes,
// weight seed 2025, Han-profile pruning.
Recipe vgg_recipe(const std::string& id, int channel_divisor);
Recipe mobile_recipe();    // zoo::make_mobile_depthwise(11)
Recipe residual_recipe();  // zoo::make_residual_cifar(7)

// Per-step set-up times of one cold start.
struct SetupTimes {
  double quantize_ms = 0.0;
  double compile_ms = 0.0;
  double store_ms = 0.0;
  double load_ms = 0.0;
  double start_ms = 0.0;  // Server + NetServer start
  double stage_ms = 0.0;  // Runtime staging (cycle engine)
  double total_s = 0.0;
};

// An accelerator model with its DDR and DMA engine, driven by one Runtime.
class LocalRuntime {
 public:
  LocalRuntime(const tsca::core::ArchConfig& cfg, driver::ExecMode mode);
  driver::Runtime& runtime() { return *runtime_; }

 private:
  std::unique_ptr<tsca::core::Accelerator> acc_;
  std::unique_ptr<tsca::sim::Dram> dram_;
  std::unique_ptr<tsca::sim::DmaEngine> dma_;
  std::unique_ptr<driver::Runtime> runtime_;
};

// Owns a compile-cache directory and removes it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The serving stack of both wire workloads: every recipe behind one
// ProgramRegistry, served by Server{workers=2, queue_capacity=256,
// max_batch=8, fast mode, default batch delay} and a loopback NetServer.
// Members are declared in construction order, so they tear down in reverse.
struct ServingStack {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<driver::CompileCache> cache;
  std::unique_ptr<driver::ProgramRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::NetServer> net;
};

serve::ServerOptions serving_options();

// One cold start of the serving stack; `spans` (nullable) gets one span per
// step.
std::unique_ptr<ServingStack> cold_start_serving(
    const std::vector<Recipe>& recipes, const std::string& dir,
    SetupTimes& times, SpanLog* spans);

// The cycle-engine workload's stack: one program, staged into a kCycle
// runtime.
struct SimStack {
  std::unique_ptr<ScratchDir> dir;
  std::optional<driver::NetworkProgram> program;
  std::unique_ptr<LocalRuntime> cycle;
};

std::unique_ptr<SimStack> cold_start_sim(const Recipe& recipe,
                                         const std::string& dir,
                                         SetupTimes& times, SpanLog* spans);

// Input `index` of the workload seed's input stream: int8 in [-40, 40].
nn::FeatureMapI8 random_input(const nn::FmShape& shape, std::uint64_t seed,
                              std::uint64_t index);

// Output of one inference, as bytes: the logits of a flat-output network or
// the final feature map otherwise.
struct Output {
  bool flat = false;
  nn::FmShape shape;
  std::vector<std::int8_t> bytes;
  bool operator==(const Output&) const = default;
};
Output output_of(const driver::NetworkRun& run);
Output output_of(const serve::Response& response);

// Accelerator cycles of one image: measured by the cycle engine, and the
// distance to the PerfModel prediction (the fast path's LayerRun::cycles)
// summed over accelerator layers.
struct CycleProfile {
  std::uint64_t cycles = 0;
  std::uint64_t abs_err = 0;  // sum over layers of |predicted - cycles|
};
CycleProfile compare_cycles(const driver::NetworkRun& cycle_run,
                            const driver::NetworkRun& fast_run);

// A served model with its input pool and the reference output of each
// input, computed once in process with Runtime::run_network in kFast.  The
// cycle profile (one cycle-engine run of input 0) gives the modelled
// accelerator latency of every request for this model.
struct ServedModel {
  std::string id;
  const driver::NetworkProgram* program = nullptr;
  std::vector<nn::FeatureMapI8> inputs;
  std::vector<Output> refs;
  CycleProfile profile;
};
ServedModel make_served_model(const std::string& id,
                              const driver::NetworkProgram& program,
                              int n_inputs, std::uint64_t seed);

// Cold starts per run; set-up time is their median.
inline constexpr int kColdStarts = 21;

// Runs `start(i, times)` kColdStarts times — each a full cold start in a
// fresh directory, the previous stack torn down first — keeps the last
// stack, and returns the per-step median times.
template <typename Stack, typename Start>
std::unique_ptr<Stack> repeated_cold_start(SetupTimes& median_times,
                                           Start start) {
  std::vector<SetupTimes> all;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kColdStarts; ++i) {
    stack.reset();
    SetupTimes t;
    stack = start(i, t);
    all.push_back(t);
  }
  const auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : all) v.push_back(t.*field);
    return median(std::move(v));
  };
  median_times.quantize_ms = med(&SetupTimes::quantize_ms);
  median_times.compile_ms = med(&SetupTimes::compile_ms);
  median_times.store_ms = med(&SetupTimes::store_ms);
  median_times.load_ms = med(&SetupTimes::load_ms);
  median_times.start_ms = med(&SetupTimes::start_ms);
  median_times.stage_ms = med(&SetupTimes::stage_ms);
  median_times.total_s = med(&SetupTimes::total_s);
  return stack;
}

}  // namespace perfbench
