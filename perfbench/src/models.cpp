#include "models.hpp"

#include <filesystem>
#include <stdexcept>

#include "nn/vgg16.hpp"
#include "nn/zoo.hpp"
#include "quant/prune.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

// DDR of the benchmark's own in-process runtimes (references, cycle engine).
// The Dram is zero-filled, hence resident: sized for the benchmark's models
// rather than the server's 64 MiB default, so the harness adds little to
// peak RSS.
constexpr std::size_t kLocalDramBytes = 16u << 20;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_since(a, b)) / 1e6;
}

void span(SpanLog* spans, const std::string& name, Clock::time_point a,
          Clock::time_point b) {
  if (spans != nullptr) spans->add("setup", name, "setup", a, b, -1);
}

// The recipe's quantized model; only VGG is quantized here (and timed), the
// zoo::make_* functions hand theirs over ready-made.
quant::QuantizedModel quantize(const Recipe& r, SetupTimes& times,
                               SpanLog* spans) {
  if (r.prequantized) return *r.prequantized;
  const auto t0 = Clock::now();
  quant::QuantizedModel model =
      quant::quantize_network(r.net, r.weights, r.calib);
  const auto t1 = Clock::now();
  times.quantize_ms += ms_between(t0, t1);
  span(spans, "quantize " + r.id, t0, t1);
  return model;
}

// Compiles `model` and publishes it into `cache`: the cold path of a
// process whose cache directory is empty.
void compile_and_store(driver::CompileCache& cache, const Recipe& r,
                       const quant::QuantizedModel& model, SetupTimes& times,
                       SpanLog* spans) {
  const auto t0 = Clock::now();
  const std::uint64_t key =
      driver::CompileCache::key(r.net, model, bench_arch());
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(r.net, model, bench_arch());
  const auto t1 = Clock::now();
  if (!cache.store(key, program))
    throw std::runtime_error("compile cache store failed in " + cache.dir());
  const auto t2 = Clock::now();
  times.compile_ms += ms_between(t0, t1);
  times.store_ms += ms_between(t1, t2);
  span(spans, "compile " + r.id, t0, t1);
  span(spans, "cache_store " + r.id, t1, t2);
}

}  // namespace

tsca::core::ArchConfig bench_arch() { return tsca::core::ArchConfig::k256_opt(); }

Recipe vgg_recipe(const std::string& id, int channel_divisor) {
  tsca::Rng rng(2025);
  nn::Network net = nn::build_vgg16({.input_extent = 32,
                                     .channel_divisor = channel_divisor,
                                     .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  quant::prune_weights(net, weights, quant::vgg16_han_profile());
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  return Recipe{id, std::move(net), std::move(weights), {std::move(calib)},
                std::nullopt};
}

Recipe mobile_recipe() {
  tsca::zoo::ZooModel z = tsca::zoo::make_mobile_depthwise(11);
  return Recipe{"mobile", std::move(z.net), {}, {}, std::move(z.model)};
}

Recipe residual_recipe() {
  tsca::zoo::ZooModel z = tsca::zoo::make_residual_cifar(7);
  return Recipe{"residual", std::move(z.net), {}, {}, std::move(z.model)};
}

LocalRuntime::LocalRuntime(const tsca::core::ArchConfig& cfg,
                           driver::ExecMode mode)
    : acc_(std::make_unique<tsca::core::Accelerator>(cfg)),
      dram_(std::make_unique<tsca::sim::Dram>(kLocalDramBytes)),
      dma_(std::make_unique<tsca::sim::DmaEngine>(*dram_)),
      runtime_(std::make_unique<driver::Runtime>(*acc_, *dram_, *dma_,
                                                 driver::RuntimeOptions{
                                                     .mode = mode})) {}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

serve::ServerOptions serving_options() {
  serve::ServerOptions opts;
  opts.workers = 2;
  // Deep enough to ride out a 256 ms host stall at 1000 rps: with 64 the
  // queue overflowed (queue-full and fair-share rejections) when other
  // tenants stalled the shared host for 64 ms or more.
  opts.queue_capacity = 256;
  opts.batch.max_batch = 8;
  opts.mode = driver::ExecMode::kFast;
  return opts;
}

std::unique_ptr<ServingStack> cold_start_serving(
    const std::vector<Recipe>& recipes, const std::string& dir,
    SetupTimes& times, SpanLog* spans) {
  auto stack = std::make_unique<ServingStack>();
  stack->dir = std::make_unique<ScratchDir>(dir);
  const auto t_begin = Clock::now();

  std::vector<quant::QuantizedModel> models;
  for (const Recipe& r : recipes) models.push_back(quantize(r, times, spans));

  stack->cache = std::make_unique<driver::CompileCache>(dir);
  for (std::size_t i = 0; i < recipes.size(); ++i)
    compile_and_store(*stack->cache, recipes[i], models[i], times, spans);

  // The registry compiles through the cache, so every acquire below is a
  // cache load of the program just stored.
  driver::RegistryOptions ropts;
  ropts.compile_cache = stack->cache.get();
  stack->registry =
      std::make_unique<driver::ProgramRegistry>(bench_arch(), ropts);
  for (std::size_t i = 0; i < recipes.size(); ++i)
    stack->registry->add_model(recipes[i].id, recipes[i].net, models[i]);
  for (const Recipe& r : recipes) {
    const auto t0 = Clock::now();
    const driver::ProgramHandle handle = stack->registry->acquire(r.id);
    const auto t1 = Clock::now();
    times.load_ms += ms_between(t0, t1);
    span(spans, "cache_load " + r.id, t0, t1);
  }
  if (stack->cache->stats().hits != recipes.size())
    throw std::runtime_error("registry did not load every model from cache");

  const auto t0 = Clock::now();
  stack->server = std::make_unique<serve::Server>(
      *stack->registry, recipes.front().id, serving_options());
  stack->net = std::make_unique<serve::NetServer>(*stack->server);
  const auto t1 = Clock::now();
  times.start_ms = ms_between(t0, t1);
  span(spans, "server_start", t0, t1);
  times.total_s = ms_between(t_begin, t1) / 1e3;
  span(spans, "setup", t_begin, t1);
  return stack;
}

std::unique_ptr<SimStack> cold_start_sim(const Recipe& recipe,
                                         const std::string& dir,
                                         SetupTimes& times, SpanLog* spans) {
  auto stack = std::make_unique<SimStack>();
  stack->dir = std::make_unique<ScratchDir>(dir);
  const auto t_begin = Clock::now();
  const quant::QuantizedModel model = quantize(recipe, times, spans);

  driver::CompileCache cache(dir);
  compile_and_store(cache, recipe, model, times, spans);
  const auto t0 = Clock::now();
  stack->program = cache.load(
      driver::CompileCache::key(recipe.net, model, bench_arch()), recipe.net,
      bench_arch());
  if (!stack->program)
    throw std::runtime_error("compile cache load missed in " + dir);
  const auto t1 = Clock::now();
  times.load_ms = ms_between(t0, t1);
  span(spans, "cache_load " + recipe.id, t0, t1);

  stack->cycle = std::make_unique<LocalRuntime>(bench_arch(),
                                                driver::ExecMode::kCycle);
  stack->cycle->runtime().ensure_program_staged(*stack->program);
  const auto t2 = Clock::now();
  times.stage_ms = ms_between(t1, t2);
  span(spans, "runtime_stage", t1, t2);
  times.total_s = ms_between(t_begin, t2) / 1e3;
  span(spans, "setup", t_begin, t2);
  return stack;
}

nn::FeatureMapI8 random_input(const nn::FmShape& shape, std::uint64_t seed,
                              std::uint64_t index) {
  tsca::Rng rng(seed * 1000003u + index);
  nn::FeatureMapI8 input(shape);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  return input;
}

Output output_of(const driver::NetworkRun& run) {
  if (run.flat_output) return Output{true, {}, run.logits};
  return Output{false, run.final_fm.shape(),
                std::vector<std::int8_t>(run.final_fm.data(),
                                         run.final_fm.data() +
                                             run.final_fm.size())};
}

Output output_of(const serve::Response& response) {
  if (response.flat_output) return Output{true, {}, response.logits};
  return Output{false, response.final_fm.shape(),
                std::vector<std::int8_t>(
                    response.final_fm.data(),
                    response.final_fm.data() + response.final_fm.size())};
}

CycleProfile compare_cycles(const driver::NetworkRun& cycle_run,
                            const driver::NetworkRun& fast_run) {
  if (cycle_run.layers.size() != fast_run.layers.size())
    throw std::runtime_error("cycle and fast runs differ in layer count");
  CycleProfile p;
  for (std::size_t i = 0; i < cycle_run.layers.size(); ++i) {
    const driver::LayerRun& c = cycle_run.layers[i];
    const driver::LayerRun& f = fast_run.layers[i];
    if (!c.on_accelerator) continue;
    p.cycles += c.cycles;
    p.abs_err += c.cycles > f.cycles ? c.cycles - f.cycles : f.cycles - c.cycles;
  }
  return p;
}

ServedModel make_served_model(const std::string& id,
                              const driver::NetworkProgram& program,
                              int n_inputs, std::uint64_t seed) {
  ServedModel m;
  m.id = id;
  m.program = &program;
  LocalRuntime fast(program.config(), driver::ExecMode::kFast);
  for (int i = 0; i < n_inputs; ++i) {
    m.inputs.push_back(random_input(program.net().input_shape(), seed,
                                    static_cast<std::uint64_t>(i)));
    m.refs.push_back(output_of(fast.runtime().run_network(program,
                                                          m.inputs.back())));
  }
  LocalRuntime cycle(program.config(), driver::ExecMode::kCycle);
  const driver::NetworkRun cycle_run =
      cycle.runtime().run_network(program, m.inputs.front());
  if (output_of(cycle_run) != m.refs.front())
    throw std::runtime_error("cycle engine and fast path disagree on " + id);
  m.profile = compare_cycles(
      cycle_run, fast.runtime().run_network(program, m.inputs.front()));
  return m;
}

}  // namespace perfbench
