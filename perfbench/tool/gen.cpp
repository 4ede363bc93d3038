// perfbench/tool/gen.cpp
//
// Workload generator. `gen-model` builds one of the paper's MobileNetV1
// deployments through the repository's own Figure 1 pipeline:
// build_mobilenet_qat -> plan_mixed_precision (Alg. 1-2, STM32H7 budget,
// PC-ICN) -> apply_assignment -> convert_qat_model, then writes the net as
// a v1 and a v2 (entropy-coded) flash image plus a manifest of what the
// planner and the plan compiler decided. `gen-inputs` writes seeded
// request lines and the expected response line of each, computed with the
// serial plan and format_result_line. `gen-model` also checks one input
// against the reference executor. Both are pure functions of their flags.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/bit_allocation.hpp"
#include "core/calibration.hpp"
#include "mcu/device.hpp"
#include "models/mobilenet_qat.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace mixq;

namespace {

std::string layers_json(const runtime::ExecutionPlan& plan,
                        const runtime::FlashImageStats& stats) {
  std::string out = "[";
  const auto& layers = plan.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const runtime::QLayer& l = *layers[i].layer;
    if (i > 0) out += ",";
    out += "{\"kind\":\"" + std::string(runtime::kind_name(l.kind)) + "\"";
    out += ",\"qx\":" + std::to_string(core::bits(l.qx));
    out += ",\"qw\":" + std::to_string(core::bits(l.qw));
    out += ",\"qy\":" + std::to_string(core::bits(l.qy));
    out += ",\"domain\":\"" +
           std::string(runtime::domain_name(layers[i].domain)) + "\"";
    out += ",\"tier\":\"" + std::string(runtime::tier_name(layers[i].tier)) +
           "\"";
    out += ",\"codec\":\"";
    out += stats.layers[i].codec == 1 ? "huffman" : "raw";
    out += "\"}";
  }
  return out + "]";
}

}  // namespace

int cmd_gen_model(const Flags& f) {
  const std::string name = f.str("name");
  const std::string dir = f.str("out");
  models::MobilenetQatConfig cfg;
  cfg.resolution = f.num("resolution");
  cfg.channel_scale = f.real("width");
  cfg.num_classes = f.num("classes");
  cfg.wgran = core::Granularity::kPerChannel;
  const auto seed = static_cast<std::uint64_t>(f.num("seed"));

  const mcu::DeviceSpec dev = mcu::stm32h7();
  core::AllocConfig acfg;
  acfg.ro_budget = dev.flash_bytes;
  acfg.rw_budget = dev.ram_bytes;
  acfg.scheme = core::Scheme::kPCICN;
  const core::AllocResult alloc =
      core::plan_mixed_precision(models::mobilenet_qat_desc(cfg), acfg);
  if (!alloc.feasible()) {
    throw std::runtime_error(name + ": infeasible on " + dev.name);
  }

  Rng rng(seed);
  core::QatModel model = models::build_mobilenet_qat(cfg, &rng);
  core::apply_assignment(model, alloc.assignment);
  // Untrained weights at the default activation ranges fade to all-zero
  // logits by the head; ranges calibrated on seeded images (the repo's PTQ
  // path) keep every layer's codes, and so every response, informative.
  FloatTensor calib(Shape(f.num("calib"), cfg.resolution, cfg.resolution,
                          cfg.in_channels));
  rng.fill_uniform(calib.vec(), 0.0, 1.0);
  core::set_float_mode(model, true);
  core::calibrate_activations(model, calib);
  const runtime::QuantizedNet net = runtime::convert_qat_model(
      model, Shape(1, cfg.resolution, cfg.resolution, cfg.in_channels),
      {core::Scheme::kPCICN});
  net.validate();

  const std::string v1 = dir + "/" + name + ".v1.img";
  const std::string v2 = dir + "/" + name + ".v2.img";
  runtime::write_flash_image_file(net, v1);
  runtime::write_flash_image_file(net, v2, {.compress = true});

  // What the daemon will actually run: the mmap-loaded v2 image's plan.
  runtime::FlashImageStats stats;
  const runtime::QuantizedNet served =
      runtime::load_flash_image_mmap(v2, {}, &stats);
  const runtime::ExecutionPlan plan(served);

  // One input checked against the reference executor (integer oracle)
  // once per model: the served v2 plan must answer exactly like it.
  const Shape in = net.layers.front().in_shape;
  const std::vector<float> probe = make_inputs(in.numel(), 1, seed).front();
  const runtime::Executor reference(net);
  if (serve::format_result_line(0, reference.run(FloatTensor(in, probe))) !=
      serve::format_result_line(0, plan.run_sample(probe.data()))) {
    std::fprintf(stderr, "gen-model: %s: planned engine != reference\n",
                 name.c_str());
    return 4;
  }

  std::int64_t huffman = 0;
  for (const auto& l : stats.layers) huffman += l.codec == 1;
  std::int64_t vnni = 0;
  for (const auto& pl : plan.layers()) {
    vnni += pl.tier == runtime::KernelTier::kVnni;
  }

  std::string m = "{\"name\":\"" + name + "\"";
  m += ",\"resolution\":" + std::to_string(cfg.resolution);
  m += ",\"width\":" + f.str("width");
  m += ",\"classes\":" + std::to_string(cfg.num_classes);
  m += ",\"seed\":" + std::to_string(seed);
  m += ",\"device\":\"" + dev.name + "\"";
  m += ",\"act_cuts\":" + std::to_string(alloc.act_cuts);
  m += ",\"weight_cuts\":" + std::to_string(alloc.weight_cuts);
  m += ",\"planned_ro_bytes\":" + std::to_string(alloc.ro_total_bytes);
  m += ",\"planned_rw_peak_bytes\":" + std::to_string(alloc.rw_peak_bytes);
  m += ",\"ro_bytes\":" + std::to_string(net.ro_bytes());
  m += ",\"rw_peak_bytes\":" + std::to_string(net.rw_peak_bytes());
  m += ",\"input_numel\":" + std::to_string(in.numel());
  m += ",\"v1_bytes\":" + std::to_string(read_file(v1).size());
  m += ",\"v2_bytes\":" + std::to_string(stats.image_bytes);
  m += ",\"huffman_layers\":" + std::to_string(huffman);
  m += ",\"vnni_layers\":" + std::to_string(vnni);
  m += ",\"i8_layers\":" + std::to_string(plan.i8_layer_count());
  m += ",\"arena_bytes\":" + std::to_string(plan.arena_bytes());
  m += ",\"layers\":" + layers_json(plan, stats) + "}\n";
  write_file(dir + "/" + name + ".model.json", m);
  return 0;
}

int cmd_gen_inputs(const Flags& f) {
  const std::string image = f.str("image");
  const std::string prefix = f.str("out");
  const runtime::QuantizedNet net = runtime::read_flash_image_file(image);
  const Shape in = net.layers.front().in_shape;
  const auto inputs = make_inputs(in.numel(), f.num("count"),
                                  static_cast<std::uint64_t>(f.num("seed")));

  const runtime::ExecutionPlan plan(net);
  std::string requests;
  std::string expected;
  for (const auto& x : inputs) {
    requests += serve::format_request_line(0, x.data(), in.numel()) + "\n";
    expected += serve::format_result_line(0, plan.run_sample(x.data())) + "\n";
  }
  write_file(prefix + ".requests", requests);
  write_file(prefix + ".expected", expected);
  return 0;
}

}  // namespace perfbench
