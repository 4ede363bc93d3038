// bench_image -- the tracked flash-image benchmark. Builds the pinned
// compressible deployment workload (per-layer ICN, 4-bit weights: QAT
// concentrates per-layer-scaled codes into few symbols, so entropy coding
// has real headroom), then measures the format-v2 claims the image CI
// gate holds the repo to:
//
//   * image_bytes_raw / image_bytes_compressed / compression_ratio --
//     whole-image v1 vs v2 size on disk (gated: >= 1.25x),
//   * decode_bit_exact -- every load path (streaming raw, streaming
//     compressed, mmap compressed) reproduces identical weight codes AND
//     identical planned-engine logits (gated: must be true),
//   * load_ms_* -- cold-start cost of each load path (warn-only: CI
//     runner wall clocks are too noisy for a hard gate).
//
// Emits results/BENCH_image.json; tools/check_bench_regression.py --image
// validates the schema and the hard gates on both the fresh and the
// committed file. Exit code is non-zero only on a correctness failure,
// never on timing.
//
// Usage: bench_image [--quick] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "provenance.hpp"
#include "data/synthetic.hpp"
#include "eval/trainer.hpp"
#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace mixq;
using namespace mixq::runtime;

constexpr const char* kWorkload =
    "small-cnn 16x16x3, pl-icn w4/a4, ch48 x 3 blocks, qat 2 epochs, seed 42";

/// The pinned workload: the real quantize pipeline (build -> QAT ->
/// integer conversion), deterministic under the fixed seed. Per-layer
/// granularity is what makes the code histogram skewed enough to compress;
/// per-channel scaling spreads codes across the full range and leaves
/// almost nothing for the entropy coder (measured ~1.05x vs ~1.3x here).
QuantizedNet make_workload() {
  models::SmallCnnConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.base_channels = 48;
  mcfg.num_blocks = 3;
  mcfg.num_classes = 4;
  mcfg.qw = core::BitWidth::kQ4;
  mcfg.qa = core::BitWidth::kQ4;
  mcfg.wgran = core::Granularity::kPerLayer;

  Rng rng(42);
  core::QatModel model = models::build_small_cnn(mcfg, &rng);

  data::SyntheticSpec dspec;
  dspec.hw = mcfg.input_hw;
  dspec.channels = mcfg.in_channels;
  dspec.num_classes = mcfg.num_classes;
  dspec.train_size = 256;
  dspec.test_size = 128;
  dspec.seed = 42;
  auto [train, test] = data::make_synthetic(dspec);

  eval::TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.lr = 3e-3f;
  tcfg.seed = 42;
  eval::train_qat(model, train, test, tcfg);

  return convert_qat_model(
      model, Shape(1, mcfg.input_hw, mcfg.input_hw, mcfg.in_channels),
      {core::Scheme::kPLICN});
}

double best_ms(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                t1 - t0)
                                .count()) /
        1e6;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Integer equality of every layer's unpacked weight codes between two
/// loaded nets -- the decode-bit-exact claim, independent of inference.
bool codes_equal(const QuantizedNet& a, const QuantizedNet& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& la = a.layers[i];
    const auto& lb = b.layers[i];
    if (la.weights_numel() != lb.weights_numel()) return false;
    if (la.weights_numel() == 0) continue;
    std::vector<std::int32_t> ca(static_cast<std::size_t>(la.weights_numel()));
    std::vector<std::int32_t> cb(ca.size());
    la.weight_codes_to_i32(ca.data());
    lb.weight_codes_to_i32(cb.data());
    if (ca != cb) return false;
  }
  return true;
}

bool logits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;  // bit-exact, no tolerance
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "results/BENCH_image.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_image [--quick] [--out PATH]\n";
      return 2;
    }
  }

  std::cout << "building pinned workload (QAT, deterministic)...\n";
  const QuantizedNet net = make_workload();

  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "mixq_bench_image";
  std::filesystem::create_directories(tmp);
  const std::string raw_path = (tmp / "raw.img").string();
  const std::string v2_path = (tmp / "compressed.img").string();
  write_flash_image_file(net, raw_path, {/*compress=*/false});
  write_flash_image_file(net, v2_path, {/*compress=*/true});

  const auto raw_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(raw_path));
  const auto v2_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(v2_path));
  const double ratio =
      static_cast<double>(raw_bytes) / static_cast<double>(v2_bytes);

  FlashImageStats stats;
  const QuantizedNet net_stream = read_flash_image_file(v2_path, {}, &stats);
  const QuantizedNet net_raw = read_flash_image_file(raw_path);
  const QuantizedNet net_mmap = load_flash_image_mmap(v2_path);
  int coded_layers = 0;
  for (const auto& ls : stats.layers) coded_layers += ls.codec == 1;

  // --- the decode-bit-exact gate: codes AND logits identical ------------
  bool exact = codes_equal(net_raw, net_stream) &&
               codes_equal(net_raw, net_mmap);
  if (exact) {
    Rng irng(7);
    FloatTensor img(net_raw.layers.front().in_shape);
    irng.fill_uniform(img.vec(), 0.0, 1.0);
    const auto l_raw = ExecutionPlan(net_raw).run(img).logits;
    exact = logits_equal(l_raw, ExecutionPlan(net_stream).run(img).logits) &&
            logits_equal(l_raw, ExecutionPlan(net_mmap).run(img).logits);
  }
  if (!exact) {
    std::cerr << "bench_image: FATAL: compressed/mmap loads diverge from "
                 "the raw image\n";
    return 1;
  }
  std::cout << "decode bit-exactness check passed "
               "(raw == streaming-v2 == mmap-v2, codes and logits)\n";

  // --- cold-start timings (warn-only downstream) ------------------------
  const int reps = quick ? 3 : 15;
  const double load_raw_ms =
      best_ms(reps, [&] { read_flash_image_file(raw_path); });
  const double load_v2_ms =
      best_ms(reps, [&] { read_flash_image_file(v2_path); });
  const double mmap_raw_ms =
      best_ms(reps, [&] { load_flash_image_mmap(raw_path); });
  const double mmap_v2_ms =
      best_ms(reps, [&] { load_flash_image_mmap(v2_path); });
  // mmap defers entropy decode to plan build; charge the full cold start
  // (load + plan) to both paths so the comparison is honest.
  const double plan_stream_ms = best_ms(reps, [&] {
    const QuantizedNet n = read_flash_image_file(v2_path);
    const ExecutionPlan plan(n);
  });
  const double plan_mmap_ms = best_ms(reps, [&] {
    const QuantizedNet n = load_flash_image_mmap(v2_path);
    const ExecutionPlan plan(n);
  });

  std::cout << "image: raw " << raw_bytes << " B, compressed " << v2_bytes
            << " B (" << ratio << "x, " << coded_layers << "/"
            << stats.layers.size() << " layers huffman)\n"
            << "load: raw " << load_raw_ms << " ms, v2 " << load_v2_ms
            << " ms, mmap raw " << mmap_raw_ms << " ms, mmap v2 "
            << mmap_v2_ms << " ms\n"
            << "cold start to ready plan: streaming " << plan_stream_ms
            << " ms, mmap " << plan_mmap_ms << " ms\n";

  const std::string provenance = bench::provenance_members();
  std::filesystem::path out_file(out_path);
  if (out_file.has_parent_path()) {
    std::filesystem::create_directories(out_file.parent_path());
  }
  std::ofstream os(out_file);
  if (!os) {
    std::cerr << "bench_image: cannot write " << out_path << "\n";
    return 1;
  }
  os << "{\n"
     << "  \"workload\": \"" << kWorkload << "\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << provenance << "  \"format_version\": " << stats.version << ",\n"
     << "  \"image_bytes_raw\": " << raw_bytes << ",\n"
     << "  \"image_bytes_compressed\": " << v2_bytes << ",\n"
     << "  \"compression_ratio\": " << ratio << ",\n"
     << "  \"weight_raw_bytes\": " << stats.weight_raw_bytes << ",\n"
     << "  \"weight_stored_bytes\": " << stats.weight_stored_bytes << ",\n"
     << "  \"coded_layers\": " << coded_layers << ",\n"
     << "  \"total_layers\": " << stats.layers.size() << ",\n"
     << "  \"decode_bit_exact\": true,\n"
     << "  \"load_ms\": {\n"
     << "    \"raw_stream\": " << load_raw_ms << ",\n"
     << "    \"compressed_stream\": " << load_v2_ms << ",\n"
     << "    \"raw_mmap\": " << mmap_raw_ms << ",\n"
     << "    \"compressed_mmap\": " << mmap_v2_ms << ",\n"
     << "    \"cold_start_plan_stream\": " << plan_stream_ms << ",\n"
     << "    \"cold_start_plan_mmap\": " << plan_mmap_ms << "\n"
     << "  },\n"
     << "  \"layers\": [\n";
  for (std::size_t i = 0; i < stats.layers.size(); ++i) {
    const auto& ls = stats.layers[i];
    os << "    {\"i\": " << i << ", \"codec\": \""
       << (ls.codec == 1 ? "huffman" : "raw") << "\", \"wbits\": "
       << static_cast<int>(ls.wbits) << ", \"raw_bytes\": " << ls.raw_bytes
       << ", \"stored_bytes\": " << ls.stored_bytes << "}"
       << (i + 1 < stats.layers.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  std::filesystem::remove(raw_path);
  std::filesystem::remove(v2_path);
  return 0;
}
