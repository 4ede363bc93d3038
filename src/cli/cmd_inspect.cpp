// `mixq inspect` -- decode a flash image without running it: per-layer
// precisions and schemes, static MAC counts from the profiler, Table-1
// read-only footprint, the Eq. 7 activation peak, the host executor's
// per-layer kernel tier and requant epilogue (what its proofs decided)
// with its arena and weight footprint, and (with --device) the
// linker-map-level memory layout an MCU engineer would review before
// flashing.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "mcu/memory_map.hpp"
#include "runtime/flash_image.hpp"
#include "runtime/plan.hpp"
#include "runtime/profiler.hpp"
#include "runtime/simd_vnni.hpp"
#include "serve/json.hpp"

namespace mixq::cli {

namespace {

constexpr const char* kUsage =
    "usage: mixq inspect IMAGE [options]\n"
    "\n"
    "  --json       machine-readable output (one JSON document)\n"
    "  --device D   also lay out the image on a device and report fit\n"
    "               (stm32h7 | stm32-1mb-512k | stm32-1mb-256k)\n";

}  // namespace

int cmd_inspect(Args& args) {
  if (args.flag("--help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const bool json = args.flag("--json");
  const auto device_name = args.opt("--device");
  args.done();
  const auto pos = args.positionals();
  if (pos.size() != 1) throw UsageError("expected exactly one IMAGE path");
  const std::string& path = pos[0];

  runtime::FlashImageStats img;
  const runtime::QuantizedNet net =
      runtime::read_flash_image_file(path, {}, &img);
  const runtime::NetProfile prof = runtime::profile(net);
  const auto file_bytes = std::filesystem::file_size(path);
  // Per-layer decode cost: time one weight_codes_to_i32 pass (bulk unpack
  // for raw banks, streaming Huffman decode for coded ones) -- the work a
  // plan compile pays per layer to land the bank in its INT32 panel.
  std::vector<double> decode_us(net.layers.size(), 0.0);
  {
    std::vector<std::int32_t> scratch;
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const runtime::QLayer& l = net.layers[i];
      if (l.kind == runtime::QLayerKind::kGlobalAvgPool) continue;
      scratch.resize(static_cast<std::size_t>(l.weights_numel()));
      const auto t0 = std::chrono::steady_clock::now();
      l.weight_codes_to_i32(scratch.data());
      const auto t1 = std::chrono::steady_clock::now();
      decode_us[i] =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
  }
  // Host-executor plan: the tier and epilogue its proofs chose per layer,
  // and what its ping-pong arenas and weight banks cost.
  const runtime::ExecutionPlan plan(net);
  std::int64_t weight_count = 0;
  for (const runtime::QLayer& l : net.layers) {
    if (l.kind != runtime::QLayerKind::kGlobalAvgPool) {
      weight_count += l.weights_numel();
    }
  }

  if (json) {
    std::string out = "{\"file\":";
    serve::append_json_string(out, path);
    out += ",\"file_bytes\":" + std::to_string(file_bytes);
    out += ",\"version\":" + std::to_string(img.version);
    const Shape& in = net.layers.front().in_shape;
    out += ",\"input\":{\"shape\":[" + std::to_string(in.h) + "," +
           std::to_string(in.w) + "," + std::to_string(in.c) + "]";
    out += ",\"bits\":" + std::to_string(core::bits(net.input_qp.q));
    out += ",\"scale\":";
    serve::append_json_float(out, net.input_qp.scale);
    out += ",\"zero\":" + std::to_string(net.input_qp.zero) + "}";
    out += ",\"layers\":[";
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const runtime::QLayer& l = net.layers[i];
      const runtime::LayerProfile& lp = prof.layers[i];
      if (i > 0) out.push_back(',');
      out += "{\"i\":" + std::to_string(i);
      out += ",\"kind\":\"" + std::string(runtime::kind_name(l.kind)) + "\"";
      out += ",\"scheme\":\"" + std::string(scheme_slug(l.scheme)) + "\"";
      out += ",\"in\":[" + std::to_string(l.in_shape.h) + "," +
             std::to_string(l.in_shape.w) + "," +
             std::to_string(l.in_shape.c) + "]";
      out += ",\"out\":[" + std::to_string(l.out_shape.h) + "," +
             std::to_string(l.out_shape.w) + "," +
             std::to_string(l.out_shape.c) + "]";
      out += ",\"qx\":" + std::to_string(core::bits(l.qx));
      out += ",\"qw\":" + std::to_string(core::bits(l.qw));
      out += ",\"qy\":" + std::to_string(core::bits(l.qy));
      out += ",\"macs\":" + std::to_string(lp.macs);
      out += ",\"weight_bytes\":" + std::to_string(lp.weight_bytes);
      out += ",\"static_bytes\":" + std::to_string(lp.static_bytes);
      const runtime::PlannedLayer& pl = plan.layers()[i];
      out += ",\"tier\":\"" + std::string(runtime::tier_name(pl.tier)) + "\"";
      out += ",\"requant\":\"" + std::string(runtime::requant_name(pl)) + "\"";
      out += ",\"tile\":{\"rows\":" + std::to_string(pl.tile.rows) +
             ",\"kb\":" + std::to_string(pl.tile.kb) +
             ",\"nb\":" + std::to_string(pl.tile.nb) + "}";
      if (i < img.layers.size()) {
        const runtime::FlashLayerStats& ls = img.layers[i];
        out += ",\"codec\":\"";
        out += ls.codec == 1 ? "huffman" : "raw";
        out += "\",\"stored_bytes\":" + std::to_string(ls.stored_bytes);
        out += ",\"raw_weight_bytes\":" + std::to_string(ls.raw_bytes);
        out += ",\"decode_us\":";
        serve::append_json_float(out, decode_us[i]);
      }
      out += "}";
    }
    out += "],\"total_macs\":" + std::to_string(prof.total_macs);
    out += ",\"ro_bytes\":" + std::to_string(prof.total_ro_bytes);
    out += ",\"rw_peak_bytes\":" + std::to_string(prof.peak_rw_bytes);
    out += ",\"host\":{\"vnni_host\":";
    out += runtime::simd::vnni_enabled() ? "true" : "false";
    out += ",\"arena_bytes\":" + std::to_string(plan.arena_bytes());
    out += ",\"weight_bytes\":" + std::to_string(plan.weight_bytes());
    out += ",\"weight_count\":" + std::to_string(weight_count);
    out += "}";
    out += ",\"image\":{\"payload_bytes\":" +
           std::to_string(img.payload_bytes);
    // Codec summary in the same shape the serve {"cmd":"info"} probe
    // reports per model, so tooling can diff the two directly.
    {
      std::int64_t raw_banks = 0;
      std::int64_t huff_banks = 0;
      for (const runtime::FlashLayerStats& ls : img.layers) {
        if (ls.codec == 1) {
          ++huff_banks;
        } else {
          ++raw_banks;
        }
      }
      out += ",\"codec\":{\"raw\":" + std::to_string(raw_banks) +
             ",\"huffman\":" + std::to_string(huff_banks) + "}";
    }
    out += ",\"weight_raw_bytes\":" + std::to_string(img.weight_raw_bytes);
    out += ",\"weight_stored_bytes\":" +
           std::to_string(img.weight_stored_bytes);
    out += ",\"compression_ratio\":";
    serve::append_json_float(
        out, img.weight_stored_bytes > 0
                 ? (double)img.weight_raw_bytes / (double)img.weight_stored_bytes
                 : 1.0);
    out += "}";
    if (device_name) {
      const mcu::DeviceSpec dev = parse_device(*device_name);
      const mcu::MemoryMap map = mcu::build_memory_map(net, dev);
      out += ",\"device\":{\"name\":";
      serve::append_json_string(out, dev.name);
      out += ",\"flash_used\":" + std::to_string(map.flash_used);
      out += ",\"flash_bytes\":" + std::to_string(dev.flash_bytes);
      out += ",\"ram_used\":" + std::to_string(map.ram_used);
      out += ",\"ram_bytes\":" + std::to_string(dev.ram_bytes);
      out += ",\"fits\":";
      out += map.fits() ? "true" : "false";
      out += "}";
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("flash image: %s (%llu bytes, format v%u)\n", path.c_str(),
              (unsigned long long)file_bytes, img.version);
  const Shape& in = net.layers.front().in_shape;
  std::printf("input: %lldx%lldx%lld UINT%d (scale %g, zero %d)\n",
              (long long)in.h, (long long)in.w, (long long)in.c,
              core::bits(net.input_qp.q), net.input_qp.scale,
              net.input_qp.zero);
  std::printf("\n%3s %-5s %-7s %-8s %-7s %-11s %-14s %-14s %-8s %12s %10s\n",
              "i", "kind", "scheme", "tier", "requant", "tile", "in", "out",
              "Qx/Qw/Qy", "MACs", "RO bytes");
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const runtime::QLayer& l = net.layers[i];
    const runtime::LayerProfile& lp = prof.layers[i];
    const runtime::PlannedLayer& pl = plan.layers()[i];
    char qbuf[16];
    std::snprintf(qbuf, sizeof(qbuf), "%d/%d/%d", core::bits(l.qx),
                  core::bits(l.qw), core::bits(l.qy));
    char tbuf[32] = "-";
    if (pl.tile.rows > 0 || pl.tile.kb > 0 || pl.tile.nb > 0) {
      int n = std::snprintf(tbuf, sizeof(tbuf), "r%lld",
                            (long long)pl.tile.rows);
      if (pl.tile.kb > 0) {
        n += std::snprintf(tbuf + n, sizeof(tbuf) - n, "/k%lld",
                           (long long)pl.tile.kb);
      }
      if (pl.tile.nb > 0) {
        std::snprintf(tbuf + n, sizeof(tbuf) - n, "/n%lld",
                      (long long)pl.tile.nb);
      }
    }
    std::printf("%3zu %-5s %-7s %-8s %-7s %-11s %-14s %-14s %-8s %12lld "
                "%10lld\n",
                i, runtime::kind_name(l.kind), scheme_slug(l.scheme),
                runtime::tier_name(pl.tier), runtime::requant_name(pl), tbuf,
                l.in_shape.str().c_str(), l.out_shape.str().c_str(), qbuf,
                (long long)lp.macs, (long long)lp.ro_bytes());
  }
  std::printf("\ntotal: %lld MACs, RO %lld bytes, RW peak %lld bytes\n",
              (long long)prof.total_macs, (long long)prof.total_ro_bytes,
              (long long)prof.peak_rw_bytes);
  if (img.version >= 2) {
    std::printf("\nweight storage (format v2):\n");
    std::printf("%3s %-8s %10s %10s %7s %10s\n", "i", "codec", "stored",
                "raw", "ratio", "decode");
    for (std::size_t i = 0; i < img.layers.size(); ++i) {
      const runtime::FlashLayerStats& ls = img.layers[i];
      if (ls.wnumel == 0) continue;
      std::printf("%3zu %-8s %10lld %10lld %6.2fx %8.1fus\n", i,
                  ls.codec == 1 ? "huffman" : "raw",
                  (long long)ls.stored_bytes, (long long)ls.raw_bytes,
                  ls.stored_bytes > 0
                      ? (double)ls.raw_bytes / (double)ls.stored_bytes
                      : 1.0,
                  decode_us[i]);
    }
    std::printf("weights total: %lld -> %lld bytes (%.2fx)\n",
                (long long)img.weight_raw_bytes,
                (long long)img.weight_stored_bytes,
                img.weight_stored_bytes > 0
                    ? (double)img.weight_raw_bytes /
                          (double)img.weight_stored_bytes
                    : 1.0);
  }
  std::printf(
      "host executor: u8 activation arenas %lld bytes (RW peak %lld bytes), "
      "weights %lld bytes for %lld weights (%.2fx the RO bytes)\n",
      (long long)plan.arena_bytes(), (long long)prof.peak_rw_bytes,
      (long long)plan.weight_bytes(), (long long)weight_count,
      (double)plan.weight_bytes() / (double)prof.total_ro_bytes);
  if (device_name) {
    const mcu::DeviceSpec dev = parse_device(*device_name);
    const mcu::MemoryMap map = mcu::build_memory_map(net, dev);
    std::printf("\nmemory map on %s:\n%s", dev.name.c_str(),
                map.str().c_str());
    std::printf("fits: %s\n", map.fits() ? "yes" : "NO");
  }
  return 0;
}

}  // namespace mixq::cli
