// Unit coverage for the multi-model registry (serve/registry.hpp):
// startup loading, name resolution, the validate-then-swap reload path
// (success, every failure class, and the injected reload faults), RCU
// pinning semantics (an in-flight generation survives the swap that
// retires it, bit-exact), health-state transitions, per-model stat
// accounting, and the JSON surfaces the daemon splices into
// {"cmd":"health"} / {"cmd":"stats"} / {"cmd":"info"}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/flash_image.hpp"
#include "serve/net/fault_injector.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {
namespace {

using runtime::Executor;
using runtime::QInferenceResult;
using runtime::QuantizedNet;

QuantizedNet make_net(std::uint64_t seed, int hw = 8) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = hw;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return runtime::convert_qat_model(model, Shape(1, hw, hw, 3),
                                    {core::Scheme::kPCICN});
}

/// Writes `net` to a throwaway image file; removed on destruction.
class TempImage {
 public:
  TempImage(const QuantizedNet& net, const std::string& tag,
            bool compress = false) {
    path_ = "registry_test_" + tag + ".img";
    runtime::write_flash_image_file(net, path_, {.compress = compress});
  }
  ~TempImage() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<float> make_sample(const QuantizedNet& net, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> s(
      static_cast<std::size_t>(net.layers.front().in_shape.numel()));
  rng.fill_uniform(s, 0.0, 1.0);
  return s;
}

QInferenceResult reference_result(const QuantizedNet& net,
                                  const std::vector<float>& sample) {
  Executor exec(net, /*fast=*/true);
  FloatTensor img(net.layers.front().in_shape);
  img.vec() = sample;
  return exec.run_planned(img);
}

Request make_request(std::int64_t id, std::vector<float> input) {
  Request r;
  r.id = id;
  r.input = std::move(input);
  return r;
}

// ---------------------------------------------------------------------------
// Startup + resolution.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, AddResolveAndDefault) {
  const QuantizedNet a = make_net(1);
  const QuantizedNet b = make_net(2);
  ModelRegistry reg(1);
  reg.add_model("a", a);
  reg.add_model("b", b);

  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.default_name(), "a");
  ASSERT_NE(reg.resolve("a"), nullptr);
  ASSERT_NE(reg.resolve("b"), nullptr);
  EXPECT_EQ(reg.resolve(""), reg.resolve("a")) << "\"\" must mean the default";
  EXPECT_EQ(reg.resolve("nope"), nullptr);
  EXPECT_EQ(reg.resolve("a")->generation, 1u);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.max_input_numel(), 8 * 8 * 3);
  EXPECT_EQ(reg.directory().numel_of("b"), 8 * 8 * 3);
  EXPECT_EQ(reg.directory().numel_of("nope"), -1);
}

TEST(ModelRegistry, RejectsEmptyAndDuplicateNames) {
  const QuantizedNet net = make_net(1);
  ModelRegistry reg(1);
  EXPECT_THROW(reg.add_model("", net), std::runtime_error);
  reg.add_model("a", net);
  EXPECT_THROW(reg.add_model("a", net), std::runtime_error);
}

TEST(ModelRegistry, LoadsFromImageFileWithStats) {
  const QuantizedNet net = make_net(3);
  const TempImage img(net, "load", /*compress=*/true);
  ModelRegistry reg(1);
  reg.add_model("m", img.path());

  const auto m = reg.resolve("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->path, img.path());
  EXPECT_EQ(m->image.version, 2u) << "--compress writes a v2 image";
  EXPECT_EQ(m->image.layers.size(), m->net.layers.size());
  EXPECT_EQ(m->classes(), 3);
  // The startup probe ran and produced a sane result.
  EXPECT_GE(m->probe.predicted, 0);
  EXPECT_LT(m->probe.predicted, 3);
}

TEST(ModelRegistry, StartupRefusesBadImage) {
  const QuantizedNet net = make_net(4);
  const TempImage img(net, "startup_bad");
  // Truncate the file in place: startup is strict (throws), unlike reload.
  {
    std::ifstream in(img.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(img.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  ModelRegistry reg(1);
  EXPECT_THROW(reg.add_model("m", img.path()), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Inference against pinned generations.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, InferBatchBitExactWithSerialExecutor) {
  const QuantizedNet net = make_net(5);
  ModelRegistry reg(2);
  reg.add_model("m", net);
  const auto m = reg.resolve("m");

  std::vector<Request> batch;
  std::vector<QInferenceResult> expect;
  for (int i = 0; i < 6; ++i) {
    auto s = make_sample(net, 100 + static_cast<std::uint64_t>(i));
    expect.push_back(reference_result(net, s));
    batch.push_back(make_request(i, std::move(s)));
  }
  std::vector<QInferenceResult> got;
  reg.infer_batch(*m, batch, got);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted, expect[i].predicted);
    EXPECT_EQ(got[i].logits, expect[i].logits) << "sample " << i;
  }
}

TEST(ModelRegistry, InferIndicesAcrossLanesBitExactWhicheverLaneRuns) {
  // Requests go to whichever lane is free, so repeated calls run a request
  // on different lanes' arenas; every call must match the reference, and
  // slots outside `idx` must stay untouched.
  const QuantizedNet net = make_net(8);
  ModelRegistry reg(3);
  reg.add_model("m", net);
  const auto m = reg.resolve("m");
  std::vector<Request> batch;
  std::vector<QInferenceResult> expect;
  for (std::size_t i = 0; i < 7; ++i) {
    auto s = make_sample(net, 300 + i);
    expect.push_back(reference_result(net, s));
    batch.push_back(make_request(static_cast<std::int64_t>(i), std::move(s)));
  }
  const std::vector<std::size_t> idx = {6, 0, 3, 4, 1};
  for (int round = 0; round < 10; ++round) {
    std::vector<QInferenceResult> got(batch.size());
    reg.infer_indices(*m, batch, idx, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool selected = std::find(idx.begin(), idx.end(), i) != idx.end();
      if (selected) {
        EXPECT_EQ(got[i].logits, expect[i].logits)
            << "round " << round << " slot " << i;
      } else {
        EXPECT_TRUE(got[i].logits.empty()) << "round " << round << " slot " << i;
      }
    }
    reg.infer_batch(*m, batch, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].logits, expect[i].logits)
          << "round " << round << " sample " << i;
    }
  }
}

TEST(ModelRegistry, InferIndicesWritesOnlySelectedSlots) {
  const QuantizedNet a = make_net(6);
  const QuantizedNet b = make_net(7);
  ModelRegistry reg(1);
  reg.add_model("a", a);
  reg.add_model("b", b);
  const auto ma = reg.resolve("a");
  const auto mb = reg.resolve("b");

  // A mixed micro-batch: even requests -> a, odd -> b.
  std::vector<Request> batch;
  std::vector<QInferenceResult> expect(4);
  std::vector<std::size_t> idx_a;
  std::vector<std::size_t> idx_b;
  for (std::size_t i = 0; i < 4; ++i) {
    auto s = make_sample(a, 200 + i);
    const QuantizedNet& owner = (i % 2 == 0) ? a : b;
    expect[i] = reference_result(owner, s);
    ((i % 2 == 0) ? idx_a : idx_b).push_back(i);
    batch.push_back(make_request(static_cast<std::int64_t>(i), std::move(s)));
  }
  std::vector<QInferenceResult> got(4);
  reg.infer_indices(*ma, batch, idx_a, got);
  reg.infer_indices(*mb, batch, idx_b, got);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i].logits, expect[i].logits) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Reload: success, RCU pinning, and the failure taxonomy.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, ReloadSwapsAtomicallyAndPinnedGenerationSurvives) {
  const QuantizedNet v1 = make_net(10);
  const QuantizedNet v2 = make_net(11);
  const TempImage img1(v1, "swap_v1");
  const TempImage img2(v2, "swap_v2");
  ModelRegistry reg(1);
  reg.add_model("m", img1.path());

  // Pin the serving generation, as an in-flight request would.
  const auto pinned = reg.resolve("m");
  ASSERT_EQ(pinned->generation, 1u);

  const ReloadResult rr = reg.reload("m", img2.path());
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.model, "m");
  EXPECT_EQ(rr.generation, 2u);
  EXPECT_EQ(rr.format_version, 1u);

  const auto current = reg.resolve("m");
  ASSERT_NE(current, pinned);
  EXPECT_EQ(current->generation, 2u);
  EXPECT_EQ(current->path, img2.path());

  // The retired generation still executes, bit-exact against ITS net --
  // in-flight batches finish on the plan that admitted them.
  const auto sample = make_sample(v1, 42);
  std::vector<Request> batch{make_request(0, sample)};
  std::vector<QInferenceResult> got;
  reg.infer_batch(*pinned, batch, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].logits, reference_result(v1, sample).logits);
  reg.infer_batch(*current, batch, got);
  EXPECT_EQ(got[0].logits, reference_result(v2, sample).logits);
}

TEST(ModelRegistry, ReloadDefaultsToCurrentBackingPath) {
  const QuantizedNet net = make_net(12);
  const TempImage img(net, "repath");
  ModelRegistry reg(1);
  reg.add_model("m", img.path());
  // "" path = re-read the current image (the SIGHUP contract); "" name =
  // the default model.
  const ReloadResult rr = reg.reload("");
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.generation, 2u);
  EXPECT_EQ(reg.resolve("m")->path, img.path());
}

TEST(ModelRegistry, ReloadUnknownModelIsNotFound) {
  ModelRegistry reg(1);
  reg.add_model("m", make_net(13));
  const ReloadResult rr = reg.reload("ghost", "whatever.img");
  EXPECT_FALSE(rr.ok);
  EXPECT_TRUE(rr.not_found);
}

TEST(ModelRegistry, ReloadOfInMemoryModelNeedsExplicitPath) {
  ModelRegistry reg(1);
  reg.add_model("m", make_net(14));
  const ReloadResult rr = reg.reload("m");
  EXPECT_FALSE(rr.ok);
  EXPECT_FALSE(rr.not_found);
  EXPECT_NE(rr.error.find("path"), std::string::npos) << rr.error;
}

TEST(ModelRegistry, FailedReloadKeepsOldGenerationServing) {
  const QuantizedNet net = make_net(15);
  const TempImage img(net, "keep_old");
  ModelRegistry reg(1);
  reg.add_model("m", img.path());
  const auto before = reg.resolve("m");

  // Missing file.
  ReloadResult rr = reg.reload("m", "no_such_file.img");
  EXPECT_FALSE(rr.ok);
  EXPECT_FALSE(rr.not_found);

  // Structurally bad replacement (truncated image).
  const TempImage good2(make_net(16), "keep_old2");
  std::string bad_path = "registry_test_keep_old_bad.img";
  {
    std::ifstream in(good2.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(bad_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  rr = reg.reload("m", bad_path);
  std::remove(bad_path.c_str());
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("flash image"), std::string::npos) << rr.error;

  // Shape-incompatible replacement (16x16 vs the serving 8x8).
  const TempImage wide(make_net(17, /*hw=*/16), "keep_old_wide");
  rr = reg.reload("m", wide.path());
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("shape mismatch"), std::string::npos) << rr.error;

  // Through it all: same generation object, still serving, untouched.
  EXPECT_EQ(reg.resolve("m"), before);
  EXPECT_EQ(reg.resolve("m")->generation, 1u);
  const std::string health = reg.health_json();
  EXPECT_NE(health.find("\"reloads_failed\":3"), std::string::npos) << health;
  EXPECT_NE(health.find("\"last_error\""), std::string::npos) << health;
}

TEST(ModelRegistry, ReloadRefusesOutOfRangeZeroPoints) {
  // CRC-valid replacements whose weight zero-points are no Q4 code: 16
  // breaks the plan's acc32 proof, INT32_MIN would overflow compiling it.
  const QuantizedNet net = make_net(19);
  const TempImage img(net, "zp_old");
  ModelRegistry reg(1);
  reg.add_model("m", img.path());
  const auto before = reg.resolve("m");
  const std::vector<float> sample = make_sample(net, 7);

  for (const std::int32_t zw : {16, std::numeric_limits<std::int32_t>::min()}) {
    QuantizedNet bad = make_net(20);
    ASSERT_EQ(bad.layers[0].qw, core::BitWidth::kQ4);
    bad.layers[0].zw.assign(bad.layers[0].zw.size(), zw);
    const TempImage bad_img(bad, "zp_bad");

    std::istringstream in(
        "{\"cmd\":\"reload\",\"model\":\"m\",\"path\":\"" +
        bad_img.path() + "\"}\n" +
        format_request_line(1, sample.data(),
                            static_cast<std::int64_t>(sample.size())) +
        "\n");
    std::ostringstream out;
    StreamServer(reg, ServeConfig{}).serve(in, out);
    EXPECT_NE(out.str().find("\"code\":\"reload_failed\""),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("zw out of range"), std::string::npos)
        << out.str();
    // The old generation answered the request that followed the refusal.
    EXPECT_NE(out.str().find(
                  format_result_line(1, reference_result(net, sample))),
              std::string::npos)
        << out.str();
    EXPECT_EQ(reg.resolve("m"), before);
  }
}

TEST(ModelRegistry, InjectedReloadFaultsAreContained) {
  const QuantizedNet net = make_net(18);
  const TempImage img(net, "faults");
  ModelRegistry reg(1);
  reg.add_model("m", img.path());

  // rtrunc: the image is cut mid-read; the hardened loader must refuse.
  FaultConfig fc;
  fc.reload_trunc_p = 1.0;
  FaultInjector trunc(fc);
  reg.set_fault_injector(&trunc);
  ReloadResult rr = reg.reload("m", img.path());
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("flash image"), std::string::npos) << rr.error;

  // rexecerr: the candidate loads but its validation smoke-infer fails;
  // validate-then-swap must refuse to publish it.
  fc = FaultConfig{};
  fc.reload_exec_p = 1.0;
  FaultInjector execerr(fc);
  reg.set_fault_injector(&execerr);
  rr = reg.reload("m", img.path());
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("validation"), std::string::npos) << rr.error;

  EXPECT_EQ(reg.resolve("m")->generation, 1u);

  // rdelay stretches the validate->swap window but the swap still lands.
  fc = FaultConfig{};
  fc.reload_delay_p = 1.0;
  fc.reload_delay_us = 1000;
  FaultInjector delay(fc);
  reg.set_fault_injector(&delay);
  rr = reg.reload("m", img.path());
  EXPECT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(reg.resolve("m")->generation, 2u);
  reg.set_fault_injector(nullptr);
}

// ---------------------------------------------------------------------------
// Health, stats, info.
// ---------------------------------------------------------------------------

TEST(ModelRegistry, HealthTracksReadyDrainingAndCounters) {
  const QuantizedNet net = make_net(19);
  const TempImage img(net, "health");
  ModelRegistry reg(1);
  reg.add_model("m", img.path());

  std::string h = reg.health_json();
  EXPECT_NE(h.find("\"status\":\"ok\""), std::string::npos) << h;
  EXPECT_NE(h.find("\"state\":\"ready\""), std::string::npos) << h;
  EXPECT_NE(h.find("\"default\":\"m\""), std::string::npos) << h;

  // Hold the old generation across a reload: the slot is draining until
  // the last in-flight reference drops.
  auto pinned = reg.resolve("m");
  ASSERT_TRUE(reg.reload("m", img.path()).ok);
  h = reg.health_json();
  EXPECT_NE(h.find("\"state\":\"draining\""), std::string::npos) << h;
  EXPECT_NE(h.find("\"retiring\":1"), std::string::npos) << h;
  EXPECT_NE(h.find("\"reloads_ok\":1"), std::string::npos) << h;

  pinned.reset();
  h = reg.health_json();
  EXPECT_NE(h.find("\"state\":\"ready\""), std::string::npos) << h;
  EXPECT_NE(h.find("\"retiring\":0"), std::string::npos) << h;
}

TEST(ModelRegistry, StatsAccountPerModel) {
  const QuantizedNet net = make_net(20);
  ModelRegistry reg(1);
  reg.add_model("a", net);
  reg.add_model("b", net);
  const auto a = reg.resolve("a");
  const auto b = reg.resolve("b");

  reg.record_admitted(*a);
  reg.record_admitted(*a);
  reg.record_admitted(*b);
  reg.record_response(*a, 100.0);
  reg.record_timeout(*a);
  reg.record_shed(*b);  // push refused: the admission is undone

  const std::string s = reg.stats_json();
  const std::size_t pa = s.find("\"a\":");
  const std::size_t pb = s.find("\"b\":");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  const std::string sa = s.substr(pa, pb - pa);
  EXPECT_NE(sa.find("\"requests\":2"), std::string::npos) << s;
  EXPECT_NE(sa.find("\"responses\":1"), std::string::npos) << s;
  EXPECT_NE(sa.find("\"timeouts\":1"), std::string::npos) << s;
  EXPECT_NE(sa.find("\"queued\":0"), std::string::npos) << s;
  const std::string sb = s.substr(pb);
  EXPECT_NE(sb.find("\"shed\":1"), std::string::npos) << s;
  EXPECT_NE(sb.find("\"queued\":0"), std::string::npos) << s;
}

TEST(ModelRegistry, InfoReportsFormatVersionAndCodecs) {
  const QuantizedNet net = make_net(21);
  const TempImage v2(net, "info_v2", /*compress=*/true);
  ModelRegistry reg(1);
  reg.add_model("m", v2.path());
  const std::string info = reg.models_info_json();
  EXPECT_NE(info.find("\"format_version\":2"), std::string::npos) << info;
  EXPECT_NE(info.find("\"codec\":{"), std::string::npos) << info;
  EXPECT_NE(info.find("\"path\":\"" + v2.path() + "\""), std::string::npos)
      << info;
}

}  // namespace
}  // namespace mixq::serve
