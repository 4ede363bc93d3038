// Google-benchmark microbenches of the integer-only runtime kernels:
// throughput across precisions (Q2/Q4/Q8), schemes (PL vs PC, ICN vs
// thresholds) and kernel kinds (conv / depthwise / pointwise / linear).
// These support the cycle-model factors documented in mcu/cycle_model.hpp.
//
// The `BM_*Micro*` group tracks the u8-activation SIMD kernels in
// isolation (panel GEMM u8 x s8, the widening u8 x s16 dots, the VNNI
// panel; the direct pair-interleaved depthwise u8 kernels), so per-kernel
// gains stay visible independently of the end-to-end bench_runtime number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/thresholds.hpp"
#include "runtime/autotune.hpp"
#include "runtime/kernels.hpp"
#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"
#include "tensor/rng.hpp"

using namespace mixq;
using core::BitWidth;
using core::Scheme;

namespace {

runtime::QLayer make_layer(runtime::QLayerKind kind, Shape in,
                           std::int64_t co, std::int64_t k,
                           std::int64_t stride, BitWidth qx, BitWidth qw,
                           BitWidth qy, Scheme scheme) {
  Rng rng(42);
  runtime::QLayer l;
  l.kind = kind;
  l.scheme = scheme;
  l.spec.kh = l.spec.kw = k;
  l.spec.stride = stride;
  l.spec.pad = k / 2;
  l.in_shape = in;
  l.out_shape = Shape(in.n, conv_out_dim(in.h, k, stride, k / 2),
                      conv_out_dim(in.w, k, stride, k / 2), co);
  l.qx = qx;
  l.qw = qw;
  l.qy = qy;
  l.wshape = kind == runtime::QLayerKind::kDepthwise
                 ? WeightShape(co, k, k, 1)
                 : WeightShape(co, k, k, in.c);
  l.weights = PackedBuffer(l.wshape.numel(), qw);
  for (std::int64_t i = 0; i < l.weights.numel(); ++i) {
    l.weights.set(i, static_cast<std::uint32_t>(
                         rng.uniform_int(core::levels(qw))));
  }
  l.zx = core::qmax(qx) / 2;
  if (core::granularity_of(scheme) == core::Granularity::kPerChannel) {
    for (std::int64_t c = 0; c < co; ++c) {
      l.zw.push_back(static_cast<std::int32_t>(
          rng.uniform_int(core::levels(qw))));
    }
  } else {
    l.zw = {core::qmax(qw) / 2};
  }
  l.icn.resize(static_cast<std::size_t>(co));
  for (auto& ch : l.icn) {
    ch.m = core::decompose_multiplier(rng.uniform(0.001, 0.01));
    ch.bq = static_cast<std::int32_t>(rng.uniform(-100, 100));
  }
  if (scheme == Scheme::kPCThresholds) {
    const std::int64_t bound =
        core::phi_bound(l.wshape.per_channel(), qx, qw);
    l.thresholds =
        core::derive_threshold_layer(l.icn, l.zy, qy, -bound, bound);
  }
  return l;
}

PackedBuffer random_input(const runtime::QLayer& l) {
  Rng rng(7);
  PackedBuffer in(l.in_shape.numel(), l.qx);
  for (std::int64_t i = 0; i < in.numel(); ++i) {
    in.set(i, static_cast<std::uint32_t>(
                  rng.uniform_int(core::levels(l.qx))));
  }
  return in;
}

void run_bench(benchmark::State& state, runtime::QLayer l) {
  const PackedBuffer in = random_input(l);
  PackedBuffer out(l.out_shape.numel(), l.qy);
  std::int64_t macs = 0;
  switch (l.kind) {
    case runtime::QLayerKind::kDepthwise:
      macs = l.out_shape.numel() * l.spec.kh * l.spec.kw;
      break;
    default:
      macs = l.out_shape.numel() * l.spec.kh * l.spec.kw * l.wshape.ci;
  }
  for (auto _ : state) {
    runtime::run_layer(l, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(macs), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Conv3x3(benchmark::State& state) {
  const auto qw = core::bitwidth_from_int(static_cast<int>(state.range(0)));
  run_bench(state, make_layer(runtime::QLayerKind::kConv,
                              Shape(1, 16, 16, 16), 16, 3, 1, BitWidth::kQ8,
                              qw, BitWidth::kQ8, Scheme::kPCICN));
}
BENCHMARK(BM_Conv3x3)->Arg(8)->Arg(4)->Arg(2);

void BM_Depthwise3x3(benchmark::State& state) {
  const auto qw = core::bitwidth_from_int(static_cast<int>(state.range(0)));
  run_bench(state, make_layer(runtime::QLayerKind::kDepthwise,
                              Shape(1, 16, 16, 32), 32, 3, 1, BitWidth::kQ8,
                              qw, BitWidth::kQ8, Scheme::kPCICN));
}
BENCHMARK(BM_Depthwise3x3)->Arg(8)->Arg(4)->Arg(2);

void BM_Pointwise(benchmark::State& state) {
  const auto qw = core::bitwidth_from_int(static_cast<int>(state.range(0)));
  run_bench(state, make_layer(runtime::QLayerKind::kConv,
                              Shape(1, 8, 8, 64), 64, 1, 1, BitWidth::kQ8, qw,
                              BitWidth::kQ8, Scheme::kPCICN));
}
BENCHMARK(BM_Pointwise)->Arg(8)->Arg(4)->Arg(2);

void BM_Linear(benchmark::State& state) {
  run_bench(state, make_layer(runtime::QLayerKind::kLinear,
                              Shape(1, 1, 1, 256), 100, 1, 1, BitWidth::kQ8,
                              BitWidth::kQ4, BitWidth::kQ8, Scheme::kPCICN));
}
BENCHMARK(BM_Linear);

void BM_SchemeIcnVsThresholds(benchmark::State& state) {
  const Scheme s =
      state.range(0) == 0 ? Scheme::kPCICN : Scheme::kPCThresholds;
  run_bench(state, make_layer(runtime::QLayerKind::kConv,
                              Shape(1, 8, 8, 32), 32, 3, 1, BitWidth::kQ8,
                              BitWidth::kQ4, BitWidth::kQ4, s));
}
BENCHMARK(BM_SchemeIcnVsThresholds)->Arg(0)->Arg(1);

void BM_ActPrecisionSweep(benchmark::State& state) {
  const auto qx = core::bitwidth_from_int(static_cast<int>(state.range(0)));
  run_bench(state, make_layer(runtime::QLayerKind::kConv,
                              Shape(1, 16, 16, 16), 16, 3, 1, qx,
                              BitWidth::kQ8, qx, Scheme::kPCICN));
}
BENCHMARK(BM_ActPrecisionSweep)->Arg(8)->Arg(4)->Arg(2);

// ---------------------------------------------------------------------------
// SIMD micro-kernels (runtime/simd.hpp), independent of the layer
// plumbing: one iteration computes M x co output accumulators over
// fan-in K, matching what the planned GEMM does per row block.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMicroM = 64;
constexpr std::int64_t kMicroCo = 64;
constexpr std::int64_t kMicroK = 128;

void BM_GemmMicro_u8s8_panel(benchmark::State& state) {
  Rng rng(12);
  const std::int64_t ocb = runtime::simd::gemm_u8s8_ocb();
  const std::int64_t kp = runtime::simd::gemm_u8s8_kp(kMicroK);
  const std::int64_t co_pad = runtime::simd::round_up(kMicroCo, ocb);
  std::vector<std::uint8_t> a(
      static_cast<std::size_t>(kMicroM * kMicroK + 32));
  std::vector<std::int32_t> w(static_cast<std::size_t>(kMicroCo * kMicroK));
  std::vector<std::int8_t> panel(static_cast<std::size_t>(
      runtime::simd::gemm_u8s8_panel_elems(kMicroCo, kMicroK)));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(2 * co_pad));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& v : w) {
    v = static_cast<std::int32_t>(rng.uniform_int(31)) - 15;
  }
  runtime::simd::gemm_u8s8_pack(w.data(), kMicroCo, kMicroK, panel.data());
  for (auto _ : state) {
    for (std::int64_t m = 0; m < kMicroM; m += 2) {
      const std::uint8_t* a0 = a.data() + m * kMicroK;
      const std::uint8_t* a1 = a0 + kMicroK;
      for (std::int64_t ob = 0; ob * ocb < co_pad; ++ob) {
        runtime::simd::gemm_u8s8_x2(a0, a1, panel.data() + ob * ocb * kp, kp,
                                    acc.data() + ob * ocb,
                                    acc.data() + co_pad + ob * ocb);
      }
      benchmark::DoNotOptimize(acc.data());
    }
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(kMicroM * kMicroCo * kMicroK),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmMicro_u8s8_panel);

void BM_GemmMicro_u8s16(benchmark::State& state) {
  Rng rng(13);
  const std::int64_t kp = runtime::simd::round_up(kMicroK, 16);
  std::vector<std::uint8_t> a(
      static_cast<std::size_t>(kMicroM * kMicroK + 32));
  std::vector<std::int16_t> w(static_cast<std::size_t>(kMicroCo * kp), 0);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(2 * kMicroCo));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (std::int64_t oc = 0; oc < kMicroCo; ++oc) {
    for (std::int64_t k = 0; k < kMicroK; ++k) {
      w[static_cast<std::size_t>(oc * kp + k)] = static_cast<std::int16_t>(
          static_cast<std::int32_t>(rng.uniform_int(511)) - 255);
    }
  }
  for (auto _ : state) {
    for (std::int64_t m = 0; m < kMicroM; m += 2) {
      const std::uint8_t* a0 = a.data() + m * kMicroK;
      const std::uint8_t* a1 = a0 + kMicroK;
      std::fill(acc.begin(), acc.end(), 0);
      for (std::int64_t oc = 0; oc < kMicroCo; oc += 4) {
        const std::int16_t* wr = w.data() + oc * kp;
        runtime::simd::dot2x4_u8s16(a0, a1, wr, wr + kp, wr + 2 * kp,
                                    wr + 3 * kp, kp, acc.data() + oc,
                                    acc.data() + kMicroCo + oc);
      }
      benchmark::DoNotOptimize(acc.data());
    }
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(kMicroM * kMicroCo * kMicroK),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmMicro_u8s16);

constexpr std::int64_t kDwC = 128;
constexpr std::int64_t kDwTaps = 9;
constexpr std::int64_t kDwPixels = 64;

void BM_DwMicro_u8s16(benchmark::State& state) {
  Rng rng(15);
  const std::int64_t in_w = kDwPixels + 2;
  std::vector<std::uint8_t> x(static_cast<std::size_t>(3 * in_w * kDwC));
  std::vector<std::int16_t> wt(static_cast<std::size_t>(kDwTaps * kDwC));
  std::vector<std::int16_t> wtp(static_cast<std::size_t>(
      runtime::simd::dw_pairs(kDwTaps) * 2 * kDwC));
  std::vector<std::int64_t> toff(static_cast<std::size_t>(kDwTaps));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(kDwC));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& v : wt) {
    v = static_cast<std::int16_t>(
        static_cast<std::int32_t>(rng.uniform_int(511)) - 255);
  }
  for (std::int64_t ky = 0; ky < 3; ++ky) {
    for (std::int64_t kx = 0; kx < 3; ++kx) {
      toff[static_cast<std::size_t>(ky * 3 + kx)] = (ky * in_w + kx) * kDwC;
    }
  }
  runtime::simd::dw_pack_u8s16(wt.data(), kDwTaps, kDwC, wtp.data());
  for (auto _ : state) {
    for (std::int64_t p = 0; p < kDwPixels; ++p) {
      runtime::simd::dw_dot_u8s16p(x.data() + p * kDwC, toff.data(),
                                   wtp.data(), kDwTaps, kDwC, acc.data());
      benchmark::DoNotOptimize(acc.data());
    }
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(kDwPixels * kDwTaps * kDwC),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DwMicro_u8s16);

// VNNI panel GEMM (vpdpbusd) at the exact shape of BM_GemmMicro_u8s8_panel,
// through the rows kernel the plan runs (4 rows x up to 64 channels in
// registers), so the two rows read side by side as "one dpbusd vs the
// vpmaddubsw + vpmaddwd pair". Skipped (not failed) on hosts without
// AVX-512 VNNI.
void BM_GemmMicro_vnni_panel(benchmark::State& state) {
  if (!runtime::simd::vnni_enabled()) {
    state.SkipWithError("host lacks AVX-512 VNNI");
    return;
  }
  Rng rng(16);
  const std::int64_t rows = runtime::simd::kVnniRows;
  const std::int64_t co_pad =
      runtime::simd::round_up(kMicroCo, runtime::simd::vnni_ocb());
  std::vector<std::uint8_t> a(
      static_cast<std::size_t>(kMicroM * kMicroK + 32));
  std::vector<std::int32_t> w(static_cast<std::size_t>(kMicroCo * kMicroK));
  std::vector<std::int8_t> panel(static_cast<std::size_t>(
      runtime::simd::vnni_panel_elems(kMicroCo, kMicroK)));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * co_pad));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& v : w) {
    v = static_cast<std::int32_t>(rng.uniform_int(31)) - 15;
  }
  runtime::simd::vnni_pack(w.data(), kMicroCo, kMicroK, panel.data());
  for (auto _ : state) {
    for (std::int64_t m = 0; m < kMicroM; m += rows) {
      runtime::simd::vnni_gemm_rows(a.data() + m * kMicroK, kMicroK, rows,
                                    panel.data(), kMicroK, co_pad, 0, 0,
                                    nullptr, acc.data());
      benchmark::DoNotOptimize(acc.data());
    }
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(kMicroM * kMicroCo * kMicroK),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmMicro_vnni_panel);

// Per-layer gap table: the GEMM of each pointwise layer of the STM32H7
// MobileNetV1 224_0.75 plan (M output pixels of K input channels -> N
// output channels), as gemm8_rows calls the rows kernel for it: rows in
// groups of 4, the analytic tile's K/N blocking, and the zero-point split
// on (every Q8 pointwise layer of that plan takes it); no requantize.
// README sets these rates beside each layer's in-plan MAC/ns.
void BM_PointwiseGap(benchmark::State& state) {
  if (!runtime::simd::vnni_enabled()) {
    state.SkipWithError("host lacks AVX-512 VNNI");
    return;
  }
  const std::int64_t M = state.range(0);
  const std::int64_t K = state.range(1);
  const std::int64_t N = state.range(2);
  const std::int64_t rows = runtime::simd::kVnniRows;
  const std::int64_t kp = runtime::simd::vnni_kp(K);
  const std::int64_t co_pad =
      runtime::simd::round_up(N, runtime::simd::vnni_ocb());
  runtime::GemmShape g;
  g.out_pixels = M;
  g.co_pad = co_pad;
  g.kp = kp;
  g.ocb = runtime::simd::vnni_ocb();
  g.wbytes = 1;
  g.kq = 4;
  const runtime::TileConfig tile =
      runtime::autotune_analytic(g, runtime::detect_caches());
  Rng rng(18);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(M * K + kp));
  std::vector<std::int32_t> w(static_cast<std::size_t>(N * K));
  std::vector<std::int32_t> split(static_cast<std::size_t>(co_pad), 0);
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(runtime::simd::vnni_panel_elems(N, K)));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * co_pad));
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (std::int64_t oc = 0; oc < N; ++oc) {
    const auto zw = static_cast<std::int32_t>(rng.uniform_int(256));
    split[static_cast<std::size_t>(oc)] = 128 - zw;
    for (std::int64_t k = 0; k < K; ++k) {
      w[static_cast<std::size_t>(oc * K + k)] =
          static_cast<std::int32_t>(rng.uniform_int(256)) - zw;
    }
  }
  runtime::simd::vnni_pack(w.data(), N, K, panel.data(), split.data());
  for (auto _ : state) {
    for (std::int64_t m = 0; m < M; m += rows) {
      runtime::simd::vnni_gemm_rows(a.data() + m * K, K,
                                    std::min(rows, M - m), panel.data(), K,
                                    co_pad, tile.kb, tile.nb, split.data(),
                                    acc.data());
      benchmark::DoNotOptimize(acc.data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(M * K * N),
      benchmark::Counter::kIsIterationInvariantRate);
}
// The nine distinct pointwise shapes (M, K, N), pw1 to pw13.
BENCHMARK(BM_PointwiseGap)
    ->Args({12544, 24, 48})
    ->Args({3136, 48, 96})
    ->Args({3136, 96, 96})
    ->Args({784, 96, 192})
    ->Args({784, 192, 192})
    ->Args({196, 192, 384})
    ->Args({196, 384, 384})
    ->Args({49, 384, 768})
    ->Args({49, 768, 768});

// Tile-gather + panel GEMM at a conv-like shape, parameterized by the
// im2col tile rows: 16 (the pre-autotuner fixed constant) vs whatever the
// analytic cache model picks on this host. Runs the best panel tier the
// host has (VNNI when available, else the s8 panel) so the comparison
// matches what the plan would actually execute.
void BM_Im2colTileRows(benchmark::State& state) {
  const std::int64_t rows = state.range(0) > 0
                                ? state.range(0)
                                : [] {
                                    runtime::GemmShape g;
                                    g.out_pixels = 1024;
                                    g.co_pad = 64;
                                    g.kp = 288;  // 3x3 x 32ch conv depth
                                    g.ocb = runtime::simd::vnni_enabled()
                                                ? runtime::simd::vnni_ocb()
                                                : runtime::simd::
                                                      gemm_u8s8_ocb();
                                    g.wbytes = 1;
                                    g.kq = 4;
                                    return runtime::autotune_analytic(
                                               g, runtime::detect_caches())
                                        .rows;
                                  }();
  const bool vnni = runtime::simd::vnni_enabled();
  const std::int64_t kp = 288;
  const std::int64_t co_pad = 64;
  const std::int64_t pixels = 1024;
  const std::int64_t ocb = runtime::simd::gemm_u8s8_ocb();
  Rng rng(17);
  std::vector<std::uint8_t> input(static_cast<std::size_t>(1 << 20));
  std::vector<std::int8_t> panel(static_cast<std::size_t>(co_pad * kp));
  std::vector<std::uint8_t> tile(static_cast<std::size_t>(128 * kp + 64));
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(runtime::simd::kVnniRows * co_pad));
  for (auto& v : input) v = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto& v : panel) {
    v = static_cast<std::int8_t>(
        static_cast<std::int32_t>(rng.uniform_int(31)) - 15);
  }
  for (auto _ : state) {
    std::int64_t off = 0;
    for (std::int64_t p0 = 0; p0 < pixels; p0 += rows) {
      const std::int64_t pr = std::min(rows, pixels - p0);
      const std::int64_t bytes = pr * kp;
      if (off + bytes > static_cast<std::int64_t>(input.size())) off = 0;
      std::memcpy(tile.data(), input.data() + off, bytes);
      off += bytes;
      if (vnni) {
        for (std::int64_t m = 0; m < pr; m += runtime::simd::kVnniRows) {
          runtime::simd::vnni_gemm_rows(
              tile.data() + m * kp, kp,
              std::min(runtime::simd::kVnniRows, pr - m), panel.data(), kp,
              co_pad, 0, 0, nullptr, acc.data());
        }
      } else {
        for (std::int64_t m = 0; m + 2 <= pr; m += 2) {
          const std::uint8_t* a0 = tile.data() + m * kp;
          for (std::int64_t cb = 0; cb < co_pad; cb += ocb) {
            runtime::simd::gemm_u8s8_x2(a0, a0 + kp, panel.data() + cb * kp,
                                        kp, acc.data() + cb,
                                        acc.data() + co_pad + cb);
          }
        }
      }
      benchmark::DoNotOptimize(acc.data());
    }
  }
  state.SetLabel(std::string(vnni ? "vnni" : "s8-panel") + " rows=" +
                 std::to_string(rows));
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(pixels * co_pad * kp),
      benchmark::Counter::kIsIterationInvariantRate);
}
// Arg 16: the pre-autotuner fixed tile. Arg 0: autotuned on this host.
BENCHMARK(BM_Im2colTileRows)->Arg(16)->Arg(0);

}  // namespace
