// Tests for the AVX-512 VNNI kernel tier (runtime/simd_vnni.hpp).
//
// Contract under test: every VNNI kernel computes exactly the same
// integers as a plain scalar loop -- including on data that EXCEEDS the
// AVX2 s8 panel's i16 pair-sum bound (max(|w[2k]|+|w[2k+1]|) * amax >
// 32767), the inputs that tier exists to handle. On a build whose
// simd_vnni.cpp compiled to the portable fallback bodies these tests pin
// the fallback; on a native-VNNI build running on a VNNI CPU they pin the
// vpdpbusd/vpdpwssd/vpsravq bodies. The only skipped configuration is a
// native-VNNI binary on a host without the instructions, where executing
// the kernels would fault.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/quantizer.hpp"
#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime {
namespace {

bool kernels_runnable() { return !simd::vnni_compiled() || simd::vnni_cpu(); }

#define SKIP_IF_NOT_RUNNABLE()                                        \
  if (!kernels_runnable()) {                                          \
    GTEST_SKIP() << "native AVX-512 VNNI build on a host without the " \
                    "instructions";                                   \
  }

std::vector<std::uint8_t> random_u8(Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  return v;
}

/// Full-range s8 weights with adjacent pairs pushed to +/-127 so the i16
/// pair sums overflow: (127 + 127) * 255 = 64770 > 32767. The s8 panel
/// tier must reject such weights; the VNNI tier must compute them exactly.
std::vector<std::int32_t> pair_bound_breaking_w(Rng& rng, std::int64_t n) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::int32_t u = static_cast<std::int32_t>(rng.uniform_int(3));
    v[i] = rng.uniform_int(2) != 0u ? 127 - u : -128 + u;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Panel layout (portable helpers, safe on any host).
// ---------------------------------------------------------------------------

TEST(SimdVnni, PackLayoutIsABijectionOntoThePanel) {
  const std::int64_t co = 21, K = 13;
  const std::int64_t kp = simd::vnni_kp(K);
  EXPECT_EQ(kp, 16);
  const std::int64_t elems = simd::vnni_panel_elems(co, K);
  EXPECT_EQ(elems, simd::round_up(co, simd::vnni_ocb()) * kp);
  std::vector<int> hits(static_cast<std::size_t>(elems), 0);
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t k = 0; k < K; ++k) {
      const std::int64_t idx = simd::vnni_index(kp, oc, k);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, elems);
      ++hits[static_cast<std::size_t>(idx)];
    }
  }
  for (const int h : hits) EXPECT_LE(h, 1);  // no two weights collide
}

TEST(SimdVnni, PackPlacesWeightsAndZeroesPadding) {
  Rng rng(7);
  const std::int64_t co = 18, K = 10;
  const std::int64_t kp = simd::vnni_kp(K);
  const auto w = pair_bound_breaking_w(rng, co * K);
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(simd::vnni_panel_elems(co, K)), 99);
  simd::vnni_pack(w.data(), co, K, panel.data());
  std::vector<bool> is_weight(panel.size(), false);
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t k = 0; k < K; ++k) {
      const std::int64_t idx = simd::vnni_index(kp, oc, k);
      EXPECT_EQ(panel[static_cast<std::size_t>(idx)],
                static_cast<std::int8_t>(w[oc * K + k]));
      is_weight[static_cast<std::size_t>(idx)] = true;
    }
  }
  for (std::size_t i = 0; i < panel.size(); ++i) {
    if (!is_weight[i]) {
      EXPECT_EQ(panel[i], 0) << "pad byte " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Panel GEMM vs scalar, beyond the pair bound.
// ---------------------------------------------------------------------------

TEST(SimdVnni, GemmX1MatchesScalarBeyondPairBound) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(11);
  const std::int64_t ocb = simd::vnni_ocb();
  for (const std::int64_t K : {std::int64_t{1}, std::int64_t{3},
                               std::int64_t{4}, std::int64_t{27},
                               std::int64_t{28}, std::int64_t{61},
                               std::int64_t{64}, std::int64_t{100}}) {
    const std::int64_t co = ocb;  // one block
    const std::int64_t kp = simd::vnni_kp(K);
    const auto w = pair_bound_breaking_w(rng, co * K);
    std::vector<std::int8_t> panel(
        static_cast<std::size_t>(simd::vnni_panel_elems(co, K)));
    simd::vnni_pack(w.data(), co, K, panel.data());
    auto a = random_u8(rng, kp);
    for (std::int64_t k = K; k < kp; ++k) a[static_cast<std::size_t>(k)] = 0;

    for (const int accumulate : {0, 1}) {
      std::vector<std::int32_t> acc(static_cast<std::size_t>(ocb), 77);
      std::vector<std::int32_t> expect(static_cast<std::size_t>(ocb));
      for (std::int64_t j = 0; j < ocb; ++j) {
        std::int64_t s = accumulate != 0 ? 77 : 0;
        for (std::int64_t k = 0; k < K; ++k) {
          s += static_cast<std::int64_t>(a[static_cast<std::size_t>(k)]) *
               w[static_cast<std::size_t>(j * K + k)];
        }
        expect[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(s);
      }
      simd::vnni_gemm_x1(a.data(), panel.data(), kp, acc.data(), accumulate);
      EXPECT_EQ(acc, expect) << "K=" << K << " accumulate=" << accumulate;
    }
  }
}

TEST(SimdVnni, GemmX2MatchesTwoX1Calls) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(12);
  const std::int64_t ocb = simd::vnni_ocb();
  const std::int64_t K = 37;
  const std::int64_t kp = simd::vnni_kp(K);
  const auto w = pair_bound_breaking_w(rng, ocb * K);
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(simd::vnni_panel_elems(ocb, K)));
  simd::vnni_pack(w.data(), ocb, K, panel.data());
  const auto a = random_u8(rng, 2 * kp);

  std::vector<std::int32_t> e0(static_cast<std::size_t>(ocb));
  std::vector<std::int32_t> e1(static_cast<std::size_t>(ocb));
  simd::vnni_gemm_x1(a.data(), panel.data(), kp, e0.data(), 0);
  simd::vnni_gemm_x1(a.data() + kp, panel.data(), kp, e1.data(), 0);

  std::vector<std::int32_t> acc0(static_cast<std::size_t>(ocb));
  std::vector<std::int32_t> acc1(static_cast<std::size_t>(ocb));
  simd::vnni_gemm_x2(a.data(), a.data() + kp, panel.data(), kp, acc0.data(),
                     acc1.data(), 0);
  EXPECT_EQ(acc0, e0);
  EXPECT_EQ(acc1, e1);
}

TEST(SimdVnni, KBlockedAccumulationMatchesSinglePass) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(13);
  const std::int64_t ocb = simd::vnni_ocb();
  const std::int64_t K = 96;
  const std::int64_t kp = simd::vnni_kp(K);
  const auto w = pair_bound_breaking_w(rng, ocb * K);
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(simd::vnni_panel_elems(ocb, K)));
  simd::vnni_pack(w.data(), ocb, K, panel.data());
  const auto a = random_u8(rng, kp);

  std::vector<std::int32_t> full(static_cast<std::size_t>(ocb));
  simd::vnni_gemm_x1(a.data(), panel.data(), kp, full.data(), 0);

  // Same dot in three 4-aligned K blocks, accumulating: the plan's blocked
  // GEMM must be bit-identical by exact i32 partial sums.
  std::vector<std::int32_t> blocked(static_cast<std::size_t>(ocb));
  std::int64_t k0 = 0;
  for (const std::int64_t kb : {std::int64_t{32}, std::int64_t{44},
                                std::int64_t{20}}) {
    simd::vnni_gemm_x1(a.data() + k0,
                       panel.data() + (k0 / 4) * ocb * 4, kb,
                       blocked.data(), k0 > 0 ? 1 : 0);
    k0 += kb;
  }
  ASSERT_EQ(k0, kp);
  EXPECT_EQ(blocked, full);
}

// ---------------------------------------------------------------------------
// Row sum (the zero-point split's per-row correction) vs scalar.
// ---------------------------------------------------------------------------

TEST(SimdVnni, RowSumMatchesScalarAcrossLengthsAndOffsets) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(17);
  const std::vector<std::uint8_t> noise = random_u8(rng, 300);
  const std::vector<std::uint8_t> ones(300, 0xFF);
  for (const auto* buf : {&noise, &ones}) {
    // Unaligned starts, and lengths across the 64-byte body / masked-tail
    // split; bytes past the row differ from it, so an over-read shows.
    for (const std::int64_t start : {std::int64_t{0}, std::int64_t{1},
                                     std::int64_t{3}, std::int64_t{63}}) {
      for (std::int64_t n = 0; n <= 200; ++n) {
        const std::uint8_t* a = buf->data() + start;
        std::int32_t expect = 0;
        for (std::int64_t k = 0; k < n; ++k) expect += a[k];
        ASSERT_EQ(simd::vnni_row_sum_u8(a, n), expect)
            << "start=" << start << " n=" << n
            << (buf == &ones ? " all-0xFF" : " random");
      }
    }
  }
}

TEST(SimdVnni, PackSubtractsPerRowOffset) {
  const std::int64_t co = 5, K = 6;
  const std::int64_t kp = simd::vnni_kp(K);
  std::vector<std::int32_t> w(static_cast<std::size_t>(co * K));
  std::vector<std::int32_t> sub(static_cast<std::size_t>(co));
  for (std::int64_t oc = 0; oc < co; ++oc) {
    sub[static_cast<std::size_t>(oc)] = 128 - static_cast<std::int32_t>(
                                                  oc * 63);  // 128 - Zw
    for (std::int64_t k = 0; k < K; ++k) {
      // Offsets w - Zw for codes spanning [0, 255]: outside s8.
      const std::int32_t code = static_cast<std::int32_t>((k * 51) % 256);
      w[static_cast<std::size_t>(oc * K + k)] =
          code - static_cast<std::int32_t>(oc * 63);
    }
  }
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(simd::vnni_panel_elems(co, K)));
  simd::vnni_pack(w.data(), co, K, panel.data(), sub.data());
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t k = 0; k < K; ++k) {
      EXPECT_EQ(panel[static_cast<std::size_t>(simd::vnni_index(kp, oc, k))],
                (k * 51) % 256 - 128)
          << "oc=" << oc << " k=" << k;  // code - 128
    }
  }
}

// ---------------------------------------------------------------------------
// Depthwise + elementwise kernels vs scalar.
// ---------------------------------------------------------------------------

TEST(SimdVnni, DwDotMatchesScalar) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(14);
  constexpr std::int32_t kSentinel = 0x5A5A5A5A;
  // Every channel count through three 16-channel steps (the 32-step, the
  // 16-step and the masked tail in every combination), and two 32-steps,
  // by every tap count. The buffers are exact-size heap blocks, so an
  // over-read of x or wtp is a sanitizer finding, and acc carries
  // sentinels past C.
  std::vector<std::int64_t> channels;
  for (std::int64_t C = 1; C <= 48; ++C) channels.push_back(C);
  channels.push_back(64);
  for (const std::int64_t C : channels) {
    for (std::int64_t taps = 1; taps <= 9; ++taps) {
      const auto x = random_u8(rng, taps * C);
      std::vector<std::int16_t> wt(static_cast<std::size_t>(taps * C));
      for (auto& v : wt) {
        v = static_cast<std::int16_t>(
            static_cast<std::int32_t>(rng.uniform_int(511)) - 255);
      }
      std::vector<std::int64_t> toff(static_cast<std::size_t>(taps));
      for (std::int64_t t = 0; t < taps; ++t) {
        toff[static_cast<std::size_t>(t)] = t * C;  // dense windows
      }
      std::vector<std::int16_t> wtp(
          static_cast<std::size_t>(simd::dw_pairs(taps) * 2 * C));
      simd::dw_pack_u8s16(wt.data(), taps, C, wtp.data());

      std::vector<std::int32_t> expect(static_cast<std::size_t>(C + 16),
                                       kSentinel);
      for (std::int64_t c = 0; c < C; ++c) {
        std::int32_t s = 0;
        for (std::int64_t t = 0; t < taps; ++t) {
          s += static_cast<std::int32_t>(
                   x[static_cast<std::size_t>(t * C + c)]) *
               wt[static_cast<std::size_t>(t * C + c)];
        }
        expect[static_cast<std::size_t>(c)] = s;
      }
      std::vector<std::int32_t> acc(static_cast<std::size_t>(C + 16),
                                    kSentinel);
      simd::vnni_dw_dot_u8s16p(x.data(), toff.data(), wtp.data(), taps, C,
                               acc.data());
      ASSERT_EQ(acc, expect) << "C=" << C << " taps=" << taps;
    }
  }
}

TEST(SimdVnni, MacAndDotMatchScalar) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(15);
  constexpr std::int32_t kSentinel = -0x3C3C3C3C;
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 48; ++n) lengths.push_back(n);
  lengths.push_back(64);
  lengths.push_back(100);
  for (const std::int64_t n : lengths) {
    const auto x = random_u8(rng, n);
    std::vector<std::int16_t> w(static_cast<std::size_t>(n));
    for (auto& v : w) {
      v = static_cast<std::int16_t>(
          static_cast<std::int32_t>(rng.uniform_int(1001)) - 500);
    }
    // acc runs 16 sentinels past n: the masked tail must not store there.
    std::vector<std::int32_t> acc(static_cast<std::size_t>(n + 16), 3);
    std::vector<std::int32_t> expect(static_cast<std::size_t>(n + 16), 3);
    for (std::int64_t i = n; i < n + 16; ++i) {
      acc[static_cast<std::size_t>(i)] = kSentinel;
      expect[static_cast<std::size_t>(i)] = kSentinel;
    }
    std::int32_t dot_expect = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t p =
          static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) *
          w[static_cast<std::size_t>(i)];
      expect[static_cast<std::size_t>(i)] += p;
      dot_expect += p;
    }
    simd::vnni_mac_u8s16(acc.data(), x.data(), w.data(), n);
    EXPECT_EQ(acc, expect) << "n=" << n;
    EXPECT_EQ(simd::vnni_dot_u8s16(x.data(), w.data(), n), dot_expect)
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Requantizer vs the scalar reference (requant_icn_one).
// ---------------------------------------------------------------------------

TEST(SimdVnni, RequantMatchesScalarAcrossShifts) {
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(16);
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{5},
                               std::int64_t{8}, std::int64_t{16},
                               std::int64_t{23}, std::int64_t{64}}) {
    std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
    std::vector<std::int32_t> add(static_cast<std::size_t>(n));
    std::vector<std::int64_t> m0(static_cast<std::size_t>(n));
    std::vector<std::int64_t> shift(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      acc[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          rng.uniform_int(1u << 30)) - (1 << 29);
      add[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          rng.uniform_int(1u << 20)) - (1 << 19);
      m0[static_cast<std::size_t>(i)] =
          1 + static_cast<std::int64_t>(rng.uniform_int(0x7fffffffu));
      shift[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(rng.uniform_int(63));  // [0, 62]
    }
    const std::int32_t zy = static_cast<std::int32_t>(rng.uniform_int(16));
    const std::int32_t hi = 255;
    std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 0xAA);
    simd::vnni_requant_u8(acc.data(), add.data(), m0.data(), shift.data(),
                          zy, hi, out.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t expect = simd::requant_icn_one(
          static_cast<std::int64_t>(acc[static_cast<std::size_t>(i)]) +
              add[static_cast<std::size_t>(i)],
          m0[static_cast<std::size_t>(i)],
          shift[static_cast<std::size_t>(i)], zy, hi);
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                static_cast<std::uint8_t>(expect))
          << "n=" << n << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Input quantizer vs core::quantize_value(kNearest).
// ---------------------------------------------------------------------------

/// Runs vnni_quantize_u8 over `xs` (an exact-size copy, with 16 sentinel
/// bytes after the output) and compares every code and the sentinels.
void expect_quantize_matches(const std::vector<float>& xs,
                             const core::QuantParams& qp, const char* what) {
  const std::size_t n = xs.size();
  const std::vector<float> x(xs.begin(), xs.end());
  std::vector<std::uint8_t> out(n + 16, 0xA5);
  simd::vnni_quantize_u8(x.data(), static_cast<std::int64_t>(n), qp.scale,
                         qp.zero, core::qmax(qp.q), out.data());
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t want =
        core::quantize_value(x[i], qp, core::RoundMode::kNearest);
    ASSERT_EQ(static_cast<std::int32_t>(out[i]), want)
        << what << ": x=" << x[i] << " (i=" << i << " of " << n
        << ", Q" << core::bits(qp.q) << ", scale=" << qp.scale
        << ", zero=" << qp.zero << ")";
  }
  for (std::size_t i = n; i < n + 16; ++i) {
    ASSERT_EQ(out[i], 0xA5) << what << ": wrote past n=" << n;
  }
}

TEST(SimdVnni, QuantizeMatchesCoreQuantizer) {
  SKIP_IF_NOT_RUNNABLE();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const core::BitWidth q :
       {core::BitWidth::kQ2, core::BitWidth::kQ4, core::BitWidth::kQ8}) {
    const std::int32_t hi = core::qmax(q);
    // scale 0.5 keeps x / scale exact, so every tie is a real tie.
    const core::QuantParams qp{0.5f, hi / 3, q};
    const auto at = [&](float scaled) {
      return (scaled - static_cast<float>(qp.zero)) * qp.scale;
    };
    std::vector<float> ties;
    for (std::int32_t k = -1; k <= hi + 1; ++k) {
      ties.push_back(at(static_cast<float>(k) - 0.5f));
      ties.push_back(at(static_cast<float>(k) + 0.5f));
      ties.push_back(at(static_cast<float>(k)));
    }
    expect_quantize_matches(ties, qp, "ties");

    const float lo_edge = -0.5f;
    const float hi_edge = static_cast<float>(hi) + 0.5f;
    std::vector<float> edges;
    for (const float e : {lo_edge, hi_edge}) {
      edges.push_back(at(e));
      edges.push_back(at(std::nextafter(e, -kInf)));
      edges.push_back(at(std::nextafter(e, kInf)));
    }
    expect_quantize_matches(edges, qp, "range edges");

    // Specials, and magnitudes whose scaled value leaves int32: there
    // lround's long is narrowed to int32 (+inf and 1e30 code as 0).
    const std::vector<float> specials = {
        0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min() / 2.0f,
        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
        1e30f, -1e30f, 3e9f, -3e9f, 4294967808.0f, -4294966784.0f,
        2147483520.0f, 2147483648.0f, -2147483648.0f, 1e10f};
    expect_quantize_matches(specials, qp, "specials");
  }

  // Every length 0-40 on random data at an arbitrary scale, each one
  // once clean and once with a special in its last lane.
  Rng rng(18);
  const core::QuantParams qp{0.0173f, 7, core::BitWidth::kQ8};
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<float> xs(n);
    for (auto& v : xs) v = static_cast<float>(rng.uniform(-1.0, 5.0));
    expect_quantize_matches(xs, qp, "random");
    if (n > 0) {
      xs.back() = kInf;
      expect_quantize_matches(xs, qp, "random + inf");
    }
  }
}

}  // namespace
}  // namespace mixq::runtime
