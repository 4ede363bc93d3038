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
#include <utility>
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
// Rows kernel vs a scalar reference.
// ---------------------------------------------------------------------------

/// One weight matrix and its panel for the rows kernel: either s8 offsets
/// beyond the i16 pair bound (no split), or 8-bit codes with per-channel
/// zero-points, packed as code - 128 with split = 128 - Zw (padded with
/// zeros to co_pad, as the plan pads PlannedLayer::zp_split). Some
/// channels hold only code 0 or only 255, and Zw takes 0, 255 and random
/// values.
struct RowsCase {
  std::int64_t co{0}, K{0}, kp{0}, co_pad{0};
  std::vector<std::int32_t> w;      ///< co x K offsets (code - Zw)
  std::vector<std::int32_t> split;  ///< co_pad entries, empty: no split
  std::vector<std::int8_t> panel;
};

RowsCase make_rows_case(Rng& rng, std::int64_t co, std::int64_t K,
                        bool split) {
  RowsCase c;
  c.co = co;
  c.K = K;
  c.kp = simd::vnni_kp(K);
  c.co_pad = simd::round_up(co, simd::vnni_ocb());
  if (!split) {
    c.w = pair_bound_breaking_w(rng, co * K);
  } else {
    c.w.resize(static_cast<std::size_t>(co * K));
    c.split.assign(static_cast<std::size_t>(c.co_pad), 0);
    for (std::int64_t oc = 0; oc < co; ++oc) {
      const std::int32_t zw =
          oc % 3 == 0 ? 0
                      : (oc % 3 == 1 ? 255
                                     : static_cast<std::int32_t>(
                                           rng.uniform_int(256)));
      c.split[static_cast<std::size_t>(oc)] = 128 - zw;
      for (std::int64_t k = 0; k < K; ++k) {
        const std::int32_t code =
            oc % 5 == 0 ? 0
                        : (oc % 5 == 1 ? 255
                                       : static_cast<std::int32_t>(
                                             rng.uniform_int(256)));
        c.w[static_cast<std::size_t>(oc * K + k)] = code - zw;
      }
    }
  }
  c.panel.resize(static_cast<std::size_t>(simd::vnni_panel_elems(co, K)));
  simd::vnni_pack(c.w.data(), co, K, c.panel.data(),
                  split ? c.split.data() : nullptr);
  return c;
}

/// Four u8 rows lda = K apart in an exact-size buffer (the last row is
/// readable for kp bytes), so consecutive rows overlap in [K, kp) when
/// K % 4 != 0: row 0 random, row 1 all 255, row 2 all 0, row 3 random.
std::vector<std::uint8_t> overlapping_rows(Rng& rng, std::int64_t K) {
  std::vector<std::uint8_t> a(
      static_cast<std::size_t>(3 * K + simd::vnni_kp(K)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto row = static_cast<std::int64_t>(i) / K;
    a[i] = row == 1 ? 255
                    : (row == 2 ? 0
                                : static_cast<std::uint8_t>(
                                      rng.uniform_int(256)));
  }
  return a;
}

/// Runs the rows kernel on the first `rows` rows with tile (kb, nb) and
/// compares every channel of every row with sum_{k < K} a[k] * w[oc][k];
/// the accumulators past rows x co_pad must keep their sentinel.
void expect_rows_exact(const RowsCase& c, const std::uint8_t* a,
                       std::int64_t rows, std::int64_t kb, std::int64_t nb) {
  constexpr std::int32_t kSentinel = 0x5A5A5A5A;
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(simd::kVnniRows * c.co_pad + 16), kSentinel);
  simd::vnni_gemm_rows(a, c.K, rows, c.panel.data(), c.K, c.co_pad, kb, nb,
                       c.split.empty() ? nullptr : c.split.data(),
                       acc.data());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t oc = 0; oc < c.co; ++oc) {
      std::int64_t expect = 0;
      for (std::int64_t k = 0; k < c.K; ++k) {
        expect += static_cast<std::int64_t>(a[r * c.K + k]) *
                  c.w[static_cast<std::size_t>(oc * c.K + k)];
      }
      ASSERT_EQ(acc[static_cast<std::size_t>(r * c.co_pad + oc)], expect)
          << "rows=" << rows << " co=" << c.co << " K=" << c.K
          << " split=" << !c.split.empty() << " kb=" << kb << " nb=" << nb
          << " row " << r << " channel " << oc;
    }
  }
  for (std::size_t i = static_cast<std::size_t>(rows * c.co_pad);
       i < acc.size(); ++i) {
    ASSERT_EQ(acc[i], kSentinel) << "rows=" << rows << " co=" << c.co
                                 << " K=" << c.K << " wrote past acc " << i;
  }
}

TEST(SimdVnni, GemmRowsMatchesScalarReference) {
  // Every row count (1-4), every channel count 1-80 (1-5 sixteen-channel
  // blocks, so 4-block groups and 1-3-block tails, with and without a
  // co % 16 channel tail), depths around the 4-byte group and the 64-byte
  // row-sum step, the split off (weights beyond the i16 pair bound) and
  // on, unblocked.
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(11);
  for (const std::int64_t K :
       {std::int64_t{1}, std::int64_t{3}, std::int64_t{4}, std::int64_t{24},
        std::int64_t{27}, std::int64_t{28}, std::int64_t{61},
        std::int64_t{64}, std::int64_t{100}, std::int64_t{384}}) {
    const std::vector<std::uint8_t> a = overlapping_rows(rng, K);
    for (const bool split : {false, true}) {
      for (std::int64_t co = 1; co <= 80; ++co) {
        const RowsCase c = make_rows_case(rng, co, K, split);
        for (std::int64_t rows = 1; rows <= simd::kVnniRows; ++rows) {
          expect_rows_exact(c, a.data(), rows, 0, 0);
        }
      }
    }
  }
}

TEST(SimdVnni, GemmRowsBlockedMatchesSinglePass) {
  // K blocks accumulate exact i32 partial sums and N chunks split the
  // 64-channel groups (nb = 48 leaves 3-block tiles); the split joins
  // each chunk after its last K block only.
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(13);
  for (const std::int64_t K :
       {std::int64_t{27}, std::int64_t{100}, std::int64_t{384}}) {
    const std::vector<std::uint8_t> a = overlapping_rows(rng, K);
    for (const bool split : {false, true}) {
      for (const std::int64_t co :
           {std::int64_t{17}, std::int64_t{48}, std::int64_t{80}}) {
        const RowsCase c = make_rows_case(rng, co, K, split);
        for (const std::int64_t kb :
             {std::int64_t{0}, std::int64_t{4}, std::int64_t{12},
              std::int64_t{32}}) {
          for (const std::int64_t nb :
               {std::int64_t{0}, std::int64_t{16}, std::int64_t{48}}) {
            for (std::int64_t rows = 1; rows <= simd::kVnniRows; ++rows) {
              expect_rows_exact(c, a.data(), rows, kb, nb);
            }
          }
        }
      }
    }
  }
}

TEST(SimdVnni, GemmRowsSplitSumsExactlyKBytes) {
  // The split's row sum covers exactly K bytes at every depth 1-200 and
  // unaligned row starts: the K padding bytes are 255, so a sum that
  // reached into them would show, and the row ends the buffer, so a read
  // past kp is a sanitizer finding.
  SKIP_IF_NOT_RUNNABLE();
  Rng rng(17);
  for (std::int64_t K = 1; K <= 200; ++K) {
    const RowsCase c = make_rows_case(rng, 16, K, /*split=*/true);
    for (const std::int64_t start : {std::int64_t{0}, std::int64_t{1},
                                     std::int64_t{3}, std::int64_t{63}}) {
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(start + c.kp),
                                    255);
      for (std::int64_t k = 0; k < K; ++k) {
        buf[static_cast<std::size_t>(start + k)] =
            static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      expect_rows_exact(c, buf.data() + start, 1, 0, 0);
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

    // Specials, and magnitudes whose scaled value leaves int32: every one
    // saturates (+inf and 1e30 code as hi, -inf and -1e30 as 0) and NaN
    // codes as 0, with no scalar detour for such a step.
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
    const std::pair<float, std::int32_t> pinned[] = {
        {kInf, hi},  {1e30f, hi},  {4294967808.0f, hi},
        {-kInf, 0},  {-1e30f, 0},  {-4294966784.0f, 0},
        {std::numeric_limits<float>::quiet_NaN(), 0}};
    std::vector<std::uint8_t> code(1);
    for (const auto& [x, want] : pinned) {
      simd::vnni_quantize_u8(&x, 1, qp.scale, qp.zero, hi, code.data());
      EXPECT_EQ(static_cast<std::int32_t>(code[0]), want)
          << "x=" << x << " Q" << core::bits(q);
    }
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
      xs.back() = std::numeric_limits<float>::quiet_NaN();
      expect_quantize_matches(xs, qp, "random + NaN");
      xs.back() = -1e30f;
      expect_quantize_matches(xs, qp, "random - 1e30");
    }
  }
}

}  // namespace
}  // namespace mixq::runtime
