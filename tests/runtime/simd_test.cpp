// Tests for the SIMD dispatch layer (runtime/simd.hpp). Every kernel test
// runs both the dispatcher (the vector body wherever simd::enabled(): AVX2
// on an x86-64 host that has it, NEON on AArch64) and its scalar body by
// name (simd::scalar), and checks each for integer equality against the
// test's plain loop on randomized inputs covering remainder lanes (sizes
// straddling the 4/8/16 vector widths).
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "core/icn.hpp"
#include "core/quantizer.hpp"
#include "runtime/simd.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime {
namespace {

const std::int64_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 100};

std::vector<std::int32_t> random_codes(Rng& rng, std::int64_t n, int lo,
                                       int hi) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = lo + static_cast<std::int32_t>(
                 rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  return v;
}

/// The two bodies every kernel test runs.
struct Bodies {
  const char* name;
  decltype(&simd::scalar::gemm_u8s8_x1) gemm_u8s8_x1;
  decltype(&simd::scalar::gemm_u8s8_x2) gemm_u8s8_x2;
  decltype(&simd::scalar::dot1x4_u8s16) dot1x4_u8s16;
  decltype(&simd::scalar::dot2x4_u8s16) dot2x4_u8s16;
  decltype(&simd::scalar::dot_u8s16) dot_u8s16;
  decltype(&simd::scalar::dw_dot_u8s16p) dw_dot_u8s16p;
  decltype(&simd::scalar::mac_u8s16) mac_u8s16;
  decltype(&simd::scalar::add_u8_i32) add_u8_i32;
  decltype(&simd::scalar::requant_icn_u8) requant_icn_u8;
  decltype(&simd::scalar::quantize_f32_u8) quantize_f32_u8;
};

const Bodies kBodies[] = {
    {"dispatched", &simd::gemm_u8s8_x1, &simd::gemm_u8s8_x2,
     &simd::dot1x4_u8s16, &simd::dot2x4_u8s16, &simd::dot_u8s16,
     &simd::dw_dot_u8s16p, &simd::mac_u8s16, &simd::add_u8_i32,
     &simd::requant_icn_u8, &simd::quantize_f32_u8},
    {"scalar", &simd::scalar::gemm_u8s8_x1, &simd::scalar::gemm_u8s8_x2,
     &simd::scalar::dot1x4_u8s16, &simd::scalar::dot2x4_u8s16,
     &simd::scalar::dot_u8s16, &simd::scalar::dw_dot_u8s16p,
     &simd::scalar::mac_u8s16, &simd::scalar::add_u8_i32,
     &simd::scalar::requant_icn_u8, &simd::scalar::quantize_f32_u8},
};

TEST(Simd, IsaDispatchIsConsistent) {
  ASSERT_NE(simd::compiled_isa(), nullptr);
  ASSERT_NE(simd::active_isa(), nullptr);
  const std::string active = simd::active_isa();
  if (simd::enabled()) {
    EXPECT_EQ(active, std::string(simd::compiled_isa()));
  } else {
    EXPECT_EQ(active, std::string("scalar"));
  }
#if defined(__x86_64__)
  // Every x86-64 build carries the AVX2 bodies and one panel layout,
  // whatever its compile flags or its host.
  EXPECT_EQ(std::string(simd::compiled_isa()), "avx2");
  EXPECT_EQ(simd::gemm_u8s8_ocb(), 8);
#endif
}

// ---------------------------------------------------------------------------
// u8-activation kernels.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_u8(Rng& rng, std::int64_t n, int lo,
                                    int hi) {
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::uint8_t>(
        lo + static_cast<int>(rng.uniform_int(
                 static_cast<std::uint64_t>(hi - lo + 1))));
  }
  return v;
}

TEST(SimdNarrow, GemmPanelPackLayoutRoundTrips) {
  Rng rng(20);
  for (const std::int64_t K : {1, 3, 4, 7, 16, 33}) {
    for (const std::int64_t co : {1, 4, 5, 8, 9, 17}) {
      const auto w = random_codes(rng, co * K, -128, 127);
      std::vector<std::int8_t> panel(static_cast<std::size_t>(
          simd::gemm_u8s8_panel_elems(co, K)));
      simd::gemm_u8s8_pack(w.data(), co, K, panel.data());
      const std::int64_t kp = simd::gemm_u8s8_kp(K);
      for (std::int64_t oc = 0; oc < co; ++oc) {
        for (std::int64_t k = 0; k < K; ++k) {
          ASSERT_EQ(panel[static_cast<std::size_t>(
                        simd::gemm_u8s8_index(kp, oc, k))],
                    static_cast<std::int8_t>(
                        w[static_cast<std::size_t>(oc * K + k)]))
              << "co=" << co << " K=" << K << " oc=" << oc << " k=" << k;
        }
      }
    }
  }
}

/// Cross-checks the panel micro-kernels against a plain dot product on
/// data that respects (and sits exactly on) the i16 pair bound the plan's
/// eligibility prover enforces: max(|w[2k]| + |w[2k+1]|) * amax <= 32767.
TEST(SimdNarrow, GemmPanelU8S8MatchesScalar) {
  Rng rng(21);
  const std::int64_t ocb = simd::gemm_u8s8_ocb();
  for (int trial = 0; trial < 3; ++trial) {
    for (const std::int64_t K : {1, 3, 4, 8, 17, 40, 64}) {
      for (const std::int64_t co : {ocb, 2 * ocb}) {
        std::vector<std::uint8_t> a;
        std::vector<std::int32_t> w;
        if (trial == 0) {
          // Random within the provable envelope for amax = 255: each
          // adjacent pair's magnitudes sum to <= 128.
          a = random_u8(rng, K + 64, 0, 255);
          w = random_codes(rng, co * K, -64, 63);
        } else if (trial == 1) {
          // Exactly on the bound: activations 255, pairs (127, 1) ->
          // |pair product sum| = 255 * 128 = 32640 <= 32767.
          a.assign(static_cast<std::size_t>(K + 64), 255);
          w.assign(static_cast<std::size_t>(co * K), 0);
          for (std::int64_t i = 0; i < co * K; ++i) {
            w[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 127 : 1;
            if (i % 4 == 0) w[static_cast<std::size_t>(i)] = -127;
          }
        } else {
          // One off the i16 limit: activations 129, weights +-127 ->
          // pair sums of +-32766.
          a.assign(static_cast<std::size_t>(K + 64), 129);
          w.assign(static_cast<std::size_t>(co * K), 127);
          for (std::int64_t i = 0; i < co * K; i += 3) {
            w[static_cast<std::size_t>(i)] = -127;
          }
        }
        const std::int64_t kp = simd::gemm_u8s8_kp(K);
        std::vector<std::int8_t> panel(static_cast<std::size_t>(
            simd::gemm_u8s8_panel_elems(co, K)));
        simd::gemm_u8s8_pack(w.data(), co, K, panel.data());

        for (const Bodies& body : kBodies) {
          std::vector<std::int32_t> acc0(static_cast<std::size_t>(ocb), -1);
          std::vector<std::int32_t> acc1(static_cast<std::size_t>(ocb), -1);
          const std::uint8_t* a0 = a.data();
          const std::uint8_t* a1 = a.data() + 32;
          for (std::int64_t ob = 0; ob * ocb < co; ++ob) {
            body.gemm_u8s8_x2(a0, a1, panel.data() + ob * ocb * kp, kp,
                              acc0.data(), acc1.data(), false);
            for (std::int64_t j = 0; j < ocb && ob * ocb + j < co; ++j) {
              const std::int64_t oc = ob * ocb + j;
              std::int32_t e0 = 0, e1 = 0;
              for (std::int64_t k = 0; k < K; ++k) {
                e0 += static_cast<std::int32_t>(a0[k]) *
                      w[static_cast<std::size_t>(oc * K + k)];
                e1 += static_cast<std::int32_t>(a1[k]) *
                      w[static_cast<std::size_t>(oc * K + k)];
              }
              EXPECT_EQ(acc0[static_cast<std::size_t>(j)], e0)
                  << body.name << " trial=" << trial << " K=" << K
                  << " oc=" << oc;
              EXPECT_EQ(acc1[static_cast<std::size_t>(j)], e1)
                  << body.name << " trial=" << trial << " K=" << K
                  << " oc=" << oc;
            }
            body.gemm_u8s8_x1(a0, panel.data() + ob * ocb * kp, kp,
                              acc1.data(), false);
            for (std::int64_t j = 0; j < ocb && ob * ocb + j < co; ++j) {
              EXPECT_EQ(acc1[static_cast<std::size_t>(j)],
                        acc0[static_cast<std::size_t>(j)])
                  << body.name << " x1 vs x2, trial=" << trial << " K=" << K;
            }
            // K-blocked accumulation: a second pass adds the same sums.
            body.gemm_u8s8_x1(a0, panel.data() + ob * ocb * kp, kp,
                              acc1.data(), true);
            for (std::int64_t j = 0; j < ocb && ob * ocb + j < co; ++j) {
              EXPECT_EQ(acc1[static_cast<std::size_t>(j)],
                        2 * acc0[static_cast<std::size_t>(j)])
                  << body.name << " accumulate, trial=" << trial
                  << " K=" << K;
            }
          }
        }
      }
    }
  }
}

TEST(SimdNarrow, DotU8S16BlocksMatchScalar) {
  Rng rng(22);
  for (const std::int64_t n : kSizes) {
    const auto a0 = random_u8(rng, n, 0, 255);
    const auto a1 = random_u8(rng, n, 0, 255);
    std::vector<std::vector<std::int16_t>> w;
    for (int j = 0; j < 4; ++j) {
      std::vector<std::int16_t> row(static_cast<std::size_t>(n));
      for (auto& v : row) {
        v = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_int(511)) - 255);
      }
      w.push_back(std::move(row));
    }
    std::int32_t e0[4], e1[4];
    for (int j = 0; j < 4; ++j) {
      std::int32_t s0 = 7 + j, s1 = -j;
      for (std::int64_t k = 0; k < n; ++k) {
        s0 += static_cast<std::int32_t>(a0[static_cast<std::size_t>(k)]) *
              w[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
        s1 += static_cast<std::int32_t>(a1[static_cast<std::size_t>(k)]) *
              w[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
      }
      e0[j] = s0;
      e1[j] = s1;
    }
    std::int32_t expect_dot = 0;
    for (std::int64_t k = 0; k < n; ++k) {
      expect_dot +=
          static_cast<std::int32_t>(a0[static_cast<std::size_t>(k)]) *
          w[0][static_cast<std::size_t>(k)];
    }
    for (const Bodies& body : kBodies) {
      std::int32_t o0[4] = {7, 8, 9, 10};
      std::int32_t o1[4] = {0, -1, -2, -3};
      body.dot2x4_u8s16(a0.data(), a1.data(), w[0].data(), w[1].data(),
                        w[2].data(), w[3].data(), n, o0, o1);
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(o0[j], e0[j]) << body.name << " row0 ch" << j << " n=" << n;
        EXPECT_EQ(o1[j], e1[j]) << body.name << " row1 ch" << j << " n=" << n;
      }
      std::int32_t o2[4] = {7, 8, 9, 10};
      body.dot1x4_u8s16(a0.data(), w[0].data(), w[1].data(), w[2].data(),
                        w[3].data(), n, o2);
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(o2[j], e0[j]) << body.name << " 1x4 ch" << j << " n=" << n;
      }
      EXPECT_EQ(body.dot_u8s16(a0.data(), w[0].data(), n), expect_dot)
          << body.name << " n=" << n;
    }
  }
}

TEST(SimdNarrow, DwPairDotMatchesScalar) {
  Rng rng(23);
  for (const std::int64_t taps : {std::int64_t{4}, std::int64_t{9}}) {
    for (const std::int64_t C : kSizes) {
      if (C == 0) continue;
      const std::int64_t in_w = 5;
      const auto x = random_u8(rng, (2 * in_w + 3) * C, 0, 255);
      std::vector<std::int16_t> wt(static_cast<std::size_t>(taps * C));
      for (auto& v : wt) {
        v = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_int(511)) - 255);
      }
      std::vector<std::int64_t> toff(static_cast<std::size_t>(taps));
      for (std::int64_t t = 0; t < taps; ++t) {
        toff[static_cast<std::size_t>(t)] = ((t / 3) * in_w + t % 3) * C;
      }
      std::vector<std::int16_t> wtp(
          static_cast<std::size_t>(simd::dw_pairs(taps) * 2 * C));
      simd::dw_pack_u8s16(wt.data(), taps, C, wtp.data());
      for (const Bodies& body : kBodies) {
        std::vector<std::int32_t> acc(static_cast<std::size_t>(C), -5);
        body.dw_dot_u8s16p(x.data(), toff.data(), wtp.data(), taps, C,
                           acc.data());
        for (std::int64_t c = 0; c < C; ++c) {
          std::int32_t s = 0;
          for (std::int64_t t = 0; t < taps; ++t) {
            s += static_cast<std::int32_t>(
                     x[static_cast<std::size_t>(
                         toff[static_cast<std::size_t>(t)] + c)]) *
                 wt[static_cast<std::size_t>(t * C + c)];
          }
          EXPECT_EQ(acc[static_cast<std::size_t>(c)], s)
              << body.name << " taps=" << taps << " C=" << C << " c=" << c;
        }
      }
    }
  }
}

TEST(SimdNarrow, ElementwiseHelpersMatchScalar) {
  Rng rng(24);
  for (const std::int64_t n : kSizes) {
    const auto x = random_u8(rng, n, 0, 255);
    std::vector<std::int16_t> w16(static_cast<std::size_t>(n));
    for (auto& v : w16) {
      v = static_cast<std::int16_t>(
          static_cast<int>(rng.uniform_int(511)) - 255);
    }
    const auto acc0 = random_codes(rng, n, -1000, 1000);
    auto expect = acc0;
    for (std::int64_t i = 0; i < n; ++i) {
      expect[static_cast<std::size_t>(i)] +=
          static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) *
          w16[static_cast<std::size_t>(i)];
    }
    const auto acc20 = random_codes(rng, n, -1000, 1000);
    auto expect2 = acc20;
    for (std::int64_t i = 0; i < n; ++i) {
      expect2[static_cast<std::size_t>(i)] +=
          x[static_cast<std::size_t>(i)];
    }
    for (const Bodies& body : kBodies) {
      auto acc = acc0;
      body.mac_u8s16(acc.data(), x.data(), w16.data(), n);
      EXPECT_EQ(acc, expect) << body.name << " mac_u8s16 n=" << n;
      auto acc2 = acc20;
      body.add_u8_i32(acc2.data(), x.data(), n);
      EXPECT_EQ(acc2, expect2) << body.name << " add_u8_i32 n=" << n;
    }
  }
}

TEST(SimdNarrow, RequantU8MatchesScalarReference) {
  // The vector requant must emit exactly requant_icn_one's code, channel
  // for channel, also for a chunk [c0, n) requantized with the table
  // columns offset by c0 (the N-blocked GEMM's epilogue).
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = kSizes[trial % 12];
    simd::RequantTable rq;
    rq.zy = static_cast<std::int32_t>(rng.uniform_int(16));
    rq.hi = (trial % 2 == 0) ? 255 : 15;
    for (std::int64_t c = 0; c < n; ++c) {
      double m = rng.uniform(1e-6, 0.1);
      if (rng.uniform() < 0.3) m = -m;
      const core::FixedPointMult fp = core::decompose_multiplier(m);
      rq.m0.push_back(fp.m0_q31);
      rq.shift.push_back(31 - static_cast<std::int64_t>(fp.n0));
      rq.bias_sub.push_back(
          (std::int64_t{1} << 62) >>
          (31 - static_cast<std::int64_t>(fp.n0)));
      rq.add.push_back(static_cast<std::int32_t>(rng.uniform_int(4001)) -
                       2000);
    }
    rq.usable = true;
    const auto acc = random_codes(rng, n, -200000, 200000);
    for (const Bodies& body : kBodies) {
      std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 7);
      body.requant_icn_u8(rq, acc.data(), rq.add.data(), out.data(), n, 0);
      const std::int64_t c0 = n / 3;
      std::vector<std::uint8_t> chunk(static_cast<std::size_t>(n - c0), 7);
      body.requant_icn_u8(rq, acc.data() + c0, rq.add.data() + c0,
                          chunk.data(), n - c0, c0);
      for (std::int64_t c = 0; c < n; ++c) {
        const auto k = static_cast<std::size_t>(c);
        const std::int32_t expect = simd::requant_icn_one(
            static_cast<std::int64_t>(acc[k]) + rq.add[k], rq.m0[k],
            rq.shift[k], rq.zy, rq.hi);
        EXPECT_EQ(static_cast<std::int32_t>(out[k]), expect)
            << body.name << " trial " << trial << " channel " << c;
        if (c >= c0) {
          EXPECT_EQ(static_cast<std::int32_t>(chunk[k - c0]), expect)
              << body.name << " trial " << trial << " chunk channel " << c;
        }
      }
    }
  }
}

TEST(SimdNarrow, QuantizeMatchesCoreQuantizer) {
  // quantize_f32_u8 (dispatched and scalar) and quantize_f32_one must
  // code every value as core::quantize_value does:
  // exact ties, and specials that saturate (infinities, 1e30, values 2^33
  // steps out) or code as 0 (NaN), in every lane position.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,   -0.0f,  kInf,  -kInf,
                            std::numeric_limits<float>::quiet_NaN(),
                            1e30f,  -1e30f, 3e9f,  -3e9f,
                            4294967808.0f,  -4294966784.0f,
                            std::numeric_limits<float>::max(),
                            0.25f,  0.75f,  1.25f, 63.75f, 64.25f};
  const core::QuantParams qp{0.5f, 1, core::BitWidth::kQ8};
  Rng rng(26);
  for (std::int64_t n = 0; n <= 40; ++n) {
    std::vector<float> x(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform() < 0.5
                 ? specials[rng.uniform_int(std::size(specials))]
                 : static_cast<float>(rng.uniform(-10.0, 140.0));
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(simd::quantize_f32_one(x[i], qp.scale, qp.zero, 255),
                core::quantize_value(x[i], qp, core::RoundMode::kNearest))
          << "x=" << x[i];
    }
    for (const Bodies& body : kBodies) {
      std::vector<std::uint8_t> out(static_cast<std::size_t>(n) + 8, 0xA5);
      body.quantize_f32_u8(x.data(), n, qp.scale, qp.zero, 255, out.data());
      for (std::size_t i = 0; i < x.size(); ++i) {
        const std::int32_t want =
            core::quantize_value(x[i], qp, core::RoundMode::kNearest);
        EXPECT_EQ(static_cast<std::int32_t>(out[i]), want)
            << body.name << " x=" << x[i] << " i=" << i << " n=" << n;
      }
      for (std::size_t i = x.size(); i < out.size(); ++i) {
        EXPECT_EQ(out[i], 0xA5) << body.name << " wrote past n=" << n;
      }
    }
  }
}

TEST(Simd, RequantMatchesFixedPointReference) {
  // The vector requant must equal the scalar ICN chain
  // clamp(zy + fixed_point_floor_mul(acc + add, m), 0, hi) channel by
  // channel, including negative multipliers and both clamp edges.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t n = kSizes[trial % 12];
    simd::RequantTable rq;
    rq.zy = static_cast<std::int32_t>(rng.uniform_int(32)) - 8;
    rq.hi = (trial % 2 == 0) ? 255 : 15;
    std::vector<core::FixedPointMult> ms;
    for (std::int64_t c = 0; c < n; ++c) {
      double m = rng.uniform(1e-6, 0.1);
      if (rng.uniform() < 0.3) m = -m;
      const core::FixedPointMult fp = core::decompose_multiplier(m);
      const std::int64_t shift = 31 - static_cast<std::int64_t>(fp.n0);
      ASSERT_GE(shift, 0);
      ASSERT_LE(shift, 62);
      ms.push_back(fp);
      rq.m0.push_back(fp.m0_q31);
      rq.shift.push_back(shift);
      rq.bias_sub.push_back((std::int64_t{1} << 62) >> shift);
      rq.add.push_back(static_cast<std::int32_t>(rng.uniform_int(4001)) -
                       2000);
    }
    rq.usable = true;

    const auto acc = random_codes(rng, n, -200000, 200000);
    for (const Bodies& body : kBodies) {
      std::vector<std::uint8_t> out(static_cast<std::size_t>(n), 7);
      body.requant_icn_u8(rq, acc.data(), rq.add.data(), out.data(), n, 0);
      for (std::int64_t c = 0; c < n; ++c) {
        const std::int64_t v =
            static_cast<std::int64_t>(acc[static_cast<std::size_t>(c)]) +
            rq.add[static_cast<std::size_t>(c)];
        const std::int64_t r =
            core::fixed_point_floor_mul(v, ms[static_cast<std::size_t>(c)]);
        std::int64_t y = rq.zy + r;
        y = y < 0 ? 0 : (y > rq.hi ? rq.hi : y);
        EXPECT_EQ(
            static_cast<std::int64_t>(out[static_cast<std::size_t>(c)]), y)
            << body.name << " trial " << trial << " channel " << c;
      }
    }
  }
}

}  // namespace
}  // namespace mixq::runtime
