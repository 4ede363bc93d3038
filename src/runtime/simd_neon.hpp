// mixq/runtime/simd_neon.hpp
//
// NEON kernel bodies of the u8-activation kernels in simd.hpp, for AArch64,
// where NEON is part of the baseline target: simd.hpp includes this header
// only there, and its dispatchers always take these bodies. Same struct-free
// signatures and contracts as simd_avx2.hpp; each body computes exactly the
// integers of its scalar body in simd.hpp (simd::scalar::*).
//
// Not built by CI (no AArch64 runner), so this code is checked by reading
// only; tests/runtime/simd_test.cpp pins it on an AArch64 host.
#pragma once

#include <arm_neon.h>

#include <cstdint>
#include <cstring>

namespace mixq::runtime::simd::neon {

/// Output channels per s8 panel block: one q register of i32 lanes.
inline constexpr std::int64_t kPanelOcb = 4;

/// Name of this kernel set (simd::compiled_isa()).
inline constexpr const char* kIsa = "neon";

/// NEON is baseline on AArch64: the bodies below are always compiled.
inline bool compiled() { return true; }

inline void gemm_u8s8_x1(const std::uint8_t* __restrict__ a,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc,
                         bool accumulate) {
  int32x4_t av_acc = accumulate ? vld1q_s32(acc) : vdupq_n_s32(0);
  for (std::int64_t k = 0; k < kp; k += 4) {
    const int8x16_t wv = vld1q_s8(block + k * 4);
    const int16x8_t w01 = vmovl_s8(vget_low_s8(wv));
    const int16x8_t w23 = vmovl_s8(vget_high_s8(wv));
    std::uint32_t u;
    std::memcpy(&u, a + k, 4);
    const uint8x8_t ab = vreinterpret_u8_u32(vdup_n_u32(u));
    const int16x4_t al = vget_low_s16(vreinterpretq_s16_u16(vmovl_u8(ab)));
    const int32x4_t p0 = vmull_s16(vget_low_s16(w01), al);
    const int32x4_t p1 = vmull_s16(vget_high_s16(w01), al);
    const int32x4_t p2 = vmull_s16(vget_low_s16(w23), al);
    const int32x4_t p3 = vmull_s16(vget_high_s16(w23), al);
    av_acc = vaddq_s32(
        av_acc, vpaddq_s32(vpaddq_s32(p0, p1), vpaddq_s32(p2, p3)));
  }
  vst1q_s32(acc, av_acc);
}

inline void gemm_u8s8_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                         const std::int8_t* block, std::int64_t kp,
                         std::int32_t* acc0, std::int32_t* acc1,
                         bool accumulate) {
  gemm_u8s8_x1(a0, block, kp, acc0, accumulate);
  gemm_u8s8_x1(a1, block, kp, acc1, accumulate);
}

inline void dot1x4_u8s16(const std::uint8_t* __restrict__ a,
                         const std::int16_t* __restrict__ w0,
                         const std::int16_t* __restrict__ w1,
                         const std::int16_t* __restrict__ w2,
                         const std::int16_t* __restrict__ w3, std::int64_t n,
                         std::int32_t* __restrict__ out) {
  int32x4_t a0 = vdupq_n_s32(0), a1 = vdupq_n_s32(0);
  int32x4_t a2 = vdupq_n_s32(0), a3 = vdupq_n_s32(0);
  std::int64_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const int16x8_t av = vreinterpretq_s16_u16(vmovl_u8(vld1_u8(a + k)));
    const int16x8_t v0 = vld1q_s16(w0 + k);
    const int16x8_t v1 = vld1q_s16(w1 + k);
    const int16x8_t v2 = vld1q_s16(w2 + k);
    const int16x8_t v3 = vld1q_s16(w3 + k);
    a0 = vmlal_s16(a0, vget_low_s16(av), vget_low_s16(v0));
    a0 = vmlal_s16(a0, vget_high_s16(av), vget_high_s16(v0));
    a1 = vmlal_s16(a1, vget_low_s16(av), vget_low_s16(v1));
    a1 = vmlal_s16(a1, vget_high_s16(av), vget_high_s16(v1));
    a2 = vmlal_s16(a2, vget_low_s16(av), vget_low_s16(v2));
    a2 = vmlal_s16(a2, vget_high_s16(av), vget_high_s16(v2));
    a3 = vmlal_s16(a3, vget_low_s16(av), vget_low_s16(v3));
    a3 = vmlal_s16(a3, vget_high_s16(av), vget_high_s16(v3));
  }
  out[0] += vaddvq_s32(a0);
  out[1] += vaddvq_s32(a1);
  out[2] += vaddvq_s32(a2);
  out[3] += vaddvq_s32(a3);
  for (; k < n; ++k) {
    const std::int32_t av = a[k];
    out[0] += av * w0[k];
    out[1] += av * w1[k];
    out[2] += av * w2[k];
    out[3] += av * w3[k];
  }
}

inline void dot2x4_u8s16(const std::uint8_t* a0, const std::uint8_t* a1,
                         const std::int16_t* w0, const std::int16_t* w1,
                         const std::int16_t* w2, const std::int16_t* w3,
                         std::int64_t n, std::int32_t* out0,
                         std::int32_t* out1) {
  dot1x4_u8s16(a0, w0, w1, w2, w3, n, out0);
  dot1x4_u8s16(a1, w0, w1, w2, w3, n, out1);
}

inline std::int32_t dot_u8s16(const std::uint8_t* __restrict__ a,
                              const std::int16_t* __restrict__ w,
                              std::int64_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  std::int64_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const int16x8_t av = vreinterpretq_s16_u16(vmovl_u8(vld1_u8(a + k)));
    const int16x8_t wv = vld1q_s16(w + k);
    acc = vmlal_s16(acc, vget_low_s16(av), vget_low_s16(wv));
    acc = vmlal_s16(acc, vget_high_s16(av), vget_high_s16(wv));
  }
  std::int32_t s = vaddvq_s32(acc);
  for (; k < n; ++k) s += static_cast<std::int32_t>(a[k]) * w[k];
  return s;
}

inline void dw_dot_u8s16p(const std::uint8_t* __restrict__ x,
                          const std::int64_t* __restrict__ toff,
                          const std::int16_t* __restrict__ wtp,
                          std::int64_t taps, std::int64_t C,
                          std::int32_t* __restrict__ acc) {
  const std::int64_t pairs = (taps + 1) / 2;
  std::int64_t c = 0;
  for (; c + 8 <= C; c += 8) {
    int32x4_t alo = vdupq_n_s32(0);
    int32x4_t ahi = vdupq_n_s32(0);
    for (std::int64_t p = 0; p < pairs; ++p) {
      const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
      // De-interleave the pair's weights back to per-tap channel rows.
      const int16x8x2_t wp = vld2q_s16(wtp + p * 2 * C + 2 * c);
      const int16x8_t x0 =
          vreinterpretq_s16_u16(vmovl_u8(vld1_u8(x + toff[2 * p] + c)));
      alo = vmlal_s16(alo, vget_low_s16(x0), vget_low_s16(wp.val[0]));
      ahi = vmlal_s16(ahi, vget_high_s16(x0), vget_high_s16(wp.val[0]));
      const int16x8_t x1 =
          vreinterpretq_s16_u16(vmovl_u8(vld1_u8(x + toff[t1] + c)));
      alo = vmlal_s16(alo, vget_low_s16(x1), vget_low_s16(wp.val[1]));
      ahi = vmlal_s16(ahi, vget_high_s16(x1), vget_high_s16(wp.val[1]));
    }
    vst1q_s32(acc + c, alo);
    vst1q_s32(acc + c + 4, ahi);
  }
  for (; c < C; ++c) {
    std::int32_t s = 0;
    for (std::int64_t t = 0; t < taps; ++t) {
      s += static_cast<std::int32_t>(x[toff[t] + c]) *
           wtp[(t / 2) * 2 * C + 2 * c + (t & 1)];
    }
    acc[c] = s;
  }
}

inline void mac_u8s16(std::int32_t* __restrict__ acc,
                      const std::uint8_t* __restrict__ x,
                      const std::int16_t* __restrict__ w, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t xv = vreinterpretq_s16_u16(vmovl_u8(vld1_u8(x + i)));
    const int16x8_t wv = vld1q_s16(w + i);
    int32x4_t lo = vld1q_s32(acc + i);
    int32x4_t hi = vld1q_s32(acc + i + 4);
    lo = vmlal_s16(lo, vget_low_s16(xv), vget_low_s16(wv));
    hi = vmlal_s16(hi, vget_high_s16(xv), vget_high_s16(wv));
    vst1q_s32(acc + i, lo);
    vst1q_s32(acc + i + 4, hi);
  }
  for (; i < n; ++i) acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
}

inline void add_u8_i32(std::int32_t* __restrict__ acc,
                       const std::uint8_t* __restrict__ x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t xv = vmovl_u8(vld1_u8(x + i));
    int32x4_t lo = vld1q_s32(acc + i);
    int32x4_t hi = vld1q_s32(acc + i + 4);
    lo = vaddq_s32(lo, vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(xv))));
    hi = vaddq_s32(hi, vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(xv))));
    vst1q_s32(acc + i, lo);
    vst1q_s32(acc + i + 4, hi);
  }
  for (; i < n; ++i) acc[i] += x[i];
}

/// Requantizes channels [0, n - n % 2) and returns that count. Two channels
/// per iteration: vshlq_s64 with a negative count is an exact arithmetic
/// right shift (floor), so the AVX2 body's bias trick is not needed and
/// bias_sub is unused.
inline std::int64_t requant_u8(const std::int32_t* __restrict__ acc,
                               const std::int32_t* __restrict__ add,
                               const std::int64_t* __restrict__ m0,
                               const std::int64_t* __restrict__ shift,
                               const std::int64_t* /*bias_sub*/,
                               std::int32_t zy, std::int32_t hi,
                               std::uint8_t* __restrict__ out,
                               std::int64_t n) {
  const int64x2_t zyv = vdupq_n_s64(zy);
  const int64x2_t hiv = vdupq_n_s64(hi);
  const int64x2_t zero = vdupq_n_s64(0);
  std::int64_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const int32x2_t v32 = vadd_s32(vld1_s32(acc + c), vld1_s32(add + c));
    const int32x2_t m032 = vmovn_s64(vld1q_s64(m0 + c));
    const int64x2_t prod = vmull_s32(v32, m032);
    const int64x2_t sh = vnegq_s64(vld1q_s64(shift + c));
    int64x2_t y = vaddq_s64(vshlq_s64(prod, sh), zyv);
    y = vbslq_s64(vcltq_s64(y, zero), zero, y);
    y = vbslq_s64(vcgtq_s64(y, hiv), hiv, y);
    out[c] = static_cast<std::uint8_t>(vgetq_lane_s64(y, 0));
    out[c + 1] = static_cast<std::uint8_t>(vgetq_lane_s64(y, 1));
  }
  return c;
}

/// No NEON input quantizer: every value takes the scalar body.
inline std::int64_t quantize_u8(const float*, std::int64_t, float,
                                std::int32_t, std::int32_t, std::uint8_t*) {
  return 0;
}

}  // namespace mixq::runtime::simd::neon
