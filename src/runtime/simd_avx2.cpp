// AVX2 kernel bodies -- the ONE translation unit compiled with -mavx2
// (appended per-source in src/runtime/CMakeLists.txt when the MIXQ_HAS_AVX2
// compile check passes, which also defines MIXQ_AVX2_NATIVE for this file).
// simd.hpp's dispatchers call into it only after the cached CPUID check.
//
// Nothing here includes simd.hpp or any header whose inline or template code
// this file would instantiate (<algorithm>, <cmath>): a weak copy of such
// code compiled with -mavx2 could be the one the linker keeps for a baseline
// caller. Scalar tails that need the reference (the requantizer's and the
// input quantizer's) run in the dispatchers; tools/check_isa_isolation.py
// checks the linked binary for strays.
//
// -mavx2 alone, not x86-64-v3: no FMA, so no float contraction either way.

#include "runtime/simd_avx2.hpp"

#if defined(MIXQ_AVX2_NATIVE)

#include <immintrin.h>

#include <cstring>

namespace mixq::runtime::simd::avx2 {

namespace {

/// Reduce four 8-lane accumulators to their four scalar sums, in order.
inline __m128i hsum4_epi32(__m256i v0, __m256i v1, __m256i v2, __m256i v3) {
  const __m256i s01 = _mm256_hadd_epi32(v0, v1);
  const __m256i s23 = _mm256_hadd_epi32(v2, v3);
  const __m256i s = _mm256_hadd_epi32(s01, s23);
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

/// Eight input floats -> eight quantized codes in [0, hi].
inline __m256i quantize8_ps(__m256 v, __m256 vscale, __m256 vzero,
                            __m256 vhi, __m256 vlo, __m256 vhalf) {
  __m256 s = _mm256_add_ps(_mm256_div_ps(v, vscale), vzero);
  s = _mm256_min_ps(_mm256_max_ps(s, vlo), vhi);
  __m256i r = _mm256_cvtps_epi32(s);  // round-to-nearest-even
  const __m256 diff = _mm256_sub_ps(s, _mm256_cvtepi32_ps(r));
  // Exact positive tie: rne rounded down, lround goes away from zero.
  const __m256 tie = _mm256_cmp_ps(diff, vhalf, _CMP_EQ_OQ);
  r = _mm256_sub_epi32(r, _mm256_castps_si256(tie));  // mask is -1 -> +1
  r = _mm256_max_epi32(r, _mm256_setzero_si256());
  return _mm256_min_epi32(r, _mm256_cvtps_epi32(vhi));
}

}  // namespace

bool compiled() { return true; }

void gemm_u8s8_x1(const std::uint8_t* __restrict__ a,
                  const std::int8_t* __restrict__ block, std::int64_t kp,
                  std::int32_t* __restrict__ acc, bool accumulate) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i av_acc =
      accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc))
                 : _mm256_setzero_si256();
  for (std::int64_t k = 0; k < kp; k += 4) {
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k * 8));
    std::uint32_t u;
    std::memcpy(&u, a + k, 4);
    const __m256i av = _mm256_set1_epi32(static_cast<int>(u));
    av_acc = _mm256_add_epi32(
        av_acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), av_acc);
}

void gemm_u8s8_x2(const std::uint8_t* __restrict__ a0,
                  const std::uint8_t* __restrict__ a1,
                  const std::int8_t* __restrict__ block, std::int64_t kp,
                  std::int32_t* __restrict__ acc0,
                  std::int32_t* __restrict__ acc1, bool accumulate) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i v0 =
      accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0))
                 : _mm256_setzero_si256();
  __m256i v1 =
      accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1))
                 : _mm256_setzero_si256();
  for (std::int64_t k = 0; k < kp; k += 4) {
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + k * 8));
    std::uint32_t u0, u1;
    std::memcpy(&u0, a0 + k, 4);
    std::memcpy(&u1, a1 + k, 4);
    const __m256i av0 = _mm256_set1_epi32(static_cast<int>(u0));
    const __m256i av1 = _mm256_set1_epi32(static_cast<int>(u1));
    v0 = _mm256_add_epi32(
        v0, _mm256_madd_epi16(_mm256_maddubs_epi16(av0, wv), ones));
    v1 = _mm256_add_epi32(
        v1, _mm256_madd_epi16(_mm256_maddubs_epi16(av1, wv), ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0), v0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1), v1);
}

void dot1x4_u8s16(const std::uint8_t* __restrict__ a,
                  const std::int16_t* __restrict__ w0,
                  const std::int16_t* __restrict__ w1,
                  const std::int16_t* __restrict__ w2,
                  const std::int16_t* __restrict__ w3, std::int64_t n,
                  std::int32_t* __restrict__ out) {
  __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
  __m256i a2 = _mm256_setzero_si256(), a3 = _mm256_setzero_si256();
  std::int64_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m256i av = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
    a0 = _mm256_add_epi32(
        a0, _mm256_madd_epi16(av, _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(w0 + k))));
    a1 = _mm256_add_epi32(
        a1, _mm256_madd_epi16(av, _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(w1 + k))));
    a2 = _mm256_add_epi32(
        a2, _mm256_madd_epi16(av, _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(w2 + k))));
    a3 = _mm256_add_epi32(
        a3, _mm256_madd_epi16(av, _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(w3 + k))));
  }
  alignas(16) std::int32_t s[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(s), hsum4_epi32(a0, a1, a2, a3));
  out[0] += s[0];
  out[1] += s[1];
  out[2] += s[2];
  out[3] += s[3];
  for (; k < n; ++k) {
    const std::int32_t av = a[k];
    out[0] += av * w0[k];
    out[1] += av * w1[k];
    out[2] += av * w2[k];
    out[3] += av * w3[k];
  }
}

void dot2x4_u8s16(const std::uint8_t* __restrict__ a0,
                  const std::uint8_t* __restrict__ a1,
                  const std::int16_t* __restrict__ w0,
                  const std::int16_t* __restrict__ w1,
                  const std::int16_t* __restrict__ w2,
                  const std::int16_t* __restrict__ w3, std::int64_t n,
                  std::int32_t* __restrict__ out0,
                  std::int32_t* __restrict__ out1) {
  __m256i r0c0 = _mm256_setzero_si256(), r0c1 = _mm256_setzero_si256();
  __m256i r0c2 = _mm256_setzero_si256(), r0c3 = _mm256_setzero_si256();
  __m256i r1c0 = _mm256_setzero_si256(), r1c1 = _mm256_setzero_si256();
  __m256i r1c2 = _mm256_setzero_si256(), r1c3 = _mm256_setzero_si256();
  std::int64_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m256i av0 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + k)));
    const __m256i av1 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a1 + k)));
    __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + k));
    r0c0 = _mm256_add_epi32(r0c0, _mm256_madd_epi16(av0, wv));
    r1c0 = _mm256_add_epi32(r1c0, _mm256_madd_epi16(av1, wv));
    wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w1 + k));
    r0c1 = _mm256_add_epi32(r0c1, _mm256_madd_epi16(av0, wv));
    r1c1 = _mm256_add_epi32(r1c1, _mm256_madd_epi16(av1, wv));
    wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w2 + k));
    r0c2 = _mm256_add_epi32(r0c2, _mm256_madd_epi16(av0, wv));
    r1c2 = _mm256_add_epi32(r1c2, _mm256_madd_epi16(av1, wv));
    wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w3 + k));
    r0c3 = _mm256_add_epi32(r0c3, _mm256_madd_epi16(av0, wv));
    r1c3 = _mm256_add_epi32(r1c3, _mm256_madd_epi16(av1, wv));
  }
  alignas(16) std::int32_t s0[4], s1[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(s0),
                  hsum4_epi32(r0c0, r0c1, r0c2, r0c3));
  _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                  hsum4_epi32(r1c0, r1c1, r1c2, r1c3));
  for (int j = 0; j < 4; ++j) {
    out0[j] += s0[j];
    out1[j] += s1[j];
  }
  for (; k < n; ++k) {
    const std::int32_t x0 = a0[k];
    const std::int32_t x1 = a1[k];
    out0[0] += x0 * w0[k];
    out0[1] += x0 * w1[k];
    out0[2] += x0 * w2[k];
    out0[3] += x0 * w3[k];
    out1[0] += x1 * w0[k];
    out1[1] += x1 * w1[k];
    out1[2] += x1 * w2[k];
    out1[3] += x1 * w3[k];
  }
}

std::int32_t dot_u8s16(const std::uint8_t* __restrict__ a,
                       const std::int16_t* __restrict__ w, std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m256i av = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(av, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(w + k))));
  }
  const __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                   _mm256_extracti128_si256(acc, 1));
  const __m128i h = _mm_hadd_epi32(lo, lo);
  std::int32_t s = _mm_cvtsi128_si32(_mm_hadd_epi32(h, h));
  for (; k < n; ++k) s += static_cast<std::int32_t>(a[k]) * w[k];
  return s;
}

void dw_dot_u8s16p(const std::uint8_t* __restrict__ x,
                   const std::int64_t* __restrict__ toff,
                   const std::int16_t* __restrict__ wtp, std::int64_t taps,
                   std::int64_t C, std::int32_t* __restrict__ acc) {
  const std::int64_t pairs = (taps + 1) / 2;
  std::int64_t c = 0;
  for (; c + 16 <= C; c += 16) {
    __m256i alo = _mm256_setzero_si256();
    __m256i ahi = _mm256_setzero_si256();
    for (std::int64_t p = 0; p < pairs; ++p) {
      const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
      const __m128i x0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(x + toff[2 * p] + c));
      const __m128i x1 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(x + toff[t1] + c));
      const __m256i vlo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1));
      const __m256i vhi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1));
      const __m256i wlo = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wtp + p * 2 * C + 2 * c));
      const __m256i whi = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wtp + p * 2 * C + 2 * c + 16));
      alo = _mm256_add_epi32(alo, _mm256_madd_epi16(vlo, wlo));
      ahi = _mm256_add_epi32(ahi, _mm256_madd_epi16(vhi, whi));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), alo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 8), ahi);
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

void mac_u8s16(std::int32_t* __restrict__ acc,
               const std::uint8_t* __restrict__ x,
               const std::int16_t* __restrict__ w, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i xv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i)));
    const __m256i wv = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i)));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    a = _mm256_add_epi32(a, _mm256_mullo_epi32(xv, wv));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
  }
  for (; i < n; ++i) acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
}

void add_u8_i32(std::int32_t* __restrict__ acc,
                const std::uint8_t* __restrict__ x, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i xv = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i)));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi32(a, xv));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

// Reproduces the arithmetic right shift exactly with unsigned ops:
// |v*m0| < 2^62, so (v*m0 + 2^62) is non-negative and
// (v*m0 + 2^62) >>logical s  ==  (v*m0 >>arith s) + (2^62 >> s)
// because 2^62 is divisible by 2^s for every s <= 62.
std::int64_t requant_u8(const std::int32_t* __restrict__ acc,
                        const std::int32_t* __restrict__ add,
                        const std::int64_t* __restrict__ m0,
                        const std::int64_t* __restrict__ shift,
                        const std::int64_t* __restrict__ bias_sub,
                        std::int32_t zy, std::int32_t hi,
                        std::uint8_t* __restrict__ out, std::int64_t n) {
  const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << 62);
  const __m256i zyv = _mm256_set1_epi64x(zy);
  const __m256i hiv = _mm256_set1_epi64x(hi);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::int64_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m128i a32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + c));
    const __m128i ad32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(add + c));
    const __m256i v = _mm256_cvtepi32_epi64(_mm_add_epi32(a32, ad32));
    const __m256i mv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m0 + c));
    const __m256i sh =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shift + c));
    const __m256i bs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias_sub + c));
    const __m256i prod = _mm256_mul_epi32(v, mv);
    const __m256i t = _mm256_srlv_epi64(_mm256_add_epi64(prod, bias), sh);
    __m256i y = _mm256_add_epi64(_mm256_sub_epi64(t, bs), zyv);
    y = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, y), y);
    y = _mm256_blendv_epi8(y, hiv, _mm256_cmpgt_epi64(y, hiv));
    const __m128i p32 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(y, pick));
    const __m128i p16 = _mm_packus_epi32(p32, p32);
    const int word = _mm_cvtsi128_si32(_mm_packus_epi16(p16, p16));
    std::memcpy(out + c, &word, 4);
  }
  return c;
}

// Bit-exact with simd::quantize_f32_one by construction: vdivps is the same
// correctly-rounded IEEE single division as the scalar `/`, and lround's
// round-half-away-from-zero differs from the hardware cvtps
// (round-half-to-even) only on exact .5 ties, which quantize8_ps detects
// (x - rne(x) == +0.5 exactly) and bumps up by one. Negative ties round the
// other way under lround, but every candidate code there is <= 0 and the
// [0, hi] clamp collapses both answers to 0. The float clamp to [-1, hi]
// saturates every magnitude and codes NaN as 0 (vmaxps returns its second
// operand, -1, for a NaN).
std::int64_t quantize_u8(const float* __restrict__ x, std::int64_t n,
                         float scale, std::int32_t zero, std::int32_t hi,
                         std::uint8_t* __restrict__ dst) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vzero = _mm256_set1_ps(static_cast<float>(zero));
  const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
  const __m256 vlo = _mm256_set1_ps(-1.0f);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i r = quantize8_ps(_mm256_loadu_ps(x + i), vscale, vzero, vhi,
                                   vlo, vhalf);
    const __m128i lo = _mm256_castsi256_si128(r);
    const __m128i hi128 = _mm256_extracti128_si256(r, 1);
    const __m128i w = _mm_packs_epi32(lo, hi128);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi16(w, w));
  }
  return i;
}

}  // namespace mixq::runtime::simd::avx2

#else  // !MIXQ_AVX2_NATIVE

// Built at the baseline target like every other TU, so including simd.hpp
// is safe here. simd::enabled() is false in this build, so the dispatchers
// never enter these; they exist so every build links the same entry points.
#include "runtime/simd.hpp"

namespace mixq::runtime::simd::avx2 {

bool compiled() { return false; }

void gemm_u8s8_x1(const std::uint8_t* a, const std::int8_t* block,
                  std::int64_t kp, std::int32_t* acc, bool accumulate) {
  scalar::gemm_u8s8_x1(a, block, kp, acc, accumulate);
}

void gemm_u8s8_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int8_t* block, std::int64_t kp,
                  std::int32_t* acc0, std::int32_t* acc1, bool accumulate) {
  scalar::gemm_u8s8_x2(a0, a1, block, kp, acc0, acc1, accumulate);
}

void dot1x4_u8s16(const std::uint8_t* a, const std::int16_t* w0,
                  const std::int16_t* w1, const std::int16_t* w2,
                  const std::int16_t* w3, std::int64_t n, std::int32_t* out) {
  scalar::dot1x4_u8s16(a, w0, w1, w2, w3, n, out);
}

void dot2x4_u8s16(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int16_t* w0, const std::int16_t* w1,
                  const std::int16_t* w2, const std::int16_t* w3,
                  std::int64_t n, std::int32_t* out0, std::int32_t* out1) {
  scalar::dot2x4_u8s16(a0, a1, w0, w1, w2, w3, n, out0, out1);
}

std::int32_t dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                       std::int64_t n) {
  return scalar::dot_u8s16(a, w, n);
}

void dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                   const std::int16_t* wtp, std::int64_t taps,
                   std::int64_t C, std::int32_t* acc) {
  scalar::dw_dot_u8s16p(x, toff, wtp, taps, C, acc);
}

void mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
               const std::int16_t* w, std::int64_t n) {
  scalar::mac_u8s16(acc, x, w, n);
}

void add_u8_i32(std::int32_t* acc, const std::uint8_t* x, std::int64_t n) {
  scalar::add_u8_i32(acc, x, n);
}

std::int64_t requant_u8(const std::int32_t*, const std::int32_t*,
                        const std::int64_t*, const std::int64_t*,
                        const std::int64_t*, std::int32_t, std::int32_t,
                        std::uint8_t*, std::int64_t) {
  return 0;
}

std::int64_t quantize_u8(const float*, std::int64_t, float, std::int32_t,
                         std::int32_t, std::uint8_t*) {
  return 0;
}

}  // namespace mixq::runtime::simd::avx2

#endif  // MIXQ_AVX2_NATIVE
