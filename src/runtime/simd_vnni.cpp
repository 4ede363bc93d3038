// AVX-512 VNNI kernel bodies -- the ONE translation unit compiled with
// -mavx512{f,bw,vl,vnni} (appended per-source in src/runtime/CMakeLists.txt
// when the MIXQ_HAS_AVX512VNNI compile check passes, which also defines
// MIXQ_VNNI_NATIVE for this file). Nothing here includes simd.hpp: its
// inline kernels must not be compiled under AVX-512 flags (ODR across
// TUs), and no struct is ever passed or copied (the GCC 12.2 AVX-512
// miscompile the build works around was a struct copy).
//
// Without MIXQ_VNNI_NATIVE the same functions build as portable scalar
// bodies with bit-identical arithmetic, so forced-tier plans and the
// exactness tests run on every toolchain.
//
// When MIXQ_VNNI_NATIVE is set these bodies (including their scalar tail
// loops, which the compiler may autovectorize to AVX-512) execute AVX-512
// instructions unconditionally: callers must gate on vnni_enabled().
// They then include no header whose inline or template code this file
// would instantiate (<algorithm>, <cmath>): a weak copy of such code
// compiled with the AVX-512 flags could be the one the linker keeps for a
// baseline caller. tools/check_isa_isolation.py fails on any weak symbol
// this object defines.

#include "runtime/simd_vnni.hpp"

#include <cstring>

#if defined(MIXQ_VNNI_NATIVE)
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 headers seed the pass-through operand of unmasked
// intrinsics (_mm512_cvtepu8_epi32, _mm512_max_epi64, ...) with a
// self-initialized `__Y = __Y` placeholder, which -Wall flags as
// (maybe-)uninitialized at every inlined use. The value is never read;
// the suppression covers the header text only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#else
#include <algorithm>  // std::clamp
#include <cmath>      // std::isnan, std::lround
#endif

namespace mixq::runtime::simd {

bool vnni_compiled() {
#if defined(MIXQ_VNNI_NATIVE)
  return true;
#else
  return false;
#endif
}

namespace {

/// Panel block byte index of weight lane j at depth k (ocb = 16): K groups
/// of 4 bytes, each channel's 4 bytes contiguous within the group. Local
/// replica of the layout contract published by vnni_index (simd.cpp); the
/// pack/kernel round-trip tests pin the two together.
[[maybe_unused]] inline std::int64_t blk_idx(std::int64_t k, std::int64_t j) {
  return (k / 4) * 64 + j * 4 + k % 4;
}

/// std::min for int64, written as libstdc++ writes it (references and an
/// early return, so the optimized code does not change) but local: no weak
/// copy is emitted.
inline const std::int64_t& min64(const std::int64_t& a,
                                 const std::int64_t& b) {
  if (b < a) return b;
  return a;
}

}  // namespace

#if defined(MIXQ_VNNI_NATIVE)

namespace {

/// sum_k a[k] over exactly n bytes: vpsadbw against zero sums each 8-byte
/// group into a u64 lane, and the tail is a masked load, which never
/// touches the bytes past a + n (the direct 1x1 path's rows are K apart).
std::int32_t row_sum(const std::uint8_t* a, std::int64_t n) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i s = zero;
  std::int64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    s = _mm512_add_epi64(s, _mm512_sad_epu8(_mm512_loadu_si512(a + i), zero));
  }
  if (i < n) {
    const __mmask64 m = (std::uint64_t{1} << (n - i)) - 1;
    s = _mm512_add_epi64(s, _mm512_sad_epu8(_mm512_maskz_loadu_epi8(m, a + i),
                                            zero));
  }
  return static_cast<std::int32_t>(_mm512_reduce_add_epi64(s));
}

/// One R-row x NB-block tile of vnni_gemm_rows over klen bytes of depth:
/// R * NB zmm accumulators (seeded from acc when accumulating), one 64-byte
/// load per block and K group shared by the R rows' vpdpbusd, then the
/// split term split[c] * sums[r] when split is non-null.
template <int R, int NB>
void gemm_tile(const std::uint8_t* a, std::int64_t lda,
               const std::int8_t* blk, std::int64_t bstride,
               std::int64_t klen, std::int32_t* acc, std::int64_t ldc,
               int accumulate, const std::int32_t* split,
               const std::int32_t* sums) {
  __m512i v[R][NB];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      v[r][b] = accumulate != 0 ? _mm512_loadu_si512(acc + r * ldc + b * 16)
                                : _mm512_setzero_si512();
    }
  }
  for (std::int64_t k = 0; k < klen; k += 4) {
    __m512i w[NB];
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      w[b] = _mm512_loadu_si512(blk + b * bstride + k * 16);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      std::uint32_t u;
      std::memcpy(&u, a + r * lda + k, 4);
      const __m512i av = _mm512_set1_epi32(static_cast<int>(u));
#pragma GCC unroll 4
      for (int b = 0; b < NB; ++b) {
        v[r][b] = _mm512_dpbusd_epi32(v[r][b], av, w[b]);
      }
    }
  }
  if (split != nullptr) {
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      const __m512i s = _mm512_loadu_si512(split + b * 16);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        v[r][b] = _mm512_add_epi32(
            v[r][b], _mm512_mullo_epi32(s, _mm512_set1_epi32(sums[r])));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
      _mm512_storeu_si512(acc + r * ldc + b * 16, v[r][b]);
    }
  }
}

/// The tile for `rows` x `blocks` (both 1..4).
void tile(std::int64_t rows, std::int64_t blocks, const std::uint8_t* a,
          std::int64_t lda, const std::int8_t* blk, std::int64_t bstride,
          std::int64_t klen, std::int32_t* acc, std::int64_t ldc,
          int accumulate, const std::int32_t* split,
          const std::int32_t* sums) {
  using Fn = decltype(&gemm_tile<1, 1>);
  static constexpr Fn kTiles[4][4] = {
      {gemm_tile<1, 1>, gemm_tile<1, 2>, gemm_tile<1, 3>, gemm_tile<1, 4>},
      {gemm_tile<2, 1>, gemm_tile<2, 2>, gemm_tile<2, 3>, gemm_tile<2, 4>},
      {gemm_tile<3, 1>, gemm_tile<3, 2>, gemm_tile<3, 3>, gemm_tile<3, 4>},
      {gemm_tile<4, 1>, gemm_tile<4, 2>, gemm_tile<4, 3>, gemm_tile<4, 4>}};
  kTiles[rows - 1][blocks - 1](a, lda, blk, bstride, klen, acc, ldc,
                               accumulate, split, sums);
}

}  // namespace

void vnni_dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                        const std::int16_t* wtp, std::int64_t taps,
                        std::int64_t C, std::int32_t* acc) {
  const std::int64_t pairs = (taps + 1) / 2;
  std::int64_t c = 0;
  // 32 channels per iteration. _mm256_unpack*_epi8 interleaves per
  // 128-bit lane, so the widened activation pairs land in channel order
  // [c..c+7, c+16..c+23] (lo) / [c+8..c+15, c+24..c+31] (hi); the weight
  // bank is linear, so one vshufi64x2 per madd reorders it to match, and
  // two more restore linear channel order for the acc stores.
  for (; c + 32 <= C; c += 32) {
    __m512i alo = _mm512_setzero_si512();
    __m512i ahi = _mm512_setzero_si512();
    for (std::int64_t p = 0; p < pairs; ++p) {
      // Odd tap counts read tap t0 twice; its pack partner weight is 0.
      const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
      const __m256i x0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + toff[2 * p] + c));
      const __m256i x1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + toff[t1] + c));
      const __m512i vlo = _mm512_cvtepu8_epi16(_mm256_unpacklo_epi8(x0, x1));
      const __m512i vhi = _mm512_cvtepu8_epi16(_mm256_unpackhi_epi8(x0, x1));
      const __m512i wa = _mm512_loadu_si512(wtp + p * 2 * C + 2 * c);
      const __m512i wb = _mm512_loadu_si512(wtp + p * 2 * C + 2 * c + 32);
      alo = _mm512_dpwssd_epi32(alo, vlo, _mm512_shuffle_i64x2(wa, wb, 0x44));
      ahi = _mm512_dpwssd_epi32(ahi, vhi, _mm512_shuffle_i64x2(wa, wb, 0xEE));
    }
    _mm512_storeu_si512(acc + c, _mm512_shuffle_i64x2(alo, ahi, 0x44));
    _mm512_storeu_si512(acc + c + 16, _mm512_shuffle_i64x2(alo, ahi, 0xEE));
  }
  // 16-channel step: 128-bit unpack is linear across the register, so no
  // reordering is needed (same shape as the AVX2 kernel, dpwssd-fused).
  for (; c + 16 <= C; c += 16) {
    __m256i a0v = _mm256_setzero_si256();
    __m256i a1v = _mm256_setzero_si256();
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
      a0v = _mm256_dpwssd_epi32(a0v, vlo, wlo);
      a1v = _mm256_dpwssd_epi32(a1v, vhi, whi);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), a0v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 8), a1v);
  }
  // The C % 16 tail: the same step under masks. Masked-off activation and
  // weight lanes load as zero without touching memory, and their sums are
  // never stored. (Full steps stay unmasked: masking every step made the
  // C = 16 first depthwise layer of bench_runtime's net, which has no
  // tail, about 12% slower per MAC.)
  if (c < C) {
    const auto r = static_cast<unsigned>(C - c);
    const auto cm = static_cast<__mmask16>((1u << r) - 1);
    const std::uint32_t wm = (1u << (2 * r)) - 1;  // i16 pair lanes
    __m256i a0v = _mm256_setzero_si256();
    __m256i a1v = _mm256_setzero_si256();
    for (std::int64_t p = 0; p < pairs; ++p) {
      const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
      const __m128i x0 = _mm_maskz_loadu_epi8(cm, x + toff[2 * p] + c);
      const __m128i x1 = _mm_maskz_loadu_epi8(cm, x + toff[t1] + c);
      const __m256i vlo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1));
      const __m256i vhi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1));
      const std::int16_t* wp = wtp + p * 2 * C + 2 * c;
      const __m256i wlo =
          _mm256_maskz_loadu_epi16(static_cast<__mmask16>(wm), wp);
      const __m256i whi =
          _mm256_maskz_loadu_epi16(static_cast<__mmask16>(wm >> 16), wp + 16);
      a0v = _mm256_dpwssd_epi32(a0v, vlo, wlo);
      a1v = _mm256_dpwssd_epi32(a1v, vhi, whi);
    }
    _mm256_mask_storeu_epi32(acc + c, static_cast<__mmask8>(cm), a0v);
    _mm256_mask_storeu_epi32(acc + c + 8, static_cast<__mmask8>(cm >> 8), a1v);
  }
}

void vnni_mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
                    const std::int16_t* w, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i xv = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    const __m512i wv = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i)));
    const __m512i av = _mm512_loadu_si512(acc + i);
    _mm512_storeu_si512(acc + i,
                        _mm512_add_epi32(av, _mm512_mullo_epi32(xv, wv)));
  }
  // The n % 16 tail: one more step under a mask.
  if (i < n) {
    const auto m = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i xv = _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(m, x + i));
    const __m512i wv =
        _mm512_cvtepi16_epi32(_mm256_maskz_loadu_epi16(m, w + i));
    const __m512i av = _mm512_maskz_loadu_epi32(m, acc + i);
    _mm512_mask_storeu_epi32(acc + i, m,
                             _mm512_add_epi32(av, _mm512_mullo_epi32(xv, wv)));
  }
}

std::int32_t vnni_dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                            std::int64_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::int64_t k = 0;
  for (; k + 32 <= n; k += 32) {
    const __m512i av = _mm512_cvtepu8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k)));
    acc = _mm512_dpwssd_epi32(acc, av, _mm512_loadu_si512(w + k));
  }
  std::int32_t s = _mm512_reduce_add_epi32(acc);
  for (; k < n; ++k) s += static_cast<std::int32_t>(a[k]) * w[k];
  return s;
}

void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n) {
  const __m512i zyv = _mm512_set1_epi64(zy);
  const __m512i hiv = _mm512_set1_epi64(hi);
  const __m512i zero = _mm512_setzero_si512();
  std::int64_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256i a32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + c));
    const __m256i ad32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add + c));
    // v = acc + add fits int32 by the plan's usability proof; vpmuldq
    // reads the (sign-extended) low dwords, so the product is the exact
    // 64-bit v * m0 (0 <= m0 < 2^31).
    const __m512i v = _mm512_cvtepi32_epi64(_mm256_add_epi32(a32, ad32));
    const __m512i prod = _mm512_mul_epi32(v, _mm512_loadu_si512(m0 + c));
    const __m512i sh = _mm512_loadu_si512(shift + c);
    __m512i y = _mm512_add_epi64(_mm512_srav_epi64(prod, sh), zyv);
    y = _mm512_max_epi64(y, zero);
    y = _mm512_min_epi64(y, hiv);
    // Codes are in [0, hi] <= 255: vpmovqb's truncation never loses bits.
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + c),
                     _mm512_cvtepi64_epi8(y));
  }
  for (; c < n; ++c) {
    const std::int64_t v = static_cast<std::int64_t>(acc[c]) + add[c];
    const std::int64_t y =
        static_cast<std::int64_t>(zy) + ((v * m0[c]) >> shift[c]);
    out[c] = static_cast<std::uint8_t>(y < 0 ? 0 : (y > hi ? hi : y));
  }
}

void vnni_quantize_u8(const float* x, std::int64_t n, float scale,
                      std::int32_t zero, std::int32_t hi, std::uint8_t* out) {
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vzero = _mm512_set1_ps(static_cast<float>(zero));
  const __m512 vhalf = _mm512_set1_ps(0.5f);
  const __m512 vlo = _mm512_set1_ps(-1.0f);
  const __m512 vhif = _mm512_set1_ps(static_cast<float>(hi));
  const __m512i vhi = _mm512_set1_epi32(hi);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i zero_i = _mm512_setzero_si512();
  // 16 lanes per step; the last step (n % 16) runs under a mask.
  for (std::int64_t i = 0; i < n; i += 16) {
    const auto r = static_cast<unsigned>(min64(n - i, 16));
    const auto m = static_cast<__mmask16>(0xFFFFu >> (16 - r));
    // vdivps/vaddps: the same correctly rounded IEEE steps as the scalar,
    // then its float clamp to [-1, hi]: every magnitude saturates, and a
    // NaN becomes -1 (vmaxps returns its second operand), so code 0.
    __m512 s = _mm512_add_ps(
        _mm512_div_ps(_mm512_maskz_loadu_ps(m, x + i), vscale), vzero);
    s = _mm512_min_ps(_mm512_max_ps(s, vlo), vhif);
    __m512i q = _mm512_cvt_roundps_epi32(
        s, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // Exact positive tie: round-to-even went down, lround goes away from
    // zero. A negative tie differs too, but both answers clamp to 0.
    const __mmask16 tie = _mm512_cmp_ps_mask(
        _mm512_sub_ps(s, _mm512_cvtepi32_ps(q)), vhalf, _CMP_EQ_OQ);
    q = _mm512_mask_add_epi32(q, tie, q, one);
    q = _mm512_min_epi32(_mm512_max_epi32(q, zero_i), vhi);
    // Codes are in [0, hi] <= 255: vpmovdb's truncation never loses bits.
    _mm_mask_storeu_epi8(out + i, m, _mm512_cvtepi32_epi8(q));
  }
}

#else  // !MIXQ_VNNI_NATIVE: portable scalar bodies, identical arithmetic.

namespace {

/// One input value's code, written exactly as simd::quantize_f32_one and
/// core::quantize_value(kNearest) write it (this TU cannot include
/// simd.hpp): the float clamp to [-1, hi] (NaN codes as 0), std::lround,
/// then the integer clamp.
inline std::uint8_t quantize_one(float x, float scale, std::int32_t zero,
                                 std::int32_t hi) {
  const float scaled = x / scale + static_cast<float>(zero);
  if (std::isnan(scaled)) return 0;
  const float s = std::clamp(scaled, -1.0f, static_cast<float>(hi));
  return static_cast<std::uint8_t>(
      std::clamp(static_cast<std::int32_t>(std::lround(s)), 0, hi));
}

std::int32_t row_sum(const std::uint8_t* a, std::int64_t n) {
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) s += a[k];
  return s;
}

void tile(std::int64_t rows, std::int64_t blocks, const std::uint8_t* a,
          std::int64_t lda, const std::int8_t* blk, std::int64_t bstride,
          std::int64_t klen, std::int32_t* acc, std::int64_t ldc,
          int accumulate, const std::int32_t* split,
          const std::int32_t* sums) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t b = 0; b < blocks; ++b) {
      for (std::int64_t j = 0; j < 16; ++j) {
        std::int32_t* o = acc + r * ldc + b * 16 + j;
        std::int32_t s = accumulate != 0 ? *o : 0;
        for (std::int64_t k = 0; k < klen; ++k) {
          s += static_cast<std::int32_t>(a[r * lda + k]) *
               blk[b * bstride + blk_idx(k, j)];
        }
        if (split != nullptr) s += split[b * 16 + j] * sums[r];
        *o = s;
      }
    }
  }
}

}  // namespace

void vnni_dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                        const std::int16_t* wtp, std::int64_t taps,
                        std::int64_t C, std::int32_t* acc) {
  for (std::int64_t c = 0; c < C; ++c) {
    std::int32_t s = 0;
    for (std::int64_t t = 0; t < taps; ++t) {
      s += static_cast<std::int32_t>(x[toff[t] + c]) *
           wtp[(t / 2) * 2 * C + 2 * c + (t & 1)];
    }
    acc[c] = s;
  }
}

void vnni_mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
                    const std::int16_t* w, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
  }
}

std::int32_t vnni_dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                            std::int64_t n) {
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    s += static_cast<std::int32_t>(a[k]) * w[k];
  }
  return s;
}

void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n) {
  for (std::int64_t c = 0; c < n; ++c) {
    const std::int64_t v = static_cast<std::int64_t>(acc[c]) + add[c];
    const std::int64_t y =
        static_cast<std::int64_t>(zy) + ((v * m0[c]) >> shift[c]);
    out[c] = static_cast<std::uint8_t>(y < 0 ? 0 : (y > hi ? hi : y));
  }
}

void vnni_quantize_u8(const float* x, std::int64_t n, float scale,
                      std::int32_t zero, std::int32_t hi, std::uint8_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = quantize_one(x[i], scale, zero, hi);
  }
}

#endif  // MIXQ_VNNI_NATIVE

// The driver is shared by both bodies: only the tile and the row sum differ.
void vnni_gemm_rows(const std::uint8_t* a, std::int64_t lda,
                    std::int64_t rows, const std::int8_t* panel,
                    std::int64_t K, std::int64_t co_pad, std::int64_t kb,
                    std::int64_t nb, const std::int32_t* split,
                    std::int32_t* acc) {
  const std::int64_t kp = vnni_kp(K);
  if (kb <= 0) kb = kp;
  if (nb <= 0) nb = co_pad;
  std::int32_t sums[kVnniRows] = {};
  if (split != nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) sums[r] = row_sum(a + r * lda, K);
  }
  for (std::int64_t c0 = 0; c0 < co_pad; c0 += nb) {
    const std::int64_t c1 = min64(co_pad, c0 + nb);
    for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
      const std::int64_t klen = min64(kp, k0 + kb) - k0;
      // The split term joins a chunk's sums after its last K block.
      const std::int32_t* sp = k0 + klen == kp ? split : nullptr;
      for (std::int64_t cb = c0; cb < c1; cb += 64) {
        tile(rows, min64(4, (c1 - cb) / 16), a + k0, lda,
             panel + cb * kp + k0 * 16, 16 * kp, klen, acc + cb, co_pad,
             k0 > 0 ? 1 : 0, sp != nullptr ? sp + cb : nullptr, sums);
      }
    }
  }
}

}  // namespace mixq::runtime::simd
