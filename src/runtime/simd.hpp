// mixq/runtime/simd.hpp
//
// Portable SIMD dispatch layer for the planned execution engine's hot
// loops. One ISA is selected at *compile time* from the compiler's target
// flags (AVX2 > SSE4.1 on x86, NEON on AArch64, scalar otherwise) and a
// cached *runtime* capability check (`enabled()`) routes each kernel to
// its scalar body when the CPU lacks the compiled ISA. The runtime check
// is defense in depth, not a portability guarantee: when the whole binary
// is compiled with -march=x86-64-v3 (MIXQ_ENABLE_NATIVE) the compiler may
// emit AVX2 anywhere, including the fallback loops, so binaries must still
// run on hardware that supports their compile target. The check is load-
// bearing only for toolchains/targets where the intrinsics are available
// without the baseline including them.
//
// Bit-exactness contract: each kernel computes exactly the same integers as
// its scalar reference. All integer kernels here are only used on values
// where 32-bit accumulation provably cannot overflow (plan.cpp selects them
// via phi_bound < 2^30), so re-associating the sums across SIMD lanes
// cannot change the result; the requantization kernel reproduces
// floor((v * m0) >> shift) exactly via a bias trick (see requant_icn_u8).
// Enforced by tests/runtime/simd_test.cpp against the scalar references and
// transitively by every randomized exactness suite over the planned engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#define MIXQ_SIMD_AVX2 1
#elif defined(__SSE4_1__)
#include <smmintrin.h>
#define MIXQ_SIMD_SSE4 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define MIXQ_SIMD_NEON 1
#endif

namespace mixq::runtime::simd {

/// ISA the translation units of this binary were compiled for.
constexpr const char* compiled_isa() {
#if defined(MIXQ_SIMD_AVX2)
  return "avx2";
#elif defined(MIXQ_SIMD_SSE4)
  return "sse4.1";
#elif defined(MIXQ_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Whether the CPU executing this binary supports the compiled ISA.
/// Best-effort (see the file comment: globally targeted builds can emit
/// vector instructions outside these kernels). NEON/scalar builds always
/// return true.
bool cpu_supports_compiled_isa();

/// Cached runtime switch every kernel branches on; the branch is perfectly
/// predicted and costs nothing against the vector loop bodies.
inline bool enabled() {
  static const bool ok = cpu_supports_compiled_isa();
  return ok;
}

/// ISA actually driving the kernels at runtime: compiled_isa() when the
/// capability check passes, "scalar" otherwise.
const char* active_isa();

// ---------------------------------------------------------------------------
// Vectorized ICN requantization (Eq. 5 clamp path).
// ---------------------------------------------------------------------------

/// Per-layer requantization constants laid out channel-major for the
/// vector kernel. Built by the plan only when provably exact in this form:
/// ICN scheme, 32-bit accumulators, every shift = 31 - n0 in [0, 62], and
/// |phi + bq| plus the folded -Zx*wsum pre-add within int32 (see
/// ExecutionPlan). `add[c]` folds bq_c - Zx*wsum_c so the kernel consumes
/// the raw accumulator sum_k X*(W - Zw) directly.
struct RequantTable {
  std::vector<std::int64_t> m0;        ///< Q31 mantissa, one 64-bit lane each
  std::vector<std::int64_t> shift;     ///< 31 - n0, in [0, 62]
  std::vector<std::int64_t> bias_sub;  ///< (1 << 62) >> shift
  std::vector<std::int32_t> add;       ///< bq - Zx * wsum
  std::int32_t zy{0};
  std::int32_t hi{0};                  ///< qmax(qy)
  bool usable{false};
};

/// Scalar reference for one channel: clamp(zy + ((v * m0) >> shift), 0, hi)
/// with v = acc + add -- identical arithmetic to the plan's requantize()
/// (fixed_point_floor_mul specialised to shift in [0, 62]).
inline std::int32_t requant_icn_one(std::int64_t v, std::int64_t m0,
                                    std::int64_t shift, std::int32_t zy,
                                    std::int64_t hi) {
  const std::int64_t r = (v * m0) >> shift;
  const std::int64_t y = static_cast<std::int64_t>(zy) + r;
  return static_cast<std::int32_t>(y < 0 ? 0 : (y > hi ? hi : y));
}

// ===========================================================================
// u8-activation MAC kernels.
//
// The planned engine stores every activation as packed unsigned 8-bit codes
// (every post-ICN activation is an unsigned <= 8-bit code, so u8 always
// holds it) and the weights of its acc32 layers in one of two banks:
//
//   * s8 panel  -- zero-point-offset weights that provably fit int8 AND
//     whose adjacent-pair magnitude satisfies the widening-MAC bound
//       max over (oc, even k) of (|w[k]| + |w[k+1]|) * max_code(qx) <= 32767
//     run through a cache-blocked panel (K grouped in 4s, `gemm_u8s8_ocb()`
//     output channels interleaved per 4-byte group) so AVX2 executes
//     vpmaddubsw -> vpmaddwd -> vpaddd: 32 8-bit MACs per instruction
//     sequence with the intermediate i16 pair sums proven exact by the
//     bound above (the plan's eligibility prover enforces it; these
//     kernels assume it).
//   * s16 rows  -- any layer's offset weights fit int16
//     unconditionally (|w - Zw| <= 255); activations widen u8 -> i16 on
//     the fly and vpmaddwd's i16 x i16 -> i32 pair products are always
//     exact (|x*w| <= 255*255, pair sum < 2^31).
//
// Every kernel here is bit-exact against its scalar reference: i32
// accumulation is only used where the plan proved phi_bound < 2^30 (so
// re-association across lanes is exact), and the i16 stages are covered by
// the bounds above. Enforced by tests/runtime/simd_test.cpp, including
// adversarial data sitting exactly on the pair bound.
// ===========================================================================

inline std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

// ---------------------------------------------------------------------------
// u8 x s8 panel GEMM micro-kernel.
// ---------------------------------------------------------------------------

/// Output channels interleaved per panel block: 8 i32 lanes on AVX2, 4 on
/// every 128-bit (or scalar) configuration. Compile-time constant so the
/// pack layout and the kernels always agree within one binary.
constexpr std::int64_t gemm_u8s8_ocb() {
#if defined(MIXQ_SIMD_AVX2)
  return 8;
#else
  return 4;
#endif
}

/// K padded to the 4-byte group size of the panel.
inline std::int64_t gemm_u8s8_kp(std::int64_t K) { return round_up(K, 4); }

/// Panel capacity in bytes for a co x K weight matrix.
inline std::int64_t gemm_u8s8_panel_elems(std::int64_t co, std::int64_t K) {
  return round_up(co, gemm_u8s8_ocb()) * gemm_u8s8_kp(K);
}

/// Byte index of weight (oc, k) inside the packed panel -- the layout
/// contract shared by pack, the scalar fallbacks, and the tests:
/// blocks of `ocb` output channels; within a block, K in groups of 4 with
/// each channel's 4 bytes contiguous.
inline std::int64_t gemm_u8s8_index(std::int64_t kp, std::int64_t oc,
                                    std::int64_t k) {
  const std::int64_t ocb = gemm_u8s8_ocb();
  return (oc / ocb) * ocb * kp + (k / 4) * ocb * 4 + (oc % ocb) * 4 + k % 4;
}

/// Pack offset int32 weights (co rows of K, row-major) into the s8 panel.
/// Caller guarantees every value fits int8; pad lanes/groups are zero.
inline void gemm_u8s8_pack(const std::int32_t* w, std::int64_t co,
                           std::int64_t K, std::int8_t* panel) {
  const std::int64_t kp = gemm_u8s8_kp(K);
  std::fill(panel, panel + gemm_u8s8_panel_elems(co, K), std::int8_t{0});
  for (std::int64_t oc = 0; oc < co; ++oc) {
    for (std::int64_t k = 0; k < K; ++k) {
      panel[gemm_u8s8_index(kp, oc, k)] =
          static_cast<std::int8_t>(w[oc * K + k]);
    }
  }
}

/// One activation row against one panel block: acc[j] = sum_k a[k] *
/// W[block_oc j][k] for the block's `ocb` channels (overwrites acc;
/// `accumulate` adds into it instead -- the K-blocked GEMM's partial sums).
/// `a` must be readable for kp bytes (the plan's u8 arenas carry slack).
inline void gemm_u8s8_x1(const std::uint8_t* __restrict__ a,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc,
                         bool accumulate = false) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i av_acc =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc))
                   : _mm256_setzero_si256();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + k * 8));
      std::uint32_t u;
      std::memcpy(&u, a + k, 4);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(u));
      av_acc = _mm256_add_epi32(
          av_acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, wv), ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), av_acc);
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    const __m128i ones = _mm_set1_epi16(1);
    __m128i av_acc =
        accumulate ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc))
                   : _mm_setzero_si128();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m128i wv =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + k * 4));
      std::uint32_t u;
      std::memcpy(&u, a + k, 4);
      const __m128i av = _mm_set1_epi32(static_cast<int>(u));
      av_acc = _mm_add_epi32(
          av_acc, _mm_madd_epi16(_mm_maddubs_epi16(av, wv), ones));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc), av_acc);
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
    int32x4_t av_acc = accumulate ? vld1q_s32(acc) : vdupq_n_s32(0);
    for (std::int64_t k = 0; k < kp; k += 4) {
      const int8x16_t wv = vld1q_s8(block + k * 4);
      const int16x8_t w01 = vmovl_s8(vget_low_s8(wv));
      const int16x8_t w23 = vmovl_s8(vget_high_s8(wv));
      std::uint32_t u;
      std::memcpy(&u, a + k, 4);
      const uint8x8_t ab = vreinterpret_u8_u32(vdup_n_u32(u));
      const int16x4_t al =
          vget_low_s16(vreinterpretq_s16_u16(vmovl_u8(ab)));
      const int32x4_t p0 = vmull_s16(vget_low_s16(w01), al);
      const int32x4_t p1 = vmull_s16(vget_high_s16(w01), al);
      const int32x4_t p2 = vmull_s16(vget_low_s16(w23), al);
      const int32x4_t p3 = vmull_s16(vget_high_s16(w23), al);
      av_acc = vaddq_s32(
          av_acc, vpaddq_s32(vpaddq_s32(p0, p1), vpaddq_s32(p2, p3)));
    }
    vst1q_s32(acc, av_acc);
    return;
  }
#endif
  const std::int64_t ocb = gemm_u8s8_ocb();
  for (std::int64_t j = 0; j < ocb; ++j) {
    std::int32_t s = 0;
    for (std::int64_t k = 0; k < kp; ++k) {
      s += static_cast<std::int32_t>(a[k]) *
           block[(k / 4) * ocb * 4 + j * 4 + k % 4];
    }
    acc[j] = accumulate ? acc[j] + s : s;
  }
}

/// Two-row variant: each 32-byte weight group is loaded once and shared by
/// both activation rows (the panel GEMM's steady-state shape).
inline void gemm_u8s8_x2(const std::uint8_t* __restrict__ a0,
                         const std::uint8_t* __restrict__ a1,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc0,
                         std::int32_t* __restrict__ acc1,
                         bool accumulate = false) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i v0 =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0))
                   : _mm256_setzero_si256();
    __m256i v1 =
        accumulate ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1))
                   : _mm256_setzero_si256();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m256i wv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + k * 8));
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
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    const __m128i ones = _mm_set1_epi16(1);
    __m128i v0 =
        accumulate ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc0))
                   : _mm_setzero_si128();
    __m128i v1 =
        accumulate ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc1))
                   : _mm_setzero_si128();
    for (std::int64_t k = 0; k < kp; k += 4) {
      const __m128i wv =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + k * 4));
      std::uint32_t u0, u1;
      std::memcpy(&u0, a0 + k, 4);
      std::memcpy(&u1, a1 + k, 4);
      v0 = _mm_add_epi32(
          v0, _mm_madd_epi16(
                  _mm_maddubs_epi16(_mm_set1_epi32(static_cast<int>(u0)), wv),
                  ones));
      v1 = _mm_add_epi32(
          v1, _mm_madd_epi16(
                  _mm_maddubs_epi16(_mm_set1_epi32(static_cast<int>(u1)), wv),
                  ones));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc0), v0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc1), v1);
    return;
  }
#endif
  gemm_u8s8_x1(a0, block, kp, acc0, accumulate);
  gemm_u8s8_x1(a1, block, kp, acc1, accumulate);
}

#if defined(MIXQ_SIMD_AVX2)
namespace detail {
/// Reduce four 8-lane accumulators to their four scalar sums, in order.
inline __m128i hsum4_epi32(__m256i v0, __m256i v1, __m256i v2, __m256i v3) {
  const __m256i s01 = _mm256_hadd_epi32(v0, v1);
  const __m256i s23 = _mm256_hadd_epi32(v2, v3);
  const __m256i s = _mm256_hadd_epi32(s01, s23);
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}
}  // namespace detail
#endif

// ---------------------------------------------------------------------------
// u8 x s16 register-blocked dot products (GEMM tier for weights that do
// not fit the s8 panel: activations widen u8 -> i16, vpmaddwd is exact).
// ---------------------------------------------------------------------------

/// out[j] += sum_k a[k] * wj[k] for four i16 weight rows.
inline void dot1x4_u8s16(const std::uint8_t* __restrict__ a,
                         const std::int16_t* __restrict__ w0,
                         const std::int16_t* __restrict__ w1,
                         const std::int16_t* __restrict__ w2,
                         const std::int16_t* __restrict__ w3, std::int64_t n,
                         std::int32_t* __restrict__ out) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
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
    _mm_store_si128(reinterpret_cast<__m128i*>(s),
                    detail::hsum4_epi32(a0, a1, a2, a3));
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
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    __m128i a0 = _mm_setzero_si128(), a1 = _mm_setzero_si128();
    __m128i a2 = _mm_setzero_si128(), a3 = _mm_setzero_si128();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m128i av = _mm_cvtepu8_epi16(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + k)));
      a0 = _mm_add_epi32(a0, _mm_madd_epi16(av, _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(w0 + k))));
      a1 = _mm_add_epi32(a1, _mm_madd_epi16(av, _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(w1 + k))));
      a2 = _mm_add_epi32(a2, _mm_madd_epi16(av, _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(w2 + k))));
      a3 = _mm_add_epi32(a3, _mm_madd_epi16(av, _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(w3 + k))));
    }
    const __m128i s =
        _mm_hadd_epi32(_mm_hadd_epi32(a0, a1), _mm_hadd_epi32(a2, a3));
    alignas(16) std::int32_t sv[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(sv), s);
    out[0] += sv[0];
    out[1] += sv[1];
    out[2] += sv[2];
    out[3] += sv[3];
    for (; k < n; ++k) {
      const std::int32_t av = a[k];
      out[0] += av * w0[k];
      out[1] += av * w1[k];
      out[2] += av * w2[k];
      out[3] += av * w3[k];
    }
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
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
    return;
  }
#endif
  std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int32_t av = a[k];
    s0 += av * w0[k];
    s1 += av * w1[k];
    s2 += av * w2[k];
    s3 += av * w3[k];
  }
  out[0] += s0;
  out[1] += s1;
  out[2] += s2;
  out[3] += s3;
}

/// Two-row variant of dot1x4_u8s16: weight rows loaded once per pair of
/// activation rows.
inline void dot2x4_u8s16(const std::uint8_t* __restrict__ a0,
                         const std::uint8_t* __restrict__ a1,
                         const std::int16_t* __restrict__ w0,
                         const std::int16_t* __restrict__ w1,
                         const std::int16_t* __restrict__ w2,
                         const std::int16_t* __restrict__ w3, std::int64_t n,
                         std::int32_t* __restrict__ out0,
                         std::int32_t* __restrict__ out1) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
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
      __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + k));
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
                    detail::hsum4_epi32(r0c0, r0c1, r0c2, r0c3));
    _mm_store_si128(reinterpret_cast<__m128i*>(s1),
                    detail::hsum4_epi32(r1c0, r1c1, r1c2, r1c3));
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
    return;
  }
#endif
  dot1x4_u8s16(a0, w0, w1, w2, w3, n, out0);
  dot1x4_u8s16(a1, w0, w1, w2, w3, n, out1);
}

/// sum_k a[k] * w[k] (single i16 row remainder).
inline std::int32_t dot_u8s16(const std::uint8_t* __restrict__ a,
                              const std::int16_t* __restrict__ w,
                              std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
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
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    __m128i acc = _mm_setzero_si128();
    std::int64_t k = 0;
    for (; k + 8 <= n; k += 8) {
      const __m128i av = _mm_cvtepu8_epi16(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + k)));
      acc = _mm_add_epi32(acc, _mm_madd_epi16(av, _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(w + k))));
    }
    const __m128i h = _mm_hadd_epi32(acc, acc);
    std::int32_t s = _mm_cvtsi128_si32(_mm_hadd_epi32(h, h));
    for (; k < n; ++k) s += static_cast<std::int32_t>(a[k]) * w[k];
    return s;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
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
#endif
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    s += static_cast<std::int32_t>(a[k]) * w[k];
  }
  return s;
}

// ---------------------------------------------------------------------------
// Direct depthwise u8 kernel: per-pixel dot across channels with taps
// interleaved in pairs so vpmaddwd reduces two taps per i32 lane.
// ---------------------------------------------------------------------------

/// Number of tap pairs (odd tap counts pad with a zero-weight partner).
inline std::int64_t dw_pairs(std::int64_t taps) { return (taps + 1) / 2; }

/// Pair-interleave tap-major i16 depthwise weights: for pair p over taps
/// (2p, 2p+1), wtp[p*2C + 2c] = w[2p][c] and wtp[p*2C + 2c + 1] = w[2p+1][c]
/// (zero when 2p+1 == taps). `wt` is tap-major (taps rows of C).
inline void dw_pack_u8s16(const std::int16_t* wt, std::int64_t taps,
                          std::int64_t C, std::int16_t* wtp) {
  for (std::int64_t p = 0; p < dw_pairs(taps); ++p) {
    const std::int64_t t0 = 2 * p;
    const std::int64_t t1 = 2 * p + 1;
    for (std::int64_t c = 0; c < C; ++c) {
      wtp[p * 2 * C + 2 * c] = wt[t0 * C + c];
      wtp[p * 2 * C + 2 * c + 1] =
          t1 < taps ? wt[t1 * C + c] : std::int16_t{0};
    }
  }
}

/// acc[c] = sum_t x[toff[t] + c] * w[t][c] with u8 activations and the
/// pair-interleaved i16 weight bank from dw_pack_u8s16 (overwrites acc).
inline void dw_dot_u8s16p(const std::uint8_t* __restrict__ x,
                          const std::int64_t* __restrict__ toff,
                          const std::int16_t* __restrict__ wtp,
                          std::int64_t taps, std::int64_t C,
                          std::int32_t* __restrict__ acc) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const std::int64_t pairs = dw_pairs(taps);
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
        const __m256i vlo =
            _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(x0, x1));
        const __m256i vhi =
            _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(x0, x1));
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
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    const std::int64_t pairs = dw_pairs(taps);
    std::int64_t c = 0;
    for (; c + 8 <= C; c += 8) {
      __m128i alo = _mm_setzero_si128();
      __m128i ahi = _mm_setzero_si128();
      for (std::int64_t p = 0; p < pairs; ++p) {
        const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
        const __m128i x0 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(x + toff[2 * p] + c));
        const __m128i x1 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(x + toff[t1] + c));
        const __m128i il = _mm_unpacklo_epi8(x0, x1);
        const __m128i vlo = _mm_cvtepu8_epi16(il);
        const __m128i vhi = _mm_cvtepu8_epi16(_mm_srli_si128(il, 8));
        const __m128i wlo = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(wtp + p * 2 * C + 2 * c));
        const __m128i whi = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(wtp + p * 2 * C + 2 * c + 8));
        alo = _mm_add_epi32(alo, _mm_madd_epi16(vlo, wlo));
        ahi = _mm_add_epi32(ahi, _mm_madd_epi16(vhi, whi));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + c), alo);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + c + 4), ahi);
    }
    for (; c < C; ++c) {
      std::int32_t s = 0;
      for (std::int64_t t = 0; t < taps; ++t) {
        s += static_cast<std::int32_t>(x[toff[t] + c]) *
             wtp[(t / 2) * 2 * C + 2 * c + (t & 1)];
      }
      acc[c] = s;
    }
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
    const std::int64_t pairs = dw_pairs(taps);
    std::int64_t c = 0;
    for (; c + 8 <= C; c += 8) {
      int32x4_t alo = vdupq_n_s32(0);
      int32x4_t ahi = vdupq_n_s32(0);
      for (std::int64_t p = 0; p < pairs; ++p) {
        const std::int64_t t1 = 2 * p + 1 < taps ? 2 * p + 1 : 2 * p;
        // De-interleave the pair's weights back to per-tap channel rows.
        const int16x8x2_t wp = vld2q_s16(wtp + p * 2 * C + 2 * c);
        const int16x8_t x0 = vreinterpretq_s16_u16(
            vmovl_u8(vld1_u8(x + toff[2 * p] + c)));
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
    return;
  }
#endif
  for (std::int64_t c = 0; c < C; ++c) {
    std::int32_t s = 0;
    for (std::int64_t t = 0; t < taps; ++t) {
      s += static_cast<std::int32_t>(x[toff[t] + c]) *
           wtp[(t / 2) * 2 * C + 2 * c + (t & 1)];
    }
    acc[c] = s;
  }
}

// ---------------------------------------------------------------------------
// Elementwise u8 helpers (depthwise border taps, pool).
// ---------------------------------------------------------------------------

/// acc[i] += x[i] * w[i] with u8 activations and i16 weights.
inline void mac_u8s16(std::int32_t* __restrict__ acc,
                      const std::uint8_t* __restrict__ x,
                      const std::int16_t* __restrict__ w, std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i xv = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i)));
      const __m256i wv = _mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i)));
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
      a = _mm256_add_epi32(a, _mm256_mullo_epi32(xv, wv));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
    }
    for (; i < n; ++i) acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      std::uint32_t u;
      std::memcpy(&u, x + i, 4);
      const __m128i xv = _mm_cvtepu8_epi32(
          _mm_cvtsi32_si128(static_cast<int>(u)));
      const __m128i wv = _mm_cvtepi16_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i)));
      __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
      a = _mm_add_epi32(a, _mm_mullo_epi32(xv, wv));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), a);
    }
    for (; i < n; ++i) acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
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
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
  }
}

/// acc[i] += x[i] for u8 x (global-average-pool row accumulate).
inline void add_u8_i32(std::int32_t* __restrict__ acc,
                       const std::uint8_t* __restrict__ x, std::int64_t n) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
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
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      std::uint32_t u;
      std::memcpy(&u, x + i, 4);
      const __m128i xv = _mm_cvtepu8_epi32(
          _mm_cvtsi32_si128(static_cast<int>(u)));
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i),
                       _mm_add_epi32(a, xv));
    }
    for (; i < n; ++i) acc[i] += x[i];
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
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
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) acc[i] += x[i];
}

/// out[c] = requantized u8 code of raw accumulator acc[c], c in [0, n),
/// with per-channel pre-add `add` (usually rq.add; depthwise border pixels
/// pass their border-config pre-add bq - Zx*svalid instead). Every code is
/// in [0, hi] with hi <= 255, so the narrowing store never truncates.
///
/// The AVX2 body reproduces the arithmetic right shift exactly with
/// unsigned ops: |v*m0| < 2^62, so (v*m0 + 2^62) is non-negative and
/// (v*m0 + 2^62) >>logical s  ==  (v*m0 >>arith s) + (2^62 >> s)
/// because 2^62 is divisible by 2^s for every s <= 62.
/// `c0` offsets the TABLE columns (m0/shift/bias_sub) only: N-blocked GEMMs
/// requantize channel chunk [c0, c0+n) with acc/add/out already pointing at
/// the chunk.
inline void requant_icn_u8(const RequantTable& rq,
                           const std::int32_t* __restrict__ acc,
                           const std::int32_t* __restrict__ add,
                           std::uint8_t* __restrict__ out, std::int64_t n,
                           std::int64_t c0 = 0) {
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256i bias = _mm256_set1_epi64x(std::int64_t{1} << 62);
    const __m256i zyv = _mm256_set1_epi64x(rq.zy);
    const __m256i hiv = _mm256_set1_epi64x(rq.hi);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    std::int64_t c = 0;
    for (; c + 4 <= n; c += 4) {
      const __m128i a32 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + c));
      const __m128i ad32 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(add + c));
      const __m256i v = _mm256_cvtepi32_epi64(_mm_add_epi32(a32, ad32));
      const __m256i m0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.m0.data() + c0 + c));
      const __m256i sh = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.shift.data() + c0 + c));
      const __m256i bs = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rq.bias_sub.data() + c0 + c));
      const __m256i prod = _mm256_mul_epi32(v, m0);
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
    for (; c < n; ++c) {
      out[c] = static_cast<std::uint8_t>(requant_icn_one(
          static_cast<std::int64_t>(acc[c]) + add[c],
          rq.m0[static_cast<std::size_t>(c0 + c)],
          rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
    }
    return;
  }
#elif defined(MIXQ_SIMD_SSE4)
  if (enabled()) {
    // Partial vectorization: v = acc + add runs 4-wide; the per-channel
    // variable 64-bit shift has no SSE4.1 form, so the multiply/shift/
    // clamp chain stays scalar (still bit-exact by construction).
    std::int64_t c = 0;
    for (; c + 4 <= n; c += 4) {
      alignas(16) std::int32_t v[4];
      _mm_store_si128(
          reinterpret_cast<__m128i*>(v),
          _mm_add_epi32(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + c)),
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(add + c))));
      for (int j = 0; j < 4; ++j) {
        out[c + j] = static_cast<std::uint8_t>(requant_icn_one(
            v[j], rq.m0[static_cast<std::size_t>(c0 + c + j)],
            rq.shift[static_cast<std::size_t>(c0 + c + j)], rq.zy, rq.hi));
      }
    }
    for (; c < n; ++c) {
      out[c] = static_cast<std::uint8_t>(requant_icn_one(
          static_cast<std::int64_t>(acc[c]) + add[c],
          rq.m0[static_cast<std::size_t>(c0 + c)],
          rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
    }
    return;
  }
#elif defined(MIXQ_SIMD_NEON)
  {
    // Two channels per iteration: vshlq_s64 with a negative count is an
    // exact arithmetic right shift (floor), so no bias trick is needed.
    const int64x2_t zyv = vdupq_n_s64(rq.zy);
    const int64x2_t hiv = vdupq_n_s64(rq.hi);
    const int64x2_t zero = vdupq_n_s64(0);
    std::int64_t c = 0;
    for (; c + 2 <= n; c += 2) {
      const int32x2_t v32 =
          vadd_s32(vld1_s32(acc + c), vld1_s32(add + c));
      const int32x2_t m032 = vmovn_s64(vld1q_s64(rq.m0.data() + c0 + c));
      const int64x2_t prod = vmull_s32(v32, m032);
      const int64x2_t sh = vnegq_s64(vld1q_s64(rq.shift.data() + c0 + c));
      int64x2_t y = vaddq_s64(vshlq_s64(prod, sh), zyv);
      y = vbslq_s64(vcltq_s64(y, zero), zero, y);
      y = vbslq_s64(vcgtq_s64(y, hiv), hiv, y);
      out[c] = static_cast<std::uint8_t>(vgetq_lane_s64(y, 0));
      out[c + 1] = static_cast<std::uint8_t>(vgetq_lane_s64(y, 1));
    }
    for (; c < n; ++c) {
      out[c] = static_cast<std::uint8_t>(requant_icn_one(
          static_cast<std::int64_t>(acc[c]) + add[c],
          rq.m0[static_cast<std::size_t>(c0 + c)],
          rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
    }
    return;
  }
#endif
  for (std::int64_t c = 0; c < n; ++c) {
    out[c] = static_cast<std::uint8_t>(requant_icn_one(
        static_cast<std::int64_t>(acc[c]) + add[c],
        rq.m0[static_cast<std::size_t>(c0 + c)],
        rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
  }
}

// ---------------------------------------------------------------------------
// Input quantization: code = clamp(lround(x / scale + zero), 0, hi).
//
// Bit-exact with core::quantize_value(kNearest) by construction: vdivps is
// the same correctly-rounded IEEE single division as the scalar `/`, and
// lround's round-half-away-from-zero differs from the hardware cvtps
// (round-half-to-even) only on exact .5 ties, which the vector path detects
// (x - rne(x) == +0.5 exactly) and bumps up by one. Negative ties round the
// other way under lround, but every candidate code there is <= 0 and the
// [0, hi] clamp collapses both answers to 0, so no fix-up is needed.
// Every quantizer clamps the scaled value into [-1, hi] in float first: that
// changes no in-range code (monotone + idempotent under the integer clamp),
// saturates any magnitude, infinities included, and keeps the int32
// conversion in range. NaN codes as 0 (vmaxps returns its second operand,
// -1, for a NaN).
// ---------------------------------------------------------------------------

/// Scalar reference for one value (identical to core::quantize_value with
/// RoundMode::kNearest; restated here so the header stays self-contained).
inline std::int32_t quantize_f32_one(float x, float scale, std::int32_t zero,
                                     std::int32_t hi) {
  const float scaled = x / scale + static_cast<float>(zero);
  if (std::isnan(scaled)) return 0;
  const float s = std::clamp(scaled, -1.0f, static_cast<float>(hi));
  return std::clamp(static_cast<std::int32_t>(std::lround(s)), 0, hi);
}

#if defined(MIXQ_SIMD_AVX2)
namespace detail {
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
}  // namespace detail
#endif

/// dst[i] = quantized code of x[i], packed to u8 (hi <= 255).
inline void quantize_f32_u8(const float* __restrict__ x, std::int64_t n,
                            float scale, std::int32_t zero, std::int32_t hi,
                            std::uint8_t* __restrict__ dst) {
  std::int64_t i = 0;
#if defined(MIXQ_SIMD_AVX2)
  if (enabled()) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vzero = _mm256_set1_ps(static_cast<float>(zero));
    const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
    const __m256 vlo = _mm256_set1_ps(-1.0f);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    for (; i + 8 <= n; i += 8) {
      const __m256i r = detail::quantize8_ps(_mm256_loadu_ps(x + i), vscale,
                                             vzero, vhi, vlo, vhalf);
      const __m128i lo = _mm256_castsi256_si128(r);
      const __m128i hi128 = _mm256_extracti128_si256(r, 1);
      const __m128i w = _mm_packs_epi32(lo, hi128);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packus_epi16(w, w));
    }
  }
#endif
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(quantize_f32_one(x[i], scale, zero, hi));
  }
}

}  // namespace mixq::runtime::simd
