// mixq/runtime/simd.hpp
//
// Kernel layer of the planned execution engine's hot loops: the layout
// helpers, the scalar body of every kernel (namespace simd::scalar, the
// reference each vector body must equal), and one dispatcher per kernel.
//
// On x86-64 every build carries the AVX2 bodies in their own translation
// unit (simd_avx2.cpp, the only TU compiled with -mavx2) and enters them
// only after one cached CPUID check, `enabled()`; so one binary runs the
// AVX2 bodies where the host has AVX2 and the scalar ones elsewhere (the
// AVX-512 VNNI tier in simd_vnni.hpp is chosen the same way, per plan).
// On AArch64 the NEON bodies (simd_neon.hpp) are part of the baseline
// target and always run.
//
// Bit-exactness contract: each kernel computes exactly the same integers as
// its scalar body. All integer kernels here are only used on values where
// 32-bit accumulation provably cannot overflow (plan.cpp selects them via
// phi_bound < 2^30), so re-associating the sums across SIMD lanes cannot
// change the result; the requantization kernel reproduces
// floor((v * m0) >> shift) exactly (see requant_icn_u8). Enforced by
// tests/runtime/simd_test.cpp, which runs every dispatcher and every scalar
// body against plain loops, and transitively by every randomized exactness
// suite over the planned engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__ARM_NEON) && defined(__aarch64__)
#include "runtime/simd_neon.hpp"
namespace mixq::runtime::simd { namespace vec = neon; }
#else
#include "runtime/simd_avx2.hpp"
namespace mixq::runtime::simd { namespace vec = avx2; }
#endif

namespace mixq::runtime::simd {

/// Vector ISA this binary carries kernel bodies for: "avx2" when the AVX2
/// translation unit was built with -mavx2, "neon" on AArch64, "scalar"
/// otherwise.
const char* compiled_isa();

/// Whether the CPU executing this binary supports the compiled ISA (the
/// CPUID check on x86-64; NEON is baseline on AArch64).
bool cpu_supports_compiled_isa();

/// Cached runtime switch every dispatcher branches on; the branch is
/// perfectly predicted and costs nothing against the vector loop bodies.
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
// Every kernel here is bit-exact against its scalar body: i32 accumulation
// is only used where the plan proved phi_bound < 2^30 (so re-association
// across lanes is exact), and the i16 stages are covered by the bounds
// above. Enforced by tests/runtime/simd_test.cpp, including adversarial
// data sitting exactly on the pair bound.
// ===========================================================================

inline std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

// ---------------------------------------------------------------------------
// Layout helpers.
// ---------------------------------------------------------------------------

/// Output channels interleaved per s8 panel block: 8 (one ymm of i32
/// lanes) on x86-64 whatever the host runs, 4 on AArch64. A compile-time
/// constant, so the pack layout and the kernels always agree.
constexpr std::int64_t gemm_u8s8_ocb() { return vec::kPanelOcb; }

/// K padded to the 4-byte group size of the panel.
inline std::int64_t gemm_u8s8_kp(std::int64_t K) { return round_up(K, 4); }

/// Panel capacity in bytes for a co x K weight matrix.
inline std::int64_t gemm_u8s8_panel_elems(std::int64_t co, std::int64_t K) {
  return round_up(co, gemm_u8s8_ocb()) * gemm_u8s8_kp(K);
}

/// Byte index of weight (oc, k) inside the packed panel -- the layout
/// contract shared by pack, the scalar bodies, and the tests:
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

/// Number of depthwise tap pairs (odd tap counts pad with a zero-weight
/// partner).
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

/// Scalar reference for one input value (identical to core::quantize_value
/// with RoundMode::kNearest; restated here so the header stays
/// self-contained): code = clamp(lround(x / scale + zero), 0, hi), with the
/// scaled value first clamped to [-1, hi] in float, which changes no
/// in-range code, saturates every magnitude (infinities included) and keeps
/// the int32 conversion in range. NaN codes as 0.
inline std::int32_t quantize_f32_one(float x, float scale, std::int32_t zero,
                                     std::int32_t hi) {
  const float scaled = x / scale + static_cast<float>(zero);
  if (std::isnan(scaled)) return 0;
  const float s = std::clamp(scaled, -1.0f, static_cast<float>(hi));
  return std::clamp(static_cast<std::int32_t>(std::lround(s)), 0, hi);
}

// ---------------------------------------------------------------------------
// Scalar bodies: what every host without the compiled vector ISA runs, and
// the reference the vector bodies are tested against. Same signatures and
// contracts as the dispatchers below.
// ---------------------------------------------------------------------------

namespace scalar {

inline void gemm_u8s8_x1(const std::uint8_t* __restrict__ a,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc,
                         bool accumulate = false) {
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

inline void gemm_u8s8_x2(const std::uint8_t* __restrict__ a0,
                         const std::uint8_t* __restrict__ a1,
                         const std::int8_t* __restrict__ block,
                         std::int64_t kp, std::int32_t* __restrict__ acc0,
                         std::int32_t* __restrict__ acc1,
                         bool accumulate = false) {
  gemm_u8s8_x1(a0, block, kp, acc0, accumulate);
  gemm_u8s8_x1(a1, block, kp, acc1, accumulate);
}

inline void dot1x4_u8s16(const std::uint8_t* __restrict__ a,
                         const std::int16_t* __restrict__ w0,
                         const std::int16_t* __restrict__ w1,
                         const std::int16_t* __restrict__ w2,
                         const std::int16_t* __restrict__ w3, std::int64_t n,
                         std::int32_t* __restrict__ out) {
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

inline void dot2x4_u8s16(const std::uint8_t* __restrict__ a0,
                         const std::uint8_t* __restrict__ a1,
                         const std::int16_t* __restrict__ w0,
                         const std::int16_t* __restrict__ w1,
                         const std::int16_t* __restrict__ w2,
                         const std::int16_t* __restrict__ w3, std::int64_t n,
                         std::int32_t* __restrict__ out0,
                         std::int32_t* __restrict__ out1) {
  dot1x4_u8s16(a0, w0, w1, w2, w3, n, out0);
  dot1x4_u8s16(a1, w0, w1, w2, w3, n, out1);
}

inline std::int32_t dot_u8s16(const std::uint8_t* __restrict__ a,
                              const std::int16_t* __restrict__ w,
                              std::int64_t n) {
  std::int32_t s = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    s += static_cast<std::int32_t>(a[k]) * w[k];
  }
  return s;
}

inline void dw_dot_u8s16p(const std::uint8_t* __restrict__ x,
                          const std::int64_t* __restrict__ toff,
                          const std::int16_t* __restrict__ wtp,
                          std::int64_t taps, std::int64_t C,
                          std::int32_t* __restrict__ acc) {
  for (std::int64_t c = 0; c < C; ++c) {
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
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] += static_cast<std::int32_t>(x[i]) * w[i];
  }
}

inline void add_u8_i32(std::int32_t* __restrict__ acc,
                       const std::uint8_t* __restrict__ x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += x[i];
}

inline void requant_icn_u8(const RequantTable& rq,
                           const std::int32_t* __restrict__ acc,
                           const std::int32_t* __restrict__ add,
                           std::uint8_t* __restrict__ out, std::int64_t n,
                           std::int64_t c0 = 0) {
  for (std::int64_t c = 0; c < n; ++c) {
    out[c] = static_cast<std::uint8_t>(requant_icn_one(
        static_cast<std::int64_t>(acc[c]) + add[c],
        rq.m0[static_cast<std::size_t>(c0 + c)],
        rq.shift[static_cast<std::size_t>(c0 + c)], rq.zy, rq.hi));
  }
}

inline void quantize_f32_u8(const float* __restrict__ x, std::int64_t n,
                            float scale, std::int32_t zero, std::int32_t hi,
                            std::uint8_t* __restrict__ dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(quantize_f32_one(x[i], scale, zero, hi));
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatchers: the vector body when enabled(), else the scalar one.
// ---------------------------------------------------------------------------

/// u8 x s8 panel GEMM micro-kernel. One activation row against one panel
/// block: acc[j] = sum_k a[k] * W[block_oc j][k] for the block's `ocb`
/// channels (overwrites acc; `accumulate` adds into it instead -- the
/// K-blocked GEMM's partial sums). `a` must be readable for kp bytes (the
/// plan's u8 arenas carry slack).
inline void gemm_u8s8_x1(const std::uint8_t* a, const std::int8_t* block,
                         std::int64_t kp, std::int32_t* acc,
                         bool accumulate = false) {
  if (enabled()) { vec::gemm_u8s8_x1(a, block, kp, acc, accumulate); return; }
  scalar::gemm_u8s8_x1(a, block, kp, acc, accumulate);
}

/// Two-row variant: each weight group is loaded once and shared by both
/// activation rows (the panel GEMM's steady-state shape).
inline void gemm_u8s8_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                         const std::int8_t* block, std::int64_t kp,
                         std::int32_t* acc0, std::int32_t* acc1,
                         bool accumulate = false) {
  if (enabled()) {
    vec::gemm_u8s8_x2(a0, a1, block, kp, acc0, acc1, accumulate);
    return;
  }
  scalar::gemm_u8s8_x2(a0, a1, block, kp, acc0, acc1, accumulate);
}

// u8 x s16 register-blocked dot products (GEMM tier for weights that do not
// fit the s8 panel: activations widen u8 -> i16, vpmaddwd is exact).

/// out[j] += sum_k a[k] * wj[k] for four i16 weight rows.
inline void dot1x4_u8s16(const std::uint8_t* a, const std::int16_t* w0,
                         const std::int16_t* w1, const std::int16_t* w2,
                         const std::int16_t* w3, std::int64_t n,
                         std::int32_t* out) {
  if (enabled()) { vec::dot1x4_u8s16(a, w0, w1, w2, w3, n, out); return; }
  scalar::dot1x4_u8s16(a, w0, w1, w2, w3, n, out);
}

/// Two-row variant of dot1x4_u8s16: weight rows loaded once per pair of
/// activation rows.
inline void dot2x4_u8s16(const std::uint8_t* a0, const std::uint8_t* a1,
                         const std::int16_t* w0, const std::int16_t* w1,
                         const std::int16_t* w2, const std::int16_t* w3,
                         std::int64_t n, std::int32_t* out0,
                         std::int32_t* out1) {
  if (enabled()) {
    vec::dot2x4_u8s16(a0, a1, w0, w1, w2, w3, n, out0, out1);
    return;
  }
  scalar::dot2x4_u8s16(a0, a1, w0, w1, w2, w3, n, out0, out1);
}

/// sum_k a[k] * w[k] (single i16 row remainder).
inline std::int32_t dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                              std::int64_t n) {
  if (enabled()) return vec::dot_u8s16(a, w, n);
  return scalar::dot_u8s16(a, w, n);
}

/// Direct depthwise u8 kernel: acc[c] = sum_t x[toff[t] + c] * w[t][c] with
/// u8 activations and the pair-interleaved i16 weight bank from
/// dw_pack_u8s16, so vpmaddwd reduces two taps per i32 lane (overwrites
/// acc).
inline void dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                          const std::int16_t* wtp, std::int64_t taps,
                          std::int64_t C, std::int32_t* acc) {
  if (enabled()) { vec::dw_dot_u8s16p(x, toff, wtp, taps, C, acc); return; }
  scalar::dw_dot_u8s16p(x, toff, wtp, taps, C, acc);
}

/// acc[i] += x[i] * w[i] with u8 activations and i16 weights (depthwise
/// border taps).
inline void mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
                      const std::int16_t* w, std::int64_t n) {
  if (enabled()) { vec::mac_u8s16(acc, x, w, n); return; }
  scalar::mac_u8s16(acc, x, w, n);
}

/// acc[i] += x[i] for u8 x (global-average-pool row accumulate).
inline void add_u8_i32(std::int32_t* acc, const std::uint8_t* x,
                       std::int64_t n) {
  if (enabled()) { vec::add_u8_i32(acc, x, n); return; }
  scalar::add_u8_i32(acc, x, n);
}

/// out[c] = requantized u8 code of raw accumulator acc[c], c in [0, n),
/// with per-channel pre-add `add` (usually rq.add; depthwise border pixels
/// pass their border-config pre-add bq - Zx*svalid instead). Every code is
/// in [0, hi] with hi <= 255, so the narrowing store never truncates.
/// `c0` offsets the TABLE columns (m0/shift/bias_sub) only: N-blocked GEMMs
/// requantize channel chunk [c0, c0+n) with acc/add/out already pointing at
/// the chunk. The vector body covers whole vectors of channels; the scalar
/// body requantizes the rest.
inline void requant_icn_u8(const RequantTable& rq, const std::int32_t* acc,
                           const std::int32_t* add, std::uint8_t* out,
                           std::int64_t n, std::int64_t c0 = 0) {
  const std::int64_t c =
      enabled() ? vec::requant_u8(acc, add, rq.m0.data() + c0,
                                  rq.shift.data() + c0,
                                  rq.bias_sub.data() + c0, rq.zy, rq.hi, out,
                                  n)
                : 0;
  scalar::requant_icn_u8(rq, acc + c, add + c, out + c, n - c, c0 + c);
}

/// dst[i] = quantize_f32_one(x[i], ...), packed to u8 (hi <= 255). The
/// vector body covers whole vectors of inputs; the scalar body codes the
/// rest.
inline void quantize_f32_u8(const float* x, std::int64_t n, float scale,
                            std::int32_t zero, std::int32_t hi,
                            std::uint8_t* dst) {
  const std::int64_t i =
      enabled() ? vec::quantize_u8(x, n, scale, zero, hi, dst) : 0;
  scalar::quantize_f32_u8(x + i, n - i, scale, zero, hi, dst + i);
}

}  // namespace mixq::runtime::simd
