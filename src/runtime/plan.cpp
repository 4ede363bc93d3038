#include "runtime/plan.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/quantizer.hpp"
#include "core/thresholds.hpp"
#include "runtime/parallel.hpp"
#include "runtime/simd_vnni.hpp"

namespace mixq::runtime {

namespace {

/// Layers below this static MAC count are not worth the dispatch cost of
/// intra-layer row partitioning and run on the calling lane.
constexpr std::int64_t kIntraParMinMacs = 16384;

/// Local, inlinable replica of core::fixed_point_floor_mul -- identical
/// integer arithmetic (asserted bit-exact by the cross-check suites), but
/// visible to the optimizer inside the per-element requantize loops.
inline std::int64_t fp_floor_mul(std::int64_t v,
                                 const core::FixedPointMult& m) {
  const std::int64_t prod = v * static_cast<std::int64_t>(m.m0_q31);
  const int shift = 31 - static_cast<int>(m.n0);
  if (shift >= 0) {
    if (shift >= 63) return prod < 0 ? -1 : 0;
    return prod >> shift;
  }
  return prod << (-shift);
}

inline std::int32_t requantize(const QLayer& l, std::int64_t phi,
                               std::int64_t oc) {
  if (l.scheme == Scheme::kPCThresholds) {
    return core::threshold_eval(phi,
                                l.thresholds[static_cast<std::size_t>(oc)]);
  }
  const IcnChannel& ch = l.icn[static_cast<std::size_t>(oc)];
  const std::int64_t v = fp_floor_mul(phi + ch.bq, ch.m);
  const std::int64_t y = static_cast<std::int64_t>(l.zy) + v;
  const std::int64_t hi = core::qmax(l.qy);
  return static_cast<std::int32_t>(y < 0 ? 0 : (y > hi ? hi : y));
}

/// Output coordinates [lo, hi) whose full kernel extent is in bounds:
/// o*stride - pad >= 0 and o*stride - pad + k - 1 <= in - 1.
void interior_bounds(std::int64_t in, std::int64_t k, std::int64_t stride,
                     std::int64_t pad, std::int64_t out, std::int64_t& lo,
                     std::int64_t& hi) {
  lo = (pad + stride - 1) / stride;
  const std::int64_t num = in - k + pad;
  hi = num < 0 ? 0 : num / stride + 1;
  hi = std::min(hi, out);
  lo = std::min(lo, hi);
}

/// Tap-major transpose of a depthwise bank (C rows of `taps` weights):
/// one contiguous channel row per tap, as the vectorized kernels read it.
template <typename T>
std::vector<T> tap_major(const std::int32_t* w, std::int64_t taps,
                         std::int64_t C) {
  std::vector<T> t(static_cast<std::size_t>(taps * C));
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t k = 0; k < taps; ++k) {
      t[static_cast<std::size_t>(k * C + c)] = static_cast<T>(w[c * taps + k]);
    }
  }
  return t;
}

/// Requantize the channel chunk [c0, c0 + len) of one output row of raw
/// int32 accumulators (sum X*(W-Zw)) into u8 codes, through the epilogue
/// the plan chose for the layer: the vectorized table when provably exact
/// (the VNNI requantizer on VNNI-tier layers, whose vpsravq needs no bias
/// trick), the scalar requantize() otherwise (threshold scheme, or a table
/// refused by its exactness check). `acc`/`o` point AT the chunk; c0
/// offsets the per-channel tables. Bit-exact on every path; the u8 store
/// never truncates (codes are in [0, qmax(qy)] <= 255).
inline void requant_chunk(const PlannedLayer& pl, const std::int32_t* acc,
                          std::uint8_t* o, std::int64_t c0,
                          std::int64_t len) {
  if (pl.rq.usable) {
    if (pl.tier == KernelTier::kVnni) {
      simd::vnni_requant_u8(acc, pl.rq.add.data() + c0, pl.rq.m0.data() + c0,
                            pl.rq.shift.data() + c0, pl.rq.zy, pl.rq.hi, o,
                            len);
      return;
    }
    simd::requant_icn_u8(pl.rq, acc, pl.rq.add.data() + c0, o, len, c0);
    return;
  }
  const QLayer& l = *pl.layer;
  const std::int64_t zx = l.zx;
  for (std::int64_t j = 0; j < len; ++j) {
    const std::int64_t oc = c0 + j;
    o[j] = static_cast<std::uint8_t>(requantize(
        l, static_cast<std::int64_t>(acc[j]) - zx * pl.wsum[oc], oc));
  }
}

/// Whole-row requantize (the unblocked common case).
inline void requant_row(const PlannedLayer& pl, const std::int32_t* acc,
                        std::uint8_t* o, std::int64_t co) {
  requant_chunk(pl, acc, o, 0, co);
}

/// Border-config requantize (depthwise, vector table only): the window's
/// pre-add in place of rq.add.
inline void requant_border(const PlannedLayer& pl, const std::int32_t* acc,
                           const std::int32_t* addv, std::uint8_t* o,
                           std::int64_t co) {
  if (pl.tier == KernelTier::kVnni) {
    simd::vnni_requant_u8(acc, addv, pl.rq.m0.data(), pl.rq.shift.data(),
                          pl.rq.zy, pl.rq.hi, o, co);
    return;
  }
  simd::requant_icn_u8(pl.rq, acc, addv, o, co);
}

// ---------------------------------------------------------------------------
// Int64 loops: layers that fail acc32 (fan-in too large for provably safe
// int32 sums). Scalar, u8 codes in and out, INT32 offset weights.
// ---------------------------------------------------------------------------

/// sum_k x[k] * w[k] in int64.
inline std::int64_t dot_i64(const std::uint8_t* __restrict__ x,
                            const std::int32_t* __restrict__ w,
                            std::int64_t n) {
  std::int64_t acc = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    acc += static_cast<std::int64_t>(x[k]) * w[k];
  }
  return acc;
}

/// Rows [m0, m1) of K codes each against the layer's INT32 bank (a linear
/// layer is one row), requantized inline.
void gemm_rows_i64(const PlannedLayer& pl, const std::uint8_t* A,
                   std::int64_t m0, std::int64_t m1, std::int64_t K,
                   std::uint8_t* out) {
  const QLayer& l = *pl.layer;
  const std::int64_t co = l.wshape.co;
  const std::int64_t zx = l.zx;
  for (std::int64_t m = m0; m < m1; ++m) {
    for (std::int64_t oc = 0; oc < co; ++oc) {
      const std::int64_t acc = dot_i64(A + m * K, pl.w.data() + oc * K, K);
      out[m * co + oc] = static_cast<std::uint8_t>(
          requantize(l, acc - zx * pl.wsum[oc], oc));
    }
  }
}

/// KxK convolution over output rows [r0, r1): each tap row is a contiguous
/// kw*ci dot; border pixels dot their clamped rectangle and fold Zx in
/// through the valid taps' weight sums.
void conv_rows_i64(const PlannedLayer& pl, const std::uint8_t* x,
                   std::uint8_t* y, std::int64_t r0, std::int64_t r1) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t co = os.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t per = l.wshape.per_channel();
  const std::int64_t zx = l.zx;
  const std::int32_t* W = pl.w.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const std::int64_t ih0 = oh * stride - pad;
    const std::int64_t ky0 = ih0 < 0 ? -ih0 : 0;
    const std::int64_t ky1 = std::min(kh, is.h - ih0);
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      std::uint8_t* o = y + (oh * os.w + ow) * co;
      const std::int64_t iw0 = ow * stride - pad;
      const std::int64_t kx0 = iw0 < 0 ? -iw0 : 0;
      const std::int64_t kx1 = std::min(kw, is.w - iw0);
      const std::int64_t seg = (kx1 - kx0) * C;
      for (std::int64_t oc = 0; oc < co; ++oc) {
        const std::int32_t* wch = W + oc * per;
        const std::int64_t* ts = pl.tap_sum.data() + oc * kh * kw;
        std::int64_t acc = 0;
        std::int64_t svalid = 0;
        for (std::int64_t ky = ky0; ky < ky1; ++ky) {
          acc += dot_i64(x + (ih0 + ky) * row + (iw0 + kx0) * C,
                         wch + (ky * kw + kx0) * C, seg);
          for (std::int64_t kx = kx0; kx < kx1; ++kx) {
            svalid += ts[ky * kw + kx];
          }
        }
        o[oc] =
            static_cast<std::uint8_t>(requantize(l, acc - zx * svalid, oc));
      }
    }
  }
}

/// Clamped tap window of the depthwise output pixel whose kernel origin
/// is (ih0, iw0); the plan builder and every kernel derive it here.
inline TapWindow tap_window(const QLayer& l, std::int64_t ih0,
                            std::int64_t iw0) {
  return {ih0 < 0 ? -ih0 : 0,
          std::min<std::int64_t>(l.spec.kh, l.in_shape.h - ih0),
          iw0 < 0 ? -iw0 : 0,
          std::min<std::int64_t>(l.spec.kw, l.in_shape.w - iw0)};
}

inline const std::int32_t* border_add_for(const PlannedLayer& pl,
                                          const TapWindow& win) {
  for (std::size_t i = 0; i < pl.border_key.size(); ++i) {
    if (pl.border_key[i] == win) return pl.border_add[i].data();
  }
  return nullptr;
}

/// Depthwise border pixel: per-channel scalar taps over the clamped
/// rectangle of the tap-major bank `wt` (taps x C: the s16 bank of a
/// tiered layer, the INT32 one of an int64 layer) with the scalar
/// requantize(). AccT is the proven accumulator width.
template <typename AccT, typename WT>
void depthwise_border_pixel(const PlannedLayer& pl, const std::uint8_t* x,
                            const WT* wt, std::uint8_t* o, std::int64_t ih0,
                            std::int64_t iw0) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const std::int64_t C = is.c;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t row = is.w * C;
  const std::int64_t per = l.spec.kh * kw;
  const std::int64_t zx = l.zx;
  const TapWindow win = tap_window(l, ih0, iw0);
  for (std::int64_t c = 0; c < C; ++c) {
    const std::int64_t* ts = pl.tap_sum.data() + c * per;
    AccT acc = 0;
    std::int64_t svalid = 0;
    for (std::int64_t ky = win.ky0; ky < win.ky1; ++ky) {
      const std::uint8_t* xr = x + (ih0 + ky) * row + c;
      for (std::int64_t kx = win.kx0; kx < win.kx1; ++kx) {
        acc += static_cast<AccT>(xr[(iw0 + kx) * C]) *
               wt[(ky * kw + kx) * C + c];
        svalid += ts[ky * kw + kx];
      }
    }
    o[c] = static_cast<std::uint8_t>(requantize(
        l, static_cast<std::int64_t>(acc) - zx * svalid, c));
  }
}

/// Depthwise over output rows [r0, r1) in int64: every pixel takes the
/// clamped-window loop (an interior window is the whole kernel).
void depthwise_rows_i64(const PlannedLayer& pl, const std::uint8_t* x,
                        std::uint8_t* y, std::int64_t r0, std::int64_t r1) {
  const QLayer& l = *pl.layer;
  const std::int64_t ow_n = l.out_shape.w;
  const std::int64_t C = l.in_shape.c;
  for (std::int64_t oh = r0; oh < r1; ++oh) {
    for (std::int64_t ow = 0; ow < ow_n; ++ow) {
      depthwise_border_pixel<std::int64_t>(
          pl, x, pl.wt.data(), y + (oh * ow_n + ow) * C,
          oh * l.spec.stride - l.spec.pad, ow * l.spec.stride - l.spec.pad);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-tier layer kernels.
// ---------------------------------------------------------------------------

/// u8 im2col for output pixels [m0, m1) of a tiered conv's GEMM, written
/// to a row tile at `col` (pixel m lands at (m - m0) * kp): each output
/// pixel becomes one row of kp bytes (the layer's padded K). Out-of-bounds
/// taps are filled with the input zero-point Zx -- algebraically identical
/// to the valid-tap rectangle sum because the requant pre-add folds the
/// FULL kernel weight sum: sum_pad Zx*w = Zx*(wsum - svalid). Each lane
/// gathers into its own tile, so intra-layer partitioning never shares a
/// destination.
void im2col8_rows(const PlannedLayer& pl, const std::uint8_t* x,
                  std::uint8_t* col, std::int64_t m0, std::int64_t m1) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t ow_n = l.out_shape.w;
  const std::int64_t K = l.wshape.per_channel();
  const std::int64_t kp = pl.kp;
  const std::uint8_t zx = static_cast<std::uint8_t>(l.zx);

  // Row width of one kernel tap row in the tile. Small-C stems (e.g. a
  // 3-channel 3x3 first layer) copy only a handful of bytes per tap row;
  // copy_row shortcuts those with two overlapping word copies (exact
  // coverage for 5..16 bytes, no over-read/over-write) instead of paying
  // the libc memcpy dispatch per call.
  const auto copy_row = [](std::uint8_t* dst, const std::uint8_t* src,
                           std::int64_t len) {
    if (len >= 8 && len <= 16) {
      std::uint64_t a, b;
      std::memcpy(&a, src, 8);
      std::memcpy(&b, src + len - 8, 8);
      std::memcpy(dst, &a, 8);
      std::memcpy(dst + len - 8, &b, 8);
    } else if (len >= 4 && len < 8) {
      std::uint32_t a, b;
      std::memcpy(&a, src, 4);
      std::memcpy(&b, src + len - 4, 4);
      std::memcpy(dst, &a, 4);
      std::memcpy(dst + len - 4, &b, 4);
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(len));
    }
  };

  // Output coordinates advance incrementally: a div/mod per pixel is a real
  // 64-bit division (runtime divisor) and dominated the gather for small-K
  // stems.
  std::int64_t oh = m0 / ow_n;
  std::int64_t ow = m0 % ow_n;
  for (std::int64_t m = m0; m < m1; ++m) {
    const std::int64_t ih0 = oh * stride - pad;
    const std::int64_t iw0 = ow * stride - pad;
    if (++ow == ow_n) {
      ow = 0;
      ++oh;
    }
    std::uint8_t* d = col + (m - m0) * kp;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const std::int64_t iy = ih0 + ky;
      if (iy < 0 || iy >= is.h) {
        std::memset(d, zx, static_cast<std::size_t>(kw * C));
        d += kw * C;
        continue;
      }
      // Clamp the kx range once; the valid middle is one contiguous copy.
      const std::int64_t kx0 = std::min(kw, iw0 < 0 ? -iw0 : 0);
      const std::int64_t kx1 = std::min(kw, is.w - iw0);
      if (kx0 > 0) std::memset(d, zx, static_cast<std::size_t>(kx0 * C));
      if (kx1 > kx0) {
        copy_row(d + kx0 * C, x + iy * row + (iw0 + kx0) * C,
                 (kx1 - kx0) * C);
      }
      if (kx1 < kw) {
        std::memset(d + (kx1 > kx0 ? kx1 : kx0) * C, zx,
                    static_cast<std::size_t>((kw - std::max(kx0, kx1)) * C));
      }
      d += kw * C;
    }
    if (kp > K) std::memset(d, 0, static_cast<std::size_t>(kp - K));
  }
}

/// gemm8_rows epilogue of a requantizing layer: output rows co apart.
auto requant_to(const PlannedLayer& pl, std::uint8_t* out) {
  const std::int64_t co = pl.layer->wshape.co;
  return [&pl, out, co](const std::int32_t* acc, std::int64_t m,
                        std::int64_t c0, std::int64_t len) {
    requant_chunk(pl, acc, out + m * co + c0, c0, len);
  };
}

/// Tiered GEMM over rows [m0, m1), dispatched on the layer's plan-time
/// kernel tier: the VNNI rows kernel (vpdpbusd, no pair bound; zero-point
/// split layers get (128 - Zw[oc]) * rowsum added in registers), the
/// AVX2-era s8 panel (i16-pair bound proven), or the u8 x s16 widening
/// kernels. All tiers honour the autotuned K/N cache blocking
/// (pl.tile.kb / pl.tile.nb; 0 = unblocked): K-blocks accumulate exact i32
/// partial sums, so blocking is bit-exact with the single-pass GEMM.
/// `epilogue(acc, m, c0, len)` takes the exact sums
/// sum_k a[k] * (w[k] - Zw) of channels [c0, c0 + len) of row m, `acc`
/// pointing at channel c0 (requant_to, or the head's float logits): the
/// VNNI kernel hands over whole rows, groups of up to kVnniRows at a time;
/// the other tiers hand over each N-block as soon as it completes.
/// `A` rows are `lda` bytes apart and must be readable for kp bytes each
/// (arena slack / col8 padding guarantee it; padded weights are zero, so
/// the extra products vanish exactly).
template <typename Epilogue>
void gemm8_rows(const PlannedLayer& pl, const std::uint8_t* A,
                std::int64_t lda, std::int64_t m0, std::int64_t m1,
                std::int32_t* row_acc, const Epilogue& epilogue) {
  const std::int64_t co = pl.layer->wshape.co;
  const std::int64_t kp = pl.kp;
  const std::int64_t co_pad = pl.co_pad;

  if (pl.tier == KernelTier::kVnni) {
    const std::int32_t* split =
        pl.zp_split.empty() ? nullptr : pl.zp_split.data();
    for (std::int64_t m = m0; m < m1; m += simd::kVnniRows) {
      const std::int64_t rows = std::min(simd::kVnniRows, m1 - m);
      simd::vnni_gemm_rows(A + m * lda, lda, rows, pl.w8.data(),
                           pl.layer->wshape.per_channel(), co_pad, pl.tile.kb,
                           pl.tile.nb, split, row_acc);
      for (std::int64_t r = 0; r < rows; ++r) {
        epilogue(row_acc + r * co_pad, m + r, 0, co);
      }
    }
    return;
  }

  const std::int64_t kb = pl.tile.kb > 0 ? pl.tile.kb : kp;
  const std::int64_t nb = pl.tile.nb > 0 ? pl.tile.nb : co_pad;
  if (pl.tier == KernelTier::kS8Panel) {
    const std::int64_t ocb = simd::gemm_u8s8_ocb();
    const std::int8_t* panel = pl.w8.data();
    std::int64_t m = m0;
    for (; m + 2 <= m1; m += 2) {
      const std::uint8_t* a0 = A + m * lda;
      const std::uint8_t* a1 = a0 + lda;
      for (std::int64_t c0 = 0; c0 < co_pad; c0 += nb) {
        const std::int64_t c1 = std::min(co_pad, c0 + nb);
        for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
          const std::int64_t klen = std::min(kp, k0 + kb) - k0;
          const bool accum = k0 > 0;
          for (std::int64_t cb = c0; cb < c1; cb += ocb) {
            const std::int8_t* blk = panel + cb * kp + (k0 / 4) * ocb * 4;
            simd::gemm_u8s8_x2(a0 + k0, a1 + k0, blk, klen, row_acc + cb,
                               row_acc + co_pad + cb, accum);
          }
        }
        const std::int64_t len = std::min(c1, co) - c0;
        if (len > 0) {
          epilogue(row_acc + c0, m, c0, len);
          epilogue(row_acc + co_pad + c0, m + 1, c0, len);
        }
      }
    }
    for (; m < m1; ++m) {
      const std::uint8_t* a = A + m * lda;
      for (std::int64_t c0 = 0; c0 < co_pad; c0 += nb) {
        const std::int64_t c1 = std::min(co_pad, c0 + nb);
        for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
          const std::int64_t klen = std::min(kp, k0 + kb) - k0;
          const bool accum = k0 > 0;
          for (std::int64_t cb = c0; cb < c1; cb += ocb) {
            const std::int8_t* blk = panel + cb * kp + (k0 / 4) * ocb * 4;
            simd::gemm_u8s8_x1(a + k0, blk, klen, row_acc + cb, accum);
          }
        }
        const std::int64_t len = std::min(c1, co) - c0;
        if (len > 0) epilogue(row_acc + c0, m, c0, len);
      }
    }
    return;
  }

  const std::int16_t* W = pl.w16.data();
  std::int64_t m = m0;
  for (; m + 2 <= m1; m += 2) {
    const std::uint8_t* a0 = A + m * lda;
    const std::uint8_t* a1 = a0 + lda;
    for (std::int64_t c0 = 0; c0 < co; c0 += nb) {
      const std::int64_t c1 = std::min(co, c0 + nb);
      std::fill(row_acc + c0, row_acc + c1, 0);
      std::fill(row_acc + co_pad + c0, row_acc + co_pad + c1, 0);
      for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
        const std::int64_t klen = std::min(kp, k0 + kb) - k0;
        std::int64_t oc = c0;
        for (; oc + 4 <= c1; oc += 4) {
          const std::int16_t* wr = W + oc * kp + k0;
          simd::dot2x4_u8s16(a0 + k0, a1 + k0, wr, wr + kp, wr + 2 * kp,
                             wr + 3 * kp, klen, row_acc + oc,
                             row_acc + co_pad + oc);
        }
        for (; oc < c1; ++oc) {
          const std::int16_t* wr = W + oc * kp + k0;
          row_acc[oc] += simd::dot_u8s16(a0 + k0, wr, klen);
          row_acc[co_pad + oc] += simd::dot_u8s16(a1 + k0, wr, klen);
        }
      }
      epilogue(row_acc + c0, m, c0, c1 - c0);
      epilogue(row_acc + co_pad + c0, m + 1, c0, c1 - c0);
    }
  }
  for (; m < m1; ++m) {
    const std::uint8_t* a = A + m * lda;
    for (std::int64_t c0 = 0; c0 < co; c0 += nb) {
      const std::int64_t c1 = std::min(co, c0 + nb);
      std::fill(row_acc + c0, row_acc + c1, 0);
      for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
        const std::int64_t klen = std::min(kp, k0 + kb) - k0;
        std::int64_t oc = c0;
        for (; oc + 4 <= c1; oc += 4) {
          const std::int16_t* wr = W + oc * kp + k0;
          simd::dot1x4_u8s16(a + k0, wr, wr + kp, wr + 2 * kp, wr + 3 * kp,
                             klen, row_acc + oc);
        }
        for (; oc < c1; ++oc) {
          row_acc[oc] += simd::dot_u8s16(a + k0, W + oc * kp + k0, klen);
        }
      }
      epilogue(row_acc + c0, m, c0, c1 - c0);
    }
  }
}

/// Direct depthwise u8 kernel over output rows [r0, r1): no im2col --
/// interior pixels run the pair-interleaved widening dot across channels
/// and requantize straight back to u8; with a vector table, border windows
/// MAC their valid taps elementwise and requantize with the window's
/// precomputed pre-add, and without one they take the scalar border pixel.
void depthwise8_rows(const PlannedLayer& pl, const std::uint8_t* x,
                     std::uint8_t* y, std::int64_t r0, std::int64_t r1,
                     std::int32_t* __restrict__ acc) {
  const QLayer& l = *pl.layer;
  const Shape& is = l.in_shape;
  const Shape& os = l.out_shape;
  const std::int64_t C = is.c;
  const std::int64_t kh = l.spec.kh;
  const std::int64_t kw = l.spec.kw;
  const std::int64_t stride = l.spec.stride;
  const std::int64_t pad = l.spec.pad;
  const std::int64_t row = is.w * C;
  const std::int64_t per = kh * kw;
  const std::int64_t* toff = pl.tap_off.data();

  for (std::int64_t oh = r0; oh < r1; ++oh) {
    const bool row_interior = oh >= pl.oh0 && oh < pl.oh1;
    const std::int64_t ih0 = oh * stride - pad;
    std::uint8_t* orow = y + oh * os.w * C;
    for (std::int64_t ow = 0; ow < os.w; ++ow) {
      std::uint8_t* o = orow + ow * C;
      const std::int64_t iw0 = ow * stride - pad;
      const bool vnni = pl.tier == KernelTier::kVnni;
      if (row_interior && ow >= pl.ow0 && ow < pl.ow1) {
        if (vnni) {
          simd::vnni_dw_dot_u8s16p(x + ih0 * row + iw0 * C, toff,
                                   pl.wt16p.data(), per, C, acc);
        } else {
          simd::dw_dot_u8s16p(x + ih0 * row + iw0 * C, toff,
                              pl.wt16p.data(), per, C, acc);
        }
        requant_row(pl, acc, o, C);
      } else {
        const TapWindow win = tap_window(l, ih0, iw0);
        const std::int32_t* addv = border_add_for(pl, win);
        if (addv == nullptr) {
          depthwise_border_pixel<std::int32_t>(pl, x, pl.wt16.data(), o, ih0,
                                               iw0);
          continue;
        }
        std::fill(acc, acc + C, 0);
        for (std::int64_t ky = win.ky0; ky < win.ky1; ++ky) {
          for (std::int64_t kx = win.kx0; kx < win.kx1; ++kx) {
            if (vnni) {
              simd::vnni_mac_u8s16(acc, x + (ih0 + ky) * row + (iw0 + kx) * C,
                                   pl.wt16.data() + (ky * kw + kx) * C, C);
            } else {
              simd::mac_u8s16(acc, x + (ih0 + ky) * row + (iw0 + kx) * C,
                              pl.wt16.data() + (ky * kw + kx) * C, C);
            }
          }
        }
        requant_border(pl, acc, addv, o, C);
      }
    }
  }
}

/// Global average pool over u8 codes. Raw codes, floor division: preserves
/// scale and zero-point exactly as the reference kernel does.
void gap8_plan(const PlannedLayer& pl, const std::uint8_t* x,
               std::uint8_t* y, std::int32_t* row_acc) {
  const QLayer& l = *pl.layer;
  const std::int64_t hw = l.in_shape.h * l.in_shape.w;
  const std::int64_t C = l.in_shape.c;
  if (pl.pool32) {
    std::fill(row_acc, row_acc + C, 0);
    for (std::int64_t r = 0; r < hw; ++r) {
      simd::add_u8_i32(row_acc, x + r * C, C);
    }
    for (std::int64_t c = 0; c < C; ++c) {
      y[c] = static_cast<std::uint8_t>(row_acc[c] / hw);
    }
    return;
  }
  for (std::int64_t c = 0; c < C; ++c) {
    std::int64_t sum = 0;
    for (std::int64_t r = 0; r < hw; ++r) sum += x[r * C + c];
    y[c] = static_cast<std::uint8_t>(sum / hw);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanArenas
// ---------------------------------------------------------------------------

PlanArenas::PlanArenas(const ExecutionPlan& plan, int lanes_in)
    : lanes(std::max(1, lanes_in)) {
  ping8.resize(static_cast<std::size_t>(arena_u8_padded(plan.ping8_elems())));
  pong8.resize(static_cast<std::size_t>(arena_u8_padded(plan.pong8_elems())));
  col8_per = arena_u8_padded(plan.col8_elems());
  col8.resize(static_cast<std::size_t>(col8_per * lanes));
  row_acc_per = plan.row_acc_elems();
  row_acc.resize(static_cast<std::size_t>(row_acc_per * lanes));
  logits.resize(static_cast<std::size_t>(plan.logit_elems()));
}

// ---------------------------------------------------------------------------
// ExecutionPlan
// ---------------------------------------------------------------------------

ExecutionPlan::ExecutionPlan(const QuantizedNet& net, PlanOptions opts)
    : net_(&net), opts_(opts) {
  net.validate();
  layers_.reserve(net.layers.size());

  // VNNI tier policy and the cache geometry feeding the tile auto-tuner,
  // resolved once per plan (both are host-stable).
  const bool vnni_want =
      opts.vnni == PlanOptions::Vnni::kForce ||
      (opts.vnni == PlanOptions::Vnni::kAuto && simd::vnni_enabled());
  vnni_ = vnni_want;
  const CacheInfo caches = detect_caches();

  // One zero-point-offset INT32 bank, sized for the largest layer and
  // reused by all: each layer's sums, proofs and panels are built from it,
  // and only kernels that read INT32 weights get a copy (w / wt).
  std::int64_t wbuf_elems = 0;
  for (const QLayer& l : net.layers) {
    wbuf_elems = std::max(wbuf_elems, l.weights_numel());
  }
  std::vector<std::int32_t> wbuf(static_cast<std::size_t>(wbuf_elems));

  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const QLayer& l = net.layers[i];
    PlannedLayer pl;
    pl.layer = &l;
    pl.src = static_cast<int>(i % 2);
    pl.dst = static_cast<int>((i + 1) % 2);

    switch (l.kind) {
      case QLayerKind::kConv:
        pl.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw * l.wshape.ci;
        break;
      case QLayerKind::kDepthwise:
        pl.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw;
        break;
      case QLayerKind::kLinear:
        pl.macs = l.wshape.co * l.wshape.per_channel();
        break;
      case QLayerKind::kGlobalAvgPool:
        pl.macs = 0;
        break;
    }

    if (l.kind != QLayerKind::kGlobalAvgPool) {
      // Land the whole weight bank in the INT32 scratch in one sequential
      // pass (rows are contiguous, so the bank-wide walk equals the
      // per-channel row walks), then pre-subtract the per-channel
      // zero-point. weight_codes_to_i32 bulk-unpacks raw packed banks and
      // STREAMING-DECODES entropy-coded (mmap'ed, still-compressed) banks
      // straight into the scratch -- the unpacked image never exists
      // anywhere else.
      const std::int64_t per = l.wshape.per_channel();
      const std::int64_t co = l.wshape.co;
      l.weight_codes_to_i32(wbuf.data());
      for (std::int64_t oc = 0; oc < co; ++oc) {
        const std::int32_t zw = l.zw_of(oc);
        if (zw != 0) {
          std::int32_t* wp = wbuf.data() + oc * per;
          for (std::int64_t k = 0; k < per; ++k) wp[k] -= zw;
        }
      }
      // Per-(channel, tap) sums of offset weights: the Zx correction terms.
      const bool convlike =
          l.kind == QLayerKind::kConv || l.kind == QLayerKind::kDepthwise;
      const std::int64_t taps = convlike ? l.spec.kh * l.spec.kw : 1;
      const std::int64_t tap_ci = per / taps;
      pl.tap_sum.assign(static_cast<std::size_t>(co * taps), 0);
      pl.wsum.assign(static_cast<std::size_t>(co), 0);
      for (std::int64_t oc = 0; oc < co; ++oc) {
        for (std::int64_t t = 0; t < taps; ++t) {
          std::int64_t s = 0;
          const std::int32_t* wp = wbuf.data() + oc * per + t * tap_ci;
          for (std::int64_t k = 0; k < tap_ci; ++k) s += wp[k];
          pl.tap_sum[static_cast<std::size_t>(oc * taps + t)] = s;
          pl.wsum[static_cast<std::size_t>(oc)] += s;
        }
      }
      // 32-bit accumulators are safe when every partial dot product is
      // bounded away from overflow (|sum| <= per * qmax(qx) * qmax(qw)).
      const std::int64_t bound = core::phi_bound(per, l.qx, l.qw);
      pl.acc32 = bound <= (std::int64_t{1} << 30);

      // Vectorized requantization table: usable only when the whole chain
      // (phi+bq within int32, folded pre-add within int32, shift in
      // [0, 62]) is provably exact in the vector form. The threshold
      // scheme and the raw-logits head keep the scalar path.
      if (pl.acc32 && !l.raw_logits && l.scheme != Scheme::kPCThresholds) {
        simd::RequantTable& rq = pl.rq;
        rq.zy = l.zy;
        rq.hi = static_cast<std::int32_t>(core::qmax(l.qy));
        rq.m0.reserve(static_cast<std::size_t>(co));
        rq.shift.reserve(static_cast<std::size_t>(co));
        rq.bias_sub.reserve(static_cast<std::size_t>(co));
        rq.add.reserve(static_cast<std::size_t>(co));
        bool ok = true;
        constexpr std::int64_t kI32Max = 2147483647;
        for (std::int64_t oc = 0; oc < co && ok; ++oc) {
          const IcnChannel& ch = l.icn[static_cast<std::size_t>(oc)];
          const std::int64_t shift = 31 - static_cast<std::int64_t>(ch.m.n0);
          const std::int64_t add64 =
              static_cast<std::int64_t>(ch.bq) -
              static_cast<std::int64_t>(l.zx) * pl.wsum[oc];
          ok = shift >= 0 && shift <= 62 && std::llabs(add64) <= kI32Max &&
               std::llabs(static_cast<std::int64_t>(ch.bq)) + bound <= kI32Max;
          if (!ok) break;
          rq.m0.push_back(ch.m.m0_q31);
          rq.shift.push_back(shift);
          rq.bias_sub.push_back((std::int64_t{1} << 62) >> shift);
          rq.add.push_back(static_cast<std::int32_t>(add64));
        }
        rq.usable = ok;
      }
    }

    if (l.kind == QLayerKind::kDepthwise) {
      interior_bounds(l.in_shape.h, l.spec.kh, l.spec.stride, l.spec.pad,
                      l.out_shape.h, pl.oh0, pl.oh1);
      interior_bounds(l.in_shape.w, l.spec.kw, l.spec.stride, l.spec.pad,
                      l.out_shape.w, pl.ow0, pl.ow1);
      const std::int64_t taps = l.spec.kh * l.spec.kw;
      const std::int64_t C = l.in_shape.c;
      pl.tap_off.resize(static_cast<std::size_t>(taps));
      for (std::int64_t ky = 0; ky < l.spec.kh; ++ky) {
        for (std::int64_t kx = 0; kx < l.spec.kw; ++kx) {
          pl.tap_off[static_cast<std::size_t>(ky * l.spec.kw + kx)] =
              (ky * l.in_shape.w + kx) * C;
        }
      }
      // Border requant configs: one pre-add vector (bq - Zx*svalid) per
      // distinct clamped tap window, so border pixels stay on the
      // vector path. Usability bounds: |svalid| is a tap subset of
      // wsum, so |Zx*svalid| <= phi_bound and the |bq| + phi_bound
      // check above covers every config.
      if (pl.rq.usable) {
        std::vector<std::pair<std::int64_t, std::int64_t>> kyw, kxw;
        for (std::int64_t oh = 0; oh < l.out_shape.h; ++oh) {
          const std::int64_t ih0 = oh * l.spec.stride - l.spec.pad;
          kyw.emplace_back(ih0 < 0 ? -ih0 : 0,
                           std::min(l.spec.kh, l.in_shape.h - ih0));
        }
        for (std::int64_t ow = 0; ow < l.out_shape.w; ++ow) {
          const std::int64_t iw0 = ow * l.spec.stride - l.spec.pad;
          kxw.emplace_back(iw0 < 0 ? -iw0 : 0,
                           std::min(l.spec.kw, l.in_shape.w - iw0));
        }
        std::sort(kyw.begin(), kyw.end());
        kyw.erase(std::unique(kyw.begin(), kyw.end()), kyw.end());
        std::sort(kxw.begin(), kxw.end());
        kxw.erase(std::unique(kxw.begin(), kxw.end()), kxw.end());
        for (const auto& [ky0, ky1] : kyw) {
          for (const auto& [kx0, kx1] : kxw) {
            pl.border_key.push_back({ky0, ky1, kx0, kx1});
            std::vector<std::int32_t> add(static_cast<std::size_t>(C));
            for (std::int64_t c = 0; c < C; ++c) {
              std::int64_t svalid = 0;
              for (std::int64_t ky = ky0; ky < ky1; ++ky) {
                for (std::int64_t kx = kx0; kx < kx1; ++kx) {
                  svalid += pl.tap_sum[static_cast<std::size_t>(
                      c * taps + ky * l.spec.kw + kx)];
                }
              }
              add[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
                  static_cast<std::int64_t>(
                      l.icn[static_cast<std::size_t>(c)].bq) -
                  static_cast<std::int64_t>(l.zx) * svalid);
            }
            pl.border_add.push_back(std::move(add));
          }
        }
      }
    }

    if (l.kind == QLayerKind::kGlobalAvgPool) {
      pl.pool32 = l.in_shape.h * l.in_shape.w * core::qmax(l.qx) <=
                  std::int64_t{2147483647};
    }

    // -----------------------------------------------------------------
    // Kernel tier + weight repacking (acc32 MAC layers). The epilogue
    // follows rq.usable: the vector table, or the scalar requantize().
    // -----------------------------------------------------------------
    if (l.kind != QLayerKind::kGlobalAvgPool && pl.acc32) {
      const std::int64_t per = l.wshape.per_channel();
      const std::int64_t co = l.wshape.co;
      if (l.kind == QLayerKind::kDepthwise) {
        // Offset weights always fit i16 (|w - Zw| <= 255): build the
        // tap-major s16 bank (border taps) and its pair-interleaved form
        // (the interior vpmaddwd kernel; the VNNI tier's vpdpwssd kernel
        // consumes the same bank).
        const std::int64_t taps = l.spec.kh * l.spec.kw;
        const std::int64_t C = l.in_shape.c;
        pl.wt16 = tap_major<std::int16_t>(wbuf.data(), taps, C);
        pl.wt16p.assign(
            static_cast<std::size_t>(simd::dw_pairs(taps) * 2 * C), 0);
        simd::dw_pack_u8s16(pl.wt16.data(), taps, C, pl.wt16p.data());
        pl.tier = vnni_want ? KernelTier::kVnni : KernelTier::kU8S16;
      } else {
        // Conv (any kernel size, via u8 im2col) and linear run as GEMM.
        // VNNI tier: every layer -- vpdpbusd accumulates u8 x s8 straight
        // into i32, so no i16 pair-sum bound applies (offsets outside s8
        // take the zero-point split below).
        // s8 panel tier (no VNNI): weights fit int8 AND the widening MAC's
        // i16 pair sums are proven exact: max (|w[2k]| + |w[2k+1]|) * amax
        // <= 32767 over every adjacent pair of the panel's 4-byte K groups.
        // Offsets are within [-255, 255], so i32 pair sums are exact.
        const std::int64_t amax = core::qmax(l.qx);
        std::int32_t wmin = 0, wmax = 0, pair_max = 0;
        for (std::int64_t oc = 0; oc < co; ++oc) {
          const std::int32_t* wr = wbuf.data() + oc * per;
          std::int64_t k = 0;
          for (; k + 1 < per; k += 2) {
            pair_max =
                std::max(pair_max, std::abs(wr[k]) + std::abs(wr[k + 1]));
          }
          if (k < per) pair_max = std::max(pair_max, std::abs(wr[k]));
          for (k = 0; k < per; ++k) {
            wmin = std::min(wmin, wr[k]);
            wmax = std::max(wmax, wr[k]);
          }
        }
        const bool fits_s8 = wmin >= -128 && wmax <= 127;
        if (vnni_want) {
          pl.tier = KernelTier::kVnni;
        } else if (fits_s8 && pair_max * amax <= 32767) {
          pl.tier = KernelTier::kS8Panel;
        } else {
          pl.tier = KernelTier::kU8S16;
        }
        if (pl.tier == KernelTier::kVnni) {
          pl.kp = simd::vnni_kp(per);
          pl.co_pad = simd::round_up(co, simd::vnni_ocb());
          if (!fits_s8) {
            // Zero-point split (gemmlowp): (w - Zw) = (w - 128) + (128 - Zw).
            // Offsets outside s8 need 8-bit codes, and code - 128 always
            // fits s8, so the panel holds code - 128 and the VNNI kernel
            // adds c[oc] * S_m, c = 128 - Zw and S_m = sum_k a_m[k], giving
            // sum_k a[k] (code[k] - Zw) exactly. Exact in i32 with no new
            // bound: qmax(qw) = 255, so acc32 proved K * qmax(qx) * 255 <=
            // 2^30, while each part is at most K * qmax(qx) * 128 (|c| <= 128
            // for Zw in [0, 255]) and their sum is the unchanged accumulator.
            // Zero up to co_pad: the kernel reads it per 16-channel block.
            pl.zp_split.assign(static_cast<std::size_t>(pl.co_pad), 0);
            for (std::int64_t oc = 0; oc < co; ++oc) {
              pl.zp_split[static_cast<std::size_t>(oc)] = 128 - l.zw_of(oc);
            }
          }
          pl.w8.resize(
              static_cast<std::size_t>(simd::vnni_panel_elems(co, per)));
          simd::vnni_pack(wbuf.data(), co, per, pl.w8.data(),
                          pl.zp_split.empty() ? nullptr
                                              : pl.zp_split.data());
        } else if (pl.tier == KernelTier::kS8Panel) {
          pl.kp = simd::gemm_u8s8_kp(per);
          pl.co_pad = simd::round_up(co, simd::gemm_u8s8_ocb());
          pl.w8.resize(
              static_cast<std::size_t>(simd::gemm_u8s8_panel_elems(co, per)));
          simd::gemm_u8s8_pack(wbuf.data(), co, per, pl.w8.data());
        } else {
          // s16 tier: rows padded to the widest vector step (16 i16) so
          // the dot kernels run remainder-free; pad weights are zero.
          pl.kp = simd::round_up(per, 16);
          pl.co_pad = co;
          pl.w16.assign(static_cast<std::size_t>(co * pl.kp), 0);
          for (std::int64_t oc = 0; oc < co; ++oc) {
            for (std::int64_t k = 0; k < per; ++k) {
              pl.w16[static_cast<std::size_t>(oc * pl.kp + k)] =
                  static_cast<std::int16_t>(wbuf[oc * per + k]);
            }
          }
        }
        // Tile auto-tuning for the GEMM tiers: the analytic cache model,
        // optionally refined by the timing micro-probe, or the caller's
        // fixed tile. kb/nb are normalized to the tier's quanta so every
        // kernel pass stays remainder-free.
        GemmShape gs;
        gs.out_pixels = l.kind == QLayerKind::kConv
                            ? l.out_shape.h * l.out_shape.w
                            : 1;
        gs.co_pad = pl.co_pad;
        gs.kp = pl.kp;
        gs.ocb = pl.tier == KernelTier::kVnni ? simd::vnni_ocb()
                 : pl.tier == KernelTier::kS8Panel ? simd::gemm_u8s8_ocb()
                                                   : 4;
        gs.wbytes = pl.tier == KernelTier::kU8S16 ? 2 : 1;
        gs.kq = pl.tier == KernelTier::kU8S16 ? 16 : 4;
        switch (opts.autotune) {
          case PlanOptions::Autotune::kFixed:
            pl.tile = opts.fixed_tile;
            if (pl.tile.rows <= 0) pl.tile.rows = kIm2colTileRows;
            break;
          case PlanOptions::Autotune::kProbe:
            pl.tile = autotune_probe(gs, autotune_analytic(gs, caches));
            break;
          case PlanOptions::Autotune::kAnalytic:
            pl.tile = autotune_analytic(gs, caches);
            break;
        }
        if (pl.tile.kb > 0) pl.tile.kb = simd::round_up(pl.tile.kb, gs.kq);
        if (pl.tile.nb > 0) pl.tile.nb = simd::round_up(pl.tile.nb, gs.ocb);
      }
    } else if (l.kind == QLayerKind::kDepthwise) {
      // Fails acc32: the int64 loops read the INT32 offset weights, the
      // depthwise one tap-major.
      pl.wt = tap_major<std::int32_t>(wbuf.data(), l.spec.kh * l.spec.kw,
                                      l.in_shape.c);
    } else if (l.kind != QLayerKind::kGlobalAvgPool) {
      pl.w.assign(wbuf.begin(), wbuf.begin() + l.weights_numel());
    }

    layers_.push_back(std::move(pl));
  }

  // Arena sizing: tensor 0 (the quantized input) lives in the ping arena;
  // layer i writes tensor i+1 into the opposite arena -- the same even/odd
  // assignment mcu::build_memory_map uses for its RAM regions (Eq. 7).
  ping8_elems_ = net.layers.front().in_shape.numel();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const QLayer& l = net.layers[i];
    if (l.raw_logits) continue;
    auto& cap = (i + 1) % 2 == 0 ? ping8_elems_ : pong8_elems_;
    cap = std::max(cap, l.out_shape.numel());
  }

  // Gather-tile and row-accumulator sizing (tiered layers; the int64 loops
  // need neither, and their co_pad is 0).
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const QLayer& l = net.layers[i];
    const PlannedLayer& pl = layers_[i];
    if (l.kind == QLayerKind::kConv && pl.tier != KernelTier::kNone &&
        !(l.spec.kh == 1 && l.spec.kw == 1 && l.spec.pad == 0 &&
          l.spec.stride == 1)) {
      const std::int64_t trows =
          pl.tile.rows > 0 ? pl.tile.rows : kIm2colTileRows;
      const std::int64_t rows = std::min(l.out_shape.h * l.out_shape.w, trows);
      col8_elems_ = std::max(col8_elems_, rows * pl.kp);
    }
    if (l.kind == QLayerKind::kDepthwise ||
        (l.kind == QLayerKind::kGlobalAvgPool && pl.pool32)) {
      row_acc_elems_ = std::max(row_acc_elems_, l.in_shape.c);
    } else {
      // Rows the GEMM kernel holds at once: kVnniRows, or the panel pair.
      const std::int64_t rows =
          pl.tier == KernelTier::kVnni ? simd::kVnniRows : 2;
      row_acc_elems_ = std::max(row_acc_elems_, rows * pl.co_pad);
    }
  }

  const QLayer& last = net.layers.back();
  logit_elems_ = last.raw_logits ? last.wshape.co : last.out_shape.numel();
}

std::int64_t ExecutionPlan::arena_bytes() const {
  return arena_u8_padded(ping8_elems_) + arena_u8_padded(pong8_elems_) +
         arena_u8_padded(col8_elems_);
}

std::int64_t ExecutionPlan::weight_bytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.size() * sizeof(v[0]));
  };
  std::int64_t n = 0;
  for (const PlannedLayer& pl : layers_) {
    n += bytes(pl.w) + bytes(pl.wt) + bytes(pl.w8) + bytes(pl.w16) +
         bytes(pl.wt16) + bytes(pl.wt16p);
  }
  return n;
}

std::int64_t ExecutionPlan::i8_layer_count() const {
  return static_cast<std::int64_t>(layers_.size());
}

void ExecutionPlan::quantize_input_into(const float* sample, std::uint8_t* dst,
                                        std::int64_t i0,
                                        std::int64_t i1) const {
  const core::QuantParams& qp = net_->input_qp;
  // Vectorized, bit-exact with core::quantize_value(kNearest) -- see the
  // exactness arguments in simd.hpp and simd_vnni.hpp. The scalar path was
  // a measurable slice of end-to-end latency (a libm lround call plus a
  // float divide per element), and it is what a build without AVX2 runs
  // unless the VNNI tier is on.
  if (vnni_) {
    simd::vnni_quantize_u8(sample + i0, i1 - i0, qp.scale, qp.zero,
                           core::qmax(qp.q), dst + i0);
  } else {
    simd::quantize_f32_u8(sample + i0, i1 - i0, qp.scale, qp.zero,
                          core::qmax(qp.q), dst + i0);
  }
}

std::int64_t ExecutionPlan::partition_rows(const PlannedLayer& pl) {
  const QLayer& l = *pl.layer;
  switch (l.kind) {
    case QLayerKind::kConv:
      return pl.tier != KernelTier::kNone ? l.out_shape.h * l.out_shape.w
                                          : l.out_shape.h;
    case QLayerKind::kDepthwise:
      return l.out_shape.h;
    case QLayerKind::kLinear:
    case QLayerKind::kGlobalAvgPool:
      return 1;
  }
  return 1;
}

void ExecutionPlan::run_layer_rows(const PlannedLayer& pl, PlanArenas& arenas,
                                   int lane, std::int64_t r0,
                                   std::int64_t r1) const {
  const QLayer& l = *pl.layer;
  const std::uint8_t* x = arenas.arena8(pl.src);
  std::uint8_t* y = arenas.arena8(pl.dst);
  std::int32_t* row_acc = arenas.lane_row_acc(lane);
  const bool tiered = pl.tier != KernelTier::kNone;
  switch (l.kind) {
    case QLayerKind::kConv:
    case QLayerKind::kLinear: {
      const std::int64_t K = l.wshape.per_channel();
      if (!tiered) {
        if (l.kind == QLayerKind::kLinear) {
          gemm_rows_i64(pl, x, r0, r1, K, y);
        } else {
          conv_rows_i64(pl, x, y, r0, r1);
        }
        return;
      }
      // Panel GEMM over rows [m0, m1) of A, requantized into the output
      // from output row `row0` on.
      const auto gemm = [&](const std::uint8_t* A, std::int64_t lda,
                            std::int64_t m0, std::int64_t m1,
                            std::int64_t row0) {
        gemm8_rows(pl, A, lda, m0, m1, row_acc,
                   requant_to(pl, y + row0 * l.wshape.co));
      };
      if (l.kind == QLayerKind::kLinear ||
          (l.spec.kh == 1 && l.spec.kw == 1 && l.spec.pad == 0 &&
           l.spec.stride == 1)) {
        gemm(x, K, r0, r1, 0);
        return;
      }
      // Cache-blocked: gather the autotuned number of output pixels into
      // this lane's L1-resident u8 tile, run the panel GEMM, advance.
      const std::int64_t trows =
          pl.tile.rows > 0 ? pl.tile.rows : kIm2colTileRows;
      std::uint8_t* tile = arenas.lane_col8(lane);
      for (std::int64_t t0 = r0; t0 < r1; t0 += trows) {
        const std::int64_t t1 = std::min(r1, t0 + trows);
        im2col8_rows(pl, x, tile, t0, t1);
        gemm(tile, pl.kp, 0, t1 - t0, t0);
      }
      return;
    }
    case QLayerKind::kDepthwise:
      if (tiered) {
        depthwise8_rows(pl, x, y, r0, r1, row_acc);
      } else {
        depthwise_rows_i64(pl, x, y, r0, r1);
      }
      return;
    case QLayerKind::kGlobalAvgPool:
      gap8_plan(pl, x, y, row_acc);
      return;
  }
  throw std::logic_error("ExecutionPlan: invalid layer kind");
}

void ExecutionPlan::run_head(const PlannedLayer& pl,
                             PlanArenas& arenas) const {
  const QLayer& l = *pl.layer;
  const std::int64_t K = l.wshape.per_channel();
  const std::int64_t zx = l.zx;
  const std::uint8_t* x = arenas.arena8(pl.src);
  float* logits = arenas.logits.data();
  // out_mult * (phi + bq) with phi = acc - Zx*wsum, as the reference head.
  const auto logit = [&](std::int64_t oc, std::int64_t acc) {
    const auto c = static_cast<std::size_t>(oc);
    logits[c] = static_cast<float>(
        l.out_mult[c] * static_cast<double>(acc - zx * pl.wsum[c] +
                                            l.icn[c].bq));
  };
  if (pl.tier != KernelTier::kNone) {
    gemm8_rows(pl, x, K, 0, 1, arenas.lane_row_acc(0),
               [&](const std::int32_t* acc, std::int64_t, std::int64_t c0,
                   std::int64_t len) {
                 for (std::int64_t j = 0; j < len; ++j) logit(c0 + j, acc[j]);
               });
    return;
  }
  // A fan-in too large for i32 sums: exact int64 dots over the INT32 bank.
  for (std::int64_t oc = 0; oc < l.wshape.co; ++oc) {
    logit(oc, dot_i64(x, pl.w.data() + oc * K, K));
  }
}

const std::vector<float>& ExecutionPlan::finish_logits(
    PlanArenas& arenas) const {
  // No raw head: the last codes become the logits, as in Executor::run.
  const std::uint8_t* fin = arenas.arena8(layers_.back().dst);
  for (std::size_t i = 0; i < arenas.logits.size(); ++i) {
    arenas.logits[i] = static_cast<float>(fin[i]);
  }
  return arenas.logits;
}

PlanArenas& ExecutionPlan::self_arenas() const {
  if (!self_) self_ = std::make_unique<PlanArenas>(*this, 1);
  return *self_;
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample) const {
  return run_layers(sample, self_arenas(), nullptr, nullptr, nullptr);
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample,
                                                  PlanArenas& arenas) const {
  return run_layers(sample, arenas, nullptr, nullptr, nullptr);
}

const std::vector<float>& ExecutionPlan::run_into(const float* sample,
                                                  PlanArenas& arenas,
                                                  ThreadPool& pool) const {
  return run_layers(sample, arenas, &pool, nullptr, nullptr);
}

const std::vector<float>& ExecutionPlan::run_timed(
    const float* sample, std::vector<std::int64_t>& per_layer_ns,
    std::int64_t* quantize_ns) const {
  return run_layers(sample, self_arenas(), nullptr, &per_layer_ns, quantize_ns);
}

const std::vector<float>& ExecutionPlan::run_layers(
    const float* sample, PlanArenas& arenas, ThreadPool* pool,
    std::vector<std::int64_t>* layer_ns, std::int64_t* quantize_ns) const {
  using clock = std::chrono::steady_clock;
  const auto ns_since = [](clock::time_point t0) {
    const auto d = clock::now() - t0;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  };
  if (pool != nullptr && arenas.lanes < pool->lanes()) {
    throw std::invalid_argument(
        "ExecutionPlan::run_into: arenas built with fewer lanes than the "
        "pool");
  }

  clock::time_point t0;
  if (quantize_ns != nullptr) t0 = clock::now();
  const std::int64_t n_in = net_->layers.front().in_shape.numel();
  std::uint8_t* input = arenas.arena8(0);
  if (pool != nullptr && n_in >= 4096) {
    pool->parallel_for(n_in, [&](int, std::int64_t b, std::int64_t e) {
      quantize_input_into(sample, input, b, e);
    });
  } else {
    quantize_input_into(sample, input, 0, n_in);
  }
  if (quantize_ns != nullptr) *quantize_ns = ns_since(t0);

  if (layer_ns != nullptr) layer_ns->assign(layers_.size(), 0);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const PlannedLayer& pl = layers_[i];
    if (layer_ns != nullptr) t0 = clock::now();
    if (pl.layer->raw_logits) {
      run_head(pl, arenas);
    } else {
      const std::int64_t rows = partition_rows(pl);
      if (pool != nullptr && rows >= 2 && pl.macs >= kIntraParMinMacs) {
        pool->parallel_for(rows,
                           [&](int lane, std::int64_t b, std::int64_t e) {
                             run_layer_rows(pl, arenas, lane, b, e);
                           });
      } else {
        run_layer_rows(pl, arenas, 0, 0, rows);
      }
    }
    if (layer_ns != nullptr) (*layer_ns)[i] = ns_since(t0);
    if (pl.layer->raw_logits) return arenas.logits;
  }
  return finish_logits(arenas);
}

QInferenceResult ExecutionPlan::run_sample(const float* sample,
                                           PlanArenas& arenas) const {
  const std::vector<float>& logits = run_into(sample, arenas);
  QInferenceResult res;
  res.logits = logits;
  res.predicted = static_cast<std::int32_t>(
      std::max_element(res.logits.begin(), res.logits.end()) -
      res.logits.begin());
  return res;
}

QInferenceResult ExecutionPlan::run_sample(const float* sample) const {
  return run_sample(sample, self_arenas());
}

QInferenceResult ExecutionPlan::run(const FloatTensor& image) const {
  const Shape& in = net_->layers.front().in_shape;
  if (image.shape() != in) {
    // Built up with += (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive in the inlined string concatenation.
    std::string msg = "ExecutionPlan::run: image shape ";
    msg += image.shape().str();
    msg += " does not match network input ";
    msg += in.str();
    throw std::invalid_argument(msg);
  }
  return run_sample(image.data());
}

}  // namespace mixq::runtime
