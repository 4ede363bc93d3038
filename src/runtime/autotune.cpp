#include "runtime/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"

namespace mixq::runtime {

CacheInfo detect_caches() {
  CacheInfo ci;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  if (l1 > 0) ci.l1d = static_cast<std::int64_t>(l1);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) ci.l2 = static_cast<std::int64_t>(l2);
#endif
  // Some containers report L1 but a zero/absent L2; never let the L2
  // budget fall below the L1 one.
  ci.l2 = std::max(ci.l2, ci.l1d);
  return ci;
}

namespace {

inline std::int64_t pow2_floor(std::int64_t v) {
  std::int64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

TileConfig autotune_analytic(const GemmShape& g, const CacheInfo& c) {
  TileConfig t;
  if (g.kp <= 0 || g.co_pad <= 0 || g.ocb <= 0) return t;

  std::int64_t rows = 4;
  while (rows < 128 && rows * 2 * g.kp <= c.l1d / 4) rows *= 2;
  if (g.out_pixels > 0 && rows > g.out_pixels) {
    rows = std::max<std::int64_t>(4, pow2_floor(g.out_pixels));
  }
  t.rows = rows;

  const std::int64_t slice = g.ocb * g.kp * g.wbytes;
  if (g.kq > 0 && slice > c.l1d / 2) {
    std::int64_t kb = (c.l1d / 2) / (g.ocb * g.wbytes);
    kb = std::max(g.kq, kb / g.kq * g.kq);
    if (kb < g.kp) t.kb = kb;
  }

  const std::int64_t panel = g.co_pad * g.kp * g.wbytes;
  if (panel > c.l2 / 2) {
    std::int64_t nb = (c.l2 / 2) / (g.kp * g.wbytes);
    nb = std::max(g.ocb, nb / g.ocb * g.ocb);
    if (nb < g.co_pad) t.nb = nb;
  }
  return t;
}

TileConfig autotune_probe(const GemmShape& g, TileConfig base) {
  if (g.wbytes != 1 || g.kp <= 0 || g.co_pad <= 0 || base.rows <= 0) {
    return base;
  }
  const bool vnni = g.ocb == simd::vnni_ocb();
  if (vnni && !simd::vnni_enabled()) return base;
  if (!vnni && g.ocb != simd::gemm_u8s8_ocb()) return base;

  std::int64_t cand[3] = {base.rows / 2, base.rows, base.rows * 2};
  for (std::int64_t& r : cand) r = std::clamp<std::int64_t>(r, 4, 128);

  const std::int64_t kp = g.kp;
  const std::int64_t co_pad = g.co_pad;
  const std::int64_t kb = base.kb > 0 ? base.kb : kp;
  const std::int64_t nb = base.nb > 0 ? base.nb : co_pad;
  // Synthetic workload: timing depends on shapes only, so a zero panel and
  // an LCG-filled input stand in for the real layer. The input buffer is
  // large enough that successive tile gathers stream like an im2col would.
  std::vector<std::int8_t> panel(static_cast<std::size_t>(co_pad * kp));
  std::vector<std::uint8_t> input(1 << 20);
  std::uint32_t lcg = 0x1234567u;
  for (std::uint8_t& b : input) {
    lcg = lcg * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(lcg >> 24);
  }
  std::vector<std::uint8_t> tile(static_cast<std::size_t>(128 * kp + 64));
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(simd::kVnniRows * co_pad));

  constexpr std::int64_t kPixels = 64;
  constexpr int kReps = 3;
  using clock = std::chrono::steady_clock;
  std::int64_t best_rows = base.rows;
  std::int64_t best_ns = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t r : cand) {
    std::int64_t ns = std::numeric_limits<std::int64_t>::max();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = clock::now();
      std::int64_t off = 0;
      for (std::int64_t p0 = 0; p0 < kPixels; p0 += r) {
        const std::int64_t pr = std::min(r, kPixels - p0);
        const std::int64_t bytes = pr * kp;
        if (off + bytes > static_cast<std::int64_t>(input.size())) off = 0;
        std::memcpy(tile.data(), input.data() + off, bytes);
        off += bytes;
        if (vnni) {
          for (std::int64_t m = 0; m < pr; m += simd::kVnniRows) {
            simd::vnni_gemm_rows(tile.data() + m * kp, kp,
                                 std::min(simd::kVnniRows, pr - m),
                                 panel.data(), kp, co_pad, base.kb, base.nb,
                                 nullptr, acc.data());
          }
          continue;
        }
        for (std::int64_t m = 0; m + 2 <= pr; m += 2) {
          const std::uint8_t* a0 = tile.data() + m * kp;
          const std::uint8_t* a1 = a0 + kp;
          for (std::int64_t c0 = 0; c0 < co_pad; c0 += nb) {
            const std::int64_t c1 = std::min(co_pad, c0 + nb);
            for (std::int64_t k0 = 0; k0 < kp; k0 += kb) {
              const std::int64_t klen = std::min(kp, k0 + kb) - k0;
              for (std::int64_t cb = c0; cb < c1; cb += g.ocb) {
                const std::int8_t* blk =
                    panel.data() + cb * kp + (k0 / 4) * g.ocb * 4;
                simd::gemm_u8s8_x2(a0 + k0, a1 + k0, blk, klen,
                                   acc.data() + cb, acc.data() + co_pad + cb,
                                   k0 > 0);
              }
            }
          }
        }
      }
      const auto t1 = clock::now();
      ns = std::min(
          ns, std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
    }
    if (ns < best_ns) {
      best_ns = ns;
      best_rows = r;
    }
  }
  base.rows = best_rows;
  return base;
}

}  // namespace mixq::runtime
