// mixq/runtime/simd_vnni.hpp
//
// AVX-512 VNNI kernel tier: a register-blocked u8 x s8 panel GEMM through
// vpdpbusd (64 8-bit MACs per instruction, accumulating straight into i32
// lanes -- no intermediate i16 pair sums, so the AVX2 panel's
// max(|w[2k]| + |w[2k+1]|) * qmax(qx) <= 32767 eligibility bound does not
// apply) that also carries the zero-point split (a panel of code - 128
// plus a per-row correction (128 - Zw) * sum_k a[k] from vpsadbw row
// sums, so Q8 weights whose offsets w - Zw leave s8 ride the same panel),
// a vpdpwssd depthwise variant over the same pair-interleaved s16 bank the
// AVX2 kernel uses, elementwise/dot u8 x s16 variants for the depthwise border
// path, an exact-arithmetic-shift requantizer (vpsravq needs no unsigned
// bias trick) and a 16-lane input quantizer. The depthwise kernel, the
// border MAC and the quantizer run their tails as one more masked step
// (AVX-512BW/VL masked loads and stores), not as scalar loops. On a VNNI
// host every narrow conv/linear layer runs this panel, and a u8 input is
// quantized here.
//
// ODR / miscompile isolation: this header carries DECLARATIONS ONLY -- no
// inline kernels. The implementations live in simd_vnni.cpp, the one
// translation unit compiled with -mavx512{f,bw,vl,vnni} appended to the
// baseline flags (CMake per-source COMPILE_OPTIONS); every other TU stays
// at x86-64-v3, which both sidesteps the GCC 12.2 AVX-512 struct-copy
// miscompile documented in the top-level CMakeLists.txt and keeps the
// inline kernels of simd.hpp compiling identically in every TU. When the
// toolchain cannot target VNNI (MIXQ_HAS_AVX512VNNI compile check fails),
// the same TU builds portable scalar bodies instead -- bit-identical
// arithmetic, so forced-tier tests run everywhere.
//
// Signatures are deliberately struct-free (raw pointers and integers
// only): the flagged TU never copies a struct, the failure mode of the
// GCC 12 bug above.
//
// Runtime contract: when vnni_compiled() is true the kernel bodies execute
// AVX-512 instructions unconditionally; callers gate on vnni_enabled()
// (the plan's tier selection does). Kernels are bit-exact against the
// scalar references in simd.hpp -- asserted by
// tests/runtime/simd_vnni_test.cpp, including data beyond the i16 pair
// bound.
#pragma once

#include <cstdint>

namespace mixq::runtime::simd {

/// True when simd_vnni.cpp was built with real AVX-512 VNNI intrinsics
/// (MIXQ_HAS_AVX512VNNI passed and the per-file flags were applied).
bool vnni_compiled();

/// True when the host CPU reports avx512f+avx512bw+avx512vl+avx512vnni.
bool vnni_cpu();

/// Cached conjunction of the two: the plan consults this (once per tier
/// selection) exactly like simd::enabled() gates the AVX2 kernels.
bool vnni_enabled();

// ---------------------------------------------------------------------------
// Panel layout: same family as gemm_u8s8_* but 16 i32 lanes per block
// (one zmm of output channels). K grouped in 4s, each channel's 4 bytes
// contiguous within the group.
// ---------------------------------------------------------------------------

/// Output channels interleaved per panel block (16 = one zmm of i32).
std::int64_t vnni_ocb();

/// K padded to the 4-byte group size.
std::int64_t vnni_kp(std::int64_t K);

/// Panel capacity in bytes for a co x K weight matrix.
std::int64_t vnni_panel_elems(std::int64_t co, std::int64_t K);

/// Byte index of weight (oc, k) inside the packed panel.
std::int64_t vnni_index(std::int64_t kp, std::int64_t oc, std::int64_t k);

/// Pack offset int32 weights (co rows of K, row-major) into the 16-lane
/// panel, each row minus sub[oc] when `sub` is non-null (the zero-point
/// split packs (w - Zw) - (128 - Zw) = code - 128). The caller proved the
/// packed values fit int8. Pad lanes/groups are zero.
void vnni_pack(const std::int32_t* w, std::int64_t co, std::int64_t K,
               std::int8_t* panel, const std::int32_t* sub = nullptr);

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

/// Rows of the panel GEMM the rows kernel computes per call.
inline constexpr std::int64_t kVnniRows = 4;

/// Panel GEMM of `rows` (1..kVnniRows) u8 rows, `lda` bytes apart, each
/// readable for vnni_kp(K) bytes (padded weights are zero, so the bytes in
/// [K, kp) add nothing; they may belong to the next row). Writes
///   acc[r * co_pad + c] = sum_k a_r[k] * W[c][k]
///                         (+ split[c] * sum_{k < K} a_r[k] if split)
/// for every c < co_pad (a multiple of 16). Register-blocked: up to 4 rows
/// x 4 sixteen-channel blocks in 16 zmm accumulators, each 64-byte weight
/// load feeding one vpdpbusd per row. Cache blocking: channels run in
/// chunks of `nb` (a multiple of 16; 0 = all), and each chunk's depth in
/// blocks of `kb` (a multiple of 4; 0 = all) that accumulate exact i32
/// partial sums, so any blocking is bit-exact with the single pass. The
/// zero-point split's correction (split[c] = 128 - Zw[c] for co_pad
/// entries, the panel holding code - 128) is added in registers after a
/// chunk's last K block, from vpsadbw row sums over exactly K bytes.
void vnni_gemm_rows(const std::uint8_t* a, std::int64_t lda,
                    std::int64_t rows, const std::int8_t* panel,
                    std::int64_t K, std::int64_t co_pad, std::int64_t kb,
                    std::int64_t nb, const std::int32_t* split,
                    std::int32_t* acc);

/// Depthwise interior: acc[c] = sum_t x[toff[t] + c] * w[t][c] over the
/// pair-interleaved i16 bank from dw_pack_u8s16 (32 channels per
/// iteration via vpdpwssd, then 16; the C % 16 tail is one more masked
/// 16-channel step). Overwrites acc[0, C) and reads no byte of x, wtp or
/// acc outside the C channels. Bit-exact with dw_dot_u8s16p.
void vnni_dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                        const std::int16_t* wtp, std::int64_t taps,
                        std::int64_t C, std::int32_t* acc);

/// Elementwise acc[i] += x[i] * w[i] (depthwise border taps), 16 lanes
/// per step with the n % 16 tail masked.
void vnni_mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
                    const std::int16_t* w, std::int64_t n);

/// Row dot sum_k a[k] * w[k] (u8 x s16 remainder/bench reference).
std::int32_t vnni_dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                            std::int64_t n);

/// Requantize n channels: out[c] = clamp(zy + ((acc[c]+add[c]) * m0[c])
/// >>arith shift[c], 0, hi) -- identical arithmetic to requant_icn_one.
/// m0/shift point at the RequantTable columns (callers offset them for
/// channel-blocked requant). vpsravq is an exact arithmetic shift, so no
/// 2^62 bias trick is needed.
void vnni_requant_u8(const std::int32_t* acc, const std::int32_t* add,
                     const std::int64_t* m0, const std::int64_t* shift,
                     std::int32_t zy, std::int32_t hi, std::uint8_t* out,
                     std::int64_t n);

/// Input quantization into u8 codes (hi <= 255): out[i] =
/// clamp(lround(x[i] / scale + zero), 0, hi), element for element what
/// simd::quantize_f32_one and core::quantize_value(kNearest) return --
/// 16 lanes of vdivps, the float clamp to [-1, hi] (every magnitude
/// saturates; NaN codes as 0), a round-to-nearest-even conversion with a
/// fix-up for exact positive ties, and the integer clamp. The n % 16 tail
/// is masked (no read past x + n, no write past out + n).
void vnni_quantize_u8(const float* x, std::int64_t n, float scale,
                      std::int32_t zero, std::int32_t hi, std::uint8_t* out);

}  // namespace mixq::runtime::simd
