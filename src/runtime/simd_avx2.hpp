// mixq/runtime/simd_avx2.hpp
//
// AVX2 kernel bodies of the u8-activation kernels in simd.hpp: the s8 panel
// GEMM (vpmaddubsw -> vpmaddwd -> vpaddd), the u8 x s16 dot products, the
// pair-interleaved depthwise kernel, the elementwise border/pool helpers,
// the requantizer's vector part and the input quantizer's vector part.
//
// ISA isolation: this header carries DECLARATIONS ONLY. The bodies live in
// simd_avx2.cpp, the one translation unit compiled with -mavx2 (CMake
// per-source COMPILE_OPTIONS, when the MIXQ_HAS_AVX2 compile check passes);
// every other TU stays at the baseline target. simd.hpp's dispatchers enter
// these bodies only when simd::enabled() -- the cached CPUID check -- holds,
// so one x86-64 binary runs on any x86-64 host. Signatures are struct-free
// (raw pointers and integers), so the flagged TU instantiates no shared
// inline or template code.
//
// Each body computes exactly the integers of its scalar body in simd.hpp
// (simd::scalar::*), under the same preconditions; tests/runtime/
// simd_test.cpp runs both against plain loops.
#pragma once

#include <cstdint>

namespace mixq::runtime::simd::avx2 {

/// Output channels per s8 panel block: one ymm of i32 lanes.
inline constexpr std::int64_t kPanelOcb = 8;

/// Name of this kernel set (simd::compiled_isa() when compiled()).
inline constexpr const char* kIsa = "avx2";

/// True when simd_avx2.cpp was built with -mavx2. Without the flag its
/// entry points run the scalar bodies (simd::enabled() is then false, so
/// the dispatchers never call them).
bool compiled();

void gemm_u8s8_x1(const std::uint8_t* a, const std::int8_t* block,
                  std::int64_t kp, std::int32_t* acc, bool accumulate);

void gemm_u8s8_x2(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int8_t* block, std::int64_t kp,
                  std::int32_t* acc0, std::int32_t* acc1, bool accumulate);

void dot1x4_u8s16(const std::uint8_t* a, const std::int16_t* w0,
                  const std::int16_t* w1, const std::int16_t* w2,
                  const std::int16_t* w3, std::int64_t n, std::int32_t* out);

void dot2x4_u8s16(const std::uint8_t* a0, const std::uint8_t* a1,
                  const std::int16_t* w0, const std::int16_t* w1,
                  const std::int16_t* w2, const std::int16_t* w3,
                  std::int64_t n, std::int32_t* out0, std::int32_t* out1);

std::int32_t dot_u8s16(const std::uint8_t* a, const std::int16_t* w,
                       std::int64_t n);

void dw_dot_u8s16p(const std::uint8_t* x, const std::int64_t* toff,
                   const std::int16_t* wtp, std::int64_t taps,
                   std::int64_t C, std::int32_t* acc);

void mac_u8s16(std::int32_t* acc, const std::uint8_t* x,
               const std::int16_t* w, std::int64_t n);

void add_u8_i32(std::int32_t* acc, const std::uint8_t* x, std::int64_t n);

/// Requantizes channels [0, n - n % 4) from the RequantTable columns m0,
/// shift and bias_sub (already offset to the chunk) and returns that
/// count; the caller runs the scalar reference on the rest.
std::int64_t requant_u8(const std::int32_t* acc, const std::int32_t* add,
                        const std::int64_t* m0, const std::int64_t* shift,
                        const std::int64_t* bias_sub, std::int32_t zy,
                        std::int32_t hi, std::uint8_t* out, std::int64_t n);

/// Quantizes x[0, n - n % 8) into u8 codes and returns that count; the
/// caller runs simd::quantize_f32_one on the rest.
std::int64_t quantize_u8(const float* x, std::int64_t n, float scale,
                         std::int32_t zero, std::int32_t hi,
                         std::uint8_t* dst);

}  // namespace mixq::runtime::simd::avx2
