#include "runtime/simd.hpp"

#include <cstdlib>
#include <cstring>

#include "runtime/simd_vnni.hpp"

namespace mixq::runtime::simd {

const char* compiled_isa() { return vec::compiled() ? vec::kIsa : "scalar"; }

bool cpu_supports_compiled_isa() {
#if defined(__ARM_NEON) && defined(__aarch64__)
  return true;  // NEON is part of the AArch64 baseline.
#elif (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
  // CPUID first: avx2::compiled() lives in the -mavx2 TU.
  return __builtin_cpu_supports("avx2") != 0 && vec::compiled();
#else
  return false;
#endif
}

const char* active_isa() { return enabled() ? compiled_isa() : "scalar"; }

// ---------------------------------------------------------------------------
// AVX-512 VNNI tier support (kernels live in simd_vnni.cpp -- the one TU
// built with the AVX-512 flags; everything here is portable integer code
// and deliberately compiled at the baseline target, so plan compilation
// -- including vnni_pack for forced-tier plans -- never executes AVX-512).
// ---------------------------------------------------------------------------

bool vnni_cpu() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512vnni") != 0;
#else
  return false;
#endif
}

bool vnni_enabled() {
  // MIXQ_NO_VNNI set to a non-empty value other than 0 force-disables the
  // tier (A/B timing, miscompile triage) without a rebuild;
  // PlanOptions::Vnni::kForce still overrides it.
  static const bool ok = [] {
    const char* off = std::getenv("MIXQ_NO_VNNI");
    return vnni_cpu() && vnni_compiled() &&
           (off == nullptr || off[0] == '\0' || std::strcmp(off, "0") == 0);
  }();
  return ok;
}

std::int64_t vnni_ocb() { return 16; }

std::int64_t vnni_kp(std::int64_t K) { return round_up(K, 4); }

std::int64_t vnni_panel_elems(std::int64_t co, std::int64_t K) {
  return round_up(co, vnni_ocb()) * vnni_kp(K);
}

std::int64_t vnni_index(std::int64_t kp, std::int64_t oc, std::int64_t k) {
  const std::int64_t ocb = vnni_ocb();
  return (oc / ocb) * ocb * kp + (k / 4) * ocb * 4 + (oc % ocb) * 4 + k % 4;
}

void vnni_pack(const std::int32_t* w, std::int64_t co, std::int64_t K,
               std::int8_t* panel, const std::int32_t* sub) {
  const std::int64_t kp = vnni_kp(K);
  const std::int64_t ocb = vnni_ocb();
  std::fill(panel, panel + vnni_panel_elems(co, K), std::int8_t{0});
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const std::int32_t s = sub != nullptr ? sub[oc] : 0;
    const std::int32_t* wr = w + oc * K;
    // Row oc's 4-byte K groups sit ocb * 4 bytes apart (vnni_index).
    std::int8_t* dst = panel + vnni_index(kp, oc, 0);
    for (std::int64_t g = 0; g < K; g += 4, dst += ocb * 4) {
      const std::int64_t n = std::min<std::int64_t>(4, K - g);
      for (std::int64_t t = 0; t < n; ++t) {
        dst[t] = static_cast<std::int8_t>(wr[g + t] - s);
      }
    }
  }
}

}  // namespace mixq::runtime::simd
