// mixq/runtime/plan.hpp
//
// Planned execution engine: everything amortizable about running one
// QuantizedNet is compiled once into an ExecutionPlan, so the per-inference
// path does no unpacking, no parameter derivation, and -- after the plan is
// built -- no heap allocation at all.
//
// The plan compiles each layer into one of two execution domains:
//
//   INT8 (narrow) domain -- the deployment arithmetic the paper's mixed
//   2/4/8-bit quantization pays for. Selected when the plan can PROVE, from
//   the quantizer's value bounds, that the narrow pipeline computes exactly
//   the reference integers:
//     * activations are unsigned <= 8-bit codes (always true post-ICN), so
//       the layer's input/output tensors live in packed u8 ping-pong
//       arenas: 4x smaller working set than the INT32 arenas;
//     * 32-bit accumulation is overflow-free (phi_bound < 2^30, the same
//       bound the INT32 SIMD path uses) and the vector requantization
//       chain is exact (RequantTable usable);
//     * weights: on a VNNI host every conv/linear GEMM runs the vpdpbusd
//       panel -- offsets w - Zw that fit s8 pack directly, Q8 offsets go
//       through the zero-point split (panel of code - 128, plus
//       (128 - Zw) * row sum before requantization). Without VNNI:
//       zero-point-offset weights always fit i16; when they also
//       fit s8 AND every adjacent-pair magnitude satisfies
//       max(|w[2k]| + |w[2k+1]|) * qmax(qx) <= 32767 the layer's GEMM runs
//       through the cache-blocked s8 panel (vpmaddubsw -> vpmaddwd, 32
//       MACs per AVX2 instruction sequence, intermediate i16 sums proven
//       exact); otherwise the u8 x s16 widening kernels run (vpmaddwd,
//       always exact).
//   Conv layers (any kernel size) run as panel/row GEMM over a u8 im2col
//   whose padded taps are filled with Zx -- algebraically identical to the
//   valid-tap + rectangle-sum form, so one requant pre-add (bq - Zx*wsum)
//   covers interior and border alike. Depthwise runs a direct u8 kernel
//   (no im2col): taps pair-interleaved for vpmaddwd across channels,
//   vectorized requantization straight back to u8, border windows on the
//   same vector path via precomputed per-window pre-adds. A raw-logits
//   head that passes acc32 runs the same GEMM with a float epilogue.
//
//   INT32 (wide) domain -- the PR 2/3 engine, kept verbatim as the
//   per-layer fallback whenever any narrow proof fails (threshold-scheme
//   requant, non-exact vector requant chains, fan-in too large for i32
//   accumulators, or PlanOptions{allow_i8=false}).
//
// Domains are chosen per layer; a tensor crossing a domain seam is simply
// written in the consumer's storage type (every kernel can emit u8 or i32
// codes), so mixed chains need no separate conversion passes. Every path
// remains bit-exact with the reference kernels (integer equality) on every
// ISA and thread count -- asserted by the test suite.
//
// What the plan precomputes per layer (both domains): kernel weight banks,
// per-(channel, tap) weight sums folding Zx out of the hot loops,
// interior/border spatial split, accumulator-width and requant-exactness
// proofs, and the ping-pong arena sizing mirroring mcu::build_memory_map's
// even/odd tensor assignment (Eq. 7). Narrow layers keep only their
// panels; the INT32 offset weights stay only where a kernel reads them.
//
// Every entry point runs the same private layer loop (run_layers): quantize
// the input, run the layers, then the raw-logits head or the final codes.
// It optionally row-partitions large layers across a ThreadPool and
// optionally records per-layer wall time; with neither, it reads no clock.
//
// Thread-safety contract: an ExecutionPlan is immutable after construction.
// run_into(sample, arenas) touches only the caller-supplied PlanArenas, so
// any number of threads may run the *same* plan concurrently as long as
// each uses its own PlanArenas (this is how serve::ModelRegistry hands a
// batch's samples to its pool's lanes). The convenience overloads without
// an arena argument share one internal arena set, built on their first
// call, and are NOT thread-safe against each other.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/autotune.hpp"
#include "runtime/qgraph.hpp"
#include "runtime/simd.hpp"

namespace mixq::runtime {

class ExecutionPlan;
class ThreadPool;

/// Execution domain of one planned layer (see file comment).
enum class ExecDomain : std::uint8_t {
  kI32,  ///< wide fallback: INT32 activations, INT32/INT64 accumulation
  kI8,   ///< narrow: u8 activations, s8-panel or s16 weights, widening MACs
};

inline const char* domain_name(ExecDomain d) {
  return d == ExecDomain::kI8 ? "i8" : "i32";
}

/// MAC kernel tier of one narrow-domain layer, fixed at plan compile time:
///   vnni     -- AVX-512 VNNI (vpdpbusd panel / vpdpwssd depthwise):
///               accumulates straight into i32, so no pair-sum bound; every
///               narrow layer takes it on a VNNI host (offsets outside s8
///               via the zero-point split, PlannedLayer::zp_split);
///   s8-panel -- AVX2-era u8 x s8 panel (vpmaddubsw -> vpmaddwd) for hosts
///               without VNNI, requires weights in int8 AND the i16
///               pair-sum bound;
///   u8s16    -- u8 x s16 widening kernels, always exact (the other
///               fallback for hosts without VNNI).
/// Wide-domain layers, pools and a raw-logits head that fails acc32 carry
/// kNone; any other head takes the tiers with a float epilogue.
enum class KernelTier : std::uint8_t { kNone, kS8Panel, kU8S16, kVnni };

inline const char* tier_name(KernelTier t) {
  switch (t) {
    case KernelTier::kS8Panel:
      return "s8-panel";
    case KernelTier::kU8S16:
      return "u8s16";
    case KernelTier::kVnni:
      return "vnni";
    case KernelTier::kNone:
      break;
  }
  return "-";
}

/// Plan compilation options.
struct PlanOptions {
  /// Allow the narrow INT8 domain where provable. false forces every layer
  /// onto the INT32 path (used by tests and footprint comparisons).
  bool allow_i8{true};

  /// AVX-512 VNNI tier policy. kAuto selects the tier exactly when the
  /// binary carries the VNNI kernels and the host CPU reports the ISA
  /// (simd::vnni_enabled()); kOff never selects it (tests pin the AVX2
  /// tiers this way); kForce selects it unconditionally. Plan CONSTRUCTION
  /// under kForce is safe on any host (packing is portable code), but
  /// RUNNING a forced plan executes the VNNI kernel bodies -- callers only
  /// do so when vnni_enabled(), or when the build's VNNI TU is the
  /// portable fallback (simd::vnni_compiled() == false).
  enum class Vnni : std::uint8_t { kAuto, kOff, kForce };
  Vnni vnni{Vnni::kAuto};

  /// Kernel tile auto-tuning mode: the cache-aware analytic model
  /// (default; deterministic for a given net + host), the analytic model
  /// refined by a timing micro-probe, or a caller-fixed TileConfig.
  enum class Autotune : std::uint8_t { kAnalytic, kProbe, kFixed };
  Autotune autotune{Autotune::kAnalytic};

  /// Tile applied to every GEMM layer when autotune == kFixed. rows <= 0
  /// falls back to kIm2colTileRows; kb/nb <= 0 leave that axis unblocked
  /// (the pre-autotuner behaviour is fixed_tile = {} i.e. {16, 0, 0}).
  TileConfig fixed_tile{};
};

/// Clamped tap window [ky0, ky1) x [kx0, kx1) of a depthwise border pixel,
/// compared field by field so no two windows alias at any kernel size.
struct TapWindow {
  std::int64_t ky0{0}, ky1{0}, kx0{0}, kx1{0};
  bool operator==(const TapWindow&) const = default;
};

/// Static per-layer execution recipe (see file comment).
struct PlannedLayer {
  const QLayer* layer{nullptr};
  /// Zero-point-offset INT32 weights; only MAC layers of tier kNone read
  /// and keep them (wide domain, a head failing acc32).
  std::vector<std::int32_t> w;
  std::vector<std::int32_t> wt;       ///< wide depthwise: tap-major w
  std::vector<std::int64_t> tap_sum;  ///< (co, kh*kw) sums of offset weights
  std::vector<std::int64_t> wsum;     ///< (co) full-kernel sums
  std::vector<std::int64_t> tap_off;  ///< depthwise: input offset per tap
  simd::RequantTable rq;              ///< vector requant (when provably exact)
  /// Depthwise border configs (when rq is usable): for each distinct
  /// clamped tap window that occurs on this layer's border, the
  /// per-channel requant pre-add bq - Zx*svalid, so border pixels run the
  /// same vector MAC + requant path as the interior.
  std::vector<TapWindow> border_key;
  std::vector<std::vector<std::int32_t>> border_add;
  std::int64_t oh0{0}, oh1{0};        ///< interior output rows [oh0, oh1)
  std::int64_t ow0{0}, ow1{0};        ///< interior output cols [ow0, ow1)
  std::int64_t macs{0};               ///< static MAC count (partition policy)
  bool gemm{false};                   ///< 1x1 conv: im2col + GEMM path
  bool acc32{false};                  ///< int32 accumulators provably safe
  bool pool32{false};                 ///< avg-pool sums provably fit int32
  int src{0};                         ///< arena holding the input (0=ping)
  int dst{1};                         ///< arena receiving the output

  // Narrow-domain recipe (domain == kI8) -------------------------------
  ExecDomain domain{ExecDomain::kI32};
  bool in_u8{false};    ///< reads its input tensor as packed u8 codes
  bool out_u8{false};   ///< writes its output tensor as packed u8 codes
  KernelTier tier{KernelTier::kNone};  ///< selected MAC kernel tier
  TileConfig tile{};    ///< autotuned im2col/K/N blocking (GEMM layers)
  std::int64_t kp{0};   ///< padded GEMM depth (panel: 4-aligned; s16: 16)
  std::int64_t co_pad{0};             ///< co rounded to the panel block
  std::vector<std::int8_t> w8;        ///< s8 GEMM panel (vnni, s8-panel)
  /// vnni tier, offsets outside s8: the zero-point split correction
  /// 128 - Zw[oc] per channel (w8 then holds code - 128); empty otherwise.
  std::vector<std::int32_t> zp_split;
  std::vector<std::int16_t> w16;      ///< s16 GEMM rows, co x kp (u8s16)
  std::vector<std::int16_t> wt16;     ///< depthwise tap-major s16 (border)
  std::vector<std::int16_t> wt16p;    ///< depthwise pair-interleaved s16
};

/// Slack bytes appended to every non-empty u8 arena so the panel kernels'
/// 4-byte activation reads at padded K never leave the allocation (vectors
/// are zero-initialized, so the overread is defined AND deterministic).
inline constexpr std::int64_t kArenaU8Slack = 32;

/// Allocated size of a u8 arena holding `n` logical elements -- the single
/// definition both PlanArenas (allocation) and arena_bytes() (reporting)
/// use, so the two can never drift apart.
inline constexpr std::int64_t arena_u8_padded(std::int64_t n) {
  return n > 0 ? n + kArenaU8Slack : 0;
}

/// Fallback im2col tile rows: narrow convs gather their u8 im2col in row
/// tiles so the tile (rows * kp bytes, per lane) stays L1-resident under
/// the panel GEMM instead of materialising the whole im2col matrix. The
/// per-layer tile is normally chosen by the auto-tuner (PlannedLayer.tile);
/// this constant is the pre-autotuner default, used when a fixed TileConfig
/// leaves rows unset.
inline constexpr std::int64_t kIm2colTileRows = 16;

/// One thread's working memory for running a plan: the INT32 and u8
/// ping-pong activation arenas (a tensor lives in the u8 pair exactly when
/// its consumer layer runs in the narrow domain), the im2col gather
/// buffers (INT32 for wide strided-pointwise layers, u8 for narrow convs),
/// a per-lane row-accumulator scratch and the logits buffer. Sized once
/// from the plan; steady-state runs never grow it. `lanes` > 1 reserves
/// one row-accumulator slice per lane for intra-layer row partitioning
/// (every lane still shares the arenas, whose writes are disjoint by row).
struct PlanArenas {
  explicit PlanArenas(const ExecutionPlan& plan, int lanes = 1);

  [[nodiscard]] std::int32_t* arena(int which) {
    return which == 0 ? ping.data() : pong.data();
  }
  [[nodiscard]] std::uint8_t* arena8(int which) {
    return which == 0 ? ping8.data() : pong8.data();
  }
  [[nodiscard]] std::int32_t* lane_row_acc(int lane) {
    return row_acc.data() + static_cast<std::int64_t>(lane) * row_acc_per;
  }
  [[nodiscard]] std::uint8_t* lane_col8(int lane) {
    return col8.data() + static_cast<std::int64_t>(lane) * col8_per;
  }

  std::vector<std::int32_t> ping;
  std::vector<std::int32_t> pong;
  std::vector<std::uint8_t> ping8;
  std::vector<std::uint8_t> pong8;
  std::vector<std::int32_t> col;
  std::vector<std::uint8_t> col8;
  std::vector<std::int32_t> row_acc;
  std::vector<float> logits;
  std::int64_t row_acc_per{0};
  std::int64_t col8_per{0};
  int lanes{1};
};

/// Compiled once per QuantizedNet; reusable across any number of inferences
/// and -- with per-thread PlanArenas -- any number of threads.
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const QuantizedNet& net, PlanOptions opts = {});

  /// Run one batch-1 sample given as a raw HWC float pointer. Returns a
  /// reference to the plan's internal logits buffer (valid until the next
  /// run): the zero-allocation steady-state entry point. Not thread-safe;
  /// use the PlanArenas overload for concurrent runs.
  const std::vector<float>& run_into(const float* sample) const;

  /// Thread-safe variant: all working state lives in `arenas`, so distinct
  /// arena sets may run concurrently on the same plan. Returns a reference
  /// to arenas.logits. Zero steady-state heap allocations.
  const std::vector<float>& run_into(const float* sample,
                                     PlanArenas& arenas) const;

  /// Intra-layer parallel variant: partitions each large layer's output
  /// rows (and the input quantization) across the pool's lanes. `arenas`
  /// must have been built with lanes >= pool.lanes(). Bit-exact with the
  /// serial path for every lane count.
  const std::vector<float>& run_into(const float* sample, PlanArenas& arenas,
                                     ThreadPool& pool) const;

  /// Same as run_into(sample), recording wall-clock nanoseconds:
  /// per_layer_ns gets one entry per network layer; *quantize_ns
  /// (optional) the input-quantize stage. The untimed overloads run the
  /// same loop without reading the clock.
  const std::vector<float>& run_timed(const float* sample,
                                      std::vector<std::int64_t>& per_layer_ns,
                                      std::int64_t* quantize_ns) const;

  /// Convenience wrappers producing a QInferenceResult (these allocate the
  /// result's logits vector; the execution itself still does not).
  QInferenceResult run(const FloatTensor& image) const;
  QInferenceResult run_sample(const float* sample) const;
  QInferenceResult run_sample(const float* sample, PlanArenas& arenas) const;

  [[nodiscard]] const QuantizedNet& net() const { return *net_; }
  [[nodiscard]] const std::vector<PlannedLayer>& layers() const {
    return layers_;
  }
  [[nodiscard]] const PlanOptions& options() const { return opts_; }

  /// INT32 ping/pong arena capacities in elements (max even-/odd-indexed
  /// activation tensor whose consumer runs in the wide domain; the same
  /// even/odd assignment as mcu::build_memory_map).
  [[nodiscard]] std::int64_t ping_elems() const { return ping_elems_; }
  [[nodiscard]] std::int64_t pong_elems() const { return pong_elems_; }
  /// u8 ping/pong arena capacities (narrow-domain tensors), sans slack.
  [[nodiscard]] std::int64_t ping8_elems() const { return ping8_elems_; }
  [[nodiscard]] std::int64_t pong8_elems() const { return pong8_elems_; }
  /// im2col gather capacities: whole-matrix for wide strided pointwise
  /// layers; per-lane autotuned-rows tile for narrow convs.
  [[nodiscard]] std::int64_t col_elems() const { return col_elems_; }
  [[nodiscard]] std::int64_t col8_elems() const { return col8_elems_; }
  /// Per-lane row-accumulator scratch capacity.
  [[nodiscard]] std::int64_t row_acc_elems() const { return row_acc_elems_; }
  /// Logits buffer size.
  [[nodiscard]] std::int64_t logit_elems() const { return logit_elems_; }
  /// Total activation-arena footprint in bytes as actually allocated:
  /// 4 bytes per INT32 arena element plus 1 byte per u8 arena element
  /// (including each non-empty u8 arena's kArenaU8Slack). The narrow
  /// domain shrinks this by ~4x versus an all-INT32 plan; asserted by
  /// tests/runtime/plan_test.cpp, which also enforces that runs never
  /// allocate beyond it (instrumented global operator new).
  [[nodiscard]] std::int64_t arena_bytes() const;
  /// Weight bytes held in w, wt, w8, w16, wt16 and wt16p: the host
  /// counterpart of the deployment's RO bytes (`mixq inspect` shows both).
  [[nodiscard]] std::int64_t weight_bytes() const;
  /// Number of layers compiled into the narrow domain.
  [[nodiscard]] std::int64_t i8_layer_count() const;

 private:
  template <typename T>
  void quantize_input_into(const float* sample, T* dst, std::int64_t i0,
                           std::int64_t i1) const;
  /// Output rows a layer exposes to row partitioning (GEMM and narrow
  /// convs: output pixels; wide conv/depthwise: output rows; rest: 1).
  static std::int64_t partition_rows(const PlannedLayer& pl);
  /// The one layer loop behind every run_into overload and run_timed.
  /// `pool` (nullable) spreads the input quantize and each large layer's
  /// rows across its lanes; `layer_ns` (nullable) is resized to one
  /// duration per layer and `quantize_ns` (nullable) gets the quantize
  /// stage's. Null sinks read no clock.
  const std::vector<float>& run_layers(const float* sample, PlanArenas& arenas,
                                       ThreadPool* pool,
                                       std::vector<std::int64_t>* layer_ns,
                                       std::int64_t* quantize_ns) const;
  void run_layer_rows(const PlannedLayer& pl, PlanArenas& arenas, int lane,
                      std::int64_t r0, std::int64_t r1) const;
  void run_head(const PlannedLayer& pl, PlanArenas& arenas) const;
  const std::vector<float>& finish_logits(PlanArenas& arenas) const;
  PlanArenas& self_arenas() const;  ///< self_, built on first use

  const QuantizedNet* net_;
  PlanOptions opts_;
  /// The VNNI tier decision (kForce, or kAuto on a VNNI host): u8 input
  /// quantize runs simd::vnni_quantize_u8 too.
  bool vnni_{false};
  std::vector<PlannedLayer> layers_;
  std::int64_t ping_elems_{0};
  std::int64_t pong_elems_{0};
  std::int64_t ping8_elems_{0};
  std::int64_t pong8_elems_{0};
  std::int64_t col_elems_{0};
  std::int64_t col8_elems_{0};
  std::int64_t row_acc_elems_{0};
  std::int64_t logit_elems_{0};

  /// Arena set backing the non-thread-safe convenience overloads.
  mutable std::unique_ptr<PlanArenas> self_;
};

}  // namespace mixq::runtime
