// mixq/runtime/profiler.hpp
//
// Static per-layer profile of a deployed integer-only network: MAC counts,
// memory traffic, and Table-1 read-only footprint -- the numbers an MCU
// engineer reads off before flashing. Cross-checked in tests against the
// architecture-level NetDesc metadata so the two accounting paths cannot
// drift apart.
#pragma once

#include <string>
#include <vector>

#include "runtime/plan.hpp"
#include "runtime/qgraph.hpp"

namespace mixq::runtime {

struct LayerProfile {
  QLayerKind kind;
  Scheme scheme{Scheme::kPCICN};
  std::int64_t macs{0};            ///< multiply-accumulates per inference
  std::int64_t in_act_bytes{0};    ///< packed input activation buffer
  std::int64_t out_act_bytes{0};   ///< packed output activation buffer
  std::int64_t weight_bytes{0};    ///< packed weight array
  std::int64_t static_bytes{0};    ///< Table-1 MT_A (zero points, requant)
  std::int64_t requant_ops{0};     ///< output elements requantized

  [[nodiscard]] std::int64_t ro_bytes() const {
    return weight_bytes + static_bytes;
  }
  [[nodiscard]] std::int64_t rw_bytes() const {
    return in_act_bytes + out_act_bytes;
  }
};

struct NetProfile {
  std::vector<LayerProfile> layers;
  std::int64_t total_macs{0};
  std::int64_t total_ro_bytes{0};
  std::int64_t peak_rw_bytes{0};

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string str() const;
};

/// Analyse a deployed network.
NetProfile profile(const QuantizedNet& net);

// ---------------------------------------------------------------------------
// Measured (wall-clock) attribution for the planned execution engine.
// ---------------------------------------------------------------------------

struct PlannedLayerStat {
  QLayerKind kind{QLayerKind::kConv};
  KernelTier tier{KernelTier::kNone};   ///< kernel tier the plan selected
  TileConfig tile{};      ///< autotuned blocking (rows/kb/nb; 0 = n/a)
  std::int64_t macs{0};   ///< static MAC count (same as LayerProfile)
  double ns{0.0};         ///< mean wall-clock nanoseconds per inference
  [[nodiscard]] double macs_per_ns() const {
    return ns > 0.0 ? static_cast<double>(macs) / ns : 0.0;
  }
};

struct PlannedProfile {
  std::vector<PlannedLayerStat> layers;  ///< one entry per network layer
  double quantize_ns{0.0};  ///< input-quantization stage
  double total_ns{0.0};     ///< quantize + all layers
  std::int64_t total_macs{0};

  [[nodiscard]] double total_macs_per_ns() const {
    return total_ns > 0.0 ? static_cast<double>(total_macs) / total_ns : 0.0;
  }
  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string str() const;
};

/// Measure per-layer wall-clock attribution of the planned engine: `iters`
/// timed runs of `image` (after one untimed warm-up), averaged.
PlannedProfile profile_planned(const ExecutionPlan& plan,
                               const FloatTensor& image, int iters = 20);

}  // namespace mixq::runtime
