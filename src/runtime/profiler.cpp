#include "runtime/profiler.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/memory_model.hpp"

namespace mixq::runtime {

NetProfile profile(const QuantizedNet& net) {
  NetProfile out;
  for (const auto& l : net.layers) {
    LayerProfile p;
    p.kind = l.kind;
    p.scheme = l.scheme;
    p.in_act_bytes = packed_bytes(l.in_shape.numel(), l.qx);
    p.out_act_bytes = packed_bytes(l.out_shape.numel(), l.qy);
    switch (l.kind) {
      case QLayerKind::kConv:
        p.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw * l.wshape.ci;
        break;
      case QLayerKind::kDepthwise:
        p.macs = l.out_shape.numel() * l.spec.kh * l.spec.kw;
        break;
      case QLayerKind::kLinear:
        p.macs = l.in_shape.n * l.wshape.co * l.wshape.per_channel();
        break;
      case QLayerKind::kGlobalAvgPool:
        p.macs = 0;  // additions only
        break;
    }
    if (l.kind != QLayerKind::kGlobalAvgPool) {
      core::LayerDesc d;
      d.wshape = l.wshape;
      p.weight_bytes = core::weight_bytes(d, l.qw);
      p.static_bytes = core::static_param_bytes(d, l.scheme, l.qw);
      p.requant_ops = l.raw_logits ? 0 : l.out_shape.numel();
    }
    out.total_macs += p.macs;
    out.total_ro_bytes += p.ro_bytes();
    out.peak_rw_bytes = std::max(out.peak_rw_bytes, p.rw_bytes());
    out.layers.push_back(p);
  }
  return out;
}

std::string NetProfile::str() const {
  std::ostringstream os;
  os << "layer  kind  scheme         MACs       RO(B)    in+out(B)\n";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& p = layers[i];
    os << i << "\t" << kind_name(p.kind) << "\t" << core::to_string(p.scheme)
       << "\t"
       << p.macs << "\t" << p.ro_bytes() << "\t" << p.rw_bytes() << "\n";
  }
  os << "total MACs " << total_macs << ", RO " << total_ro_bytes
     << " B, peak RW " << peak_rw_bytes << " B\n";
  return os.str();
}

PlannedProfile profile_planned(const ExecutionPlan& plan,
                               const FloatTensor& image, int iters) {
  if (iters <= 0) {
    throw std::invalid_argument("profile_planned: iters must be positive");
  }
  const NetProfile stat = profile(plan.net());
  PlannedProfile out;
  out.total_macs = stat.total_macs;
  out.layers.resize(stat.layers.size());
  for (std::size_t i = 0; i < stat.layers.size(); ++i) {
    out.layers[i].kind = stat.layers[i].kind;
    out.layers[i].macs = stat.layers[i].macs;
    out.layers[i].tier = plan.layers()[i].tier;
    out.layers[i].tile = plan.layers()[i].tile;
  }

  std::vector<std::int64_t> per_layer_ns;
  std::int64_t quantize_ns = 0;
  plan.run_into(image.data());  // warm-up, untimed
  for (int it = 0; it < iters; ++it) {
    plan.run_timed(image.data(), per_layer_ns, &quantize_ns);
    out.quantize_ns += static_cast<double>(quantize_ns);
    for (std::size_t i = 0; i < per_layer_ns.size(); ++i) {
      out.layers[i].ns += static_cast<double>(per_layer_ns[i]);
    }
  }
  out.quantize_ns /= iters;
  for (auto& l : out.layers) l.ns /= iters;
  out.total_ns = out.quantize_ns;
  for (const auto& l : out.layers) out.total_ns += l.ns;
  return out;
}

std::string PlannedProfile::str() const {
  std::ostringstream os;
  os << "layer  kind  tier  tile        MACs        ns    MACs/ns\n";
  os << std::fixed;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const auto& l = layers[i];
    std::string tile = "-";
    if (l.tile.rows > 0 || l.tile.kb > 0 || l.tile.nb > 0) {
      // Built with += (not operator+) to dodge a GCC 12 -Wrestrict false
      // positive in the inlined string concatenation.
      tile = "r";
      tile += std::to_string(l.tile.rows);
      if (l.tile.kb > 0) tile += "/k" + std::to_string(l.tile.kb);
      if (l.tile.nb > 0) tile += "/n" + std::to_string(l.tile.nb);
    }
    os << i << "\t" << kind_name(l.kind) << "\t" << tier_name(l.tier) << "\t"
       << tile << "\t" << l.macs << "\t" << std::setprecision(0) << l.ns << "\t" << std::setprecision(3)
       << l.macs_per_ns() << "\n";
  }
  os << "quantize " << std::setprecision(0) << quantize_ns << " ns, total "
     << total_ns << " ns, " << std::setprecision(3) << total_macs_per_ns()
     << " MACs/ns\n";
  return os.str();
}

}  // namespace mixq::runtime
