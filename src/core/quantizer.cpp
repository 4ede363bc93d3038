#include "core/quantizer.hpp"

#include <algorithm>
#include <cmath>

namespace mixq::core {

QuantParams make_quant_params(float a, float b, BitWidth q) {
  if (b < a) std::swap(a, b);
  // Guarantee the range contains 0 so that zero is exactly representable
  // (required for zero-padding in convolutions to be exact).
  a = std::min(a, 0.0f);
  b = std::max(b, 0.0f);
  float range = b - a;
  if (range < 1e-8f) range = 1e-8f;
  QuantParams p;
  p.q = q;
  p.scale = range / static_cast<float>(qmax(q));
  p.zero = static_cast<std::int32_t>(std::lround(-a / p.scale));
  p.zero = std::clamp(p.zero, 0, qmax(q));
  return p;
}

QuantParams make_symmetric_params(float b, BitWidth q) {
  b = std::max(std::abs(b), 1e-8f);
  return make_quant_params(-b, b, q);
}

std::int32_t quantize_value(float t, const QuantParams& p, RoundMode mode) {
  // Clamp in float before converting: any magnitude, infinities included,
  // saturates, and the conversion below is always in range. Clamping to
  // [-1, qmax] changes no other code; NaN codes as 0.
  const float scaled = t / p.scale + static_cast<float>(p.zero);
  if (std::isnan(scaled)) return 0;
  const float s = std::clamp(scaled, -1.0f, static_cast<float>(qmax(p.q)));
  const std::int32_t code =
      mode == RoundMode::kNearest
          ? static_cast<std::int32_t>(std::lround(s))
          : static_cast<std::int32_t>(std::floor(s));
  return std::clamp(code, 0, qmax(p.q));
}

float fake_quantize_value(float t, const QuantParams& p, RoundMode mode) {
  return p.dequant(quantize_value(t, p, mode));
}

std::vector<std::int32_t> quantize_buffer(const float* data, std::int64_t n,
                                          const QuantParams& p,
                                          RoundMode mode) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = quantize_value(data[i], p, mode);
  }
  return out;
}

void fake_quantize_buffer(float* data, std::int64_t n, const QuantParams& p,
                          RoundMode mode) {
  for (std::int64_t i = 0; i < n; ++i) {
    data[i] = fake_quantize_value(data[i], p, mode);
  }
}

MinMax observe_minmax(const float* data, std::int64_t n) {
  MinMax mm;
  if (n <= 0) return mm;
  mm.lo = mm.hi = data[0];
  for (std::int64_t i = 1; i < n; ++i) {
    mm.lo = std::min(mm.lo, data[i]);
    mm.hi = std::max(mm.hi, data[i]);
  }
  return mm;
}

WeightQuant weight_quant_per_layer_minmax(const FloatWeights& w, BitWidth q) {
  WeightQuant wq;
  wq.granularity = Granularity::kPerLayer;
  wq.q = q;
  const MinMax mm = observe_minmax(w.data(), w.numel());
  wq.params.push_back(make_quant_params(mm.lo, mm.hi, q));
  return wq;
}

WeightQuant weight_quant_per_channel_minmax(const FloatWeights& w,
                                            BitWidth q) {
  WeightQuant wq;
  wq.granularity = Granularity::kPerChannel;
  wq.q = q;
  const std::int64_t co = w.shape().co;
  const std::int64_t per = w.shape().per_channel();
  wq.params.reserve(static_cast<std::size_t>(co));
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const MinMax mm = observe_minmax(w.channel(oc), per);
    wq.params.push_back(make_quant_params(mm.lo, mm.hi, q));
  }
  return wq;
}

WeightQuant weight_quant_per_channel_symmetric(const FloatWeights& w,
                                               BitWidth q) {
  WeightQuant wq;
  wq.granularity = Granularity::kPerChannel;
  wq.q = q;
  const std::int64_t co = w.shape().co;
  const std::int64_t per = w.shape().per_channel();
  wq.params.reserve(static_cast<std::size_t>(co));
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const MinMax mm = observe_minmax(w.channel(oc), per);
    const float b = std::max(std::abs(mm.lo), std::abs(mm.hi));
    wq.params.push_back(make_symmetric_params(b, q));
  }
  return wq;
}

std::vector<std::int32_t> quantize_weights(const FloatWeights& w,
                                           const WeightQuant& wq) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(w.numel()));
  const std::int64_t co = w.shape().co;
  const std::int64_t per = w.shape().per_channel();
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const QuantParams& p = wq.channel(oc);
    const float* src = w.channel(oc);
    for (std::int64_t i = 0; i < per; ++i) {
      codes[static_cast<std::size_t>(oc * per + i)] =
          quantize_value(src[i], p, RoundMode::kNearest);
    }
  }
  return codes;
}

FloatWeights fake_quantize_weights(const FloatWeights& w,
                                   const WeightQuant& wq) {
  FloatWeights out(w.shape());
  const std::int64_t co = w.shape().co;
  const std::int64_t per = w.shape().per_channel();
  for (std::int64_t oc = 0; oc < co; ++oc) {
    const QuantParams& p = wq.channel(oc);
    const float* src = w.channel(oc);
    float* dst = out.channel(oc);
    for (std::int64_t i = 0; i < per; ++i) {
      dst[i] = fake_quantize_value(src[i], p, RoundMode::kNearest);
    }
  }
  return out;
}

}  // namespace mixq::core
