#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/memory_model.hpp"
#include "core/quantizer.hpp"

namespace mixq::runtime {

namespace {

/// Quantize `n` floats starting at `sample` into freshly packed codes --
/// the strided-view entry shared by run() and run_batch().
PackedBuffer quantize_sample(const float* sample, std::int64_t n,
                             const core::QuantParams& qp) {
  const std::vector<std::int32_t> codes =
      core::quantize_buffer(sample, n, qp, core::RoundMode::kNearest);
  PackedBuffer buf(n, qp.q);
  pack_range(buf, 0, n, codes.data());
  return buf;
}

}  // namespace

PackedBuffer quantize_input(const FloatTensor& image,
                            const core::QuantParams& qp) {
  return quantize_sample(image.data(), image.numel(), qp);
}

QInferenceResult Executor::run(const FloatTensor& image) const {
  if (image.shape().n != 1) {
    throw std::invalid_argument("Executor::run: batch must be 1");
  }
  return run_codes(quantize_input(image, net_->input_qp));
}

QInferenceResult Executor::run_codes(PackedBuffer cur) const {
  QInferenceResult res;
  for (std::size_t i = 0; i < net_->layers.size(); ++i) {
    const QLayer& l = net_->layers[i];
    if (l.weights_deferred()) {
      // The reference kernels random-access packed codes; an entropy-coded
      // (deferred) bank has none. The planned engine decodes such banks
      // natively -- for the reference path the caller must materialize.
      throw std::logic_error(
          "Executor: reference path needs materialized weights "
          "(call QLayer::materialize_weights or use the planned engine)");
    }
    if (l.raw_logits) {
      if (i + 1 != net_->layers.size()) {
        throw std::logic_error("Executor: head layer must be last");
      }
      res.logits = run_head(l, cur);
      break;
    }
    PackedBuffer next(l.out_shape.numel(), l.qy);
    run_layer(l, cur, next);
    cur = std::move(next);
  }
  if (res.logits.empty()) {
    // Network without a raw head: return the last codes as logits.
    res.logits.resize(static_cast<std::size_t>(cur.numel()));
    for (std::int64_t i = 0; i < cur.numel(); ++i) {
      res.logits[static_cast<std::size_t>(i)] =
          static_cast<float>(cur.get(i));
    }
  }
  res.predicted = static_cast<std::int32_t>(
      std::max_element(res.logits.begin(), res.logits.end()) -
      res.logits.begin());
  return res;
}

std::vector<QInferenceResult> Executor::run_batch(
    const FloatTensor& images) const {
  const Shape s = images.shape();
  const Shape& in = net_->layers.front().in_shape;
  if (s.h != in.h || s.w != in.w || s.c != in.c) {
    std::string msg = "Executor::run_batch: sample shape ";
    msg += Shape(1, s.h, s.w, s.c).str();
    msg += " does not match network input ";
    msg += in.str();
    throw std::invalid_argument(msg);
  }
  const std::int64_t per = s.h * s.w * s.c;
  std::vector<QInferenceResult> out;
  out.reserve(static_cast<std::size_t>(s.n));
  for (std::int64_t n = 0; n < s.n; ++n) {
    out.push_back(run_codes(
        quantize_sample(images.data() + n * per, per, net_->input_qp)));
  }
  return out;
}

std::vector<std::int32_t> Executor::top_k(const FloatTensor& image,
                                          int k) const {
  const QInferenceResult res = run(image);
  const auto n = static_cast<int>(res.logits.size());
  if (k <= 0 || k > n) {
    throw std::invalid_argument("Executor::top_k: k out of range");
  }
  std::vector<std::int32_t> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](std::int32_t a, std::int32_t b) {
                      return res.logits[static_cast<std::size_t>(a)] >
                             res.logits[static_cast<std::size_t>(b)];
                    });
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

FloatTensor Executor::logits_batch(const FloatTensor& images) const {
  const auto results = run_batch(images);
  const auto k = static_cast<std::int64_t>(results.at(0).logits.size());
  FloatTensor logits(Shape(images.shape().n, 1, 1, k));
  for (std::size_t n = 0; n < results.size(); ++n) {
    std::copy(results[n].logits.begin(), results[n].logits.end(),
              logits.data() + static_cast<std::int64_t>(n) * k);
  }
  return logits;
}

std::int64_t QuantizedNet::ro_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : layers) {
    if (l.kind == QLayerKind::kGlobalAvgPool) continue;
    core::LayerDesc d;
    d.wshape = l.wshape;
    total += core::layer_ro_bytes(d, l.scheme, l.qw);
  }
  return total;
}

void QuantizedNet::validate() const {
  const auto fail = [](std::size_t i, const std::string& why) {
    throw std::runtime_error("QuantizedNet::validate: layer " +
                             std::to_string(i) + ": " + why);
  };
  if (layers.empty()) {
    throw std::runtime_error("QuantizedNet::validate: empty network");
  }
  if (input_qp.scale <= 0.0f) {
    throw std::runtime_error("QuantizedNet::validate: bad input scale");
  }
  // Every zero-point is a code of its own bit width: the plan's acc32
  // bounds and the zero-point split's corrections assume z in [0, qmax(q)].
  const auto zero_ok = [](std::int32_t z, BitWidth q) {
    return z >= 0 && z <= core::qmax(q);
  };
  if (!zero_ok(input_qp.zero, input_qp.q)) {
    throw std::runtime_error("QuantizedNet::validate: input zero-point out "
                             "of range");
  }
  Shape prev_out = layers.front().in_shape;
  BitWidth prev_q = input_qp.q;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const QLayer& l = layers[i];
    if (l.in_shape.n != 1) fail(i, "batch must be 1");
    if (l.in_shape != prev_out) fail(i, "input shape breaks the chain");
    if (l.qx != prev_q) fail(i, "input precision breaks the chain");
    if (l.raw_logits && i + 1 != layers.size()) fail(i, "head not last");
    if (!zero_ok(l.zx, l.qx)) fail(i, "zx out of range");
    if (!zero_ok(l.zy, l.qy)) fail(i, "zy out of range");

    switch (l.kind) {
      case QLayerKind::kConv:
        if (l.wshape.ci != l.in_shape.c) fail(i, "conv ci mismatch");
        break;
      case QLayerKind::kDepthwise:
        if (l.wshape.ci != 1) fail(i, "depthwise ci must be 1");
        if (l.wshape.co != l.in_shape.c) fail(i, "depthwise co mismatch");
        break;
      case QLayerKind::kLinear:
        if (l.wshape.per_channel() !=
            l.in_shape.h * l.in_shape.w * l.in_shape.c) {
          fail(i, "linear fan-in mismatch");
        }
        break;
      case QLayerKind::kGlobalAvgPool:
        if (l.out_shape != Shape(l.in_shape.n, 1, 1, l.in_shape.c)) {
          fail(i, "pool output shape mismatch");
        }
        break;
    }
    if (l.kind == QLayerKind::kConv || l.kind == QLayerKind::kDepthwise) {
      if (l.spec.kh <= 0 || l.spec.kw <= 0 || l.spec.stride <= 0 ||
          l.spec.pad < 0) {
        fail(i, "bad conv spec");
      }
      try {
        const std::int64_t oh = conv_out_dim(l.in_shape.h, l.spec.kh,
                                             l.spec.stride, l.spec.pad);
        const std::int64_t ow = conv_out_dim(l.in_shape.w, l.spec.kw,
                                             l.spec.stride, l.spec.pad);
        if (l.out_shape != Shape(l.in_shape.n, oh, ow, l.wshape.co)) {
          fail(i, "conv output shape mismatch");
        }
      } catch (const std::invalid_argument&) {
        fail(i, "conv geometry invalid");
      }
    }
    if (l.kind == QLayerKind::kLinear &&
        l.out_shape != Shape(l.in_shape.n, 1, 1, l.wshape.co)) {
      fail(i, "linear output shape mismatch");
    }

    if (l.kind != QLayerKind::kGlobalAvgPool) {
      const std::int64_t co = l.wshape.co;
      if (l.weights_numel() != l.wshape.numel()) {
        fail(i, "weight buffer size mismatch");
      }
      if (l.weights_bitwidth() != l.qw) fail(i, "weight bitwidth mismatch");
      if (l.zw.size() != 1 && l.zw.size() != static_cast<std::size_t>(co)) {
        fail(i, "zw count");
      }
      for (const std::int32_t z : l.zw) {
        if (!zero_ok(z, l.qw)) fail(i, "zw out of range");
      }
      if (l.scheme == Scheme::kPCThresholds && !l.raw_logits) {
        if (l.thresholds.size() != static_cast<std::size_t>(co)) {
          fail(i, "threshold channel count");
        }
        for (const auto& th : l.thresholds) {
          if (th.thr.size() != static_cast<std::size_t>(core::qmax(l.qy))) {
            fail(i, "threshold level count");
          }
        }
      } else if (l.icn.size() != static_cast<std::size_t>(co)) {
        fail(i, "icn channel count");
      }
      if (l.raw_logits &&
          l.out_mult.size() != static_cast<std::size_t>(co)) {
        fail(i, "out_mult count");
      }
    } else if (l.qy != l.qx) {
      fail(i, "pool must preserve precision");
    }
    prev_out = l.out_shape;
    prev_q = l.qy;
  }
}

std::int64_t QuantizedNet::rw_peak_bytes() const {
  std::int64_t peak = 0;
  for (const auto& l : layers) {
    if (l.raw_logits) continue;
    const std::int64_t in_b = packed_bytes(l.in_shape.numel(), l.qx);
    const std::int64_t out_b = packed_bytes(l.out_shape.numel(), l.qy);
    peak = std::max(peak, in_b + out_b);
  }
  return peak;
}

}  // namespace mixq::runtime
