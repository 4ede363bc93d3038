// mixq/runtime/executor.hpp
//
// Integer-only reference executor with the MCU's memory discipline: all
// inter-layer activations live in two packed "ping-pong" buffers whose peak
// combined size is exactly the Eq. 7 quantity the RW budget constrains.
//
// This is the oracle: it walks the packed get/set reference kernels
// (kernels.hpp) layer by layer. The compiled ExecutionPlan (plan.hpp) is the
// one engine that serves, and the exactness suites hold it to integer
// equality with this walk. Batches across worker lanes run through
// serve::ModelRegistry::infer_batch (serve/registry.hpp).
//
// An Executor holds nothing but a pointer to its net, so every method is
// safe to call from any number of threads at once.
#pragma once

#include <vector>

#include "runtime/kernels.hpp"
#include "runtime/qgraph.hpp"

namespace mixq::runtime {

class Executor {
 public:
  explicit Executor(const QuantizedNet& net) : net_(&net) {}

  /// Run one batch-1 float image through the reference kernels.
  QInferenceResult run(const FloatTensor& image) const;

  /// Run a batch (N >= 1) image by image, returning one result per image.
  /// Samples are quantized straight from a strided view of `images`.
  std::vector<QInferenceResult> run_batch(const FloatTensor& images) const;

  /// Float logits for a whole batch, shaped (N,1,1,K) -- convenient for
  /// comparing against the fake-quantized training graph.
  FloatTensor logits_batch(const FloatTensor& images) const;

  /// Class indices of the k largest logits for one batch-1 image,
  /// descending (top-k classification, k <= number of classes).
  std::vector<std::int32_t> top_k(const FloatTensor& image, int k) const;

 private:
  /// Reference layer walk over already-quantized packed codes.
  QInferenceResult run_codes(PackedBuffer cur) const;

  const QuantizedNet* net_;
};

/// Quantize a batch-1 float image into packed input codes (bulk path:
/// quantize_buffer + pack_range, no per-element bit twiddling).
PackedBuffer quantize_input(const FloatTensor& image,
                            const core::QuantParams& qp);

}  // namespace mixq::runtime
