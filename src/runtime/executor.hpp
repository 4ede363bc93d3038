// mixq/runtime/executor.hpp
//
// Integer-only inference executor with the MCU's memory discipline: all
// inter-layer activations live in two packed "ping-pong" buffers whose peak
// combined size is exactly the Eq. 7 quantity the RW budget constrains.
//
// Three execution paths, all bit-exact equals:
//   * reference  -- packed get/set reference kernels (kernels.hpp);
//   * fast       -- per-layer unpacked-scratch kernels (fast_kernels.hpp);
//   * planned    -- the compiled ExecutionPlan (plan.hpp): weights unpacked
//                   once, ping-pong arena, im2col GEMM + SIMD kernels, zero
//                   steady-state allocations. Built lazily on first use.
//
// Thread-safety contract:
//   * plan() is safe to call from any number of threads concurrently; the
//     lazy compilation happens exactly once (std::call_once) and every
//     caller observes the fully built plan.
//   * run_batch(images, threads) with threads != 1 partitions the batch
//     across a fixed-size ThreadPool; each worker lane runs the shared
//     read-only plan through its own PlanArenas, so results are
//     bit-identical to the serial path for every thread count.
//   * run(), run_planned() and run_batch() itself use per-executor
//     mutable scratch (and one cached pool), so they are NOT safe to call
//     concurrently on one Executor instance -- parallelism lives *inside*
//     run_batch, not across calls.
//   * The serving daemon follows the same discipline: the one batch
//     worker of serve::Dispatcher (serve/dispatcher.hpp) drives
//     serve::ModelRegistry::infer_indices, which hands each micro-batch's
//     requests to the pool's free lanes, one PlanArenas per lane over the
//     shared immutable plan. Served results are therefore bit-identical
//     to a serial run_planned() for every lane count and every batch
//     composition.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/fast_kernels.hpp"
#include "runtime/kernels.hpp"
#include "runtime/parallel.hpp"
#include "runtime/plan.hpp"
#include "runtime/qgraph.hpp"

namespace mixq::runtime {

class Executor {
 public:
  /// `fast` selects the unpacked-scratch kernel path (fast_kernels.hpp)
  /// for run(); a fast executor's run_batch() uses the planned engine
  /// (a non-fast one keeps the reference kernels throughout).
  explicit Executor(const QuantizedNet& net, bool fast = false)
      : net_(&net), fast_(fast) {}

  /// Run one batch-1 float image through the network.
  QInferenceResult run(const FloatTensor& image) const;

  /// Run one batch-1 float image through the planned engine (compiled on
  /// first use, then reused; zero steady-state heap allocations inside).
  QInferenceResult run_planned(const FloatTensor& image) const;

  /// The compiled plan for this network. Lazily built exactly once and
  /// cached; concurrent callers all block until it is ready (thread-safe).
  const ExecutionPlan& plan() const;

  [[nodiscard]] const QuantizedNet& net() const { return *net_; }

  /// Batch-1 NHWC input shape of the deployed network.
  [[nodiscard]] const Shape& input_shape() const {
    return net_->layers.front().in_shape;
  }

  /// Run a batch (N >= 1) image-by-image, returning one result per image.
  /// Samples are quantized straight from a strided view of `images`; fast
  /// executors route every sample through the shared ExecutionPlan.
  ///
  /// `threads` != 1 partitions the samples contiguously across a
  /// fixed-size thread pool (0 = hardware concurrency; capped at the batch
  /// size). Each lane owns its own working arenas; the per-sample results
  /// are bit-identical to the serial path for every thread count.
  std::vector<QInferenceResult> run_batch(const FloatTensor& images,
                                          int threads = 1) const;

  /// Float logits for a whole batch, shaped (N,1,1,K) -- convenient for
  /// comparing against the fake-quantized training graph.
  FloatTensor logits_batch(const FloatTensor& images) const;

  /// Class indices of the k largest logits for one batch-1 image,
  /// descending (top-k classification, k <= number of classes).
  std::vector<std::int32_t> top_k(const FloatTensor& image, int k) const;

 private:
  /// Layer walk over already-quantized packed codes, selecting reference
  /// or fast kernels from the fast_ member. The reference path never
  /// touches scratch_, so it is safe from worker threads.
  QInferenceResult run_codes(PackedBuffer cur) const;

  /// The cached pool (grow-only: rebuilt under pool_mu_ only when more
  /// lanes are requested than it has; narrower jobs dispatch over a
  /// subset of its lanes).
  ThreadPool& pool(int lanes) const;

  const QuantizedNet* net_;
  bool fast_;
  mutable Scratch scratch_;
  mutable std::once_flag plan_once_;
  mutable std::unique_ptr<ExecutionPlan> plan_;
  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<ThreadPool> pool_;
  /// Per-lane working arenas for the threaded run_batch path, cached
  /// across calls (grow-only, like the pool).
  mutable std::vector<std::unique_ptr<PlanArenas>> lane_arenas_;
};

/// Quantize a batch-1 float image into packed input codes (bulk path:
/// quantize_buffer + pack_range, no per-element bit twiddling).
PackedBuffer quantize_input(const FloatTensor& image,
                            const core::QuantParams& qp);

}  // namespace mixq::runtime
