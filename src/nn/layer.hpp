#pragma once
/// \file layer.hpp
/// Layer interface for the sequential inference engine. Each layer reports
/// its MAC count and output shape for a given input shape — the compute and
/// traffic quantities the `partition/` optimizer splits on.

#include <cstdint>
#include <memory>
#include <string>

#include "nn/tensor.hpp"

namespace iob::nn {

class Workspace;
struct GemmTail;

enum class Padding { kValid, kSame };

class Layer {
 public:
  virtual ~Layer() = default;

  /// Execute the layer.
  [[nodiscard]] virtual Tensor forward(const Tensor& input) const = 0;

  /// Execute the layer over a batched input whose leading dim is the batch
  /// (shape [N, ...sample]). Per-sample results are bit-identical to
  /// `forward` on each sample — batching changes memory traffic, never
  /// arithmetic order within a sample. The base implementation loops
  /// samples; layers with weights override it to amortize weight reads
  /// across the batch.
  [[nodiscard]] virtual Tensor forward_batched(const Tensor& input, int batch) const;

  /// Allocation-free execution: read `batch` contiguous samples of shape
  /// `in_shape` from `in`, write `batch` output samples to `out` (which
  /// must hold batch * elems(output_shape(in_shape)) floats; `out` must not
  /// alias `in`). Results are bit-exact vs `forward_reference` per sample.
  /// Every shipped layer overrides this with a lowered kernel that never
  /// touches the heap beyond grow-only workspace scratch; the base
  /// implementation is an allocating fallback via `forward_batched` for
  /// exotic out-of-tree layers.
  virtual void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                            Workspace& ws) const;

  /// Seed-loop oracle: the original naive nested-loop implementation, kept
  /// verbatim as the bit-exactness reference for the lowered kernels (and
  /// as the baseline the nn_infer bench measures speedups against). Layers
  /// whose `forward` was never lowered simply forward to it.
  [[nodiscard]] virtual Tensor forward_reference(const Tensor& input) const {
    return forward(input);
  }

  /// Batched seed-loop oracle (see `forward_reference`).
  [[nodiscard]] virtual Tensor forward_batched_reference(const Tensor& input, int batch) const {
    return forward_batched(input, batch);
  }

  /// Per-sample im2col scratch floats `forward_into` needs for `in_shape`
  /// (0 for layers that lower without patch extraction).
  [[nodiscard]] virtual std::int64_t scratch_elems(const Shape& in_shape) const {
    (void)in_shape;
    return 0;
  }

  /// Describe this layer as a fusable elementwise GEMM-epilogue tail over
  /// `channels` output columns (the producer's trailing dim). Relu and
  /// BatchNorm override it; everything else is not a tail. Returning true
  /// fills `tail`; the fused pair is bit-exact vs running the tail as its
  /// own pass, so `Model::run_into` fuses whenever both sides agree.
  [[nodiscard]] virtual bool gemm_tail(int channels, GemmTail& tail) const {
    (void)channels;
    (void)tail;
    return false;
  }

  /// True for layers whose kernel can absorb a `GemmTail` in its epilogue:
  /// the `gemm_blocked` lowerings (Conv2D, Conv1D, FullyConnected) and the
  /// direct depthwise kernel (DepthwiseConv2D). Such layers must also
  /// override `forward_into_fused`.
  [[nodiscard]] virtual bool supports_gemm_tail_fusion() const { return false; }

  /// Fused execution: `forward_into` with `tail` applied inside the GEMM
  /// epilogue — output shape and contents equal running this layer then the
  /// tail layer, with one ping-pong hop saved. Only called when
  /// `supports_gemm_tail_fusion()` is true.
  virtual void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                                  Workspace& ws, const GemmTail& tail) const;

  /// Output shape for an input shape (throws on incompatible input).
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

  /// Multiply-accumulate operations for an input shape.
  [[nodiscard]] virtual std::uint64_t macs(const Shape& input) const = 0;

  /// Trainable parameter count.
  [[nodiscard]] virtual std::uint64_t param_count() const = 0;

  /// Layer type + config string, e.g. "conv2d 3x3x8 s1 same".
  [[nodiscard]] virtual std::string describe() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace iob::nn
