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

  /// Execute the layer on one sample: allocates `output_shape(input)` and
  /// runs `forward_into` at batch 1 on the calling thread's workspace.
  [[nodiscard]] Tensor forward(const Tensor& input) const;

  /// Allocation-free execution, the one kernel entry: read `batch`
  /// contiguous samples of shape `in_shape` from `in`, write `batch` output
  /// samples to `out` (which must hold batch * elems(output_shape(in_shape))
  /// floats; `out` must not alias `in`). Results are bit-exact vs
  /// `forward_reference` per sample; batching changes memory traffic, never
  /// the arithmetic order within a sample. No heap use beyond grow-only
  /// workspace scratch.
  virtual void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                            Workspace& ws) const = 0;

  /// Seed-loop oracle: the original naive nested-loop implementation, kept
  /// verbatim as the bit-exactness reference for `forward_into` (and as the
  /// baseline the nn_infer bench measures speedups against).
  [[nodiscard]] virtual Tensor forward_reference(const Tensor& input) const = 0;

  /// Per-sample im2col scratch floats `forward_into` needs for `in_shape`
  /// (0 for layers that lower without patch extraction).
  [[nodiscard]] virtual std::int64_t scratch_elems(const Shape& in_shape) const {
    (void)in_shape;
    return 0;
  }

  /// True for layers whose kernel can absorb a following Relu in its
  /// epilogue: the `gemm_blocked` lowerings (Conv2D, Conv1D, FullyConnected)
  /// and the direct depthwise kernel (DepthwiseConv2D). Such layers must
  /// also override `forward_into_fused`; `Model::run_into` fuses every such
  /// layer with a Relu right after it.
  [[nodiscard]] virtual bool supports_gemm_tail_fusion() const { return false; }

  /// Fused execution: `forward_into` with the ReLU `tail` applied inside the
  /// GEMM epilogue (nullptr = none) — output shape and contents equal
  /// running this layer then the Relu, with one ping-pong hop saved. Only
  /// called when `supports_gemm_tail_fusion()` is true.
  virtual void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                                  Workspace& ws, const GemmTail* tail) const;

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
