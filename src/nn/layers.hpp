#pragma once
/// \file layers.hpp
/// Non-convolution layers: dense, activations, pooling, softmax, flatten.

#include <vector>

#include "nn/layer.hpp"

namespace iob::nn {

/// Fully-connected layer: input flattened to a vector, output [out_features].
class FullyConnected final : public Layer {
 public:
  /// Weights are [out_features][in_features] row-major; bias [out_features].
  FullyConnected(int in_features, int out_features, std::vector<float> weights,
                 std::vector<float> bias);

  /// A batch runs as one GEMM, streaming each weight row once.
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] bool supports_gemm_tail_fusion() const override { return true; }
  void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws, const GemmTail& tail) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int in_features() const { return in_features_; }
  [[nodiscard]] int out_features() const { return out_features_; }
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<float>& bias() const { return bias_; }

 private:
  int in_features_, out_features_;
  std::vector<float> weights_, bias_;
  std::vector<float> packed_;  ///< weights transposed to [in][out] for the GEMM
};

/// ReLU with optional clamp (ReLU6 when cap = 6).
class Relu final : public Layer {
 public:
  explicit Relu(float cap = 0.0f);  ///< cap <= 0 means uncapped

  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] bool gemm_tail(int channels, GemmTail& tail) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] float cap() const { return cap_; }

 private:
  float cap_;
};

enum class PoolKind { kMax, kAvg };

/// 2-D pooling over HWC input.
class Pool2D final : public Layer {
 public:
  Pool2D(PoolKind kind, int kernel, int stride);

  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] PoolKind kind() const { return kind_; }
  [[nodiscard]] int kernel() const { return kernel_; }
  [[nodiscard]] int stride() const { return stride_; }

 private:
  PoolKind kind_;
  int kernel_, stride_;
};

/// Global average pool: HWC -> C (also accepts LC -> C).
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override;
};

/// Flatten to rank-1.
class Flatten final : public Layer {
 public:
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override { (void)input; return 0; }
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override { return "flatten"; }
};

/// Batch normalization in folded inference form: per-channel affine
/// y = scale * x + shift over the last (channel) dimension. Training-time
/// (gamma, beta, mean, var) fold into (scale, shift) for deployment;
/// `fold()` performs that conversion.
class BatchNorm final : public Layer {
 public:
  BatchNorm(std::vector<float> scale, std::vector<float> shift);

  /// Fold training statistics into an inference BatchNorm:
  /// scale = gamma / sqrt(var + eps), shift = beta - mean * scale.
  static BatchNorm fold(const std::vector<float>& gamma, const std::vector<float>& beta,
                        const std::vector<float>& mean, const std::vector<float>& variance,
                        float eps = 1e-5f);

  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] bool gemm_tail(int channels, GemmTail& tail) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const std::vector<float>& scale() const { return scale_; }
  [[nodiscard]] const std::vector<float>& shift() const { return shift_; }

 private:
  std::vector<float> scale_, shift_;
};

/// Numerically-stable softmax over the last (only) dimension of a vector.
class Softmax final : public Layer {
 public:
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override { return 0; }
  [[nodiscard]] std::string describe() const override { return "softmax"; }
};

}  // namespace iob::nn
