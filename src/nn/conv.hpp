#pragma once
/// \file conv.hpp
/// Convolution layers: standard 2-D, depthwise 2-D, and 1-D (for
/// biopotential time series). HWC layout; weights stored row-major as
/// [out_c][kh][kw][in_c] (2-D) / [c][kh][kw] (depthwise) / [out_c][k][in_c]
/// (1-D).
///
/// Execution is lowered onto the blocked GEMM in gemm.hpp: im2col patch
/// extraction in (ky, kx, ic) order feeds `gemm_blocked` against weights
/// repacked K-major at construction, so per-element accumulation order —
/// and hence every result bit — matches the seed nested loops (kept as the
/// `*_reference` oracles). Depthwise runs the channels-vectorized direct
/// kernel (`dwconv2d_nhwc`), and 1x1 stride-1 convolutions skip im2col
/// entirely (the input already is the patch matrix).

#include <vector>

#include "nn/layer.hpp"

namespace iob::nn {

class Conv2D final : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride_h, int stride_w,
         Padding padding, std::vector<float> weights, std::vector<float> bias);

  [[nodiscard]] Tensor forward(const Tensor& input) const override;
  /// Batched pass over [N, H, W, C]: all batch patches fold into one GEMM,
  /// so the kernel tensor streams once for the whole batch.
  [[nodiscard]] Tensor forward_batched(const Tensor& input, int batch) const override;
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched_reference(const Tensor& input, int batch) const override;
  [[nodiscard]] bool supports_gemm_tail_fusion() const override { return true; }
  void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws, const GemmTail& tail) const override;
  [[nodiscard]] std::int64_t scratch_elems(const Shape& in_shape) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel_h() const { return kh_; }
  [[nodiscard]] int kernel_w() const { return kw_; }
  [[nodiscard]] int stride_h() const { return sh_; }
  [[nodiscard]] int stride_w() const { return sw_; }
  /// Row-major [out_c][kh][kw][in_c] weights (the quantizer's source).
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<float>& bias() const { return bias_; }
  /// Spatial geometry for `input`: output dims and leading pads.
  void geometry(const Shape& input, int& oh, int& ow, int& pad_top, int& pad_left) const;

 private:
  void pad_amounts(const Shape& input, int& pad_top, int& pad_left) const;

  int in_c_, out_c_, kh_, kw_, sh_, sw_;
  Padding padding_;
  std::vector<float> weights_, bias_;
  std::vector<float> packed_;  ///< weights repacked to [kh*kw*in_c][out_c]
};

class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(int channels, int kernel, int stride, Padding padding,
                  std::vector<float> weights, std::vector<float> bias);

  [[nodiscard]] Tensor forward(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched(const Tensor& input, int batch) const override;
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched_reference(const Tensor& input, int batch) const override;
  [[nodiscard]] bool supports_gemm_tail_fusion() const override { return true; }
  void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws, const GemmTail& tail) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int channels() const { return c_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] int stride() const { return s_; }
  /// Row-major [c][k][k] weights (the quantizer's source).
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<float>& bias() const { return bias_; }
  /// Spatial geometry for `input`: output dims and leading pads.
  void geometry(const Shape& input, int& oh, int& ow, int& pad_top, int& pad_left) const;

 private:
  int c_, k_, s_;
  Padding padding_;
  std::vector<float> weights_, bias_;
  std::vector<float> packed_;  ///< weights repacked to [k*k][c]
};

class Conv1D final : public Layer {
 public:
  Conv1D(int in_channels, int out_channels, int kernel, int stride, Padding padding,
         std::vector<float> weights, std::vector<float> bias);

  [[nodiscard]] Tensor forward(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched(const Tensor& input, int batch) const override;
  void forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                    Workspace& ws) const override;
  [[nodiscard]] Tensor forward_reference(const Tensor& input) const override;
  [[nodiscard]] Tensor forward_batched_reference(const Tensor& input, int batch) const override;
  [[nodiscard]] bool supports_gemm_tail_fusion() const override { return true; }
  void forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws, const GemmTail& tail) const override;
  [[nodiscard]] std::int64_t scratch_elems(const Shape& in_shape) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t macs(const Shape& input) const override;
  [[nodiscard]] std::uint64_t param_count() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] int stride() const { return s_; }
  /// Row-major [out_c][k][in_c] weights (the quantizer's source).
  [[nodiscard]] const std::vector<float>& weights() const { return weights_; }
  [[nodiscard]] const std::vector<float>& bias() const { return bias_; }
  /// Axis geometry for `input`: output length and leading pad.
  void geometry(const Shape& input, int& ol, int& pad_lead) const;

 private:
  int in_c_, out_c_, k_, s_;
  Padding padding_;
  std::vector<float> weights_, bias_;
  std::vector<float> packed_;  ///< weights repacked to [k*in_c][out_c]
};

}  // namespace iob::nn
