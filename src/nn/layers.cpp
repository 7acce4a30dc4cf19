#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "nn/gemm.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {

// ---- Layer ------------------------------------------------------------------

Tensor Layer::forward(const Tensor& input) const {
  Tensor out(output_shape(input.shape()));
  forward_into(input.data(), input.shape(), 1, out.data(), detail::thread_workspace());
  return out;
}

void Layer::forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                               Workspace& ws, const GemmTail& tail) const {
  (void)in;
  (void)in_shape;
  (void)batch;
  (void)out;
  (void)ws;
  (void)tail;
  IOB_EXPECTS(false, "layer does not support gemm-tail fusion");
}

// ---- FullyConnected ---------------------------------------------------------

FullyConnected::FullyConnected(int in_features, int out_features, std::vector<float> weights,
                               std::vector<float> bias)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(std::move(weights)),
      bias_(std::move(bias)) {
  IOB_EXPECTS(in_features_ > 0 && out_features_ > 0, "feature counts must be positive");
  IOB_EXPECTS(weights_.size() ==
                  static_cast<std::size_t>(in_features_) * static_cast<std::size_t>(out_features_),
              "weight size mismatch");
  IOB_EXPECTS(bias_.size() == static_cast<std::size_t>(out_features_), "bias size mismatch");
  // Repack [out][in] -> [in][out] once so the GEMM streams B rows
  // contiguously; the k-th term of every output stays the k-th input.
  packed_.resize(weights_.size());
  pack_k_major(weights_.data(), out_features_, in_features_, packed_.data());
}

void FullyConnected::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                                  Workspace& ws) const {
  forward_into_fused(in, in_shape, batch, out, ws, GemmTail{});
}

void FullyConnected::forward_into_fused(const float* in, const Shape& in_shape, int batch,
                                        float* out, Workspace& ws, const GemmTail& tail) const {
  (void)ws;
  IOB_EXPECTS(shape_elems(in_shape) == in_features_, "fc input size mismatch");
  gemm_blocked(batch, out_features_, in_features_, in, packed_.data(), bias_.data(), out, tail);
}

Tensor FullyConnected::forward_reference(const Tensor& input) const {
  IOB_EXPECTS(input.size() == in_features_, "fc input size mismatch");
  Tensor out(Shape{out_features_});
  for (int o = 0; o < out_features_; ++o) {
    float acc = bias_[static_cast<std::size_t>(o)];
    const float* w = &weights_[static_cast<std::size_t>(o) * in_features_];
    for (int i = 0; i < in_features_; ++i) acc += w[i] * input[i];
    out[o] = acc;
  }
  return out;
}

Shape FullyConnected::output_shape(const Shape& input) const {
  IOB_EXPECTS(shape_elems(input) == in_features_, "fc input size mismatch");
  return Shape{out_features_};
}

std::uint64_t FullyConnected::macs(const Shape& input) const {
  (void)input;
  return static_cast<std::uint64_t>(in_features_) * static_cast<std::uint64_t>(out_features_);
}

std::uint64_t FullyConnected::param_count() const {
  return static_cast<std::uint64_t>(in_features_) * out_features_ + out_features_;
}

std::string FullyConnected::describe() const {
  std::ostringstream os;
  os << "fc " << in_features_ << "->" << out_features_;
  return os.str();
}

// ---- Relu -------------------------------------------------------------------

Relu::Relu(float cap) : cap_(cap) {}

Tensor Relu::forward_reference(const Tensor& input) const {
  Tensor out = input;
  for (std::int64_t i = 0; i < out.size(); ++i) {
    float v = std::max(0.0f, out[i]);
    if (cap_ > 0.0f) v = std::min(cap_, v);
    out[i] = v;
  }
  return out;
}

void Relu::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                        Workspace& ws) const {
  (void)ws;
  const std::int64_t total = shape_elems(in_shape) * batch;
  for (std::int64_t i = 0; i < total; ++i) {
    float v = std::max(0.0f, in[i]);
    if (cap_ > 0.0f) v = std::min(cap_, v);
    out[i] = v;
  }
}

bool Relu::gemm_tail(int channels, GemmTail& tail) const {
  (void)channels;  // relu is channel-agnostic
  tail.kind = GemmTail::Kind::kRelu;
  tail.cap = cap_;
  return true;
}

Shape Relu::output_shape(const Shape& input) const { return input; }

std::uint64_t Relu::macs(const Shape& input) const {
  // Count one op per element (comparison); negligible but non-zero.
  return static_cast<std::uint64_t>(shape_elems(input));
}

std::string Relu::describe() const { return cap_ > 0.0f ? "relu6" : "relu"; }

// ---- Pool2D -----------------------------------------------------------------

Pool2D::Pool2D(PoolKind kind, int kernel, int stride) : kind_(kind), kernel_(kernel), stride_(stride) {
  IOB_EXPECTS(kernel_ >= 1 && stride_ >= 1, "pool kernel/stride must be positive");
}

Shape Pool2D::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 3, "pool2d expects HWC input");
  IOB_EXPECTS(input[0] >= kernel_ && input[1] >= kernel_, "pool kernel exceeds input");
  const int oh = (input[0] - kernel_) / stride_ + 1;
  const int ow = (input[1] - kernel_) / stride_ + 1;
  return Shape{oh, ow, input[2]};
}

Tensor Pool2D::forward_reference(const Tensor& input) const {
  const Shape os = output_shape(input.shape());
  Tensor out(os);
  const int c = input.shape()[2];
  for (int oy = 0; oy < os[0]; ++oy) {
    for (int ox = 0; ox < os[1]; ++ox) {
      for (int ch = 0; ch < c; ++ch) {
        float acc = kind_ == PoolKind::kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
        for (int ky = 0; ky < kernel_; ++ky) {
          for (int kx = 0; kx < kernel_; ++kx) {
            const float v = input.at(oy * stride_ + ky, ox * stride_ + kx, ch);
            acc = kind_ == PoolKind::kMax ? std::max(acc, v) : acc + v;
          }
        }
        if (kind_ == PoolKind::kAvg) acc /= static_cast<float>(kernel_ * kernel_);
        out.at(oy, ox, ch) = acc;
      }
    }
  }
  return out;
}

void Pool2D::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws) const {
  (void)ws;
  IOB_EXPECTS(in_shape.size() == 3, "pool2d expects HWC input");
  IOB_EXPECTS(in_shape[0] >= kernel_ && in_shape[1] >= kernel_, "pool kernel exceeds input");
  const int ih = in_shape[0], iw = in_shape[1], c = in_shape[2];
  const int oh = (ih - kernel_) / stride_ + 1;
  const int ow = (iw - kernel_) / stride_ + 1;
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + s * in_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        for (int ch = 0; ch < c; ++ch) {
          float acc = kind_ == PoolKind::kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (int ky = 0; ky < kernel_; ++ky) {
            for (int kx = 0; kx < kernel_; ++kx) {
              const float v = ib[(static_cast<std::int64_t>(oy * stride_ + ky) * iw +
                                 (ox * stride_ + kx)) * c + ch];
              acc = kind_ == PoolKind::kMax ? std::max(acc, v) : acc + v;
            }
          }
          if (kind_ == PoolKind::kAvg) acc /= static_cast<float>(kernel_ * kernel_);
          *out++ = acc;
        }
      }
    }
  }
}

std::uint64_t Pool2D::macs(const Shape& input) const {
  const Shape os = output_shape(input);
  return static_cast<std::uint64_t>(shape_elems(os)) * kernel_ * kernel_;
}

std::string Pool2D::describe() const {
  std::ostringstream os;
  os << (kind_ == PoolKind::kMax ? "maxpool " : "avgpool ") << kernel_ << "x" << kernel_ << " s"
     << stride_;
  return os.str();
}

// ---- GlobalAvgPool ----------------------------------------------------------

Shape GlobalAvgPool::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 2 || input.size() == 3, "global pool expects LC or HWC input");
  return Shape{input.back()};
}

Tensor GlobalAvgPool::forward_reference(const Tensor& input) const {
  const int c = input.shape().back();
  const std::int64_t spatial = shape_elems(input.shape()) / c;
  Tensor out(Shape{c});
  for (std::int64_t i = 0; i < input.size(); ++i) {
    out[i % c] += input[i];
  }
  for (int ch = 0; ch < c; ++ch) out[ch] /= static_cast<float>(spatial);
  return out;
}

void GlobalAvgPool::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                                 Workspace& ws) const {
  (void)ws;
  IOB_EXPECTS(in_shape.size() == 2 || in_shape.size() == 3, "global pool expects LC or HWC input");
  const int c = in_shape.back();
  const std::int64_t elems = shape_elems(in_shape);
  const std::int64_t spatial = elems / c;
  // Same per-channel accumulation order as the seed loop (channel ch sums
  // positions ch, ch+c, ch+2c, ... in storage order), expressed as nested
  // loops so the hot path skips the seed's per-element modulo.
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + s * elems;
    float* ob = out + static_cast<std::int64_t>(s) * c;
    for (int ch = 0; ch < c; ++ch) ob[ch] = 0.0f;
    for (std::int64_t sp = 0; sp < spatial; ++sp) {
      const float* row = ib + sp * c;
      for (int ch = 0; ch < c; ++ch) ob[ch] += row[ch];
    }
    for (int ch = 0; ch < c; ++ch) ob[ch] /= static_cast<float>(spatial);
  }
}

std::uint64_t GlobalAvgPool::macs(const Shape& input) const {
  return static_cast<std::uint64_t>(shape_elems(input));
}

std::string GlobalAvgPool::describe() const { return "global-avgpool"; }

// ---- Flatten ----------------------------------------------------------------

Tensor Flatten::forward_reference(const Tensor& input) const {
  return input.reshaped(Shape{static_cast<int>(input.size())});
}

void Flatten::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                           Workspace& ws) const {
  (void)ws;
  const std::int64_t total = shape_elems(in_shape) * batch;
  std::memcpy(out, in, static_cast<std::size_t>(total) * sizeof(float));
}

Shape Flatten::output_shape(const Shape& input) const {
  return Shape{static_cast<int>(shape_elems(input))};
}

// ---- BatchNorm --------------------------------------------------------------

BatchNorm::BatchNorm(std::vector<float> scale, std::vector<float> shift)
    : scale_(std::move(scale)), shift_(std::move(shift)) {
  IOB_EXPECTS(!scale_.empty() && scale_.size() == shift_.size(),
              "batchnorm scale/shift must be non-empty and equal-sized");
}

BatchNorm BatchNorm::fold(const std::vector<float>& gamma, const std::vector<float>& beta,
                          const std::vector<float>& mean, const std::vector<float>& variance,
                          float eps) {
  IOB_EXPECTS(gamma.size() == beta.size() && beta.size() == mean.size() &&
                  mean.size() == variance.size(),
              "batchnorm statistics must be equal-sized");
  std::vector<float> scale(gamma.size()), shift(gamma.size());
  for (std::size_t c = 0; c < gamma.size(); ++c) {
    IOB_EXPECTS(variance[c] >= 0.0f, "variance must be non-negative");
    scale[c] = gamma[c] / std::sqrt(variance[c] + eps);
    shift[c] = beta[c] - mean[c] * scale[c];
  }
  return BatchNorm(std::move(scale), std::move(shift));
}

Shape BatchNorm::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.back() == static_cast<int>(scale_.size()),
              "batchnorm channel count mismatch");
  return input;
}

Tensor BatchNorm::forward_reference(const Tensor& input) const {
  (void)output_shape(input.shape());  // validates channels
  Tensor out = input;
  const auto c = static_cast<std::int64_t>(scale_.size());
  for (std::int64_t i = 0; i < out.size(); ++i) {
    const auto ch = static_cast<std::size_t>(i % c);
    out[i] = scale_[ch] * out[i] + shift_[ch];
  }
  return out;
}

void BatchNorm::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                             Workspace& ws) const {
  (void)ws;
  IOB_EXPECTS(in_shape.back() == static_cast<int>(scale_.size()),
              "batchnorm channel count mismatch");
  const auto c = static_cast<std::int64_t>(scale_.size());
  const std::int64_t rows = shape_elems(in_shape) * batch / c;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const auto i = r * c + ch;
      out[i] = scale_[static_cast<std::size_t>(ch)] * in[i] +
               shift_[static_cast<std::size_t>(ch)];
    }
  }
}

bool BatchNorm::gemm_tail(int channels, GemmTail& tail) const {
  // Only fusable when the producer's columns are exactly this layer's
  // channels (the per-column epilogue IS the per-channel affine).
  if (channels != static_cast<int>(scale_.size())) return false;
  tail.kind = GemmTail::Kind::kBatchNorm;
  tail.scale = scale_.data();
  tail.shift = shift_.data();
  return true;
}

std::uint64_t BatchNorm::macs(const Shape& input) const {
  return static_cast<std::uint64_t>(shape_elems(input));
}

std::uint64_t BatchNorm::param_count() const { return 2 * scale_.size(); }

std::string BatchNorm::describe() const {
  return "batchnorm c" + std::to_string(scale_.size());
}

// ---- Softmax ----------------------------------------------------------------

namespace {

/// Numerically-stable softmax over one contiguous sample, in place. The
/// single implementation behind forward_into and forward_reference keeps
/// their bit-exactness contract by construction.
void softmax_inplace(float* x, std::int64_t n) {
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < n; ++i) mx = std::max(mx, x[i]);
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - mx);
    sum += x[i];
  }
  for (std::int64_t i = 0; i < n; ++i) x[i] = static_cast<float>(x[i] / sum);
}

}  // namespace

Tensor Softmax::forward_reference(const Tensor& input) const {
  Tensor out = input;
  softmax_inplace(out.data(), out.size());
  return out;
}

void Softmax::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                           Workspace& ws) const {
  (void)ws;
  const std::int64_t stride = shape_elems(in_shape);
  std::memcpy(out, in, static_cast<std::size_t>(stride * batch) * sizeof(float));
  for (int s = 0; s < batch; ++s) {
    softmax_inplace(out + static_cast<std::ptrdiff_t>(s) * stride, stride);
  }
}

Shape Softmax::output_shape(const Shape& input) const { return input; }

std::uint64_t Softmax::macs(const Shape& input) const {
  return static_cast<std::uint64_t>(shape_elems(input)) * 2;  // exp + normalize
}

}  // namespace iob::nn
