#include "nn/conv.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "nn/gemm.hpp"
#include "nn/workspace.hpp"

namespace iob::nn {

namespace {

/// Output length and leading pad for one spatial axis.
void conv_axis(int in, int k, int s, Padding p, int& out, int& pad_lead) {
  if (p == Padding::kValid) {
    IOB_EXPECTS(in >= k, "kernel exceeds input (valid padding)");
    out = (in - k) / s + 1;
    pad_lead = 0;
    return;
  }
  out = (in + s - 1) / s;  // ceil(in / s)
  const int pad_total = std::max(0, (out - 1) * s + k - in);
  pad_lead = pad_total / 2;
}

}  // namespace

// ---- Conv2D -----------------------------------------------------------------

Conv2D::Conv2D(int in_channels, int out_channels, int kernel_h, int kernel_w, int stride_h,
               int stride_w, Padding padding, std::vector<float> weights, std::vector<float> bias)
    : in_c_(in_channels),
      out_c_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      sh_(stride_h),
      sw_(stride_w),
      padding_(padding),
      weights_(std::move(weights)),
      bias_(std::move(bias)) {
  IOB_EXPECTS(in_c_ > 0 && out_c_ > 0 && kh_ > 0 && kw_ > 0 && sh_ > 0 && sw_ > 0,
              "conv2d dims must be positive");
  IOB_EXPECTS(weights_.size() == static_cast<std::size_t>(out_c_) * kh_ * kw_ * in_c_,
              "conv2d weight size mismatch");
  IOB_EXPECTS(bias_.size() == static_cast<std::size_t>(out_c_), "conv2d bias size mismatch");
  // Repack [oc][ky][kx][ic] -> [ky*kx*ic][oc] once: GEMM B rows become
  // contiguous while term k of every output stays tap (ky, kx, ic) — the
  // seed accumulation order.
  packed_.resize(weights_.size());
  pack_k_major(weights_.data(), out_c_, static_cast<std::int64_t>(kh_) * kw_ * in_c_,
               packed_.data());
}

void Conv2D::pad_amounts(const Shape& input, int& pad_top, int& pad_left) const {
  int oh, ow;
  geometry(input, oh, ow, pad_top, pad_left);
}

void Conv2D::geometry(const Shape& input, int& oh, int& ow, int& pad_top, int& pad_left) const {
  conv_axis(input[0], kh_, sh_, padding_, oh, pad_top);
  conv_axis(input[1], kw_, sw_, padding_, ow, pad_left);
}

Shape Conv2D::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 3, "conv2d expects HWC input");
  IOB_EXPECTS(input[2] == in_c_, "conv2d channel mismatch");
  int oh, ow, pt, pl;
  conv_axis(input[0], kh_, sh_, padding_, oh, pt);
  conv_axis(input[1], kw_, sw_, padding_, ow, pl);
  return Shape{oh, ow, out_c_};
}

Tensor Conv2D::forward(const Tensor& input) const {
  Tensor out(output_shape(input.shape()));
  forward_into(input.data(), input.shape(), 1, out.data(), detail::thread_workspace());
  return out;
}

Tensor Conv2D::forward_batched(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 4 && input.shape()[0] == batch,
              "conv2d batched input must be [N, H, W, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2], input.shape()[3]};
  const Shape os = output_shape(sample_shape);
  Tensor out(Shape{batch, os[0], os[1], os[2]});
  forward_into(input.data(), sample_shape, batch, out.data(), detail::thread_workspace());
  return out;
}

void Conv2D::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws) const {
  forward_into_fused(in, in_shape, batch, out, ws, GemmTail{});
}

void Conv2D::forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                                Workspace& ws, const GemmTail& tail) const {
  IOB_EXPECTS(in_shape.size() == 3, "conv2d expects HWC input");
  IOB_EXPECTS(in_shape[2] == in_c_, "conv2d channel mismatch");
  const int ih = in_shape[0], iw = in_shape[1];
  int oh, ow, pad_top, pad_left;
  conv_axis(ih, kh_, sh_, padding_, oh, pad_top);
  conv_axis(iw, kw_, sw_, padding_, ow, pad_left);
  const std::int64_t K = static_cast<std::int64_t>(kh_) * kw_ * in_c_;
  if (kh_ == 1 && kw_ == 1 && sh_ == 1 && sw_ == 1) {
    // Pointwise stride-1: the HWC input already is the patch matrix.
    gemm_blocked(static_cast<std::int64_t>(batch) * ih * iw, out_c_, in_c_, in, packed_.data(),
                 bias_.data(), out, tail);
    return;
  }
  const std::int64_t M = static_cast<std::int64_t>(batch) * oh * ow;
  ws.reserve_im2col(M * K);
  im2col_nhwc(batch, ih, iw, in_c_, kh_, kw_, sh_, sw_, pad_top, pad_left, oh, ow, in,
              ws.im2col());
  gemm_blocked(M, out_c_, K, ws.im2col(), packed_.data(), bias_.data(), out, tail);
}

std::int64_t Conv2D::scratch_elems(const Shape& in_shape) const {
  if (in_shape.size() != 3) return 0;
  if (kh_ == 1 && kw_ == 1 && sh_ == 1 && sw_ == 1) return 0;
  int oh, ow, pt, pl;
  conv_axis(in_shape[0], kh_, sh_, padding_, oh, pt);
  conv_axis(in_shape[1], kw_, sw_, padding_, ow, pl);
  return static_cast<std::int64_t>(oh) * ow * kh_ * kw_ * in_c_;
}

Tensor Conv2D::forward_reference(const Tensor& input) const {
  const Shape os = output_shape(input.shape());
  int pad_top = 0, pad_left = 0;
  pad_amounts(input.shape(), pad_top, pad_left);
  const int ih = input.shape()[0], iw = input.shape()[1];

  Tensor out(os);
  for (int oy = 0; oy < os[0]; ++oy) {
    for (int ox = 0; ox < os[1]; ++ox) {
      for (int oc = 0; oc < out_c_; ++oc) {
        float acc = bias_[static_cast<std::size_t>(oc)];
        const float* wbase = &weights_[static_cast<std::size_t>(oc) * kh_ * kw_ * in_c_];
        for (int ky = 0; ky < kh_; ++ky) {
          const int iy = oy * sh_ + ky - pad_top;
          if (iy < 0 || iy >= ih) continue;
          for (int kx = 0; kx < kw_; ++kx) {
            const int ix = ox * sw_ + kx - pad_left;
            if (ix < 0 || ix >= iw) continue;
            const float* w = wbase + (static_cast<std::size_t>(ky) * kw_ + kx) * in_c_;
            const float* in = input.data() + (static_cast<std::size_t>(iy) * iw + ix) * in_c_;
            for (int ic = 0; ic < in_c_; ++ic) acc += w[ic] * in[ic];
          }
        }
        out.at(oy, ox, oc) = acc;
      }
    }
  }
  return out;
}

Tensor Conv2D::forward_batched_reference(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 4 && input.shape()[0] == batch,
              "conv2d batched input must be [N, H, W, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2], input.shape()[3]};
  const Shape os = output_shape(sample_shape);
  int pad_top = 0, pad_left = 0;
  pad_amounts(sample_shape, pad_top, pad_left);
  const int ih = sample_shape[0], iw = sample_shape[1];
  const std::int64_t in_stride = shape_elems(sample_shape);
  const std::int64_t out_stride = shape_elems(os);

  Tensor out(Shape{batch, os[0], os[1], os[2]});
  // Sample-innermost loop: each kernel slice streams once per output
  // position and serves the whole batch. Per-sample accumulation order is
  // identical to forward_reference(), so results are bit-exact.
  for (int oy = 0; oy < os[0]; ++oy) {
    for (int ox = 0; ox < os[1]; ++ox) {
      for (int oc = 0; oc < out_c_; ++oc) {
        const float* wbase = &weights_[static_cast<std::size_t>(oc) * kh_ * kw_ * in_c_];
        for (int s = 0; s < batch; ++s) {
          const float* ibase = input.data() + static_cast<std::ptrdiff_t>(s) * in_stride;
          float acc = bias_[static_cast<std::size_t>(oc)];
          for (int ky = 0; ky < kh_; ++ky) {
            const int iy = oy * sh_ + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < kw_; ++kx) {
              const int ix = ox * sw_ + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const float* w = wbase + (static_cast<std::size_t>(ky) * kw_ + kx) * in_c_;
              const float* in = ibase + (static_cast<std::size_t>(iy) * iw + ix) * in_c_;
              for (int ic = 0; ic < in_c_; ++ic) acc += w[ic] * in[ic];
            }
          }
          out.data()[s * out_stride + (static_cast<std::int64_t>(oy) * os[1] + ox) * out_c_ + oc] =
              acc;
        }
      }
    }
  }
  return out;
}

std::uint64_t Conv2D::macs(const Shape& input) const {
  const Shape os = output_shape(input);
  return static_cast<std::uint64_t>(os[0]) * os[1] * out_c_ * kh_ * kw_ * in_c_;
}

std::uint64_t Conv2D::param_count() const {
  return static_cast<std::uint64_t>(out_c_) * kh_ * kw_ * in_c_ + out_c_;
}

std::string Conv2D::describe() const {
  std::ostringstream os;
  os << "conv2d " << kh_ << "x" << kw_ << "x" << out_c_ << " s" << sh_ << "x" << sw_
     << (padding_ == Padding::kSame ? " same" : " valid");
  return os.str();
}

// ---- DepthwiseConv2D --------------------------------------------------------

DepthwiseConv2D::DepthwiseConv2D(int channels, int kernel, int stride, Padding padding,
                                 std::vector<float> weights, std::vector<float> bias)
    : c_(channels), k_(kernel), s_(stride), padding_(padding), weights_(std::move(weights)),
      bias_(std::move(bias)) {
  IOB_EXPECTS(c_ > 0 && k_ > 0 && s_ > 0, "dwconv dims must be positive");
  IOB_EXPECTS(weights_.size() == static_cast<std::size_t>(c_) * k_ * k_,
              "dwconv weight size mismatch");
  IOB_EXPECTS(bias_.size() == static_cast<std::size_t>(c_), "dwconv bias size mismatch");
  // Repack [c][ky][kx] -> [ky*kx][c]: the channel loop of the direct kernel
  // then reads contiguous weight lanes.
  packed_.resize(weights_.size());
  pack_k_major(weights_.data(), c_, static_cast<std::int64_t>(k_) * k_, packed_.data());
}

void DepthwiseConv2D::geometry(const Shape& input, int& oh, int& ow, int& pad_top,
                               int& pad_left) const {
  conv_axis(input[0], k_, s_, padding_, oh, pad_top);
  conv_axis(input[1], k_, s_, padding_, ow, pad_left);
}

Shape DepthwiseConv2D::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 3, "dwconv expects HWC input");
  IOB_EXPECTS(input[2] == c_, "dwconv channel mismatch");
  int oh, ow, pt, pl;
  conv_axis(input[0], k_, s_, padding_, oh, pt);
  conv_axis(input[1], k_, s_, padding_, ow, pl);
  return Shape{oh, ow, c_};
}

Tensor DepthwiseConv2D::forward(const Tensor& input) const {
  Tensor out(output_shape(input.shape()));
  forward_into(input.data(), input.shape(), 1, out.data(), detail::thread_workspace());
  return out;
}

Tensor DepthwiseConv2D::forward_batched(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 4 && input.shape()[0] == batch,
              "dwconv batched input must be [N, H, W, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2], input.shape()[3]};
  const Shape os = output_shape(sample_shape);
  Tensor out(Shape{batch, os[0], os[1], os[2]});
  forward_into(input.data(), sample_shape, batch, out.data(), detail::thread_workspace());
  return out;
}

void DepthwiseConv2D::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                                   Workspace& ws) const {
  forward_into_fused(in, in_shape, batch, out, ws, GemmTail{});
}

void DepthwiseConv2D::forward_into_fused(const float* in, const Shape& in_shape, int batch,
                                         float* out, Workspace& ws, const GemmTail& tail) const {
  (void)ws;
  IOB_EXPECTS(in_shape.size() == 3, "dwconv expects HWC input");
  IOB_EXPECTS(in_shape[2] == c_, "dwconv channel mismatch");
  const int ih = in_shape[0], iw = in_shape[1];
  int oh, ow, pad_top, pad_left;
  conv_axis(ih, k_, s_, padding_, oh, pad_top);
  conv_axis(iw, k_, s_, padding_, ow, pad_left);
  dwconv2d_nhwc(batch, ih, iw, c_, k_, s_, pad_top, pad_left, oh, ow, in, packed_.data(),
                bias_.data(), out, tail);
}

Tensor DepthwiseConv2D::forward_reference(const Tensor& input) const {
  const Shape os = output_shape(input.shape());
  int pad_top = 0, pad_left = 0;
  int dummy;
  conv_axis(input.shape()[0], k_, s_, padding_, dummy, pad_top);
  conv_axis(input.shape()[1], k_, s_, padding_, dummy, pad_left);
  const int ih = input.shape()[0], iw = input.shape()[1];

  Tensor out(os);
  for (int oy = 0; oy < os[0]; ++oy) {
    for (int ox = 0; ox < os[1]; ++ox) {
      for (int ch = 0; ch < c_; ++ch) {
        float acc = bias_[static_cast<std::size_t>(ch)];
        const float* w = &weights_[static_cast<std::size_t>(ch) * k_ * k_];
        for (int ky = 0; ky < k_; ++ky) {
          const int iy = oy * s_ + ky - pad_top;
          if (iy < 0 || iy >= ih) continue;
          for (int kx = 0; kx < k_; ++kx) {
            const int ix = ox * s_ + kx - pad_left;
            if (ix < 0 || ix >= iw) continue;
            acc += w[ky * k_ + kx] * input.at(iy, ix, ch);
          }
        }
        out.at(oy, ox, ch) = acc;
      }
    }
  }
  return out;
}

Tensor DepthwiseConv2D::forward_batched_reference(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 4 && input.shape()[0] == batch,
              "dwconv batched input must be [N, H, W, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2], input.shape()[3]};
  const Shape os = output_shape(sample_shape);
  int pad_top = 0, pad_left = 0, dummy;
  conv_axis(sample_shape[0], k_, s_, padding_, dummy, pad_top);
  conv_axis(sample_shape[1], k_, s_, padding_, dummy, pad_left);
  const int ih = sample_shape[0], iw = sample_shape[1];
  const std::int64_t in_stride = shape_elems(sample_shape);
  const std::int64_t out_stride = shape_elems(os);

  Tensor out(Shape{batch, os[0], os[1], os[2]});
  for (int oy = 0; oy < os[0]; ++oy) {
    for (int ox = 0; ox < os[1]; ++ox) {
      for (int ch = 0; ch < c_; ++ch) {
        const float* w = &weights_[static_cast<std::size_t>(ch) * k_ * k_];
        for (int s = 0; s < batch; ++s) {
          const float* ibase = input.data() + static_cast<std::ptrdiff_t>(s) * in_stride;
          float acc = bias_[static_cast<std::size_t>(ch)];
          for (int ky = 0; ky < k_; ++ky) {
            const int iy = oy * s_ + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k_; ++kx) {
              const int ix = ox * s_ + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              acc += w[ky * k_ + kx] * ibase[(static_cast<std::size_t>(iy) * iw + ix) * c_ + ch];
            }
          }
          out.data()[s * out_stride + (static_cast<std::int64_t>(oy) * os[1] + ox) * c_ + ch] = acc;
        }
      }
    }
  }
  return out;
}

std::uint64_t DepthwiseConv2D::macs(const Shape& input) const {
  const Shape os = output_shape(input);
  return static_cast<std::uint64_t>(os[0]) * os[1] * c_ * k_ * k_;
}

std::uint64_t DepthwiseConv2D::param_count() const {
  return static_cast<std::uint64_t>(c_) * k_ * k_ + c_;
}

std::string DepthwiseConv2D::describe() const {
  std::ostringstream os;
  os << "dwconv " << k_ << "x" << k_ << " s" << s_ << (padding_ == Padding::kSame ? " same" : " valid");
  return os.str();
}

// ---- Conv1D -----------------------------------------------------------------

Conv1D::Conv1D(int in_channels, int out_channels, int kernel, int stride, Padding padding,
               std::vector<float> weights, std::vector<float> bias)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), s_(stride), padding_(padding),
      weights_(std::move(weights)), bias_(std::move(bias)) {
  IOB_EXPECTS(in_c_ > 0 && out_c_ > 0 && k_ > 0 && s_ > 0, "conv1d dims must be positive");
  IOB_EXPECTS(weights_.size() == static_cast<std::size_t>(out_c_) * k_ * in_c_,
              "conv1d weight size mismatch");
  IOB_EXPECTS(bias_.size() == static_cast<std::size_t>(out_c_), "conv1d bias size mismatch");
  // Repack [oc][kk][ic] -> [kk*ic][oc] for the GEMM (see Conv2D).
  packed_.resize(weights_.size());
  pack_k_major(weights_.data(), out_c_, static_cast<std::int64_t>(k_) * in_c_, packed_.data());
}

Shape Conv1D::output_shape(const Shape& input) const {
  IOB_EXPECTS(input.size() == 2, "conv1d expects LC input");
  IOB_EXPECTS(input[1] == in_c_, "conv1d channel mismatch");
  int ol, pl;
  conv_axis(input[0], k_, s_, padding_, ol, pl);
  return Shape{ol, out_c_};
}

Tensor Conv1D::forward(const Tensor& input) const {
  Tensor out(output_shape(input.shape()));
  forward_into(input.data(), input.shape(), 1, out.data(), detail::thread_workspace());
  return out;
}

Tensor Conv1D::forward_batched(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 3 && input.shape()[0] == batch,
              "conv1d batched input must be [N, L, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2]};
  const Shape os = output_shape(sample_shape);
  Tensor out(Shape{batch, os[0], os[1]});
  forward_into(input.data(), sample_shape, batch, out.data(), detail::thread_workspace());
  return out;
}

void Conv1D::forward_into(const float* in, const Shape& in_shape, int batch, float* out,
                          Workspace& ws) const {
  forward_into_fused(in, in_shape, batch, out, ws, GemmTail{});
}

void Conv1D::forward_into_fused(const float* in, const Shape& in_shape, int batch, float* out,
                                Workspace& ws, const GemmTail& tail) const {
  IOB_EXPECTS(in_shape.size() == 2, "conv1d expects LC input");
  IOB_EXPECTS(in_shape[1] == in_c_, "conv1d channel mismatch");
  const int il = in_shape[0];
  int ol, pad_lead;
  conv_axis(il, k_, s_, padding_, ol, pad_lead);
  if (k_ == 1 && s_ == 1) {
    gemm_blocked(static_cast<std::int64_t>(batch) * il, out_c_, in_c_, in, packed_.data(),
                 bias_.data(), out, tail);
    return;
  }
  // An LC signal is an (L x 1 x C) image: reuse the 2-D patch extractor
  // with kw = ow = 1 so taps land in (kk, ic) order.
  const std::int64_t K = static_cast<std::int64_t>(k_) * in_c_;
  const std::int64_t M = static_cast<std::int64_t>(batch) * ol;
  ws.reserve_im2col(M * K);
  im2col_nhwc(batch, il, 1, in_c_, k_, 1, s_, 1, pad_lead, 0, ol, 1, in, ws.im2col());
  gemm_blocked(M, out_c_, K, ws.im2col(), packed_.data(), bias_.data(), out, tail);
}

void Conv1D::geometry(const Shape& input, int& ol, int& pad_lead) const {
  conv_axis(input[0], k_, s_, padding_, ol, pad_lead);
}

std::int64_t Conv1D::scratch_elems(const Shape& in_shape) const {
  if (in_shape.size() != 2) return 0;
  if (k_ == 1 && s_ == 1) return 0;
  int ol, pl;
  conv_axis(in_shape[0], k_, s_, padding_, ol, pl);
  return static_cast<std::int64_t>(ol) * k_ * in_c_;
}

Tensor Conv1D::forward_reference(const Tensor& input) const {
  const Shape os = output_shape(input.shape());
  int pad_lead = 0, dummy;
  conv_axis(input.shape()[0], k_, s_, padding_, dummy, pad_lead);
  const int il = input.shape()[0];

  Tensor out(os);
  for (int ol = 0; ol < os[0]; ++ol) {
    for (int oc = 0; oc < out_c_; ++oc) {
      float acc = bias_[static_cast<std::size_t>(oc)];
      const float* wbase = &weights_[static_cast<std::size_t>(oc) * k_ * in_c_];
      for (int kk = 0; kk < k_; ++kk) {
        const int ii = ol * s_ + kk - pad_lead;
        if (ii < 0 || ii >= il) continue;
        const float* w = wbase + static_cast<std::size_t>(kk) * in_c_;
        const float* in = input.data() + static_cast<std::size_t>(ii) * in_c_;
        for (int ic = 0; ic < in_c_; ++ic) acc += w[ic] * in[ic];
      }
      out.at(ol, oc) = acc;
    }
  }
  return out;
}

Tensor Conv1D::forward_batched_reference(const Tensor& input, int batch) const {
  IOB_EXPECTS(input.rank() == 3 && input.shape()[0] == batch,
              "conv1d batched input must be [N, L, C]");
  const Shape sample_shape{input.shape()[1], input.shape()[2]};
  const Shape os = output_shape(sample_shape);
  int pad_lead = 0, dummy;
  conv_axis(sample_shape[0], k_, s_, padding_, dummy, pad_lead);
  const int il = sample_shape[0];
  const std::int64_t in_stride = shape_elems(sample_shape);
  const std::int64_t out_stride = shape_elems(os);

  Tensor out(Shape{batch, os[0], os[1]});
  for (int ol = 0; ol < os[0]; ++ol) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* wbase = &weights_[static_cast<std::size_t>(oc) * k_ * in_c_];
      for (int s = 0; s < batch; ++s) {
        const float* ibase = input.data() + static_cast<std::ptrdiff_t>(s) * in_stride;
        float acc = bias_[static_cast<std::size_t>(oc)];
        for (int kk = 0; kk < k_; ++kk) {
          const int ii = ol * s_ + kk - pad_lead;
          if (ii < 0 || ii >= il) continue;
          const float* w = wbase + static_cast<std::size_t>(kk) * in_c_;
          const float* in = ibase + static_cast<std::size_t>(ii) * in_c_;
          for (int ic = 0; ic < in_c_; ++ic) acc += w[ic] * in[ic];
        }
        out.data()[s * out_stride + static_cast<std::int64_t>(ol) * out_c_ + oc] = acc;
      }
    }
  }
  return out;
}

std::uint64_t Conv1D::macs(const Shape& input) const {
  const Shape os = output_shape(input);
  return static_cast<std::uint64_t>(os[0]) * out_c_ * k_ * in_c_;
}

std::uint64_t Conv1D::param_count() const {
  return static_cast<std::uint64_t>(out_c_) * k_ * in_c_ + out_c_;
}

std::string Conv1D::describe() const {
  std::ostringstream os;
  os << "conv1d k" << k_ << "x" << out_c_ << " s" << s_
     << (padding_ == Padding::kSame ? " same" : " valid");
  return os.str();
}

}  // namespace iob::nn
