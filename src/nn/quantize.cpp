#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/expect.hpp"

namespace iob::nn {

QuantParams choose_quant_params(float min_v, float max_v) {
  IOB_EXPECTS(min_v <= max_v, "min must not exceed max");
  // Range must include 0 so that zero is exactly representable.
  min_v = std::min(min_v, 0.0f);
  max_v = std::max(max_v, 0.0f);
  if (max_v == min_v) return QuantParams{1.0f, 0};

  const float scale = (max_v - min_v) / 255.0f;
  const float zp_real = -128.0f - min_v / scale;
  const auto zp = static_cast<std::int32_t>(std::lround(zp_real));
  return QuantParams{scale, std::clamp(zp, -128, 127)};
}

QuantizedTensor quantize(const Tensor& t) {
  float mn = 0.0f, mx = 0.0f;
  if (t.size() > 0) {
    mn = mx = t[0];
    for (std::int64_t i = 1; i < t.size(); ++i) {
      mn = std::min(mn, t[i]);
      mx = std::max(mx, t[i]);
    }
  }
  return quantize(t, choose_quant_params(mn, mx));
}

QuantizedTensor quantize(const Tensor& t, QuantParams params) {
  IOB_EXPECTS(params.scale > 0.0f, "quant scale must be positive");
  QuantizedTensor q;
  q.params = params;
  q.shape = t.shape();
  q.data.resize(static_cast<std::size_t>(t.size()));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const long v = std::lround(t[i] / params.scale) + params.zero_point;
    q.data[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(std::clamp<long>(v, -128, 127));
  }
  return q;
}

Tensor dequantize(const QuantizedTensor& q) {
  Tensor t(q.shape);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    t[static_cast<std::int64_t>(i)] =
        q.params.scale * static_cast<float>(static_cast<std::int32_t>(q.data[i]) - q.params.zero_point);
  }
  return t;
}

double quant_error_bound(QuantParams params) { return 0.5 * static_cast<double>(params.scale); }

std::int64_t activation_wire_bytes(std::int64_t elems, Precision precision) {
  IOB_EXPECTS(elems >= 0, "activation element count must be non-negative");
  return precision == Precision::kInt8 ? kActivationHeaderBytes + elems : elems * 4;
}

std::vector<std::uint8_t> serialize_activation(const QuantizedTensor& q) {
  std::vector<std::uint8_t> wire(static_cast<std::size_t>(kActivationHeaderBytes) +
                                 q.data.size());
  std::memcpy(wire.data(), &q.params.scale, sizeof(float));
  std::memcpy(wire.data() + sizeof(float), &q.params.zero_point, sizeof(std::int32_t));
  std::memcpy(wire.data() + kActivationHeaderBytes, q.data.data(), q.data.size());
  return wire;
}

QuantizedTensor deserialize_activation(const std::vector<std::uint8_t>& wire, Shape shape) {
  const std::int64_t elems = shape_elems(shape);
  IOB_EXPECTS(static_cast<std::int64_t>(wire.size()) == kActivationHeaderBytes + elems,
              "activation wire size does not match the boundary shape");
  QuantizedTensor q;
  std::memcpy(&q.params.scale, wire.data(), sizeof(float));
  std::memcpy(&q.params.zero_point, wire.data() + sizeof(float), sizeof(std::int32_t));
  IOB_EXPECTS(std::isfinite(q.params.scale) && q.params.scale > 0.0f,
              "activation scale must be finite and positive");
  IOB_EXPECTS(q.params.zero_point >= -128 && q.params.zero_point <= 127,
              "activation zero point must lie in [-128, 127]");
  q.shape = std::move(shape);
  q.data.resize(static_cast<std::size_t>(elems));
  std::memcpy(q.data.data(), wire.data() + kActivationHeaderBytes,
              static_cast<std::size_t>(elems));
  return q;
}

}  // namespace iob::nn
