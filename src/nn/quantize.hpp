#pragma once
/// \file quantize.hpp
/// Affine int8 quantization. Leaf nodes ship activations across the body
/// bus int8-quantized (4x smaller than f32) — the transport format the
/// partitioner's "bytes on the wire" numbers assume — and ISA blocks use
/// the same scheme to compress raw sensor frames.

#include <cstdint>
#include <vector>

#include "nn/precision.hpp"
#include "nn/tensor.hpp"

namespace iob::nn {

struct QuantParams {
  float scale = 1.0f;        ///< real = scale * (q - zero_point)
  std::int32_t zero_point = 0;
};

struct QuantizedTensor {
  std::vector<std::int8_t> data;
  QuantParams params;
  Shape shape;

  [[nodiscard]] std::int64_t bytes() const { return static_cast<std::int64_t>(data.size()); }
};

/// Choose affine parameters covering [min, max] (handles degenerate ranges).
QuantParams choose_quant_params(float min_v, float max_v);

/// Quantize with parameters derived from the tensor's own min/max.
QuantizedTensor quantize(const Tensor& t);

/// Quantize with explicit parameters.
QuantizedTensor quantize(const Tensor& t, QuantParams params);

/// Reconstruct floats.
Tensor dequantize(const QuantizedTensor& q);

/// Worst-case absolute reconstruction error for the chosen parameters
/// (half an LSB step).
double quant_error_bound(QuantParams params);

// ---- activation wire format (split execution across venues) ----------------
//
// When a model runs split — layers [0,k) on the leaf, [k,n) on the hub — the
// boundary activation crosses the body bus in this format. int8 transport is
// NOT self-describing without its affine parameters, so the serialized form
// carries an 8-byte header (f32 scale, i32 zero point little-endian) ahead of
// the 1 B/element payload; the receiver needs both to requantize into its own
// op chain. f32 transport ships the raw 4 B/element floats, header-free.
// `Partitioner::boundary_bytes` prices exactly these sizes.

/// Header bytes preceding an int8 activation payload on the wire.
inline constexpr std::int64_t kActivationHeaderBytes = 8;

/// Bytes an activation of `elems` elements occupies on the wire at the given
/// transport precision (int8: header + 1 B/elem; f32: 4 B/elem).
[[nodiscard]] std::int64_t activation_wire_bytes(std::int64_t elems, Precision precision);

/// Serialize a quantized activation into the int8 wire format (header +
/// payload). `serialized.size() == activation_wire_bytes(elems, kInt8)`.
[[nodiscard]] std::vector<std::uint8_t> serialize_activation(const QuantizedTensor& q);

/// Parse the int8 wire format back into a quantized tensor; `shape` is
/// carried out-of-band (both venues know the model's boundary shapes).
/// Throws std::invalid_argument when the wire length does not match `shape`,
/// the scale is not finite and positive, or the zero point is outside
/// [-128, 127].
[[nodiscard]] QuantizedTensor deserialize_activation(const std::vector<std::uint8_t>& wire,
                                                     Shape shape);

}  // namespace iob::nn
