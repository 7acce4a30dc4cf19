#pragma once
/// \file mjpeg.hpp
/// MJPEG-style intra-frame video codec — the In-Sensor-Analytics example the
/// paper names for video nodes (Sec. V: "low power in-sensor analytics (ISA)
/// or data compression (example MJPEG compression for video)").
///
/// Pipeline per 8x8 block: level shift -> DCT -> quantization (JPEG
/// luminance matrix scaled by quality) -> zig-zag -> DC delta + AC
/// zero-run-length -> signed varint serialization -> canonical Huffman over
/// the byte stream. Each frame is self-contained (intra-only, like MJPEG),
/// which is the right trade for a leaf node with no frame memory.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iob::isa {

/// 8-bit grayscale (luma) frame; dimensions must be multiples of 8.
struct GrayFrame {
  int width = 0;
  int height = 0;
  std::vector<std::uint8_t> pixels;  ///< row-major, width*height

  [[nodiscard]] std::size_t size_bytes() const { return pixels.size(); }
};

struct MjpegEncoded {
  int width = 0;
  int height = 0;
  int quality = 0;
  std::vector<std::uint8_t> payload;  ///< Huffman table + entropy-coded data

  [[nodiscard]] std::size_t size_bytes() const { return payload.size() + 8; /* header */ }
};

class MjpegCodec {
 public:
  /// \param quality 1 (coarsest) .. 100 (finest); 50 = the standard JPEG
  ///        luminance matrix.
  explicit MjpegCodec(int quality = 50);

  [[nodiscard]] MjpegEncoded encode(const GrayFrame& frame) const;
  /// Throws std::invalid_argument on a malformed stream or one encoded at
  /// another quality (its pixels would dequantize with the wrong matrix).
  [[nodiscard]] GrayFrame decode(const MjpegEncoded& encoded) const;
  /// The same decode over a payload held elsewhere (a key frame of a delta
  /// stream is decoded in place, without copying it into an MjpegEncoded).
  [[nodiscard]] GrayFrame decode(int width, int height, int quality,
                                 const std::uint8_t* payload, std::size_t size) const;

  /// Compression ratio achieved on a frame (raw bytes / encoded bytes).
  [[nodiscard]] double compression_ratio(const GrayFrame& frame) const;

  [[nodiscard]] int quality() const { return quality_; }

  /// The scaled quantization matrix in row-major order.
  [[nodiscard]] const std::vector<int>& quant_matrix() const { return quant_; }

 private:
  int quality_;
  std::vector<int> quant_;
};

}  // namespace iob::isa
