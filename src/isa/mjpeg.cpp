#include "isa/mjpeg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/expect.hpp"
#include "isa/dct.hpp"
#include "isa/entropy_detail.hpp"

namespace iob::isa {

namespace {

/// Standard JPEG luminance quantization matrix (Annex K), row-major.
constexpr std::array<int, 64> kJpegLuminance = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::uint8_t kEobRun = 63;  ///< run byte value marking end-of-block

}  // namespace

MjpegCodec::MjpegCodec(int quality) : quality_(quality), quant_(64) {
  IOB_EXPECTS(quality >= 1 && quality <= 100, "quality must be in [1, 100]");
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  for (int i = 0; i < 64; ++i) {
    quant_[static_cast<std::size_t>(i)] =
        std::clamp((kJpegLuminance[static_cast<std::size_t>(i)] * scale + 50) / 100, 1, 255);
  }
}

MjpegEncoded MjpegCodec::encode(const GrayFrame& frame) const {
  IOB_EXPECTS(frame.width > 0 && frame.height > 0, "frame must be non-empty");
  IOB_EXPECTS(frame.width % kBlock == 0 && frame.height % kBlock == 0,
              "frame dims must be multiples of 8");
  IOB_EXPECTS(frame.pixels.size() ==
                  static_cast<std::size_t>(frame.width) * static_cast<std::size_t>(frame.height),
              "pixel buffer size mismatch");

  const auto& zz = zigzag_order();
  std::vector<std::uint8_t> tokens;
  tokens.reserve(frame.pixels.size() / 4);

  int prev_dc = 0;
  for (int by = 0; by < frame.height; by += kBlock) {
    for (int bx = 0; bx < frame.width; bx += kBlock) {
      Block spatial{};
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          const std::size_t idx =
              static_cast<std::size_t>(by + y) * static_cast<std::size_t>(frame.width) +
              static_cast<std::size_t>(bx + x);
          spatial[static_cast<std::size_t>(y * kBlock + x)] =
              static_cast<float>(frame.pixels[idx]) - 128.0f;
        }
      }
      const Block coeffs = dct8x8(spatial);

      std::array<int, 64> q{};
      for (int i = 0; i < 64; ++i) {
        q[static_cast<std::size_t>(i)] = static_cast<int>(std::lround(
            coeffs[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])] /
            static_cast<float>(quant_[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])])));
      }

      // DC delta.
      detail::put_varint(tokens, q[0] - prev_dc);
      prev_dc = q[0];

      // AC run-length: (zero-run, value) pairs, EOB terminator.
      int run = 0;
      for (int i = 1; i < 64; ++i) {
        if (q[static_cast<std::size_t>(i)] == 0) {
          ++run;
          continue;
        }
        tokens.push_back(static_cast<std::uint8_t>(run));
        detail::put_varint(tokens, q[static_cast<std::size_t>(i)]);
        run = 0;
      }
      tokens.push_back(kEobRun);
    }
  }

  // Entropy stage: canonical Huffman over token bytes.
  MjpegEncoded out;
  out.width = frame.width;
  out.height = frame.height;
  out.quality = quality_;
  out.payload = detail::huffman_wrap(tokens);
  return out;
}

GrayFrame MjpegCodec::decode(const MjpegEncoded& encoded) const {
  return decode(encoded.width, encoded.height, encoded.quality, encoded.payload.data(),
                encoded.payload.size());
}

GrayFrame MjpegCodec::decode(int width, int height, int quality, const std::uint8_t* payload,
                             std::size_t size) const {
  IOB_EXPECTS(quality == quality_, "stream quality differs from the decoder's");
  IOB_EXPECTS(width > 0 && height > 0, "encoded dims must be positive");
  IOB_EXPECTS(width % kBlock == 0 && height % kBlock == 0, "encoded dims must be multiples of 8");
  const std::vector<std::uint8_t> tokens = detail::huffman_unwrap(payload, size);
  // Every block takes at least a DC byte and an EOB byte, so larger dims
  // are forged and must not size the frame.
  IOB_EXPECTS(static_cast<std::uint64_t>(width / kBlock) *
                      static_cast<std::uint64_t>(height / kBlock) <=
                  tokens.size() / 2,
              "encoded dims exceed the token stream");

  const auto& zz = zigzag_order();
  GrayFrame frame;
  frame.width = width;
  frame.height = height;
  frame.pixels.assign(
      static_cast<std::size_t>(frame.width) * static_cast<std::size_t>(frame.height), 0);

  std::size_t pos = 0;
  int prev_dc = 0;
  for (int by = 0; by < frame.height; by += kBlock) {
    for (int bx = 0; bx < frame.width; bx += kBlock) {
      std::array<int, 64> q{};
      const std::int64_t dc =
          std::int64_t{prev_dc} + detail::get_varint(tokens.data(), tokens.size(), pos);
      if (dc < std::numeric_limits<int>::min() || dc > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("mjpeg: DC out of range");
      }
      q[0] = static_cast<int>(dc);
      prev_dc = q[0];
      int i = 1;
      while (true) {
        if (pos >= tokens.size()) throw std::invalid_argument("mjpeg: truncated block");
        const std::uint8_t run = tokens[pos++];
        if (run == kEobRun) break;
        i += run;
        if (i >= 64) throw std::invalid_argument("mjpeg: run past block end");
        q[static_cast<std::size_t>(i)] = detail::get_varint(tokens.data(), tokens.size(), pos);
        ++i;
      }

      Block coeffs{};
      for (int k = 0; k < 64; ++k) {
        coeffs[static_cast<std::size_t>(zz[static_cast<std::size_t>(k)])] =
            static_cast<float>(q[static_cast<std::size_t>(k)]) *
            static_cast<float>(quant_[static_cast<std::size_t>(zz[static_cast<std::size_t>(k)])]);
      }
      const Block spatial = idct8x8(coeffs);
      for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x) {
          const float v = spatial[static_cast<std::size_t>(y * kBlock + x)] + 128.0f;
          const std::size_t idx =
              static_cast<std::size_t>(by + y) * static_cast<std::size_t>(frame.width) +
              static_cast<std::size_t>(bx + x);
          frame.pixels[idx] =
              static_cast<std::uint8_t>(std::clamp(static_cast<int>(std::lround(v)), 0, 255));
        }
      }
    }
  }
  return frame;
}

double MjpegCodec::compression_ratio(const GrayFrame& frame) const {
  const MjpegEncoded e = encode(frame);
  return static_cast<double>(frame.size_bytes()) / static_cast<double>(e.size_bytes());
}

}  // namespace iob::isa
