#include "isa/bio_codec.hpp"

#include <limits>

#include "common/expect.hpp"
#include "isa/entropy_detail.hpp"

namespace iob::isa {

BioEncoded BioCodec::encode(const std::vector<std::int16_t>& samples) const {
  BioEncoded out;
  out.sample_count = samples.size();
  out.huffman = use_huffman_;
  if (samples.empty()) return out;

  std::vector<std::uint8_t> varints;
  varints.reserve(samples.size());
  std::int32_t prev = 0;
  for (const std::int16_t s : samples) {
    detail::put_varint(varints, static_cast<std::int32_t>(s) - prev);
    prev = s;
  }
  out.payload = use_huffman_ ? detail::huffman_wrap(varints) : std::move(varints);
  return out;
}

std::vector<std::int16_t> BioCodec::decode(const BioEncoded& encoded) const {
  if (encoded.sample_count == 0) return {};
  std::vector<std::uint8_t> unwrapped;
  if (encoded.huffman) {
    unwrapped = detail::huffman_unwrap(encoded.payload.data(), encoded.payload.size());
  }
  const std::vector<std::uint8_t>& varints = encoded.huffman ? unwrapped : encoded.payload;
  // Every sample takes at least one varint byte: a larger count is forged
  // and must not size the output buffer.
  IOB_EXPECTS(encoded.sample_count <= varints.size(), "sample count exceeds the varint stream");

  std::vector<std::int16_t> samples;
  samples.reserve(encoded.sample_count);
  std::size_t pos = 0;
  std::int32_t prev = 0;
  for (std::size_t i = 0; i < encoded.sample_count; ++i) {
    // |prev| <= 2^15 and |delta| <= 2^31, so the sum is exact in int64.
    const std::int64_t next = static_cast<std::int64_t>(prev) +
                              detail::get_varint(varints.data(), varints.size(), pos);
    IOB_EXPECTS(next >= std::numeric_limits<std::int16_t>::min() &&
                    next <= std::numeric_limits<std::int16_t>::max(),
                "decoded sample leaves the int16 range");
    prev = static_cast<std::int32_t>(next);
    samples.push_back(static_cast<std::int16_t>(prev));
  }
  return samples;
}

double BioCodec::compression_ratio(const std::vector<std::int16_t>& samples) const {
  IOB_EXPECTS(!samples.empty(), "signal must be non-empty");
  const BioEncoded e = encode(samples);
  return static_cast<double>(samples.size() * 2) / static_cast<double>(e.size_bytes());
}

}  // namespace iob::isa
