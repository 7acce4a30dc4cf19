#pragma once
/// \file entropy_detail.hpp
/// Shared entropy-stage helpers for the biopotential and block video
/// codecs: signed varints over a byte token stream, and the Huffman
/// wrap/unwrap framing (256-byte canonical code-length table + 4-byte token
/// count + bitstream). Decoders read byte views in place and throw
/// std::invalid_argument on malformed input.
/// Internal to isa/; not part of the public API.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "isa/huffman.hpp"

namespace iob::isa::detail {

inline std::uint32_t zz_encode_s32(std::int32_t v) {
  return (static_cast<std::uint32_t>(v) << 1) ^ static_cast<std::uint32_t>(v >> 31);
}

inline std::int32_t zz_decode_s32(std::uint32_t u) {
  return static_cast<std::int32_t>((u >> 1) ^ (~(u & 1) + 1));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::int32_t v) {
  std::uint32_t u = zz_encode_s32(v);
  while (u >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(u | 0x80));
    u >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(u));
}

/// Read the varint at `in[pos]` of the `size` bytes at `in`, advancing `pos`.
inline std::int32_t get_varint(const std::uint8_t* in, std::size_t size, std::size_t& pos) {
  std::uint32_t u = 0;
  unsigned shift = 0;
  while (true) {
    if (pos >= size) throw std::invalid_argument("entropy: truncated varint");
    const std::uint8_t b = in[pos++];
    // A fifth byte carries bits 28-31 only; more bits, or a sixth byte,
    // would be dropped from the 32-bit value.
    if (shift == 28 && b > 0x0f) throw std::invalid_argument("entropy: varint overflow");
    u |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  return zz_decode_s32(u);
}

/// Huffman-wrap a token byte stream: [256 B code lengths][4 B count][bits].
inline std::vector<std::uint8_t> huffman_wrap(const std::vector<std::uint8_t>& tokens) {
  std::vector<std::uint64_t> freqs(256, 0);
  for (const auto b : tokens) ++freqs[b];
  if (tokens.empty()) freqs[0] = 1;  // degenerate but valid table
  const HuffmanCodec codec = HuffmanCodec::from_frequencies(freqs);

  std::vector<std::uint8_t> out = codec.code_lengths();
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((tokens.size() >> (8 * i)) & 0xff));
  }
  BitWriter bw;
  for (const auto b : tokens) codec.encode(b, bw);
  const auto bits = bw.finish();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

/// Inverse of huffman_wrap over the `size` bytes at `payload`.
inline std::vector<std::uint8_t> huffman_unwrap(const std::uint8_t* payload, std::size_t size) {
  if (size < 260) throw std::invalid_argument("entropy: payload too short");
  const HuffmanCodec codec =
      HuffmanCodec::from_code_lengths(std::vector<std::uint8_t>(payload, payload + 256));
  std::size_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= static_cast<std::size_t>(payload[256 + static_cast<std::size_t>(i)]) << (8 * i);
  }
  const std::size_t bit_bytes = size - 260;
  // Every live code is at least one bit long, so a count the bitstream
  // cannot hold is forged; reject it before it sizes the token buffer.
  if (count > 8 * bit_bytes) {
    throw std::invalid_argument("entropy: token count exceeds the bitstream");
  }
  BitReader br(payload + 260, bit_bytes);
  std::vector<std::uint8_t> tokens(count);
  for (auto& t : tokens) t = static_cast<std::uint8_t>(codec.decode(br));
  return tokens;
}

}  // namespace iob::isa::detail
