#include "isa/dct.hpp"

#include <algorithm>
#include <cmath>

namespace iob::isa {

namespace {

/// Cosine basis c[k][n] = s(k) * cos(pi*(2n+1)*k/16) for the 8-point DCT.
const std::array<std::array<float, kBlock>, kBlock>& basis8() {
  static const auto table = [] {
    std::array<std::array<float, kBlock>, kBlock> t{};
    for (int k = 0; k < kBlock; ++k) {
      const double s = k == 0 ? std::sqrt(1.0 / kBlock) : std::sqrt(2.0 / kBlock);
      for (int n = 0; n < kBlock; ++n) {
        t[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)] =
            static_cast<float>(s * std::cos(M_PI * (2.0 * n + 1.0) * k / (2.0 * kBlock)));
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

Block dct8x8(const Block& spatial) {
  const auto& c = basis8();
  // Rows then columns (separable).
  Block tmp{}, out{};
  for (int y = 0; y < kBlock; ++y) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0.0f;
      for (int x = 0; x < kBlock; ++x) {
        acc += c[static_cast<std::size_t>(k)][static_cast<std::size_t>(x)] *
               spatial[static_cast<std::size_t>(y * kBlock + x)];
      }
      tmp[static_cast<std::size_t>(y * kBlock + k)] = acc;
    }
  }
  for (int x = 0; x < kBlock; ++x) {
    for (int k = 0; k < kBlock; ++k) {
      float acc = 0.0f;
      for (int y = 0; y < kBlock; ++y) {
        acc += c[static_cast<std::size_t>(k)][static_cast<std::size_t>(y)] *
               tmp[static_cast<std::size_t>(y * kBlock + x)];
      }
      out[static_cast<std::size_t>(k * kBlock + x)] = acc;
    }
  }
  return out;
}

Block idct8x8(const Block& coeffs) {
  const auto& c = basis8();
  Block tmp{}, out{};
  // Inverse columns then rows.
  for (int x = 0; x < kBlock; ++x) {
    for (int n = 0; n < kBlock; ++n) {
      float acc = 0.0f;
      for (int k = 0; k < kBlock; ++k) {
        acc += c[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)] *
               coeffs[static_cast<std::size_t>(k * kBlock + x)];
      }
      tmp[static_cast<std::size_t>(n * kBlock + x)] = acc;
    }
  }
  for (int y = 0; y < kBlock; ++y) {
    for (int n = 0; n < kBlock; ++n) {
      float acc = 0.0f;
      for (int k = 0; k < kBlock; ++k) {
        acc += c[static_cast<std::size_t>(k)][static_cast<std::size_t>(n)] *
               tmp[static_cast<std::size_t>(y * kBlock + k)];
      }
      out[static_cast<std::size_t>(y * kBlock + n)] = acc;
    }
  }
  return out;
}

const std::array<int, kBlock * kBlock>& zigzag_order() {
  static const auto table = [] {
    std::array<int, kBlock * kBlock> t{};
    int idx = 0;
    for (int s = 0; s < 2 * kBlock - 1; ++s) {
      if (s % 2 == 0) {
        // up-right diagonal
        for (int y = std::min(s, kBlock - 1); y >= 0 && s - y < kBlock; --y) {
          t[static_cast<std::size_t>(idx++)] = y * kBlock + (s - y);
        }
      } else {
        for (int x = std::min(s, kBlock - 1); x >= 0 && s - x < kBlock; --x) {
          t[static_cast<std::size_t>(idx++)] = (s - x) * kBlock + x;
        }
      }
    }
    return t;
  }();
  return table;
}

}  // namespace iob::isa
