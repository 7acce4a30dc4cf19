#pragma once
/// \file dct.hpp
/// Discrete Cosine Transforms: the separable 8x8 block DCT-II/III used by
/// the MJPEG-style ISA codec, and the JPEG zig-zag scan order.

#include <array>
#include <cstddef>

namespace iob::isa {

inline constexpr int kBlock = 8;
using Block = std::array<float, kBlock * kBlock>;  ///< row-major 8x8

/// Orthonormal forward 8x8 DCT-II.
Block dct8x8(const Block& spatial);

/// Orthonormal inverse (DCT-III); exact inverse of dct8x8 up to float error.
Block idct8x8(const Block& coeffs);

/// JPEG zig-zag scan order: zigzag_order()[k] is the row-major index of the
/// k-th coefficient in scan order.
const std::array<int, kBlock * kBlock>& zigzag_order();

}  // namespace iob::isa
