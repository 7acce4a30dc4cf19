#pragma once
/// \file metrics.hpp
/// Distortion metric for the ISA video codecs.

#include "isa/mjpeg.hpp"

namespace iob::isa {

/// Peak signal-to-noise ratio (dB) between two 8-bit frames of equal size.
double psnr_db(const GrayFrame& a, const GrayFrame& b);

}  // namespace iob::isa
