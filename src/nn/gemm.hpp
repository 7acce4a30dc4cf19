#pragma once
/// \file gemm.hpp
/// The lowered compute kernels behind the allocation-free inference engine:
/// a cache-blocked, register-tiled float GEMM plus the im2col patch
/// extractor that lowers convolutions onto it, and a channels-vectorized
/// depthwise kernel (depthwise is a diagonal GEMM; running it dense would
/// waste k*k*C MACs per output position).
///
/// Bit-exactness contract: every kernel accumulates each output element in
/// strictly increasing k order, starting from the bias, with one `acc +=
/// a * b` per term — the exact per-element operation sequence of the seed
/// nested loops (`Layer::forward_reference`). Padding taps enter the GEMM
/// as zero patch entries; `x + a*0` leaves the accumulator value unchanged,
/// so lowered results equal the seed results bitwise. The contract holds at
/// any vector width (each lane is one element's scalar sequence), so the
/// f32 kernels dispatch SSE2 / AVX2 / AVX-512 tiers at run time like the
/// int8 ones. It does not hold under FMA, which rounds a*b + acc once
/// instead of twice: the build disables contraction (-ffp-contract=off).

#include <cstdint>

namespace iob::nn {

/// Register-tile dims of the baseline GEMM microkernel: kMr x kNr
/// accumulators live in registers across the k loop (eight SSE registers,
/// leaving room for the A broadcast and B row loads). The AVX2 and AVX-512
/// tiers keep kMr rows and widen the columns to 16 and 32 (eight ymm / zmm
/// accumulators); the width only changes how many output elements run side
/// by side, never an element's operation sequence.
inline constexpr int kMr = 4;
inline constexpr int kNr = 8;
/// K cache block: one A panel row-block (kMr x kKc) plus the streamed B
/// rows stay L1/L2-resident while a C tile accumulates.
inline constexpr std::int64_t kKc = 256;

/// Transpose a [rows][cols] row-major weight matrix into the K-major
/// [cols][rows] layout `gemm_blocked` streams as B (dst[c * rows + r] =
/// src[r * cols + c]). The one packing rule every lowered layer shares:
/// term k of output r stays input k, preserving seed accumulation order.
void pack_k_major(const float* src, std::int64_t rows, std::int64_t cols, float* dst);

/// Elementwise tail fused into the GEMM epilogue: applied to each C element
/// on the final K block, while the accumulator tile is still in registers,
/// so a fused producer+tail pair skips one workspace ping-pong hop. The
/// operations are the exact per-element expressions of `Relu::forward_into`
/// and `BatchNorm::forward_into`, so fused results stay bit-exact vs
/// running the tail as its own layer pass.
struct GemmTail {
  enum class Kind { kNone, kRelu, kBatchNorm };
  Kind kind = Kind::kNone;
  float cap = 0.0f;              ///< relu clamp (<= 0 = uncapped)
  const float* scale = nullptr;  ///< batchnorm per-column scale [N]
  const float* shift = nullptr;  ///< batchnorm per-column shift [N]
};

/// C[M x N] = bias (broadcast per column, nullptr = 0) + A[M x K] * B[K x N],
/// optionally followed by a fused elementwise `tail`.
/// All matrices row-major and contiguous. Accumulation per C element runs
/// in increasing k order (K blocks processed in order, the partial sum
/// parked in C between blocks), so results are bit-exact vs the naive
/// `for k: acc += A[m][k] * B[k][n]` loop (with the tail applied after).
void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                  const float* bias, float* C, const GemmTail& tail = {});

/// Extract NHWC conv patches into `col` ([batch * oh * ow] rows of
/// kh * kw * ic floats, taps in (ky, kx, ic) order), zero-filling
/// out-of-range taps. Conv1D lowers through the same extractor with
/// kw = 1, ow = 1 (an LC signal is an Hx1xC image).
void im2col_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                 int pad_left, int oh, int ow, const float* in, float* col);

/// Depthwise 2-D convolution over NHWC input with weights repacked to
/// [ky * k + kx][c] (channel-major per tap, so the channel loop vectorizes
/// over contiguous weight and input lanes). Out-of-range taps are skipped,
/// matching the seed loop tap-for-tap: each channel starts from its bias
/// and adds the in-range taps in (ky, kx) order, in a register. An optional
/// fused `tail` (Relu or BatchNorm over the c channels) is applied before
/// the store, bit-exact vs running it as its own pass.
void dwconv2d_nhwc(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                   int oh, int ow, const float* in, const float* wpacked, const float* bias,
                   float* out, const GemmTail& tail = {});

// ---- int8 execution path ----------------------------------------------------
//
// The quantized counterparts of the kernels above. Activations are affine
// int8 (real = s * (q - z)); weights are per-layer affine int8. The GEMM
// accumulates int8 x int8 products in int32 exactly (integer arithmetic:
// the SSE2 and portable paths are bit-identical by construction), and a
// separate epilogue requantizes the int32 accumulator to the next layer's
// int8 scale — or dequantizes to f32 at the network's float tail.

/// Deterministic round-half-away-from-zero float -> int. The one rounding
/// rule every int8 kernel and the load-time quantizer share.
[[nodiscard]] inline std::int32_t round_away(float v) {
  return static_cast<std::int32_t>(v >= 0.0f ? v + 0.5f : v - 0.5f);
}

/// The one requantize scalar every int8 kernel shares: q =
/// clamp(round_away(v * inv_out_scale) + out_zero, -128, 127). The SIMD
/// epilogues implement exactly this per lane (their saturating packs are
/// the clamp), so a change here is a change to the whole int8 path.
[[nodiscard]] inline std::int8_t requantize_value(float v, float inv_out_scale,
                                                  std::int32_t out_zero) {
  const std::int32_t q = round_away(v * inv_out_scale) + out_zero;
  return static_cast<std::int8_t>(q < -128 ? -128 : q > 127 ? 127 : q);
}

/// Pack a K-major int8 weight matrix [K][N] (quantized values `b`,
/// per-column zero points `zw[N]` — per-output-channel affine weights) into
/// the k-pair-interleaved, zero-point-subtracted int16 operand the int8
/// GEMM streams: dst[(kp * N + n) * 2 + r] = b[2 kp + r][n] - zw[n] (0 when
/// 2 kp + r >= K — a zero pad pair contributes nothing to the dot product).
/// ceil(K / 2) pairs; dst holds ceil(K / 2) * N * 2 int16. The layout feeds
/// pmaddwd directly: one 8 x int16 load covers four columns' (k, k+1) pairs.
void pack_b_s8(const std::int8_t* b, std::int64_t K, std::int64_t N, const std::int32_t* zw,
               std::int16_t* dst);

/// Fused quantized epilogue for `gemm_s8`, applied per element on the final
/// K block while the accumulator tile is still in registers (skipping the
/// int32 round-trip through memory): real = bias[n] + scale * acc, optional
/// relu clamp, then either requantize to int8 (`dst`) or store f32
/// (`dstf`) — exactly one target must be set. Bit-identical to running the
/// standalone `requantize_s8` / `dequantize_f32` over the int32 result
/// (tests assert it): the SSE2 lane ops and the scalar expressions are the
/// same IEEE operations, and pack saturation equals the scalar clamp.
struct QuantEpilogue {
  const float* bias = nullptr;  ///< per-column bias [N] (nullptr = 0)
  /// Per-column dequant scales [N] (s_in * s_w[n], the per-output-channel
  /// weight quantization scheme); overrides `scale` when non-null.
  const float* col_scales = nullptr;
  float scale = 1.0f;           ///< per-tensor s_in * s_w fallback
  float relu_cap = -1.0f;       ///< fused relu: < 0 none, 0 uncapped, > 0 clamp
  float inv_out_scale = 1.0f;   ///< 1 / output scale (requant mode)
  std::int32_t out_zero = 0;    ///< output zero point (requant mode)
  std::int8_t* dst = nullptr;   ///< int8 target [M x N]
  float* dstf = nullptr;        ///< f32 target [M x N] (the network's float tail)
};

/// C[M x N] (int32) = sum_k (A[m][k] - za) * Bop[k][n], with A row-major
/// int8 and Bop the `pack_b_s8` operand (already zero-point-subtracted).
/// Exact integer arithmetic: requires K < 2^15 and |a - za|, |w - zw| <=
/// 255, so every partial sum fits int32 with margin. With a non-null `epi`
/// the final K block writes the epilogue result to `epi->dst`/`dstf`
/// instead of C (C is still the inter-block staging for K > one block).
void gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
             std::int32_t za, const std::int16_t* bop, std::int32_t* C,
             const QuantEpilogue* epi = nullptr);

/// Requantize an int32 GEMM/conv accumulator to int8: real = bias[n] +
/// scale * acc (scale = s_in * s_w; bias nullptr = 0), optional fused relu
/// (relu_cap < 0: none, 0: uncapped, > 0: clamp), then q = clamp(
/// round_away(real / out_scale) + out_zero, -128, 127).
void requantize_s8(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                   float scale, float relu_cap, float out_scale, std::int32_t out_zero,
                   std::int8_t* dst);

/// Same affine epilogue, writing dequantized f32 instead (the last weighted
/// op of a quantized network hands float logits to its float tail).
void dequantize_f32(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                    float scale, float relu_cap, float* dst);

/// Test hook: cap the kernel dispatch tier of both precisions — 0 =
/// scalar/SSE2 only, 1 = + AVX2, 2 = + AVX-512 (F and BW); values above the
/// host's capability are still clamped by the runtime CPUID checks.
/// Negative (the default) restores full auto-dispatch. Exists so one
/// wide-ISA machine can assert every tier produces bit-identical results
/// (tests/nn_engine_test.cpp, tests/nn_int8_test.cpp); production code
/// never calls it.
void set_kernel_dispatch_cap(int cap);

/// The tier the kernels dispatch to right now, after CPUID and the test
/// cap: 0 = SSE2 (or portable), 1 = AVX2, 2 = AVX-512. Benches record it so
/// a measurement says which kernels produced it.
[[nodiscard]] int kernel_dispatch_tier();

/// f32 -> int8 activation staging: q = clamp(round_away(v / scale) +
/// zero_point, -128, 127), vectorized (the quantized engine's input hop).
void quantize_f32_to_s8(const float* src, std::int64_t n, float scale, std::int32_t zero_point,
                        std::int8_t* dst);

/// int8 `im2col_nhwc`: identical patch walk, with out-of-range taps filled
/// with the activation zero point (the int8 encoding of real 0).
void im2col_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                    int pad_left, int oh, int ow, std::int8_t zero_point, const std::int8_t* in,
                    std::int8_t* col);

/// Widen a tap-major int8 depthwise weight matrix ([ky * k + kx][c],
/// per-channel zero points `zw[c]`) into the zero-point-subtracted int16
/// operand `dwconv2d_s8` streams (same layout, values w - zw[c]).
void widen_dw_weights_s8(const std::int8_t* w, std::int64_t taps, std::int64_t c,
                         const std::int32_t* zw, std::int16_t* dst);

/// Direct int8 depthwise 2-D convolution: channels-vectorized int32
/// accumulation over in-range taps against the `widen_dw_weights_s8`
/// operand, then the same fused epilogue as the GEMM with per-channel
/// dequant scales `col_scales[c]` — requantize to int8 (`out`) or
/// dequantize to f32 (`outf`); exactly one must be non-null.
void dwconv2d_s8(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                 int oh, int ow, const std::int8_t* in, std::int32_t za,
                 const std::int16_t* w16, const float* bias, const float* col_scales,
                 float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                 float* outf);

}  // namespace iob::nn
