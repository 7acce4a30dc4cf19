#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#define IOB_GEMM_SSE2 1
#include <emmintrin.h>
#endif

// Runtime-dispatched AVX2, AVX-512 and AVX-512 VNNI tiers above the SSE2
// baseline, for both precisions (VNNI only changes the int8 GEMM). The
// int8 kernels accumulate exactly in int32, so every width and
// instruction choice gives the same bits by construction. The f32 kernels
// keep the seed loops' bits because each lane runs the same separate
// multiply then add, in the same k order, at any vector width: a wider
// register only computes more output elements side by side. Only fusing
// the pair into one FMA (a single rounding instead of two) would change a
// result, so the build compiles with -ffp-contract=off and the kernels
// never call an FMA intrinsic.
#if IOB_GEMM_SSE2 && (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define IOB_GEMM_AVX2_DISPATCH 1
#include <immintrin.h>
#endif

#include "common/expect.hpp"

namespace iob::nn {

namespace {

/// Dispatch-tier cap for the test hook (INT_MAX = full auto).
std::atomic<int> g_dispatch_cap{std::numeric_limits<int>::max()};

#if IOB_GEMM_AVX2_DISPATCH
bool cpu_has_avx2() {
  static const bool v = __builtin_cpu_supports("avx2") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 1;
}

bool cpu_has_avx512() {
  static const bool v =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0;
  return v && g_dispatch_cap.load(std::memory_order_relaxed) >= 2;
}

bool cpu_has_avx512_vnni() {
  static const bool v = __builtin_cpu_supports("avx512vnni") != 0;
  return v && cpu_has_avx512() && g_dispatch_cap.load(std::memory_order_relaxed) >= 3;
}
#endif

/// The scalar tail op: the exact per-element expressions of
/// `Relu::forward_into`. The kernels below take the tail as a pointer that
/// is non-null only when it applies (a fused Relu, on the final K block).
inline float apply_tail(const GemmTail& t, float v) {
  v = std::max(0.0f, v);
  if (t.cap > 0.0f) v = std::min(t.cap, v);
  return v;
}

// The tile kernels below accumulate `kc` terms of A*B into a kMr-row C
// tile. On the first K block the tile starts from the bias row; afterwards
// the partial sums re-load from C, so the per-element accumulation order
// over the whole K range is the plain increasing-k order. A non-null
// `tail` (final K block only) applies the fused elementwise epilogue while
// the tile is still in registers. Each vector tier issues the same per-lane
// mul/add sequence as the portable loop; it just pins the accumulator block
// in registers so the k loop runs ~2 ops per vector of MACs.

#if IOB_GEMM_SSE2
/// Lane-wise `apply_tail` over 4 columns. max/min match std::max(0, v) /
/// std::min(cap, v) lane-for-lane on the finite activations the engine
/// traffics in.
inline __m128 tail_ps(const GemmTail& t, __m128 v) {
  v = _mm_max_ps(_mm_setzero_ps(), v);
  return t.cap > 0.0f ? _mm_min_ps(_mm_set1_ps(t.cap), v) : v;
}

/// kMr x kNr SSE2 tile: the 4x8 accumulator block lives in eight xmm
/// registers across the k loop.
void micro_tile(std::int64_t kc, const float* a, std::int64_t K, const float* b, std::int64_t N,
                float* c, const float* bias, bool first, const GemmTail* tail) {
  static_assert(kMr == 4 && kNr == 8, "micro_tile is written for a 4x8 register tile");
  __m128 acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      acc[i][h] = !first          ? _mm_loadu_ps(c + i * N + 4 * h)
                  : bias != nullptr ? _mm_loadu_ps(bias + 4 * h)
                                    : _mm_setzero_ps();
    }
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* brow = b + k * N;
    const __m128 b0 = _mm_loadu_ps(brow);
    const __m128 b1 = _mm_loadu_ps(brow + 4);
    for (int i = 0; i < kMr; ++i) {
      const __m128 ai = _mm_set1_ps(a[i * K + k]);
      acc[i][0] = _mm_add_ps(acc[i][0], _mm_mul_ps(ai, b0));
      acc[i][1] = _mm_add_ps(acc[i][1], _mm_mul_ps(ai, b1));
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      if (tail != nullptr) acc[i][h] = tail_ps(*tail, acc[i][h]);
      _mm_storeu_ps(c + i * N + 4 * h, acc[i][h]);
    }
  }
}
#else
void micro_tile(std::int64_t kc, const float* a, std::int64_t K, const float* b, std::int64_t N,
                float* c, const float* bias, bool first, const GemmTail* tail) {
  float acc[kMr][kNr];
  for (int i = 0; i < kMr; ++i) {
    for (int j = 0; j < kNr; ++j) {
      acc[i][j] = first ? (bias != nullptr ? bias[j] : 0.0f) : c[i * N + j];
    }
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* brow = b + k * N;
    for (int i = 0; i < kMr; ++i) {
      const float ai = a[i * K + k];
      for (int j = 0; j < kNr; ++j) acc[i][j] += ai * brow[j];
    }
  }
  if (tail != nullptr) {
    for (int i = 0; i < kMr; ++i) {
      for (int j = 0; j < kNr; ++j) acc[i][j] = apply_tail(*tail, acc[i][j]);
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int j = 0; j < kNr; ++j) c[i * N + j] = acc[i][j];
  }
}
#endif

#if IOB_GEMM_AVX2_DISPATCH
/// AVX2 column width of the f32 tile (two ymm accumulators per row).
constexpr std::int64_t kNrF2 = 16;

/// 256-bit `tail_ps` (same lane ops).
__attribute__((target("avx2"))) inline __m256 tail_ps256(const GemmTail& t, __m256 v) {
  v = _mm256_max_ps(_mm256_setzero_ps(), v);
  return t.cap > 0.0f ? _mm256_min_ps(_mm256_set1_ps(t.cap), v) : v;
}

/// kMr x kNrF2 AVX2 tile: eight ymm accumulators, twice the SSE2 tile's
/// columns per k step.
__attribute__((target("avx2"))) void micro_tile_avx2(std::int64_t kc, const float* a,
                                                     std::int64_t K, const float* b,
                                                     std::int64_t N, float* c, const float* bias,
                                                     bool first, const GemmTail* tail) {
  static_assert(kMr == 4, "micro_tile_avx2 is written for 4 rows");
  __m256 acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      acc[i][h] = !first          ? _mm256_loadu_ps(c + i * N + 8 * h)
                  : bias != nullptr ? _mm256_loadu_ps(bias + 8 * h)
                                    : _mm256_setzero_ps();
    }
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* brow = b + k * N;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int i = 0; i < kMr; ++i) {
      const __m256 ai = _mm256_set1_ps(a[i * K + k]);
      acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(ai, b0));
      acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(ai, b1));
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      if (tail != nullptr) acc[i][h] = tail_ps256(*tail, acc[i][h]);
      _mm256_storeu_ps(c + i * N + 8 * h, acc[i][h]);
    }
  }
}

// GCC 12's avx512 max/min intrinsics trip -Wmaybe-uninitialized on the
// unused merge operand of the maskless form; the value is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// AVX-512 column width of the f32 tile (two zmm accumulators per row).
constexpr std::int64_t kNrF3 = 32;

/// 512-bit `tail_ps` (same lane ops).
__attribute__((target("avx2,avx512f"))) inline __m512 tail_ps512(const GemmTail& t, __m512 v) {
  v = _mm512_max_ps(_mm512_setzero_ps(), v);
  return t.cap > 0.0f ? _mm512_min_ps(_mm512_set1_ps(t.cap), v) : v;
}

/// kMr x kNrF3 AVX-512 tile: eight zmm accumulators, four times the SSE2
/// tile's columns per k step.
__attribute__((target("avx2,avx512f"))) void micro_tile_avx512(std::int64_t kc, const float* a,
                                                               std::int64_t K, const float* b,
                                                               std::int64_t N, float* c,
                                                               const float* bias, bool first,
                                                               const GemmTail* tail) {
  static_assert(kMr == 4, "micro_tile_avx512 is written for 4 rows");
  __m512 acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      acc[i][h] = !first          ? _mm512_loadu_ps(c + i * N + 16 * h)
                  : bias != nullptr ? _mm512_loadu_ps(bias + 16 * h)
                                    : _mm512_setzero_ps();
    }
  }
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* brow = b + k * N;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    for (int i = 0; i < kMr; ++i) {
      const __m512 ai = _mm512_set1_ps(a[i * K + k]);
      acc[i][0] = _mm512_add_ps(acc[i][0], _mm512_mul_ps(ai, b0));
      acc[i][1] = _mm512_add_ps(acc[i][1], _mm512_mul_ps(ai, b1));
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int h = 0; h < 2; ++h) {
      if (tail != nullptr) acc[i][h] = tail_ps512(*tail, acc[i][h]);
      _mm512_storeu_ps(c + i * N + 16 * h, acc[i][h]);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // IOB_GEMM_AVX2_DISPATCH

/// Scalar edge path for the M/N remainders, same accumulation order.
void edge_tile(std::int64_t rows, std::int64_t cols, std::int64_t kc, const float* a,
               std::int64_t K, const float* b, std::int64_t N, float* c, const float* bias,
               bool first, const GemmTail* tail) {
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      float acc = first ? (bias != nullptr ? bias[j] : 0.0f) : c[i * N + j];
      const float* arow = a + i * K;
      for (std::int64_t k = 0; k < kc; ++k) acc += arow[k] * b[k * N + j];
      if (tail != nullptr) acc = apply_tail(*tail, acc);
      c[i * N + j] = acc;
    }
  }
}

}  // namespace

void set_kernel_dispatch_cap(int cap) {
  g_dispatch_cap.store(cap < 0 ? std::numeric_limits<int>::max() : cap,
                       std::memory_order_relaxed);
}

int kernel_dispatch_tier() {
#if IOB_GEMM_AVX2_DISPATCH
  if (cpu_has_avx512_vnni()) return 3;
  if (cpu_has_avx512()) return 2;
  if (cpu_has_avx2()) return 1;
#endif
  return 0;
}

void pack_k_major(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

void gemm_blocked(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                  const float* bias, float* C, const GemmTail* tail) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
#if IOB_GEMM_AVX2_DISPATCH
  const bool avx2 = cpu_has_avx2();
  const bool avx512 = cpu_has_avx512();
#endif
  for (std::int64_t k0 = 0; k0 < K; k0 += kKc) {
    const std::int64_t kc = std::min(kKc, K - k0);
    const bool first = k0 == 0;
    const GemmTail* t = k0 + kc == K ? tail : nullptr;
    const float* bk = B + k0 * N;
    std::int64_t m = 0;
    for (; m + kMr <= M; m += kMr) {
      const float* am = A + m * K + k0;
      float* cm = C + m * N;
      std::int64_t n = 0;
#if IOB_GEMM_AVX2_DISPATCH
      if (avx512) {
        for (; n + kNrF3 <= N; n += kNrF3) {
          micro_tile_avx512(kc, am, K, bk + n, N, cm + n, bias != nullptr ? bias + n : nullptr,
                            first, t);
        }
      }
      if (avx2) {
        for (; n + kNrF2 <= N; n += kNrF2) {
          micro_tile_avx2(kc, am, K, bk + n, N, cm + n, bias != nullptr ? bias + n : nullptr,
                          first, t);
        }
      }
#endif
      for (; n + kNr <= N; n += kNr) {
        micro_tile(kc, am, K, bk + n, N, cm + n, bias != nullptr ? bias + n : nullptr, first, t);
      }
      if (n < N) {
        edge_tile(kMr, N - n, kc, am, K, bk + n, N, cm + n,
                  bias != nullptr ? bias + n : nullptr, first, t);
      }
    }
    if (m < M) {
      edge_tile(M - m, N, kc, A + m * K + k0, K, bk, N, C + m * N, bias, first, t);
    }
  }
}

namespace {

/// Inline float copy: the per-tap slices are tiny (ic floats, often 3-64),
/// where a libc memcpy call costs more than the copy itself.
inline void copy_floats(float* dst, const float* src, std::int64_t n) {
  if (n >= 64) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

inline void zero_floats(float* dst, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = 0.0f;
}

}  // namespace

void im2col_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                 int pad_left, int oh, int ow, const float* in, float* col) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  for (int s = 0; s < batch; ++s) {
    const float* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int x0 = ox * sw - pad_left;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * sh + ky - pad_top;
          if (iy < 0 || iy >= ih) {
            zero_floats(col, static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          const float* irow = ib + static_cast<std::int64_t>(iy) * iw * ic;
          if (x0 >= 0 && x0 + kw <= iw) {
            // Interior: the kw taps of this patch row are consecutive input
            // pixels — one contiguous copy.
            copy_floats(col, irow + static_cast<std::int64_t>(x0) * ic,
                        static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            if (ix < 0 || ix >= iw) {
              zero_floats(col, ic);
            } else {
              copy_floats(col, irow + static_cast<std::int64_t>(ix) * ic, ic);
            }
            col += ic;
          }
        }
      }
    }
  }
}

namespace {

/// Arguments of one f32 depthwise call, plus the per-pixel view its tier
/// kernels walk. `pixel` hoists the in-range tap window [ky0, ky1) x
/// [kx0, kx1) once per output pixel, so the channel loops run branch-free
/// over exactly the taps the seed loop visits, in the same (ky, kx) order.
struct DwConv {
  int ih, iw, c, k, stride, pad_top, pad_left, oh, ow;
  const float* in;
  const float* w;  ///< [k * k][c] repacked weights
  const float* bias;
  float* out;
  const GemmTail* tail;  ///< fused Relu, nullptr = none

  struct Pixel {
    const DwConv& g;
    const float* in;  ///< this pixel's input sample
    float* out;       ///< this pixel's c outputs
    int iy, ix;       ///< input coordinates under tap (0, 0), possibly in the padding
    int ky0, ky1, kx0, kx1;

    [[nodiscard]] const float* input(int ky, int kx, int ch) const {
      return in + (static_cast<std::int64_t>(iy + ky) * g.iw + ix + kx) * g.c + ch;
    }
    [[nodiscard]] const float* weight(int ky, int kx, int ch) const {
      return g.w + (static_cast<std::int64_t>(ky) * g.k + kx) * g.c + ch;
    }
  };

  [[nodiscard]] Pixel pixel(int s, int oy, int ox) const {
    const int iy = oy * stride - pad_top;
    const int ix = ox * stride - pad_left;
    return Pixel{*this,
                 in + static_cast<std::int64_t>(s) * ih * iw * c,
                 out + ((static_cast<std::int64_t>(s) * oh + oy) * ow + ox) * c,
                 iy,
                 ix,
                 std::max(0, -iy),
                 std::min(k, ih - iy),
                 std::max(0, -ix),
                 std::min(k, iw - ix)};
  }
};

/// Channels [ch, c) of one pixel: SSE2 4-lane blocks, then scalar. Each
/// channel accumulator starts from its bias and stays in a register across
/// the taps. Every tier finishes its pixels here, so a given channel runs
/// the same tail ops (vector or scalar) at every tier.
inline void dw_pixel_rest(const DwConv::Pixel& p, int ch) {
  const GemmTail* t = p.g.tail;
#if IOB_GEMM_SSE2
  for (; ch + 4 <= p.g.c; ch += 4) {
    __m128 acc = _mm_loadu_ps(p.g.bias + ch);
    for (int ky = p.ky0; ky < p.ky1; ++ky) {
      for (int kx = p.kx0; kx < p.kx1; ++kx) {
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(p.weight(ky, kx, ch)),
                                         _mm_loadu_ps(p.input(ky, kx, ch))));
      }
    }
    if (t != nullptr) acc = tail_ps(*t, acc);
    _mm_storeu_ps(p.out + ch, acc);
  }
#endif
  for (; ch < p.g.c; ++ch) {
    float acc = p.g.bias[ch];
    for (int ky = p.ky0; ky < p.ky1; ++ky) {
      for (int kx = p.kx0; kx < p.kx1; ++kx) acc += *p.weight(ky, kx, ch) * *p.input(ky, kx, ch);
    }
    if (t != nullptr) acc = apply_tail(*t, acc);
    p.out[ch] = acc;
  }
}

#if IOB_GEMM_AVX2_DISPATCH
/// AVX2 tier of one pixel: 8-channel ymm blocks, then the SSE2/scalar rest.
__attribute__((target("avx2"))) inline void dw_pixel_avx2(const DwConv::Pixel& p, int ch) {
  for (; ch + 8 <= p.g.c; ch += 8) {
    __m256 acc = _mm256_loadu_ps(p.g.bias + ch);
    for (int ky = p.ky0; ky < p.ky1; ++ky) {
      for (int kx = p.kx0; kx < p.kx1; ++kx) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(p.weight(ky, kx, ch)),
                                               _mm256_loadu_ps(p.input(ky, kx, ch))));
      }
    }
    if (p.g.tail != nullptr) acc = tail_ps256(*p.g.tail, acc);
    _mm256_storeu_ps(p.out + ch, acc);
  }
  dw_pixel_rest(p, ch);
}

__attribute__((target("avx2"))) void dwconv2d_avx2(const DwConv& g, int batch) {
  for (int s = 0; s < batch; ++s) {
    for (int oy = 0; oy < g.oh; ++oy) {
      for (int ox = 0; ox < g.ow; ++ox) dw_pixel_avx2(g.pixel(s, oy, ox), 0);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// AVX-512 tier: 16-channel zmm blocks, then the AVX2 tier's rest.
__attribute__((target("avx2,avx512f"))) void dwconv2d_avx512(const DwConv& g, int batch) {
  for (int s = 0; s < batch; ++s) {
    for (int oy = 0; oy < g.oh; ++oy) {
      for (int ox = 0; ox < g.ow; ++ox) {
        const DwConv::Pixel p = g.pixel(s, oy, ox);
        int ch = 0;
        for (; ch + 16 <= g.c; ch += 16) {
          __m512 acc = _mm512_loadu_ps(g.bias + ch);
          for (int ky = p.ky0; ky < p.ky1; ++ky) {
            for (int kx = p.kx0; kx < p.kx1; ++kx) {
              acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_loadu_ps(p.weight(ky, kx, ch)),
                                                     _mm512_loadu_ps(p.input(ky, kx, ch))));
            }
          }
          if (g.tail != nullptr) acc = tail_ps512(*g.tail, acc);
          _mm512_storeu_ps(p.out + ch, acc);
        }
        dw_pixel_avx2(p, ch);
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // IOB_GEMM_AVX2_DISPATCH

}  // namespace

void dwconv2d_nhwc(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                   int oh, int ow, const float* in, const float* wpacked, const float* bias,
                   float* out, const GemmTail* tail) {
  const DwConv g{ih, iw, c, k, stride, pad_top, pad_left, oh, ow, in, wpacked, bias, out, tail};
#if IOB_GEMM_AVX2_DISPATCH
  if (cpu_has_avx512()) return dwconv2d_avx512(g, batch);
  if (cpu_has_avx2()) return dwconv2d_avx2(g, batch);
#endif
  for (int s = 0; s < batch; ++s) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) dw_pixel_rest(g.pixel(s, oy, ox), 0);
    }
  }
}

// ---- int8 execution path ----------------------------------------------------

void pack_b_s8(const std::int8_t* b, std::int64_t K, std::int64_t N, const std::int32_t* zw,
               std::int16_t* dst) {
  const std::int64_t kp_count = (K + 1) / 2;
  for (std::int64_t kp = 0; kp < kp_count; ++kp) {
    for (std::int64_t n = 0; n < N; ++n) {
      const std::int64_t k0 = 2 * kp;
      dst[(kp * N + n) * 2 + 0] = static_cast<std::int16_t>(b[k0 * N + n] - zw[n]);
      dst[(kp * N + n) * 2 + 1] =
          k0 + 1 < K ? static_cast<std::int16_t>(b[(k0 + 1) * N + n] - zw[n])
                     : static_cast<std::int16_t>(0);
    }
  }
}

namespace {

/// K-pair cache block of the int8 GEMM (256 k terms, mirroring the f32
/// kKc). An A tile packs kMr x kKcPairs pair-merged int32s on the stack.
constexpr std::int64_t kKcPairs = 128;

/// Shared scalar epilogue core: affine accumulator -> real value, optional
/// fused relu. Every quantized epilogue (standalone, GEMM-fused, depthwise)
/// runs these exact expressions, scalar or lane-for-lane in SIMD. The relu
/// ternaries are `max(0, v)` and `min(cap, v)` in SIMD operand order, so a
/// NaN passes through them at every tier.
inline float epilogue_real(std::int32_t acc, const float* bias, std::int64_t n, float scale,
                           float relu_cap) {
  float v = (bias != nullptr ? bias[n] : 0.0f) + scale * static_cast<float>(acc);
  if (relu_cap >= 0.0f) {
    v = 0.0f > v ? 0.0f : v;
    if (relu_cap > 0.0f) v = relu_cap < v ? relu_cap : v;
  }
  return v;
}

/// Per-tile view of a QuantEpilogue: bias/dst/dstf pre-offset to the tile
/// origin (dst rows keep the full C row stride N).
struct EpiCtx {
  const float* bias = nullptr;
  const float* col_scales = nullptr;
  std::int8_t* dst = nullptr;
  float* dstf = nullptr;
  float scale = 1.0f, relu_cap = -1.0f, inv = 1.0f;
  std::int32_t zp = 0;
};

inline EpiCtx epi_tile(const QuantEpilogue& e, std::int64_t m, std::int64_t n, std::int64_t N) {
  return EpiCtx{e.bias != nullptr ? e.bias + n : nullptr,
                e.col_scales != nullptr ? e.col_scales + n : nullptr,
                e.dst != nullptr ? e.dst + m * N + n : nullptr,
                e.dstf != nullptr ? e.dstf + m * N + n : nullptr,
                e.scale, e.relu_cap, e.inv_out_scale, e.out_zero};
}

inline void epilogue_scalar(const EpiCtx& e, std::int32_t acc, std::int64_t j, std::int64_t di) {
  const float sc = e.col_scales != nullptr ? e.col_scales[j] : e.scale;
  const float v = epilogue_real(acc, e.bias, j, sc, e.relu_cap);
  if (e.dstf != nullptr) {
    e.dstf[di] = v;
  } else {
    e.dst[di] = requantize_value(v, e.inv, e.zp);
  }
}

/// Pack one kMr-row A tile for K pairs [kp0, kp0 + kpc): zero-point-
/// subtracted int16 (k, k+1) pairs merged into one int32 per pair (odd-K
/// tails pad the high half with 0, contributing nothing). On little-endian
/// x86 the merged-int32 view IS the consecutive int16 stream, so the SSE2
/// fill is a straight sign-extend / subtract / store sweep — 8 elements
/// per step instead of the scalar 2 (this pack is the dominant overhead at
/// small K, where the kp loop is short).
void pack_tile_s8(const std::int8_t* a, std::int64_t K, std::int64_t kp0, std::int64_t kpc,
                    std::int32_t za, std::int64_t rows, std::int32_t* apk) {
  const std::int64_t k0 = kp0 * 2;
  const std::int64_t kelems = std::min(2 * kpc, K - k0);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* arow = a + i * K + k0;
    auto* dst = reinterpret_cast<std::int16_t*>(apk + i * kpc);
    std::int64_t e = 0;
#if IOB_GEMM_SSE2
    const __m128i vza = _mm_set1_epi16(static_cast<std::int16_t>(za));
    const __m128i vz = _mm_setzero_si128();
    for (; e + 8 <= kelems; e += 8) {
      const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(arow + e));
      const __m128i a16 = _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(vz, a8)), vza);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + e), a16);
    }
#endif
    for (; e < kelems; ++e) dst[e] = static_cast<std::int16_t>(arow[e] - za);
    for (std::int64_t p = kelems; p < 2 * kpc; ++p) dst[p] = 0;
  }
}

/// Scalar int8 tile path (M/N remainders and the portable build): exact
/// int32 arithmetic over the same operands, so its results are bit-identical
/// to the SSE2 microkernel by construction. A non-null `epi` (final K
/// block) writes the epilogue result instead of the raw accumulator.
void edge_tile_s8(std::int64_t rows, std::int64_t cols, std::int64_t kpc, const std::int8_t* a,
                  std::int64_t K, std::int64_t kp0, std::int32_t za, const std::int16_t* b,
                  std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* arow = a + i * K;
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int32_t acc = first ? 0 : c[i * N + j];
      for (std::int64_t kp = 0; kp < kpc; ++kp) {
        const std::int64_t k = (kp0 + kp) * 2;
        const std::int32_t a0 = arow[k] - za;
        const std::int32_t a1 = k + 1 < K ? arow[k + 1] - za : 0;
        const std::int16_t* bp = b + (kp * N + j) * 2;
        acc += a0 * bp[0] + a1 * bp[1];
      }
      if (epi != nullptr) {
        epilogue_scalar(*epi, acc, j, i * N + j);
      } else {
        c[i * N + j] = acc;
      }
    }
  }
}

#if IOB_GEMM_SSE2
/// Vector epilogue over one 2x4-lane row (8 int32 accumulators): the exact
/// lane-wise counterpart of `epilogue_scalar` — cvtepi32_ps / mul / add are
/// the same IEEE ops, the max/min pair is `requantize_value`'s clamp to
/// +-kRequantBound, the round is trunc(v + copysign(0.5, v)) in both, and
/// packs saturation equals the scalar int8 clamp.
inline void epi_store_row(const EpiCtx& e, __m128i a0, __m128i a1, std::int64_t row,
                          std::int64_t N) {
  const __m128 s0 = e.col_scales != nullptr ? _mm_loadu_ps(e.col_scales) : _mm_set1_ps(e.scale);
  const __m128 s1 =
      e.col_scales != nullptr ? _mm_loadu_ps(e.col_scales + 4) : _mm_set1_ps(e.scale);
  __m128 r0 = _mm_mul_ps(s0, _mm_cvtepi32_ps(a0));
  __m128 r1 = _mm_mul_ps(s1, _mm_cvtepi32_ps(a1));
  if (e.bias != nullptr) {
    r0 = _mm_add_ps(_mm_loadu_ps(e.bias), r0);
    r1 = _mm_add_ps(_mm_loadu_ps(e.bias + 4), r1);
  }
  if (e.relu_cap >= 0.0f) {
    const __m128 zero = _mm_setzero_ps();
    r0 = _mm_max_ps(zero, r0);
    r1 = _mm_max_ps(zero, r1);
    if (e.relu_cap > 0.0f) {
      const __m128 cap = _mm_set1_ps(e.relu_cap);
      r0 = _mm_min_ps(cap, r0);
      r1 = _mm_min_ps(cap, r1);
    }
  }
  if (e.dstf != nullptr) {
    _mm_storeu_ps(e.dstf + row * N, r0);
    _mm_storeu_ps(e.dstf + row * N + 4, r1);
    return;
  }
  const __m128 vinv = _mm_set1_ps(e.inv);
  const __m128 vhalf = _mm_set1_ps(0.5f);
  const __m128 vsign = _mm_set1_ps(-0.0f);
  const __m128 vlo = _mm_set1_ps(-kRequantBound);
  const __m128 vhi = _mm_set1_ps(kRequantBound);
  r0 = _mm_min_ps(_mm_max_ps(_mm_mul_ps(r0, vinv), vlo), vhi);
  r1 = _mm_min_ps(_mm_max_ps(_mm_mul_ps(r1, vinv), vlo), vhi);
  const __m128 h0 = _mm_or_ps(_mm_and_ps(r0, vsign), vhalf);
  const __m128 h1 = _mm_or_ps(_mm_and_ps(r1, vsign), vhalf);
  const __m128i vzp = _mm_set1_epi32(e.zp);
  const __m128i q0 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(r0, h0)), vzp);
  const __m128i q1 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(r1, h1)), vzp);
  const __m128i p16 = _mm_packs_epi32(q0, q1);
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(e.dst + row * N), p8);
}

/// kMr x kNr int8 microkernel: eight int32 accumulators, one pmaddwd per
/// (row, 4-column, k-pair) step — each instruction retires 8 MACs, twice
/// the f32 kernel's per-instruction density (the int8 throughput win the
/// requantized path banks). The fused epilogue requantizes the tile
/// straight out of registers on the final K block.
void micro_tile_s8(std::int64_t kpc, const std::int32_t* apk, const std::int16_t* b,
                   std::int64_t N, std::int32_t* c, bool first, const EpiCtx* epi) {
  static_assert(kMr == 4 && kNr == 8, "micro_tile_s8 is written for a 4x8 register tile");
  __m128i acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = _mm_setzero_si128();
      acc[i][1] = _mm_setzero_si128();
    } else {
      acc[i][0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i * N));
      acc[i][1] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i * N + 4));
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const std::int16_t* brow = b + kp * 2 * N;
    const __m128i b0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow));
    const __m128i b1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + 8));
    for (int i = 0; i < kMr; ++i) {
      const __m128i ai = _mm_set1_epi32(apk[i * kpc + kp]);
      acc[i][0] = _mm_add_epi32(acc[i][0], _mm_madd_epi16(ai, b0));
      acc[i][1] = _mm_add_epi32(acc[i][1], _mm_madd_epi16(ai, b1));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) epi_store_row(*epi, acc[i][0], acc[i][1], i, N);
    return;
  }
  for (int i = 0; i < kMr; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * N), acc[i][0]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * N + 4), acc[i][1]);
  }
}
#endif

#if IOB_GEMM_AVX2_DISPATCH

/// AVX2 column width of the int8 microkernel (two ymm accumulators/row).
constexpr std::int64_t kNr2 = 16;

/// 256-bit epilogue over one row of 16 accumulated columns: the exact
/// lane-wise counterpart of `epilogue_scalar` (same IEEE ops and clamp as
/// `epi_store_row`; the double packs + permute saturate exactly like the
/// scalar int8 clamp).
__attribute__((target("avx2"))) inline void epi_store_row2(const EpiCtx& e, __m256i a0,
                                                           __m256i a1, std::int64_t row,
                                                           std::int64_t N) {
  const __m256 s0 =
      e.col_scales != nullptr ? _mm256_loadu_ps(e.col_scales) : _mm256_set1_ps(e.scale);
  const __m256 s1 =
      e.col_scales != nullptr ? _mm256_loadu_ps(e.col_scales + 8) : _mm256_set1_ps(e.scale);
  __m256 r0 = _mm256_mul_ps(s0, _mm256_cvtepi32_ps(a0));
  __m256 r1 = _mm256_mul_ps(s1, _mm256_cvtepi32_ps(a1));
  if (e.bias != nullptr) {
    r0 = _mm256_add_ps(_mm256_loadu_ps(e.bias), r0);
    r1 = _mm256_add_ps(_mm256_loadu_ps(e.bias + 8), r1);
  }
  if (e.relu_cap >= 0.0f) {
    const __m256 zero = _mm256_setzero_ps();
    r0 = _mm256_max_ps(zero, r0);
    r1 = _mm256_max_ps(zero, r1);
    if (e.relu_cap > 0.0f) {
      const __m256 cap = _mm256_set1_ps(e.relu_cap);
      r0 = _mm256_min_ps(cap, r0);
      r1 = _mm256_min_ps(cap, r1);
    }
  }
  if (e.dstf != nullptr) {
    _mm256_storeu_ps(e.dstf + row * N, r0);
    _mm256_storeu_ps(e.dstf + row * N + 8, r1);
    return;
  }
  const __m256 vinv = _mm256_set1_ps(e.inv);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const __m256 vsign = _mm256_set1_ps(-0.0f);
  const __m256 vlo = _mm256_set1_ps(-kRequantBound);
  const __m256 vhi = _mm256_set1_ps(kRequantBound);
  r0 = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(r0, vinv), vlo), vhi);
  r1 = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(r1, vinv), vlo), vhi);
  const __m256 h0 = _mm256_or_ps(_mm256_and_ps(r0, vsign), vhalf);
  const __m256 h1 = _mm256_or_ps(_mm256_and_ps(r1, vsign), vhalf);
  const __m256i vzp = _mm256_set1_epi32(e.zp);
  const __m256i q0 = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r0, h0)), vzp);
  const __m256i q1 = _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(r1, h1)), vzp);
  // packs interleave within 128-bit lanes; permute restores column order.
  const __m256i p16 = _mm256_permute4x64_epi64(_mm256_packs_epi32(q0, q1), 0xD8);
  const __m256i p8 =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(p16, _mm256_setzero_si256()), 0x08);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(e.dst + row * N),
                   _mm256_castsi256_si128(p8));
}

/// kMr x kNr2 AVX2 int8 microkernel: one vpmaddwd retires 16 MACs — four
/// times the f32 kernel's per-instruction density. Same operands and exact
/// integer arithmetic as the SSE2/scalar paths, so results are
/// bit-identical; dispatch is purely a throughput choice.
__attribute__((target("avx2"))) void micro_tile_s8_avx2(std::int64_t kpc,
                                                        const std::int32_t* apk,
                                                        const std::int16_t* b, std::int64_t N,
                                                        std::int32_t* c, bool first,
                                                        const EpiCtx* epi) {
  static_assert(kMr == 4, "micro_tile_s8_avx2 is written for 4 rows");
  __m256i acc[kMr][2];
  for (int i = 0; i < kMr; ++i) {
    if (first) {
      acc[i][0] = _mm256_setzero_si256();
      acc[i][1] = _mm256_setzero_si256();
    } else {
      acc[i][0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i * N));
      acc[i][1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i * N + 8));
    }
  }
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    const std::int16_t* brow = b + kp * 2 * N;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
    const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 16));
    for (int i = 0; i < kMr; ++i) {
      const __m256i ai = _mm256_set1_epi32(apk[i * kpc + kp]);
      acc[i][0] = _mm256_add_epi32(acc[i][0], _mm256_madd_epi16(ai, b0));
      acc[i][1] = _mm256_add_epi32(acc[i][1], _mm256_madd_epi16(ai, b1));
    }
  }
  if (epi != nullptr) {
    for (int i = 0; i < kMr; ++i) epi_store_row2(*epi, acc[i][0], acc[i][1], i, N);
    return;
  }
  for (int i = 0; i < kMr; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * N), acc[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * N + 8), acc[i][1]);
  }
}

/// Full AVX2 depthwise kernel (one target function so every helper inlines
/// under VEX encoding): 16 channels per step — sign-extend, subtract the
/// zero point, widening-multiply against the pre-widened weights. The
/// accumulators keep the unpack-interleaved lane order across taps; one
/// permute pair restores channel order before the 16-wide epilogue. The
/// sub-16 channel remainder runs the scalar expressions, which are
/// bit-identical to the vector lanes.
__attribute__((target("avx2"))) void dwconv2d_s8_avx2(int batch, int ih, int iw, int c, int k,
                                                      int stride, int pad_top, int pad_left,
                                                      int oh, int ow, const std::int8_t* in,
                                                      std::int32_t za, const std::int16_t* w16,
                                                      const EpiCtx& epi) {
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
  const __m256i vza = _mm256_set1_epi16(static_cast<std::int16_t>(za));
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
        for (; ch + 16 <= c; ch += 16) {
          __m256i acc0 = _mm256_setzero_si256();
          __m256i acc1 = _mm256_setzero_si256();
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m256i a16 = _mm256_sub_epi16(
                  _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
                  vza);
              const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m256i lo = _mm256_mullo_epi16(a16, wv);
              const __m256i hi = _mm256_mulhi_epi16(a16, wv);
              acc0 = _mm256_add_epi32(acc0, _mm256_unpacklo_epi16(lo, hi));
              acc1 = _mm256_add_epi32(acc1, _mm256_unpackhi_epi16(lo, hi));
            }
          }
          // acc0 = channels [0-3 | 8-11], acc1 = [4-7 | 12-15]: un-interleave.
          const __m256i lo8 = _mm256_permute2x128_si256(acc0, acc1, 0x20);  // ch 0-7
          const __m256i hi8 = _mm256_permute2x128_si256(acc0, acc1, 0x31);  // ch 8-15
          const EpiCtx lane{epi.bias != nullptr ? epi.bias + ch : nullptr,
                            epi.col_scales != nullptr ? epi.col_scales + ch : nullptr,
                            epi.dst != nullptr ? epi.dst + o + ch : nullptr,
                            epi.dstf != nullptr ? epi.dstf + o + ch : nullptr,
                            epi.scale, epi.relu_cap, epi.inv, epi.zp};
          epi_store_row2(lane, lo8, hi8, 0, 0);
        }
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

// GCC 12's avx512 intrinsics trip -Wmaybe-uninitialized on the unused
// merge operand of the maskless forms; the value is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// 512-bit epilogue over 16 accumulated columns, `acc` lane l holding
/// column j + l and landing at dst offset di + l: the same lane ops as
/// `epi_store_row2`, ending in one saturating int32 -> int8 down-convert.
/// Saturating int32 -> int8 directly equals the narrower tiers' saturating
/// int32 -> int16 -> int8 pack chain, so every tier writes the same bytes.
__attribute__((target("avx2,avx512f"))) inline void epi_store16(const EpiCtx& e, __m512i acc,
                                                                std::int64_t j,
                                                                std::int64_t di) {
  const __m512 s =
      e.col_scales != nullptr ? _mm512_loadu_ps(e.col_scales + j) : _mm512_set1_ps(e.scale);
  __m512 r = _mm512_mul_ps(s, _mm512_cvtepi32_ps(acc));
  if (e.bias != nullptr) r = _mm512_add_ps(_mm512_loadu_ps(e.bias + j), r);
  if (e.relu_cap >= 0.0f) {
    r = _mm512_max_ps(_mm512_setzero_ps(), r);
    if (e.relu_cap > 0.0f) r = _mm512_min_ps(_mm512_set1_ps(e.relu_cap), r);
  }
  if (e.dstf != nullptr) {
    _mm512_storeu_ps(e.dstf + di, r);
    return;
  }
  r = _mm512_min_ps(_mm512_max_ps(_mm512_mul_ps(r, _mm512_set1_ps(e.inv)),
                                  _mm512_set1_ps(-kRequantBound)),
                    _mm512_set1_ps(kRequantBound));
  // copysign(0.5, r) with AVX-512F integer logic (the ps forms need DQ).
  const __m512i h =
      _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(r),
                                       _mm512_castps_si512(_mm512_set1_ps(-0.0f))),
                      _mm512_castps_si512(_mm512_set1_ps(0.5f)));
  const __m512i q = _mm512_add_epi32(
      _mm512_cvttps_epi32(_mm512_add_ps(r, _mm512_castsi512_ps(h))), _mm512_set1_epi32(e.zp));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(e.dst + di), _mm512_cvtsepi32_epi8(q));
}

/// Ends shared by the zmm int8 tiles, kMr rows of kZ zmm (16 kZ columns):
/// the first K block starts from zero and later ones re-load the partial
/// sums staged in C; the final block with an epilogue requantizes straight
/// out of registers, any other stores the raw sums. The store loops are
/// unrolled so every accumulator index is a constant: a rolled loop keeps
/// the block addressable in memory, and GCC then copies each accumulator
/// between registers on every K step.
template <int kZ>
__attribute__((target("avx2,avx512f"))) inline void zmm_tile_load(__m512i (&acc)[kMr][kZ],
                                                                  const std::int32_t* c,
                                                                  std::int64_t N, bool first) {
  for (int i = 0; i < kMr; ++i) {
    for (int z = 0; z < kZ; ++z) {
      acc[i][z] = first ? _mm512_setzero_si512() : _mm512_loadu_si512(c + i * N + 16 * z);
    }
  }
}

template <int kZ>
__attribute__((target("avx2,avx512f"))) inline void zmm_tile_store(
    const __m512i (&acc)[kMr][kZ], std::int32_t* c, std::int64_t N, const EpiCtx* epi) {
#pragma GCC unroll 4
  for (int i = 0; i < kMr; ++i) {
#pragma GCC unroll 2
    for (int z = 0; z < kZ; ++z) {
      if (epi != nullptr) {
        epi_store16(*epi, acc[i][z], 16 * z, i * N + 16 * z);
      } else {
        _mm512_storeu_si512(c + i * N + 16 * z, acc[i][z]);
      }
    }
  }
}

/// AVX-512 column width of the wide int8 tiles (two zmm accumulators/row).
constexpr std::int64_t kNr3 = 32;

/// kMr x 16 kZ AVX-512BW int8 microkernel: one vpmaddwd retires 32 MACs.
/// Same operands, same exact integer arithmetic — a pure throughput tier
/// above the AVX2 kernel. kZ = 2 runs layers with >= 32 output channels;
/// kZ = 1 takes the 16-column remainder and narrow layers like a
/// 16-channel stem, keeping the 512-bit MAC density instead of dropping
/// to AVX2.
template <int kZ>
__attribute__((target("avx2,avx512f,avx512bw"))) void micro_tile_s8_avx512(
    std::int64_t kpc, const std::int32_t* apk, const std::int16_t* b, std::int64_t N,
    std::int32_t* c, bool first, const EpiCtx* epi) {
  __m512i acc[kMr][kZ];
  zmm_tile_load(acc, c, N, first);
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    __m512i bz[kZ];
    for (int z = 0; z < kZ; ++z) bz[z] = _mm512_loadu_si512(b + kp * 2 * N + 32 * z);
    for (int i = 0; i < kMr; ++i) {
      const __m512i ai = _mm512_set1_epi32(apk[i * kpc + kp]);
      for (int z = 0; z < kZ; ++z) {
        acc[i][z] = _mm512_add_epi32(acc[i][z], _mm512_madd_epi16(ai, bz[z]));
      }
    }
  }
  zmm_tile_store(acc, c, N, epi);
}

/// Tier-3 twin of `micro_tile_s8_avx512`: vpdpwssd does the multiply, pair
/// sum and accumulate in one instruction. It is exact, not just close:
/// both int16 operands lie in +-255, so a pair sum is at most 130,050 and
/// neither form can overflow, and the non-saturating vpdpwssd adds into
/// the int32 accumulator exactly as vpaddd does.
template <int kZ>
__attribute__((target("avx2,avx512f,avx512bw,avx512vnni"))) void micro_tile_s8_vnni(
    std::int64_t kpc, const std::int32_t* apk, const std::int16_t* b, std::int64_t N,
    std::int32_t* c, bool first, const EpiCtx* epi) {
  __m512i acc[kMr][kZ];
  zmm_tile_load(acc, c, N, first);
  for (std::int64_t kp = 0; kp < kpc; ++kp) {
    __m512i bz[kZ];
    for (int z = 0; z < kZ; ++z) bz[z] = _mm512_loadu_si512(b + kp * 2 * N + 32 * z);
    for (int i = 0; i < kMr; ++i) {
      const __m512i ai = _mm512_set1_epi32(apk[i * kpc + kp]);
      for (int z = 0; z < kZ; ++z) acc[i][z] = _mm512_dpwssd_epi32(acc[i][z], ai, bz[z]);
    }
  }
  zmm_tile_store(acc, c, N, epi);
}

/// AVX-512 depthwise kernel: 32 channels per step with hoisted (branch-
/// free) valid-tap ranges; products keep the 128-bit-sublane interleave
/// across taps and two permutex2var shuffles restore channel order before
/// the 16-wide zmm epilogues. 16-channel and scalar remainders keep the
/// same exact arithmetic.
__attribute__((target("avx2,avx512f,avx512bw"))) void dwconv2d_s8_avx512(
    int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left, int oh,
    int ow, const std::int8_t* in, std::int32_t za, const std::int16_t* w16, const EpiCtx& epi) {
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
  const __m512i vza512 = _mm512_set1_epi16(static_cast<std::int16_t>(za));
  const __m256i vza256 = _mm256_set1_epi16(static_cast<std::int16_t>(za));
  // Un-interleave indices: lo = channels 0-15, hi = channels 16-31.
  const __m512i idx_lo = _mm512_set_epi32(23, 22, 21, 20, 7, 6, 5, 4, 19, 18, 17, 16, 3, 2, 1, 0);
  const __m512i idx_hi =
      _mm512_set_epi32(31, 30, 29, 28, 15, 14, 13, 12, 27, 26, 25, 24, 11, 10, 9, 8);
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      const int ky0 = std::max(0, pad_top - oy * stride);
      const int ky1 = std::min(k, ih + pad_top - oy * stride);
      for (int ox = 0; ox < ow; ++ox) {
        const int kx0 = std::max(0, pad_left - ox * stride);
        const int kx1 = std::min(k, iw + pad_left - ox * stride);
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
        for (; ch + 32 <= c; ch += 32) {
          __m512i acc0 = _mm512_setzero_si512();
          __m512i acc1 = _mm512_setzero_si512();
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m512i a16 = _mm512_sub_epi16(
                  _mm512_cvtepi8_epi16(
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),
                  vza512);
              const __m512i wv = _mm512_loadu_si512(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch);
              const __m512i lo = _mm512_mullo_epi16(a16, wv);
              const __m512i hi = _mm512_mulhi_epi16(a16, wv);
              acc0 = _mm512_add_epi32(acc0, _mm512_unpacklo_epi16(lo, hi));
              acc1 = _mm512_add_epi32(acc1, _mm512_unpackhi_epi16(lo, hi));
            }
          }
          epi_store16(epi, _mm512_permutex2var_epi32(acc0, idx_lo, acc1), ch, o + ch);
          epi_store16(epi, _mm512_permutex2var_epi32(acc0, idx_hi, acc1), ch + 16,
                      o + ch + 16);
        }
        for (; ch + 16 <= c; ch += 16) {
          __m256i acc0 = _mm256_setzero_si256();
          __m256i acc1 = _mm256_setzero_si256();
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m256i a16 = _mm256_sub_epi16(
                  _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
                  vza256);
              const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m256i lo = _mm256_mullo_epi16(a16, wv);
              const __m256i hi = _mm256_mulhi_epi16(a16, wv);
              acc0 = _mm256_add_epi32(acc0, _mm256_unpacklo_epi16(lo, hi));
              acc1 = _mm256_add_epi32(acc1, _mm256_unpackhi_epi16(lo, hi));
            }
          }
          // Same un-interleave as the AVX2 kernel, joined into one zmm.
          epi_store16(epi,
                      _mm512_inserti64x4(
                          _mm512_castsi256_si512(_mm256_permute2x128_si256(acc0, acc1, 0x20)),
                          _mm256_permute2x128_si256(acc0, acc1, 0x31), 1),
                      ch, o + ch);
        }
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = ky0; ky < ky1; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            for (int kx = kx0; kx < kx1; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // IOB_GEMM_AVX2_DISPATCH

}  // namespace

void gemm_s8(std::int64_t M, std::int64_t N, std::int64_t K, const std::int8_t* A,
             std::int32_t za, const std::int16_t* bop, std::int32_t* C,
             const QuantEpilogue* epi) {
  IOB_EXPECTS(M >= 0 && N > 0 && K > 0, "gemm dims must be positive");
  // |a - za| and |w - zw| are <= 255, so a K-term dot product is bounded by
  // K * 255^2; K < 2^15 keeps it inside int32 with margin.
  IOB_EXPECTS(K < (std::int64_t{1} << 15), "int8 gemm K out of exact int32 range");
  IOB_EXPECTS(epi == nullptr || ((epi->dst != nullptr) != (epi->dstf != nullptr)),
              "quant epilogue needs exactly one target");
  const std::int64_t kp_count = (K + 1) / 2;
  for (std::int64_t kp0 = 0; kp0 < kp_count; kp0 += kKcPairs) {
    const std::int64_t kpc = std::min(kKcPairs, kp_count - kp0);
    const bool first = kp0 == 0;
    const bool last = kp0 + kpc == kp_count;
    const std::int16_t* bk = bop + kp0 * 2 * N;
    std::int64_t m = 0;
#if IOB_GEMM_SSE2
    std::int32_t apk[kMr * kKcPairs];
#if IOB_GEMM_AVX2_DISPATCH
    const bool avx2 = cpu_has_avx2();
    // The zmm tiles of the widest AVX-512 tier, 32 then 16 columns wide
    // (nullptr below tier 2).
    using S8Tile = void (*)(std::int64_t, const std::int32_t*, const std::int16_t*,
                            std::int64_t, std::int32_t*, bool, const EpiCtx*);
    const bool vnni = cpu_has_avx512_vnni();
    const bool avx512 = cpu_has_avx512();
    const S8Tile zmm32 = vnni     ? micro_tile_s8_vnni<2>
                         : avx512 ? micro_tile_s8_avx512<2>
                                  : nullptr;
    const S8Tile zmm16 = vnni     ? micro_tile_s8_vnni<1>
                         : avx512 ? micro_tile_s8_avx512<1>
                                  : nullptr;
#else
    const bool avx2 = false;
#endif
    for (; m + kMr <= M; m += kMr) {
      pack_tile_s8(A + m * K, K, kp0, kpc, za, kMr, apk);
      std::int64_t n = 0;
#if IOB_GEMM_AVX2_DISPATCH
      if (zmm32 != nullptr) {
        for (; n + kNr3 <= N; n += kNr3) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          zmm32(kpc, apk, bk + 2 * n, N, C + m * N + n, first,
                last && epi != nullptr ? &ctx : nullptr);
        }
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          zmm16(kpc, apk, bk + 2 * n, N, C + m * N + n, first,
                last && epi != nullptr ? &ctx : nullptr);
        }
      }
      if (avx2) {
        for (; n + kNr2 <= N; n += kNr2) {
          const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
          micro_tile_s8_avx2(kpc, apk, bk + 2 * n, N, C + m * N + n, first,
                             last && epi != nullptr ? &ctx : nullptr);
        }
      }
#else
      (void)avx2;
#endif
      for (; n + kNr <= N; n += kNr) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        micro_tile_s8(kpc, apk, bk + 2 * n, N, C + m * N + n, first,
                      last && epi != nullptr ? &ctx : nullptr);
      }
      if (n < N) {
        const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, n, N) : EpiCtx{};
        edge_tile_s8(kMr, N - n, kpc, A + m * K, K, kp0, za, bk + 2 * n, N, C + m * N + n, first,
                     last && epi != nullptr ? &ctx : nullptr);
      }
    }
#endif
    if (m < M) {
      const EpiCtx ctx = epi != nullptr ? epi_tile(*epi, m, 0, N) : EpiCtx{};
      edge_tile_s8(M - m, N, kpc, A + m * K, K, kp0, za, bk, N, C + m * N, first,
                   last && epi != nullptr ? &ctx : nullptr);
    }
  }
}

void requantize_s8(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                   float scale, float relu_cap, float out_scale, std::int32_t out_zero,
                   std::int8_t* dst) {
  IOB_EXPECTS(out_scale > 0.0f, "requantize needs a positive output scale");
  const float inv = 1.0f / out_scale;
  for (std::int64_t m = 0; m < M; ++m) {
    const std::int32_t* arow = acc + m * N;
    std::int8_t* drow = dst + m * N;
    for (std::int64_t n = 0; n < N; ++n) {
      drow[n] = requantize_value(epilogue_real(arow[n], bias, n, scale, relu_cap), inv, out_zero);
    }
  }
}

void dequantize_f32(const std::int32_t* acc, std::int64_t M, std::int64_t N, const float* bias,
                    float scale, float relu_cap, float* dst) {
  for (std::int64_t m = 0; m < M; ++m) {
    const std::int32_t* arow = acc + m * N;
    float* drow = dst + m * N;
    for (std::int64_t n = 0; n < N; ++n) {
      drow[n] = epilogue_real(arow[n], bias, n, scale, relu_cap);
    }
  }
}

void quantize_f32_to_s8(const float* src, std::int64_t n, float scale, std::int32_t zero_point,
                        std::int8_t* dst) {
  IOB_EXPECTS(scale > 0.0f, "quantize needs a positive scale");
  const float inv = 1.0f / scale;
  std::int64_t i = 0;
#if IOB_GEMM_SSE2
  // Same per-lane ops as `requantize_value` (mul, clamp, round-half-away
  // via the sign-or trick, truncate, add zp); packs saturation == the int8
  // clamp.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vhalf = _mm_set1_ps(0.5f);
  const __m128 vsign = _mm_set1_ps(-0.0f);
  const __m128 vlo = _mm_set1_ps(-kRequantBound);
  const __m128 vhi = _mm_set1_ps(kRequantBound);
  const __m128i vzp = _mm_set1_epi32(zero_point);
  for (; i + 8 <= n; i += 8) {
    const __m128 v0 = _mm_min_ps(_mm_max_ps(_mm_mul_ps(_mm_loadu_ps(src + i), vinv), vlo), vhi);
    const __m128 v1 =
        _mm_min_ps(_mm_max_ps(_mm_mul_ps(_mm_loadu_ps(src + i + 4), vinv), vlo), vhi);
    const __m128 h0 = _mm_or_ps(_mm_and_ps(v0, vsign), vhalf);
    const __m128 h1 = _mm_or_ps(_mm_and_ps(v1, vsign), vhalf);
    const __m128i q0 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(v0, h0)), vzp);
    const __m128i q1 = _mm_add_epi32(_mm_cvttps_epi32(_mm_add_ps(v1, h1)), vzp);
    const __m128i p16 = _mm_packs_epi32(q0, q1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), _mm_packs_epi16(p16, p16));
  }
#endif
  for (; i < n; ++i) dst[i] = requantize_value(src[i], inv, zero_point);
}

namespace {

inline void fill_s8(std::int8_t* dst, std::int64_t n, std::int8_t v) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = v;
}

/// Inline byte copy: patch slices are tiny (ic bytes, often 3-64), where a
/// libc memcpy call costs more than the copy itself (same rationale as the
/// f32 `copy_floats`).
inline void copy_s8(std::int8_t* dst, const std::int8_t* src, std::int64_t n) {
  if (n >= 64) {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

}  // namespace

void im2col_s8_nhwc(int batch, int ih, int iw, int ic, int kh, int kw, int sh, int sw, int pad_top,
                    int pad_left, int oh, int ow, std::int8_t zero_point, const std::int8_t* in,
                    std::int8_t* col) {
  const std::int64_t sample_elems = static_cast<std::int64_t>(ih) * iw * ic;
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * sample_elems;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int x0 = ox * sw - pad_left;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * sh + ky - pad_top;
          if (iy < 0 || iy >= ih) {
            fill_s8(col, static_cast<std::int64_t>(kw) * ic, zero_point);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          const std::int8_t* irow = ib + static_cast<std::int64_t>(iy) * iw * ic;
          if (x0 >= 0 && x0 + kw <= iw) {
            copy_s8(col, irow + static_cast<std::int64_t>(x0) * ic,
                    static_cast<std::int64_t>(kw) * ic);
            col += static_cast<std::int64_t>(kw) * ic;
            continue;
          }
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            if (ix < 0 || ix >= iw) {
              fill_s8(col, ic, zero_point);
            } else {
              copy_s8(col, irow + static_cast<std::int64_t>(ix) * ic, ic);
            }
            col += ic;
          }
        }
      }
    }
  }
}

void widen_dw_weights_s8(const std::int8_t* w, std::int64_t taps, std::int64_t c,
                         const std::int32_t* zw, std::int16_t* dst) {
  for (std::int64_t t = 0; t < taps; ++t) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      dst[t * c + ch] = static_cast<std::int16_t>(w[t * c + ch] - zw[ch]);
    }
  }
}

void dwconv2d_s8(int batch, int ih, int iw, int c, int k, int stride, int pad_top, int pad_left,
                 int oh, int ow, const std::int8_t* in, std::int32_t za,
                 const std::int16_t* w16, const float* bias, const float* col_scales,
                 float relu_cap, float out_scale, std::int32_t out_zero, std::int8_t* out,
                 float* outf) {
  IOB_EXPECTS((out != nullptr) != (outf != nullptr), "dwconv2d_s8 needs exactly one output");
  const EpiCtx epi{bias, col_scales, out, outf, 1.0f, relu_cap,
                   out != nullptr ? 1.0f / out_scale : 0.0f, out_zero};
  const std::int64_t in_sample = static_cast<std::int64_t>(ih) * iw * c;
  const std::int64_t out_sample = static_cast<std::int64_t>(oh) * ow * c;
#if IOB_GEMM_AVX2_DISPATCH
  if (cpu_has_avx512()) {
    dwconv2d_s8_avx512(batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow, in, za, w16, epi);
    return;
  }
  if (cpu_has_avx2()) {
    dwconv2d_s8_avx2(batch, ih, iw, c, k, stride, pad_top, pad_left, oh, ow, in, za, w16, epi);
    return;
  }
#endif
  for (int s = 0; s < batch; ++s) {
    const std::int8_t* ib = in + static_cast<std::int64_t>(s) * in_sample;
    const std::int64_t obase = static_cast<std::int64_t>(s) * out_sample;
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::int64_t o = obase + (static_cast<std::int64_t>(oy) * ow + ox) * c;
        int ch = 0;
#if IOB_GEMM_SSE2
        // Channels-vectorized: 8 lanes per step — sign-extend the int8
        // activations, subtract the zero point, widening-multiply against
        // the pre-widened weights (mullo/mulhi + unpack), accumulate int32.
        const __m128i vza = _mm_set1_epi16(static_cast<std::int16_t>(za));
        const __m128i vz = _mm_setzero_si128();
        for (; ch + 8 <= c; ch += 8) {
          __m128i acc0 = _mm_setzero_si128();
          __m128i acc1 = _mm_setzero_si128();
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int8_t* p = ib + (static_cast<std::int64_t>(iy) * iw + ix) * c + ch;
              const __m128i a8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
              const __m128i a16 =
                  _mm_sub_epi16(_mm_unpacklo_epi8(a8, _mm_cmpgt_epi8(vz, a8)), vza);
              const __m128i wv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  w16 + (static_cast<std::int64_t>(ky) * k + kx) * c + ch));
              const __m128i lo = _mm_mullo_epi16(a16, wv);
              const __m128i hi = _mm_mulhi_epi16(a16, wv);
              acc0 = _mm_add_epi32(acc0, _mm_unpacklo_epi16(lo, hi));
              acc1 = _mm_add_epi32(acc1, _mm_unpackhi_epi16(lo, hi));
            }
          }
          const EpiCtx lane{bias != nullptr ? bias + ch : nullptr,
                            col_scales != nullptr ? col_scales + ch : nullptr,
                            out != nullptr ? out + o + ch : nullptr,
                            outf != nullptr ? outf + o + ch : nullptr,
                            epi.scale, epi.relu_cap, epi.inv, epi.zp};
          epi_store_row(lane, acc0, acc1, 0, 0);
        }
#endif
        // Scalar remainder (and the portable build): identical integer and
        // float expressions, so results match the vector lanes bitwise.
        for (; ch < c; ++ch) {
          std::int32_t acc = 0;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride + ky - pad_top;
            if (iy < 0 || iy >= ih) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride + kx - pad_left;
              if (ix < 0 || ix >= iw) continue;
              const std::int32_t w = w16[(static_cast<std::int64_t>(ky) * k + kx) * c + ch];
              const std::int32_t a = ib[(static_cast<std::int64_t>(iy) * iw + ix) * c + ch] - za;
              acc += a * w;
            }
          }
          epilogue_scalar(epi, acc, ch, o + ch);
        }
      }
    }
  }
}

}  // namespace iob::nn
