// Tests for the lowered, allocation-free inference engine (ISSUE 4): the
// blocked GEMM microkernel against naive references, bit-exactness of the
// GEMM-lowered layers vs the retained seed loops on all three zoo models
// (single + batched), workspace reuse across varying batch sizes, zero-copy
// batch spans, one-workspace-per-thread determinism under SweepRunner at
// 1/2/8 threads, the interposer-verified zero-allocation steady state, and
// the hub's execute-and-meter sessions. Forced dispatch caps compare every
// f32 kernel tier (SSE2, AVX2, AVX-512) bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "core/sweep_runner.hpp"
#include "net/network_sim.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "sim/simulator.hpp"

namespace iob {
namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob::nn;

Model zoo_model(int idx) {
  return idx == 0 ? make_kws_dscnn() : idx == 1 ? make_ecg_cnn1d() : make_vww_micronet();
}

// ---- gemm_blocked -----------------------------------------------------------

void naive_gemm(std::int64_t M, std::int64_t N, std::int64_t K, const float* A, const float* B,
                const float* bias, float* C) {
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      float acc = bias != nullptr ? bias[n] : 0.0f;
      for (std::int64_t k = 0; k < K; ++k) acc += A[m * K + k] * B[k * N + n];
      C[m * N + n] = acc;
    }
  }
}

TEST(GemmBlocked, HandComputed2x2) {
  // C = bias + A * B with A = [[1,2],[3,4]], B = [[5,6],[7,8]], bias = [10, 20].
  const float A[] = {1, 2, 3, 4};
  const float B[] = {5, 6, 7, 8};
  const float bias[] = {10, 20};
  float C[4] = {};
  gemm_blocked(2, 2, 2, A, B, bias, C);
  EXPECT_FLOAT_EQ(C[0], 10 + 1 * 5 + 2 * 7);
  EXPECT_FLOAT_EQ(C[1], 20 + 1 * 6 + 2 * 8);
  EXPECT_FLOAT_EQ(C[2], 10 + 3 * 5 + 4 * 7);
  EXPECT_FLOAT_EQ(C[3], 20 + 3 * 6 + 4 * 8);
}

TEST(GemmBlocked, MatchesNaiveBitExactAcrossShapes) {
  // Shapes straddle every code path: full 4x8 tiles, M/N remainders, K
  // larger than one cache block, N < kNr (all-edge), nullptr bias.
  const struct {
    std::int64_t M, N, K;
    bool with_bias;
  } cases[] = {{8, 16, 32, true},   {5, 9, 7, true},    {4, 8, 300, true},
               {1, 3, 11, false},   {13, 8, 260, true}, {4, 23, 5, true},
               {100, 2, 513, true}, {3, 40, 64, false}};
  for (const auto& c : cases) {
    std::vector<float> A(static_cast<std::size_t>(c.M * c.K)), B(static_cast<std::size_t>(c.K * c.N)),
        bias(static_cast<std::size_t>(c.N)), ref(static_cast<std::size_t>(c.M * c.N)),
        got(static_cast<std::size_t>(c.M * c.N));
    for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.37);
    for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.23);
    for (std::size_t i = 0; i < bias.size(); ++i) bias[i] = 0.1f * static_cast<float>(i);
    const float* bp = c.with_bias ? bias.data() : nullptr;
    naive_gemm(c.M, c.N, c.K, A.data(), B.data(), bp, ref.data());
    gemm_blocked(c.M, c.N, c.K, A.data(), B.data(), bp, got.data());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << "M=" << c.M << " N=" << c.N << " K=" << c.K << " i=" << i;
    }
  }
}

/// Restores full auto-dispatch when a tier test exits, also on a failed
/// ASSERT, so later tests never run under a forced cap.
struct DispatchCapGuard {
  DispatchCapGuard() = default;
  DispatchCapGuard(const DispatchCapGuard&) = delete;
  DispatchCapGuard& operator=(const DispatchCapGuard&) = delete;
  ~DispatchCapGuard() { set_kernel_dispatch_cap(-1); }
};

/// The f32 tails a tier test sweeps: none, relu, relu6 and a per-column
/// batchnorm over `scale`/`shift`.
std::vector<GemmTail> sweep_tails(const std::vector<float>& scale,
                                  const std::vector<float>& shift) {
  std::vector<GemmTail> tails(4);
  tails[1].kind = GemmTail::Kind::kRelu;
  tails[2].kind = GemmTail::Kind::kRelu;
  tails[2].cap = 6.0f;
  tails[3].kind = GemmTail::Kind::kBatchNorm;
  tails[3].scale = scale.data();
  tails[3].shift = shift.data();
  return tails;
}

TEST(GemmBlocked, DispatchTiersBitIdenticalUnderForcedCaps) {
  // Every f32 tier (SSE2, AVX2 4x16, AVX-512 4x32) runs each lane through
  // the scalar loop's mul-then-add sequence, so all caps must agree bit for
  // bit. The shapes straddle every column width and remainder, M below and
  // above one row tile, and K across the kKc block boundary; on a narrower
  // host the higher caps clamp to the hardware.
  DispatchCapGuard guard;
  const std::int64_t kMaxM = 9, kMaxN = 70, kMaxK = 600;
  std::vector<float> A(static_cast<std::size_t>(kMaxM * kMaxK)),
      B(static_cast<std::size_t>(kMaxK * kMaxN)), bias(static_cast<std::size_t>(kMaxN)),
      scale(bias.size()), shift(bias.size());
  for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.37);
  for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.23);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.1f * static_cast<float>(i) - 3.0f;
    scale[i] = 0.5f + 0.01f * static_cast<float>(i);
    shift[i] = -0.2f + 0.02f * static_cast<float>(i);
  }
  const std::vector<GemmTail> tails = sweep_tails(scale, shift);
  std::vector<float> want(static_cast<std::size_t>(kMaxM * kMaxN)), got(want.size());
  for (std::int64_t M = 1; M <= kMaxM; ++M) {
    for (const std::int64_t N : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 70}) {
      for (const std::int64_t K : {1, 40, 256, 257, 600}) {
        for (std::size_t t = 0; t < tails.size(); ++t) {
          const std::size_t bytes = static_cast<std::size_t>(M * N) * sizeof(float);
          set_kernel_dispatch_cap(0);
          gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), want.data(), tails[t]);
          for (const int cap : {1, 2, -1}) {
            set_kernel_dispatch_cap(cap);
            gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), got.data(), tails[t]);
            ASSERT_EQ(std::memcmp(want.data(), got.data(), bytes), 0)
                << "cap " << cap << " M=" << M << " N=" << N << " K=" << K << " tail " << t;
          }
        }
      }
    }
  }
}

TEST(DwConv, DispatchTiersBitIdenticalUnderForcedCaps) {
  // The depthwise tiers (SSE2 4-lane, AVX2 8-lane, AVX-512 16-lane blocks,
  // scalar rest) keep each channel's bias-then-taps order, so every cap
  // agrees bit for bit, with and without a fused tail. Cap 0 with a fused
  // tail must also equal the unfused pass followed by the tail's scalar
  // expression (what a separate Relu/BatchNorm layer computes).
  DispatchCapGuard guard;
  const int batch = 2, ih = 7, iw = 6, k = 3, pad = 1;
  for (const int c : {3, 16, 19, 64}) {
    std::vector<float> in(static_cast<std::size_t>(batch * ih * iw * c)),
        w(static_cast<std::size_t>(k * k * c)), bias(static_cast<std::size_t>(c)),
        scale(bias.size()), shift(bias.size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::sin(static_cast<double>(i) * 0.41);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = std::cos(static_cast<double>(i) * 0.29);
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = 0.05f * static_cast<float>(i) - 0.5f;
      scale[i] = 0.7f + 0.01f * static_cast<float>(i);
      shift[i] = 0.1f - 0.03f * static_cast<float>(i);
    }
    const std::vector<GemmTail> tails = sweep_tails(scale, shift);
    for (const int stride : {1, 2}) {
      const int oh = (ih + 2 * pad - k) / stride + 1, ow = (iw + 2 * pad - k) / stride + 1;
      const std::size_t n = static_cast<std::size_t>(batch * oh * ow * c);
      std::vector<float> plain(n), want(n), got(n);
      set_kernel_dispatch_cap(0);
      dwconv2d_nhwc(batch, ih, iw, c, k, stride, pad, pad, oh, ow, in.data(), w.data(),
                    bias.data(), plain.data());
      for (std::size_t t = 0; t < tails.size(); ++t) {
        const GemmTail& tail = tails[t];
        set_kernel_dispatch_cap(0);
        dwconv2d_nhwc(batch, ih, iw, c, k, stride, pad, pad, oh, ow, in.data(), w.data(),
                      bias.data(), want.data(), tail);
        for (std::size_t i = 0; i < n; ++i) {
          float v = plain[i];
          if (tail.kind == GemmTail::Kind::kRelu) {
            v = std::max(0.0f, v);
            if (tail.cap > 0.0f) v = std::min(tail.cap, v);
          } else if (tail.kind == GemmTail::Kind::kBatchNorm) {
            v = tail.scale[i % static_cast<std::size_t>(c)] * v +
                tail.shift[i % static_cast<std::size_t>(c)];
          }
          ASSERT_EQ(want[i], v) << "c " << c << " stride " << stride << " tail " << t << " i " << i;
        }
        for (const int cap : {1, 2, -1}) {
          set_kernel_dispatch_cap(cap);
          dwconv2d_nhwc(batch, ih, iw, c, k, stride, pad, pad, oh, ow, in.data(), w.data(),
                        bias.data(), got.data(), tail);
          ASSERT_EQ(std::memcmp(want.data(), got.data(), n * sizeof(float)), 0)
              << "cap " << cap << " c " << c << " stride " << stride << " tail " << t;
        }
      }
    }
  }
}

// ---- fused elementwise GEMM tails -------------------------------------------

TEST(GemmTailFusion, ReluAndBatchNormTailsBitExactVsSeparatePasses) {
  const std::int64_t M = 7, N = 19, K = 33;
  std::vector<float> A(static_cast<std::size_t>(M * K)), B(static_cast<std::size_t>(K * N)),
      bias(static_cast<std::size_t>(N)), scale(static_cast<std::size_t>(N)),
      shift(static_cast<std::size_t>(N));
  for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(static_cast<double>(i) * 0.31);
  for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(static_cast<double>(i) * 0.17);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.1f * static_cast<float>(i) - 0.9f;
    scale[i] = 0.5f + 0.05f * static_cast<float>(i);
    shift[i] = -0.2f + 0.03f * static_cast<float>(i);
  }
  std::vector<float> plain(static_cast<std::size_t>(M * N)), fused(plain.size());
  gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), plain.data());

  for (const float cap : {0.0f, 6.0f}) {
    GemmTail relu;
    relu.kind = GemmTail::Kind::kRelu;
    relu.cap = cap;
    gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), fused.data(), relu);
    for (std::size_t i = 0; i < plain.size(); ++i) {
      float want = std::max(0.0f, plain[i]);
      if (cap > 0.0f) want = std::min(cap, want);
      ASSERT_EQ(fused[i], want) << "cap " << cap << " i " << i;
    }
  }

  GemmTail bn;
  bn.kind = GemmTail::Kind::kBatchNorm;
  bn.scale = scale.data();
  bn.shift = shift.data();
  gemm_blocked(M, N, K, A.data(), B.data(), bias.data(), fused.data(), bn);
  for (std::int64_t m = 0; m < M; ++m) {
    for (std::int64_t n = 0; n < N; ++n) {
      const std::size_t i = static_cast<std::size_t>(m * N + n);
      ASSERT_EQ(fused[i], scale[static_cast<std::size_t>(n)] * plain[i] +
                              shift[static_cast<std::size_t>(n)])
          << "m " << m << " n " << n;
    }
  }
}

TEST(GemmTailFusion, ModelChainFusesAndStaysBitExactVsReference) {
  // fc -> batchnorm -> relu6 -> fc -> relu: two fusable pairs plus an
  // unfused tail. run_into (which fuses) must equal the seed-loop oracle.
  WeightGen gen(77);
  Model m("fused-chain", Shape{10});
  m.add(std::make_unique<FullyConnected>(10, 24, gen.weights(240, 10), gen.biases(24)));
  std::vector<float> scale(24), shift(24);
  for (int i = 0; i < 24; ++i) {
    scale[static_cast<std::size_t>(i)] = 0.8f + 0.02f * static_cast<float>(i);
    shift[static_cast<std::size_t>(i)] = -0.1f + 0.01f * static_cast<float>(i);
  }
  m.add(std::make_unique<BatchNorm>(scale, shift));
  m.add(std::make_unique<Relu>(6.0f));
  m.add(std::make_unique<FullyConnected>(24, 5, gen.weights(120, 24), gen.biases(5)));
  m.add(std::make_unique<Relu>());

  for (const int batch : {1, 3}) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < batch; ++s) inputs.push_back(patterned_tensor(Shape{10}, 60 + s));
    const Tensor stacked = stack_batch(inputs);
    const Tensor ref = m.run_batched_reference(stacked);
    Workspace ws;
    const ConstSpan out = m.run_into(ws, stacked.data(), batch);
    ASSERT_EQ(out.size, ref.size());
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << "batch " << batch;
  }
}

TEST(GemmTailFusion, RangeSplitInsideAFusedPairStaysExact)  {
  // A layer-range boundary between producer and tail must suppress the
  // fusion (the tail belongs to the other side of the split).
  WeightGen gen(78);
  Model m("split-chain", Shape{8});
  m.add(std::make_unique<FullyConnected>(8, 12, gen.weights(96, 8), gen.biases(12)));
  m.add(std::make_unique<Relu>());
  const Tensor x = patterned_tensor(Shape{8}, 9);
  const Tensor full = m.forward_reference(x);
  Workspace ws;
  const ConstSpan head = m.run_range_into(ws, x.data(), 1, 0, 1);  // fc only
  const std::vector<float> h(head.data, head.data + head.size);
  const ConstSpan tail = m.run_range_into(ws, h.data(), 1, 1, 2);  // relu only
  ASSERT_EQ(tail.size, full.size());
  EXPECT_EQ(max_abs_diff(tail, ConstSpan{full.data(), full.size()}), 0.0);
}

// ---- zero-copy batch spans --------------------------------------------------

TEST(BatchSpan, ViewsAliasTheBatchedStorage) {
  std::vector<Tensor> samples;
  for (int s = 0; s < 3; ++s) samples.push_back(patterned_tensor(Shape{4, 5}, s));
  const Tensor batched = stack_batch(samples);
  for (int s = 0; s < 3; ++s) {
    const ConstSpan v = batched.batch_span(s);
    EXPECT_EQ(v.data, batched.data() + s * 20);  // zero-copy: same storage
    EXPECT_EQ(v.size, 20);
    EXPECT_EQ(max_abs_diff(v, ConstSpan{samples[static_cast<std::size_t>(s)].data(), 20}), 0.0);
  }
  EXPECT_THROW(static_cast<void>(batched.batch_span(3)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Tensor(Shape{4}).batch_span(0)), std::invalid_argument);
}

TEST(BatchSpan, FromDataRoundTrip) {
  const Tensor src = patterned_tensor(Shape{2, 3}, 7);
  const Tensor copy = Tensor::from_data(src.shape(), src.data());
  EXPECT_EQ(copy.max_abs_diff(src), 0.0);
}

// ---- bit-exactness: lowered engine vs seed loops on the zoo -----------------

TEST(LoweredEngine, ZooModelsBitExactSingleInference) {
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const Tensor x = patterned_tensor(m.input_shape(), idx);
    const Tensor ref = m.forward_reference(x);  // seed nested loops
    EXPECT_EQ(m.forward(x).max_abs_diff(ref), 0.0) << m.name();
    Workspace ws;
    const ConstSpan out = m.run_into(ws, x.data(), 1);
    ASSERT_EQ(out.size, ref.size()) << m.name();
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << m.name();
  }
}

TEST(LoweredEngine, ZooModelsBitExactBatched) {
  DispatchCapGuard guard;
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    for (const int batch : {2, 4, 5}) {
      std::vector<Tensor> inputs;
      for (int s = 0; s < batch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), s));
      const Tensor stacked = stack_batch(inputs);
      const Tensor ref = m.run_batched_reference(stacked);  // seed batched loops
      EXPECT_EQ(m.run_batched(stacked).max_abs_diff(ref), 0.0) << m.name() << " batch " << batch;
      // The whole engine (wide GEMM tiles, depthwise blocks, fused tails)
      // must give the seed loops' bits at every dispatch tier.
      for (const int cap : {0, 1, 2, -1}) {
        set_kernel_dispatch_cap(cap);
        Workspace ws;
        const ConstSpan out = m.run_into(ws, stacked.data(), batch);
        ASSERT_EQ(out.size, ref.size()) << m.name() << " batch " << batch;
        EXPECT_EQ(std::memcmp(out.data, ref.data(), ref.size() * sizeof(float)), 0)
            << m.name() << " batch " << batch << " cap " << cap;
      }
      // Vector overload stages samples directly into the workspace.
      const std::vector<Tensor> outs = m.run_batched(inputs);
      ASSERT_EQ(outs.size(), static_cast<std::size_t>(batch));
      for (int s = 0; s < batch; ++s) {
        const Tensor sample_ref = m.forward_reference(inputs[static_cast<std::size_t>(s)]);
        EXPECT_EQ(outs[static_cast<std::size_t>(s)].max_abs_diff(sample_ref), 0.0)
            << m.name() << " batch " << batch << " sample " << s;
      }
    }
  }
}

TEST(LoweredEngine, RunRangeIntoComposesAtEverySplit) {
  const Model m = zoo_model(1);  // ecg
  const Tensor x = patterned_tensor(m.input_shape(), 3);
  const Tensor full = m.forward_reference(x);
  Workspace ws;
  for (std::size_t split = 0; split <= m.layer_count(); ++split) {
    const ConstSpan head = m.run_range_into(ws, x.data(), 1, 0, split);
    // Copy the head out: the tail pass reuses the same workspace.
    const std::vector<float> h(head.data, head.data + head.size);
    const ConstSpan tail = m.run_range_into(ws, h.data(), 1, split, m.layer_count());
    ASSERT_EQ(tail.size, full.size()) << "split " << split;
    EXPECT_EQ(max_abs_diff(tail, ConstSpan{full.data(), full.size()}), 0.0) << "split " << split;
  }
}

// ---- workspace reuse --------------------------------------------------------

TEST(WorkspaceReuse, VaryingBatchSizesShareOneWorkspace) {
  const Model m = zoo_model(0);  // kws
  Workspace ws;
  ws.configure(m, 8);
  const std::int64_t act_cap = ws.activation_capacity();
  const std::int64_t col_cap = ws.im2col_capacity();
  EXPECT_GE(act_cap, m.max_activation_elems() * 8);
  for (const int batch : {4, 1, 8, 2, 8}) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < batch; ++s) inputs.push_back(patterned_tensor(m.input_shape(), batch + s));
    const Tensor stacked = stack_batch(inputs);
    const ConstSpan out = m.run_into(ws, stacked.data(), batch);
    const Tensor ref = m.run_batched_reference(stacked);
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << "batch " << batch;
    // Grow-only: shrinking the batch must never resize the arena.
    EXPECT_EQ(ws.activation_capacity(), act_cap) << "batch " << batch;
    EXPECT_EQ(ws.im2col_capacity(), col_cap) << "batch " << batch;
  }
}

TEST(WorkspaceReuse, StagedInputSurvivesArenaGrowth) {
  // The documented aliasing contract: samples staged into ws.ping() must
  // survive run_into's internal configure even when it reallocates the
  // arena (here: staged under the small ECG sizing, then run through the
  // larger KWS model, which grows the buffers).
  const Model small = zoo_model(1);  // ecg
  const Model big = zoo_model(0);    // kws
  ASSERT_GT(big.max_activation_elems(), small.max_activation_elems());
  Workspace ws;
  ws.configure(small, 1);
  const Tensor x = patterned_tensor(big.input_shape(), 21);
  ASSERT_LE(x.size(), ws.activation_capacity());  // staging fits pre-growth
  std::copy(x.data(), x.data() + x.size(), ws.ping());
  const ConstSpan out = big.run_into(ws, ws.ping(), 1);
  const Tensor ref = big.forward_reference(x);
  EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0);
}

TEST(WorkspaceReuse, GrowsAcrossModelsAndStaysExact) {
  // One workspace serving all three models (the hub's situation): buffers
  // grow to the high-water mark; results stay bit-exact for each model.
  Workspace ws;
  for (int idx = 0; idx < 3; ++idx) {
    const Model m = zoo_model(idx);
    const Tensor x = patterned_tensor(m.input_shape(), 11 + idx);
    const Tensor ref = m.forward_reference(x);
    const ConstSpan out = m.run_into(ws, x.data(), 1);
    EXPECT_EQ(max_abs_diff(out, ConstSpan{ref.data(), ref.size()}), 0.0) << m.name();
  }
}

// ---- zero-allocation steady state -------------------------------------------

TEST(ZeroAllocation, SteadyStateInferenceLoopNeverTouchesTheHeap) {
  const Model models[] = {zoo_model(0), zoo_model(1), zoo_model(2)};
  Workspace ws;
  std::vector<Tensor> inputs;
  std::vector<Tensor> batched;
  for (const Model& m : models) {
    inputs.push_back(patterned_tensor(m.input_shape(), 5));
    Shape bshape{4};
    bshape.insert(bshape.end(), m.input_shape().begin(), m.input_shape().end());
    batched.push_back(patterned_tensor(bshape, 6));
    ws.configure(m, 4);
  }
  // Warm-up: first passes may still grow the arena to its high-water mark.
  for (std::size_t i = 0; i < 3; ++i) {
    models[i].run_into(ws, inputs[i].data(), 1);
    models[i].run_into(ws, batched[i].data(), 4);
  }
  const std::uint64_t before = g_alloc_count.load();
  float sink = 0.0f;
  for (int rep = 0; rep < 20; ++rep) {
    for (std::size_t i = 0; i < 3; ++i) {
      sink += models[i].run_into(ws, inputs[i].data(), 1)[0];
      sink += models[i].run_into(ws, batched[i].data(), 4)[0];
    }
  }
  const std::uint64_t allocs = g_alloc_count.load() - before;
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_EQ(allocs, 0u) << "steady-state inference loop performed heap allocations";
}

// ---- one-workspace-per-thread determinism under SweepRunner -----------------

TEST(SweepDeterminism, InferenceResultsByteIdenticalAt1_2_8Threads) {
  // Each sweep point runs a batched pass through the shared const model on
  // its worker thread's thread-local workspace (via run_batched). The
  // merged output must be byte-identical at every thread count.
  const Model m = zoo_model(0);
  constexpr std::size_t kPoints = 12;
  const auto point = [&m](std::size_t i) {
    std::vector<Tensor> inputs;
    for (int s = 0; s < 3; ++s) {
      inputs.push_back(patterned_tensor(m.input_shape(), static_cast<int>(i) * 3 + s));
    }
    const std::vector<Tensor> outs = m.run_batched(inputs);
    std::vector<float> flat;
    for (const Tensor& o : outs) flat.insert(flat.end(), o.data(), o.data() + o.size());
    return flat;
  };
  const core::SweepRunner serial(1);
  const std::vector<std::vector<float>> reference =
      serial.map<std::vector<float>>(kPoints, point);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const core::SweepRunner runner(threads);
    const std::vector<std::vector<float>> got =
        runner.map<std::vector<float>>(kPoints, point);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < kPoints; ++i) {
      ASSERT_EQ(got[i].size(), reference[i].size()) << "point " << i;
      for (std::size_t j = 0; j < got[i].size(); ++j) {
        ASSERT_EQ(got[i][j], reference[i][j])
            << "thread count " << threads << " point " << i << " elem " << j;
      }
    }
  }
}

// ---- hub execute-and-meter --------------------------------------------------

net::SessionStats run_metered(bool execute, unsigned batch_window, const Model* net_model) {
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = batch_window;
  cfg.hub.execute_and_meter = execute;
  net::NetworkSim net(std::make_unique<comm::WiRLink>(), cfg);
  net::NodeConfig n;
  n.name = "ecg-patch";
  n.stream = "ecg";
  n.output_rate_bps = 64e3;
  n.frame_bytes = 240;
  net.add_node(n);
  net::SessionConfig s;
  s.stream = "ecg";
  s.macs_per_inference = 185'000;
  s.bytes_per_inference = 240;
  s.model = "ecg-cnn1d";
  s.weight_bytes = 9'000;
  s.net = net_model;
  net.add_session(s);
  net.run(1.0);
  return net.hub().session("ecg");
}

TEST(ExecuteAndMeter, DerivesComputeEnergyFromMeasuredKernelTime) {
  const Model ecg = make_ecg_cnn1d();
  for (const unsigned window : {0u, 4u}) {
    const net::SessionStats st = run_metered(true, window, &ecg);
    ASSERT_GT(st.inferences, 10u) << "window " << window;
    EXPECT_EQ(st.executed_inferences, st.inferences) << "window " << window;
    EXPECT_GT(st.kernel_time_s, 0.0) << "window " << window;
    // Energy is exactly measured time x platform power.
    const net::HubConfig defaults;
    EXPECT_DOUBLE_EQ(st.compute_energy_j, st.kernel_time_s * defaults.compute_power_w)
        << "window " << window;
    // The analytic model keeps accruing alongside and differs from the
    // measured number (it never consults the clock).
    EXPECT_GT(st.analytic_compute_energy_j, 0.0) << "window " << window;
    EXPECT_NE(st.compute_energy_j, st.analytic_compute_energy_j) << "window " << window;
  }
}

TEST(ExecuteAndMeter, AnalyticFieldMatchesUnmeteredRunBitExactly) {
  const Model ecg = make_ecg_cnn1d();
  for (const unsigned window : {0u, 4u}) {
    const net::SessionStats plain = run_metered(false, window, nullptr);
    const net::SessionStats metered = run_metered(true, window, &ecg);
    ASSERT_GT(plain.inferences, 10u);
    EXPECT_EQ(plain.inferences, metered.inferences);
    // The analytic ledger is identical with and without metering, and on
    // the analytic path it equals compute_energy_j bit-for-bit.
    EXPECT_EQ(plain.analytic_compute_energy_j, metered.analytic_compute_energy_j);
    EXPECT_EQ(plain.compute_energy_j, plain.analytic_compute_energy_j);
    EXPECT_EQ(plain.executed_inferences, 0u);
    EXPECT_EQ(plain.kernel_time_s, 0.0);
  }
}

TEST(ExecuteAndMeter, SessionsWithoutModelsStayAnalyticUnderMetering) {
  const net::SessionStats st = run_metered(true, 4, nullptr);
  ASSERT_GT(st.inferences, 10u);
  EXPECT_EQ(st.executed_inferences, 0u);
  EXPECT_EQ(st.kernel_time_s, 0.0);
  EXPECT_EQ(st.compute_energy_j, st.analytic_compute_energy_j);
}

TEST(ExecuteAndMeter, MixedModelGroupMetersOnlySessionsWithNets) {
  // Two sessions share a model tag (one batched group), but only "a"
  // carries an executable net: the group's flush must meter "a" alone and
  // keep "b" on the analytic ledger.
  const Model ecg = make_ecg_cnn1d();
  net::NetworkConfig cfg;
  cfg.seed = 11;
  cfg.hub.batch_window = 4;
  cfg.hub.execute_and_meter = true;
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), cfg);
  for (const char* name : {"a", "b"}) {
    net::NodeConfig n;
    n.name = name;
    n.stream = name;
    n.output_rate_bps = 64e3;
    n.frame_bytes = 240;
    sim.add_node(n);
    net::SessionConfig s;
    s.stream = name;
    s.macs_per_inference = 185'000;
    s.bytes_per_inference = 240;
    s.model = "ecg-cnn1d";
    s.weight_bytes = 9'000;
    s.net = name[0] == 'a' ? &ecg : nullptr;
    sim.add_session(s);
  }
  sim.run(1.0);
  const net::SessionStats& a = sim.hub().session("a");
  const net::SessionStats& b = sim.hub().session("b");
  ASSERT_GT(a.inferences, 10u);
  ASSERT_GT(b.inferences, 10u);
  EXPECT_EQ(a.executed_inferences, a.inferences);
  EXPECT_GT(a.kernel_time_s, 0.0);
  const net::HubConfig defaults;
  EXPECT_DOUBLE_EQ(a.compute_energy_j, a.kernel_time_s * defaults.compute_power_w);
  EXPECT_EQ(b.executed_inferences, 0u);
  EXPECT_EQ(b.kernel_time_s, 0.0);
  EXPECT_EQ(b.compute_energy_j, b.analytic_compute_energy_j);
}

}  // namespace
}  // namespace iob
