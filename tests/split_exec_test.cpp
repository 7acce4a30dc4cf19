// Split-execution test battery (ISSUE 7): the differential/property proofs
// that the analytic partitioning world and the executed one agree.
//
//  * Property: for every split k of all three zoo models,
//    run_range_into(0,k) chained into run_range_into(k,n) reproduces the
//    unsplit run_into bit-for-bit — f32 at every k, int8 at every feasible
//    boundary. The int8 boundary crossing is exactly one documented
//    requantize: the prefix dequantizes its int8 activation with the
//    boundary op's affine params and the suffix requantizes with the SAME
//    params, a value-preserving round-trip (dequantize(q) lands on exact
//    multiples of the scale, so round-half-away re-encodes the identical
//    code point). Split int8 logits also stay inside the measured
//    max-logit-error bound vs f32 with top-1 agreement on decisive inputs.
//  * Differential: `Partitioner::boundary_bytes(k)` vs the byte size of the
//    actually serialized boundary tensor at every boundary, both
//    precisions. The side that was wrong — and is now fixed — was the cost
//    model: it priced int8 transport at 1 B/element, omitting the 8-byte
//    quant-params header (`nn::kActivationHeaderBytes`) the wire format
//    needs to make int8 activations self-describing (the test names record
//    this).
//  * Falsification: a hand-computed 2-layer model whose optimal split is
//    derivable by hand; `Partitioner::optimize` must pick it AND the
//    executed-and-metered energy must rank the same split best.
//  * Network: a split leaf on a NetworkSim bills its session the
//    serialized wire size, and a pinned digest covers fixed int8, fixed f32
//    and adaptive split leaves on a hostile channel with the degradation
//    ladder armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "comm/wir_link.hpp"
#include "energy/battery.hpp"
#include "net/network_sim.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "nn/layers.hpp"
#include "nn/qmodel.hpp"
#include "nn/quantize.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "partition/adaptive_split.hpp"
#include "partition/cost_model.hpp"
#include "partition/partitioner.hpp"
#include "phy/body_motion.hpp"

namespace iob {
namespace {

nn::Model zoo_model(int idx) {
  switch (idx) {
    case 0: return nn::make_kws_dscnn();
    case 1: return nn::make_ecg_cnn1d();
    default: return nn::make_vww_micronet();
  }
}

int argmax(const float* d, std::int64_t n) {
  return static_cast<int>(std::max_element(d, d + n) - d);
}

/// Run layers [a, b) of the f32 or int8 engine on `ws`.
nn::ConstSpan run_range(const nn::Model& m, const nn::QuantizedModel* qm, nn::Workspace& ws,
                        const float* in, int batch, std::size_t a, std::size_t b) {
  return qm != nullptr ? qm->run_range_into(ws, in, batch, a, b)
                       : m.run_range_into(ws, in, batch, a, b);
}

/// Chain [0,k) into [k,n) through an out-of-workspace boundary copy (the
/// "shipped activation") and return the final logits.
std::vector<float> chained_output(const nn::Model& m, const nn::QuantizedModel* qm,
                                  nn::Workspace& ws, const nn::Tensor& x, int batch,
                                  std::size_t k) {
  const std::size_t n = m.layer_count();
  std::vector<float> boundary;
  if (k == 0) {
    boundary.assign(x.data(), x.data() + x.size());
  } else {
    const nn::ConstSpan pre = run_range(m, qm, ws, x.data(), batch, 0, k);
    boundary.assign(pre.begin(), pre.end());
  }
  if (k == n) return boundary;
  const nn::ConstSpan suf = run_range(m, qm, ws, boundary.data(), batch, k, n);
  return std::vector<float>(suf.begin(), suf.end());
}

// ---- property: chained ranges are bit-exact vs the unsplit pass -------------

TEST(SplitProperty, F32ChainedRangesBitExactAtEverySplitAllZooModels) {
  for (int idx = 0; idx < 3; ++idx) {
    const nn::Model m = zoo_model(idx);
    const std::size_t n = m.layer_count();
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
    nn::Workspace ws;
    const nn::ConstSpan full_span = m.run_into(ws, x.data(), 1);
    const std::vector<float> full(full_span.begin(), full_span.end());
    for (std::size_t k = 0; k <= n; ++k) {
      const std::vector<float> chained = chained_output(m, nullptr, ws, x, 1, k);
      ASSERT_EQ(chained.size(), full.size()) << m.name() << " k=" << k;
      for (std::size_t i = 0; i < full.size(); ++i) {
        // Bit-exact: fused conv+relu pairs split into conv-then-relu hops
        // with identical arithmetic (range fusion suppression).
        ASSERT_EQ(chained[i], full[i]) << m.name() << " k=" << k << " elem " << i;
      }
    }
  }
}

TEST(SplitProperty, F32ChainedRangesBitExactBatched) {
  const nn::Model m = nn::make_kws_dscnn();
  const std::size_t n = m.layer_count();
  nn::Shape batched = m.input_shape();
  batched.insert(batched.begin(), 3);
  const nn::Tensor x = nn::patterned_tensor(batched, 11);
  nn::Workspace ws;
  const nn::ConstSpan full_span = m.run_into(ws, x.data(), 3);
  const std::vector<float> full(full_span.begin(), full_span.end());
  for (std::size_t k = 0; k <= n; ++k) {
    const std::vector<float> chained = chained_output(m, nullptr, ws, x, 3, k);
    ASSERT_EQ(chained.size(), full.size()) << "k=" << k;
    for (std::size_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(chained[i], full[i]) << "k=" << k << " elem " << i;
    }
  }
}

TEST(SplitProperty, Int8ChainedRangesBitExactAtEveryFeasibleBoundary) {
  for (int idx = 0; idx < 3; ++idx) {
    const nn::Model m = zoo_model(idx);
    const nn::QuantizedModel qm(m);
    const std::size_t n = m.layer_count();
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
    nn::Workspace ws;
    const nn::ConstSpan full_span = qm.run_into(ws, x.data(), 1);
    const std::vector<float> full(full_span.begin(), full_span.end());
    std::size_t feasible = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      if (!qm.feasible_boundary(k)) continue;  // inside a fused conv+relu pair
      ++feasible;
      const std::vector<float> chained = chained_output(m, &qm, ws, x, 1, k);
      ASSERT_EQ(chained.size(), full.size()) << m.name() << " k=" << k;
      for (std::size_t i = 0; i < full.size(); ++i) {
        // The ONE boundary requantize is value-preserving: the prefix's
        // dequantize-out emits exact multiples of the boundary scale, which
        // the suffix's requantize-in maps back to the identical int8 code.
        ASSERT_EQ(chained[i], full[i]) << m.name() << " k=" << k << " elem " << i;
      }
    }
    // The boundary set must be rich enough to mean something: at least the
    // two poles plus an interior cut.
    EXPECT_GE(feasible, 3u) << m.name();
  }
}

TEST(SplitProperty, Int8SplitLogitsBoundedVsF32WithTop1AgreementOnDecisiveInputs) {
  // Same bound discipline as the unsplit zoo accuracy test
  // (tests/nn_int8_test.cpp): measure the per-model error vs the f32
  // oracle, assert it under the empirical ceiling, then require top-1
  // agreement wherever the f32 margin exceeds twice the measured error —
  // now for the CHAINED split output at every feasible boundary.
  const double kMaxLogitErr = 0.05;
  for (int idx = 0; idx < 3; ++idx) {
    const nn::Model m = zoo_model(idx);
    const nn::QuantizedModel qm(m);
    const std::size_t n = m.layer_count();
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
    nn::Workspace ws;
    const nn::ConstSpan f32_span = m.run_into(ws, x.data(), 1);
    const std::vector<float> f32_out(f32_span.begin(), f32_span.end());
    const int af = argmax(f32_out.data(), static_cast<std::int64_t>(f32_out.size()));
    double runner_up = -1e30;
    for (std::size_t i = 0; i < f32_out.size(); ++i) {
      if (static_cast<int>(i) != af) runner_up = std::max(runner_up, double{f32_out[i]});
    }
    for (std::size_t k = 0; k <= n; ++k) {
      if (!qm.feasible_boundary(k)) continue;
      const std::vector<float> split = chained_output(m, &qm, ws, x, 1, k);
      double err = 0.0;
      for (std::size_t i = 0; i < f32_out.size(); ++i) {
        err = std::max(err, std::abs(double{split[i]} - double{f32_out[i]}));
      }
      EXPECT_LE(err, kMaxLogitErr) << m.name() << " k=" << k;
      if (f32_out[af] - runner_up > 2.0 * err) {
        EXPECT_EQ(argmax(split.data(), static_cast<std::int64_t>(split.size())), af)
            << m.name() << " k=" << k;
      }
    }
  }
}

TEST(SplitProperty, RangeBoundaryValidation) {
  const nn::Model m = nn::make_ecg_cnn1d();
  const nn::QuantizedModel qm(m);
  const std::size_t n = m.layer_count();
  const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 3);
  nn::Workspace ws;
  EXPECT_THROW(qm.run_range_into(ws, x.data(), 1, 2, 1), std::exception);   // first > last
  EXPECT_THROW(qm.run_range_into(ws, x.data(), 1, 0, n + 1), std::exception);  // past end
  EXPECT_THROW(static_cast<void>(qm.feasible_boundary(n + 1)), std::exception);
  // Empty ranges are identity passes on any engine.
  const nn::ConstSpan id = qm.run_range_into(ws, x.data(), 1, 0, 0);
  ASSERT_EQ(id.size, x.size());
  for (std::int64_t i = 0; i < id.size; ++i) EXPECT_EQ(id.data[i], x.data()[i]);
}

// ---- differential: boundary_bytes vs the actually serialized tensor ---------
//
// The discrepancy these tests pinned down (and that is now fixed on the
// cost-model side): `Partitioner::boundary_bytes` used to price int8
// transport at 1 B/element, but the executable wire format carries an
// 8-byte affine-params header (`nn::kActivationHeaderBytes`) — without it
// the receiver cannot requantize into its own op chain. The test names
// record the fix per the issue instruction.

TEST(SplitDifferential, BoundaryBytesMatchSerializedWire_F32EveryBoundaryAllZooModels) {
  for (int idx = 0; idx < 3; ++idx) {
    const nn::Model m = zoo_model(idx);
    partition::CostModel cm;
    cm.transport = nn::Precision::kF32;
    cm.leaf_hub = partition::CostModel::default_uplink();
    const partition::Partitioner part(m, cm);
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
    nn::Workspace ws;
    for (std::size_t k = 0; k <= m.layer_count(); ++k) {
      // f32 "serialization" is the raw activation bytes: 4 B/element.
      const std::int64_t elems =
          k == 0 ? x.size()
                 : static_cast<std::int64_t>(
                       run_range(m, nullptr, ws, x.data(), 1, 0, k).size);
      EXPECT_EQ(part.boundary_bytes(k), elems * 4) << m.name() << " k=" << k;
    }
  }
}

TEST(SplitDifferential, BoundaryBytesMatchSerializedWire_Int8HeaderWasUnpriced) {
  for (int idx = 0; idx < 3; ++idx) {
    const nn::Model m = zoo_model(idx);
    const nn::QuantizedModel qm(m);
    partition::CostModel cm;
    cm.transport = nn::Precision::kInt8;
    cm.leaf_hub = partition::CostModel::default_uplink();
    const partition::Partitioner part(m, cm);
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 7);
    nn::Workspace ws;
    for (std::size_t k = 0; k <= m.layer_count(); ++k) {
      if (!qm.feasible_boundary(k)) continue;  // no executable boundary exists
      // Materialize the boundary activation and serialize it exactly as the
      // leaf would ship it.
      std::vector<float> boundary;
      nn::Shape shape;
      if (k == 0) {
        boundary.assign(x.data(), x.data() + x.size());
        shape = x.shape();
      } else {
        const nn::ConstSpan pre = run_range(m, &qm, ws, x.data(), 1, 0, k);
        boundary.assign(pre.begin(), pre.end());
        shape = m.profiles()[k - 1].output_shape;
      }
      const nn::Tensor bt = nn::Tensor::from_data(shape, boundary.data());
      const nn::QuantizedTensor q = k < qm.float_tail_start()
                                        ? nn::quantize(bt, qm.boundary_params(k))
                                        : nn::quantize(bt);
      const std::vector<std::uint8_t> wire = nn::serialize_activation(q);
      EXPECT_EQ(part.boundary_bytes(k), static_cast<std::int64_t>(wire.size()))
          << m.name() << " k=" << k;
      // And the round trip restores the exact code points + params.
      const nn::QuantizedTensor back = nn::deserialize_activation(wire, shape);
      EXPECT_EQ(back.data, q.data) << m.name() << " k=" << k;
      EXPECT_EQ(back.params.scale, q.params.scale);
      EXPECT_EQ(back.params.zero_point, q.params.zero_point);
    }
  }
}

TEST(SplitDifferential, DeserializeRejectsMalformedHeaders) {
  const nn::Shape shape{4};
  nn::QuantizedTensor q;
  q.shape = shape;
  q.data = {-3, 0, 5, 127};
  q.params = {0.05f, -7};
  const auto wire_with = [&](float scale, std::int32_t zero_point) {
    nn::QuantizedTensor h = q;
    h.params = {scale, zero_point};
    return nn::serialize_activation(h);
  };
  EXPECT_NO_THROW((void)nn::deserialize_activation(wire_with(0.05f, -128), shape));
  EXPECT_NO_THROW((void)nn::deserialize_activation(wire_with(0.05f, 127), shape));
  for (const float scale : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 0.0f, -0.0f, -0.05f}) {
    EXPECT_THROW((void)nn::deserialize_activation(wire_with(scale, 0), shape),
                 std::invalid_argument)
        << "scale " << scale;
  }
  for (const std::int32_t zero_point : {128, -129}) {
    EXPECT_THROW((void)nn::deserialize_activation(wire_with(0.05f, zero_point), shape),
                 std::invalid_argument)
        << "zero point " << zero_point;
  }
  // A well-formed header round-trips; a short wire is still rejected.
  const nn::QuantizedTensor back = nn::deserialize_activation(wire_with(0.05f, -7), shape);
  EXPECT_EQ(back.data, q.data);
  std::vector<std::uint8_t> short_wire = wire_with(0.05f, -7);
  short_wire.pop_back();
  EXPECT_THROW((void)nn::deserialize_activation(short_wire, shape), std::invalid_argument);
}

TEST(SplitDifferential, WireBytesFormula) {
  // int8: header + 1 B/elem; f32: raw 4 B/elem, header-free.
  EXPECT_EQ(nn::activation_wire_bytes(16, nn::Precision::kInt8),
            nn::kActivationHeaderBytes + 16);
  EXPECT_EQ(nn::activation_wire_bytes(16, nn::Precision::kF32), 64);
  EXPECT_EQ(nn::activation_wire_bytes(0, nn::Precision::kInt8), nn::kActivationHeaderBytes);
}

// ---- falsification: hand-computed optimum, analytic AND metered -------------

/// Two-layer falsification model: FC 64->8 (512 MACs, tiny prefix) then
/// FC 8->4096 (32768 MACs, the heavy suffix). Large input (64 elems),
/// tiny boundary (8 elems) — transport punishes full offload, leaf
/// silicon punishes all-on-leaf, so the optimum is the mid split.
nn::Model falsification_model() {
  nn::Model m("falsify", nn::Shape{64});
  m.add(std::make_unique<nn::FullyConnected>(64, 8, std::vector<float>(512, 0.01f),
                                             std::vector<float>(8, 0.0f)));
  m.add(std::make_unique<nn::FullyConnected>(8, 4096, std::vector<float>(32768, 0.01f),
                                             std::vector<float>(4096, 0.0f)));
  return m;
}

/// Hand-pickable cost ratios: leaf silicon 8x the hub's energy/MAC,
/// transport 150x the hub's per-MAC energy per bit, f32 wire (4 B/elem,
/// no header — keeps the hand arithmetic clean). With h = 5 pJ/MAC:
///   E(0) = 33280 MACs * h (hub)  + 64*32 bits * 150h = 340480h  — offload
///   E(1) =   512*8h + 32768h     +  8*32 bits * 150h =  75264h  — SPLIT
///   E(2) = 33280 MACs * 8h (leaf)+ 0                 = 266240h  — on-leaf
/// so k = 1 wins by 3.5x (vs on-leaf) and 4.5x (vs offload).
partition::CostModel falsification_cost() {
  partition::CostModel cm;
  cm.leaf = {"leaf", 40e-12, 50e6};
  cm.hub = {"hub", 5e-12, 2e9};
  cm.transport = nn::Precision::kF32;
  cm.leaf_hub = {"bus", 1e6, 750e-12, 0.0, 0.0};
  // Prohibitive uplink pins the cloud split at n (not under test here).
  cm.hub_cloud = {"uplink", 20e6, 1.0, 1.0, 10.0};
  return cm;
}

TEST(SplitFalsification, HandComputedPlanEnergies) {
  const nn::Model m = falsification_model();
  const partition::Partitioner part(m, falsification_cost());
  const double h = 5e-12;
  const partition::PartitionPlan e0 = part.evaluate(0, 2);
  const partition::PartitionPlan e1 = part.evaluate(1, 2);
  const partition::PartitionPlan e2 = part.evaluate(2, 2);
  EXPECT_NEAR(e0.total_energy_j(), 340480.0 * h, 1e-18);
  EXPECT_NEAR(e1.total_energy_j(), 75264.0 * h, 1e-18);
  EXPECT_NEAR(e2.total_energy_j(), 266240.0 * h, 1e-18);
}

TEST(SplitFalsification, AnalyticOptimizerPicksTheHandComputedSplit) {
  const nn::Model m = falsification_model();
  const partition::Partitioner part(m, falsification_cost());
  const partition::PartitionPlan best = part.optimize(partition::Objective::kTotalEnergy);
  EXPECT_EQ(best.split_leaf_hub, 1u);
  EXPECT_EQ(best.split_hub_cloud, 2u);  // cloud leg priced out
}

/// Min-of-3 adaptive timing (the bench's technique): grow reps until one
/// pass fills the window, then keep the best of three windows.
template <typename F>
double time_call_s(F&& fn) {
  const auto wall = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  fn();  // warm-up
  int reps = 1;
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    const double t0 = wall();
    for (int r = 0; r < reps; ++r) fn();
    const double dt = wall() - t0;
    if (dt >= 2e-3) {
      best = dt / reps;
      break;
    }
    reps *= 2;
  }
  for (int pass = 0; pass < 2; ++pass) {
    const double t0 = wall();
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, (wall() - t0) / reps);
  }
  return best;
}

TEST(SplitFalsification, ExecutedAndMeteredEnergyRanksTheSameSplitBest) {
  // Execute all three splits and meter them: energy = measured range time x
  // venue power, with the leaf at 8x the hub's power (the same ratio the
  // analytic model encodes — both venues run the same host engine, so
  // equal-speed silicon is the right twin) plus the analytic transport
  // term re-priced against the HOST's measured per-MAC energy. The ranking
  // margins are wide by construction (>= 3x analytically; the measured
  // argmin tolerates the prefix/suffix kernel-efficiency skew of real
  // GEMM shapes), so this is robust to timer noise.
  const nn::Model m = falsification_model();
  const double kHubPowerW = 0.04;
  const double kLeafPowerW = 8.0 * kHubPowerW;
  const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 5);
  nn::Workspace ws;

  // Keep the timed calls observable: the result pointer sinks into a
  // volatile so the pass cannot be elided.
  static volatile const float* sink;
  const double t_full = time_call_s([&] { sink = m.run_range_into(ws, x.data(), 1, 0, 2).data; });
  const double h_host = kHubPowerW * t_full / static_cast<double>(m.total_macs());
  const double e_bit = 150.0 * h_host;  // the hand-picked transport ratio

  const double bits[3] = {64.0 * 32.0, 8.0 * 32.0, 0.0};
  double measured[3] = {0.0, 0.0, 0.0};
  for (std::size_t k = 0; k <= 2; ++k) {
    double t_pre = 0.0, t_suf = 0.0;
    if (k > 0) {
      t_pre = time_call_s([&] { sink = m.run_range_into(ws, x.data(), 1, 0, k).data; });
    }
    const nn::ConstSpan pre = k > 0 ? m.run_range_into(ws, x.data(), 1, 0, k)
                                    : nn::ConstSpan{x.data(), x.size()};
    const std::vector<float> boundary(pre.begin(), pre.end());
    if (k < 2) {
      t_suf = time_call_s([&] { sink = m.run_range_into(ws, boundary.data(), 1, k, 2).data; });
    }
    measured[k] = t_pre * kLeafPowerW + t_suf * kHubPowerW + bits[k] * e_bit;
  }
  EXPECT_NE(sink, nullptr);  // the metered passes really ran
  EXPECT_LT(measured[1], measured[0]) << "split must beat full offload";
  EXPECT_LT(measured[1], measured[2]) << "split must beat all-on-leaf";
}

// ---- adaptive split controller ----------------------------------------------

TEST(AdaptiveSplit, CandidatesFromPartitionerAreStrictlyDecreasingInLeafPower) {
  const nn::Model m = nn::make_kws_dscnn();
  partition::CostModel cm;
  cm.leaf_hub = {"bus", 1e6, 100e-12, 40e-12, 1e-4};
  cm.hub_cloud = partition::CostModel::default_uplink();
  const partition::Partitioner part(m, cm);
  const std::vector<partition::SplitCandidate> cands =
      partition::AdaptiveSplitController::candidates_from(part, 10.0);
  ASSERT_GE(cands.size(), 2u);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LT(cands[i].leaf_power_w, cands[i - 1].leaf_power_w);
  }
  // Every candidate's power is the plan's leaf energy x rate, point-checked.
  for (const partition::SplitCandidate& c : cands) {
    const partition::PartitionPlan plan = part.evaluate(c.split_at, m.layer_count());
    EXPECT_DOUBLE_EQ(c.leaf_power_w, plan.leaf_energy_j() * 10.0);
  }
}

TEST(AdaptiveSplit, ControllerStepsDownWhenGlideBudgetShrinksAndBackUpWithHysteresis) {
  partition::AdaptiveSplitConfig cfg;
  cfg.candidates = {{3, 4e-3}, {2, 2e-3}, {1, 1e-3}};
  cfg.mission_time_s = 1000.0;
  partition::AdaptiveSplitController ctrl(cfg);
  EXPECT_EQ(ctrl.current_index(), 0u);

  // Full battery sized for ~2.5 mW over the mission: the 4 mW candidate
  // overshoots the glide budget, the 2 mW one fits.
  energy::Battery rich(2.5e-3 * 1000.0 / (3.6 * 3.0), 3.0);  // mAh at 3 V
  EXPECT_EQ(ctrl.update(rich, 0.0), 1u);
  EXPECT_EQ(ctrl.current().split_at, 2u);

  // Drain to a quarter: budget ~0.625 mW — even the 1 mW floor overshoots,
  // so the controller bottoms out at the last candidate.
  energy::Battery poor(2.5e-3 * 1000.0 / (3.6 * 3.0), 3.0);
  poor.discharge(poor.usable_energy_j() * 0.75);
  EXPECT_EQ(ctrl.update(poor, 0.0), 2u);

  // Stepping back up needs the richer candidate to fit WITH the x1.15
  // hysteresis margin: a 2.2 mW budget fits candidate 1's 2 mW but not
  // 2 mW * 1.15 = 2.3 mW — held down, no flapping. The 2.5 mW budget clears
  // the margin for one step, and deep into the mission the remaining-time
  // budget balloons (2.5 J / 100 s = 25 mW) and the controller climbs all
  // the way back.
  energy::Battery snug(2.2e-3 * 1000.0 / (3.6 * 3.0), 3.0);
  EXPECT_EQ(ctrl.update(snug, 0.0), 2u);     // hysteresis holds it down
  EXPECT_EQ(ctrl.update(rich, 0.0), 1u);     // 2.3 mW < 2.5 mW: one step up
  EXPECT_EQ(ctrl.update(rich, 900.0), 0u);   // 25 mW budget: back to richest
}

// ---- split leaves on a NetworkSim ------------------------------------------

/// The shared session model must outlive every simulation; zoo models are
/// value types, so park one in a function-local static.
const nn::Model& fleet_model() {
  static const nn::Model m = nn::make_kws_dscnn();
  return m;
}

TEST(SplitNetwork, SplitSessionsBillTheSerializedWireSize) {
  // One fixed int8 split leaf at the model's midpoint: the session's
  // bytes/inference must equal the boundary activation's wire size and the
  // node must ship exactly that many bytes per inference.
  const nn::Model& m = fleet_model();
  const std::size_t n = m.layer_count();
  const std::size_t k = static_cast<std::size_t>(std::lround(0.5 * static_cast<double>(n)));
  net::NetworkConfig nc;
  nc.seed = 7;
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), nc);
  net::NodeConfig leaf;
  leaf.name = "audio";
  leaf.stream = "audio";
  leaf.sense_power_w = 150e-6;
  leaf.output_rate_bps = 64e3;
  leaf.slot_weight = 2;
  net::LeafSplit sp;
  sp.net = &m;
  sp.split_at = k;
  sp.precision = nn::Precision::kInt8;
  sp.period_s = 2'000.0 * 8.0 / 64e3;
  leaf.split = sp;
  sim.add_node(std::move(leaf));
  net::SessionConfig s;
  s.stream = "audio";
  s.macs_per_inference = 2'500'000;
  s.bytes_per_inference = 2'000;
  s.model = "kws-dscnn";
  s.weight_bytes = 22'604;
  s.net = &m;
  s.precision = nn::Precision::kInt8;
  net::apply_split(s, k);
  const std::uint64_t session_bytes = s.bytes_per_inference;
  sim.add_session(std::move(s));
  const net::NetworkReport rep = sim.run(2.0);

  const std::int64_t elems = k == 0 ? nn::shape_elems(m.input_shape())
                                    : nn::shape_elems(m.profiles()[k - 1].output_shape);
  const std::uint64_t wire =
      static_cast<std::uint64_t>(nn::activation_wire_bytes(elems, nn::Precision::kInt8));
  EXPECT_EQ(session_bytes, wire);
  ASSERT_EQ(rep.nodes.size(), 1u);
  const net::NodeReport& nr = rep.nodes[0];
  EXPECT_GT(nr.split_inferences, 0u);
  EXPECT_EQ(nr.split_at, k);
  EXPECT_EQ(nr.split_activation_bytes, nr.split_inferences * wire);
}

// ---- split leaves on a hostile channel: pinned NetworkSim digest -------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Round-trip-exact text of a double, so the digest pins every bit.
std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Three split leaves built directly on a `NetworkSim` (no fleet harness):
/// a fixed int8 split, a fixed f32 split and an adaptive split whose battery
/// puts the glide budget mid-ladder. Every leaf arms the degradation ladder
/// and the network runs under the gym SIR level on a running wearer; each
/// leaf's hub session resumes at the leaf's split.
struct SplitNetworkRun {
  net::NetworkReport report;
  std::string text;  ///< round-trip-exact fields the digest pins
};

SplitNetworkRun run_split_network() {
  const nn::Model& m = fleet_model();
  const std::size_t n = m.layer_count();
  const std::size_t half = static_cast<std::size_t>(std::lround(0.5 * static_cast<double>(n)));
  constexpr double kRateBps = 64e3;
  constexpr std::uint64_t kWindowBytes = 2'000;
  // Short frames: the gym level loses most longer ones outright.
  constexpr std::uint32_t kFrameBytes = 12;
  const double period_s = static_cast<double>(kWindowBytes) * 8.0 / kRateBps;

  net::NetworkConfig nc;
  nc.seed = 17;
  nc.hub.batch_window = 1;
  nc.dynamics.interference = phy::SirLevel{2, 1.0, -5.3, 20.0};
  nc.dynamics.motion = phy::running_profile();
  net::NetworkSim sim(std::make_unique<comm::WiRLink>(), nc);

  const auto add_leaf = [&](const std::string& name, nn::Precision precision,
                            net::LeafSplit sp, double battery_mah) {
    net::NodeConfig leaf;
    leaf.name = name;
    leaf.stream = name;
    leaf.sense_power_w = 150e-6;
    leaf.output_rate_bps = kRateBps;
    leaf.frame_bytes = kFrameBytes;
    leaf.slot_weight = 2;
    leaf.settle_period_s = 0.05;
    leaf.battery_mah = battery_mah;
    leaf.degradation = true;
    sp.net = &m;
    sp.precision = precision;
    sp.period_s = period_s;
    leaf.split = sp;
    const std::size_t k = sp.adaptive ? sp.adaptive->candidates.front().split_at : sp.split_at;
    sim.add_node(std::move(leaf));
    net::SessionConfig s;
    s.stream = name;
    s.macs_per_inference = 2'500'000;
    s.bytes_per_inference = kWindowBytes;
    s.model = "kws-dscnn";
    s.weight_bytes = 22'604;
    s.forward_to_cloud = true;
    s.net = &m;
    s.precision = precision;
    net::apply_split(s, k);
    sim.add_session(std::move(s));
  };

  net::LeafSplit fixed;
  fixed.split_at = half;
  add_leaf("fixed-int8", nn::Precision::kInt8, fixed, 1000.0);
  add_leaf("fixed-f32", nn::Precision::kF32, fixed, 1000.0);

  partition::CostModel cost;
  cost.transport = nn::Precision::kInt8;
  const comm::WiRLink wir;
  cost.leaf_hub = partition::CostModel::leg_from_link(wir, kRateBps, kFrameBytes);
  cost.hub_cloud = partition::CostModel::default_uplink();
  const partition::Partitioner part(m, cost);
  net::LeafSplit adaptive;
  partition::AdaptiveSplitConfig acfg;
  acfg.candidates = partition::AdaptiveSplitController::candidates_from(part, 1.0 / period_s);
  acfg.mission_time_s = 3600.0;
  // Battery sized so the glide budget lands mid-ladder: the controller
  // starts at the richest candidate and must step down at once.
  const double p_mid = acfg.candidates[acfg.candidates.size() / 2].leaf_power_w;
  adaptive.adaptive = acfg;
  add_leaf("adaptive", nn::Precision::kInt8, adaptive, p_mid * 3600.0 / (3.6 * 3.0));

  SplitNetworkRun run;
  run.report = sim.run(4.0);
  const net::NetworkReport& rep = run.report;
  std::string& out = run.text;
  out = exact(rep.hub_power_w) + "," + exact(rep.aggregate_goodput_bps) + "," +
                    exact(rep.bus_utilization) + "," + exact(rep.elapsed_s) + "\n";
  for (const net::NodeReport& r : rep.nodes) {
    out += r.name + "," + exact(r.average_power_w) + "," + exact(r.comm_power_w) + "," +
           exact(r.projected_life_days) + "," + std::to_string(r.frames_delivered) + "," +
           std::to_string(r.frames_dropped) + "," + exact(r.mean_latency_s) + "," +
           exact(r.p99ish_latency_s) + "," + std::to_string(r.dropped_arq) + "," +
           std::to_string(r.dropped_overflow_clean) + "," + std::to_string(r.dropped_shed) +
           "," + std::to_string(r.split_inferences) + "," +
           std::to_string(r.split_activation_bytes) + "," + exact(r.split_compute_energy_j) +
           "," + std::to_string(r.split_repartitions) + "," + std::to_string(r.split_at) + "," +
           std::to_string(r.degradation_step) + "," + std::to_string(r.degradation_max_step) +
           "," + std::to_string(r.degradation_transitions) + "," + exact(r.time_degraded_s) +
           "," + exact(r.degradation_recovery_s) + "\n";
    const net::SessionStats& st = sim.hub().session(r.name);
    out += std::to_string(st.bytes_in) + "," + std::to_string(st.inferences) + "," +
           exact(st.compute_energy_j) + "," + exact(st.uplink_energy_j) + "," +
           std::to_string(st.batched_inferences) + "," + std::to_string(st.batched_passes) +
           "," + exact(st.batched_compute_energy_j) + "," +
           std::to_string(st.queued_latency_s.count()) + "," +
           exact(st.queued_latency_s.mean()) + "," + exact(st.analytic_compute_energy_j) + "," +
           exact(st.compute_energy_f32_j) + "," + exact(st.compute_energy_int8_j) + "," +
           std::to_string(st.leaf_inferences) + "," + exact(st.leaf_compute_energy_j) + "," +
           std::to_string(st.activation_bytes_shipped) + "," + std::to_string(st.repartitions) +
           "," + std::to_string(st.repartition_dropped_bytes) + "," +
           std::to_string(st.degradation_transitions) + "," + exact(st.degradation_time_s) +
           "," + std::to_string(st.frames_saved_by_shedding) + "\n";
  }
  return run;
}

TEST(SplitNetwork, HostileChannelSplitLeavesDigestIsPinned) {
  const SplitNetworkRun run = run_split_network();
  // The digest covers the behaviours it pins: every leaf runs its prefix,
  // the adaptive leaf moves its split and the ladder engages.
  ASSERT_EQ(run.report.nodes.size(), 3u);
  std::uint64_t max_step = 0;
  for (const net::NodeReport& r : run.report.nodes) {
    EXPECT_GT(r.split_inferences, 0u) << r.name;
    max_step = std::max(max_step, r.degradation_max_step);
  }
  EXPECT_GT(run.report.nodes[2].split_repartitions, 0u);
  EXPECT_GT(max_step, 0u);
  EXPECT_EQ(run.text, run_split_network().text);  // same inputs, same bytes
  EXPECT_EQ(fnv1a(run.text), 0x85c950a8f23fe755ULL);
}

}  // namespace
}  // namespace iob
