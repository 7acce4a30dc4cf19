#include "nn_probe.hpp"

#include <algorithm>
#include <vector>

#include "nn/conv.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace iob;

double time_call_us(const std::function<void()>& fn, double budget_s) {
  fn();  // warm the workspace and caches
  const double t0 = now_s();
  fn();
  const double once = std::max(1e-7, now_s() - t0);
  const int reps = std::max(1, static_cast<int>(budget_s / 5.0 / once));
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const double a = now_s();
    for (int i = 0; i < reps; ++i) fn();
    rounds.push_back((now_s() - a) / reps * 1e6);
  }
  return median(rounds);
}

namespace {

nn::Tensor batched_input(const nn::Model& m, int batch) {
  nn::Shape shape{batch};
  shape.insert(shape.end(), m.input_shape().begin(), m.input_shape().end());
  return nn::patterned_tensor(shape, 7);
}

nn::ConstSpan run_range(nn::Workspace& ws, const nn::Model& m, const nn::QuantizedModel* qm,
                        const float* in, int batch, std::size_t a, std::size_t b) {
  return qm != nullptr ? qm->run_range_into(ws, in, batch, a, b)
                       : m.run_range_into(ws, in, batch, a, b);
}

const char* const kLayerTypes[] = {"conv", "dwconv", "dense", "other"};

/// Index into kLayerTypes of a layer's type.
int layer_type(const nn::Layer& layer) {
  if (dynamic_cast<const nn::DepthwiseConv2D*>(&layer) != nullptr) return 1;
  if (dynamic_cast<const nn::Conv2D*>(&layer) != nullptr ||
      dynamic_cast<const nn::Conv1D*>(&layer) != nullptr) {
    return 0;
  }
  if (dynamic_cast<const nn::FullyConnected*>(&layer) != nullptr) return 2;
  return 3;
}

}  // namespace

double model_pass_us(const nn::Model& m, const nn::QuantizedModel* qm, int batch,
                     double budget_s) {
  const nn::Tensor x = batched_input(m, batch);
  nn::Workspace ws;
  volatile float sink = 0.0f;
  return time_call_us(
      [&] { sink = run_range(ws, m, qm, x.data(), batch, 0, m.layer_count()).data[0]; },
      budget_s);
}

void record_layer_type_profile(const nn::Model& m, const nn::QuantizedModel* qm, int batch,
                               double budget_per_range_s, const std::string& prefix,
                               Result& result) {
  const std::size_t n = m.layer_count();
  std::vector<std::size_t> cuts;
  for (std::size_t k = 0; k <= n; ++k) {
    if (qm == nullptr || qm->feasible_boundary(k)) cuts.push_back(k);
  }
  const nn::Tensor x = batched_input(m, batch);
  nn::Workspace ws;
  double us[4] = {0, 0, 0, 0};
  volatile float sink = 0.0f;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::size_t a = cuts[c], b = cuts[c + 1];
    // The range's input, copied out of the workspace the timed call reuses.
    const nn::ConstSpan pre = run_range(ws, m, qm, x.data(), batch, 0, a);
    const std::vector<float> in(pre.begin(), pre.end());
    const double t = time_call_us(
        [&] { sink = run_range(ws, m, qm, in.data(), batch, a, b).data[0]; }, budget_per_range_s);
    us[layer_type(m.layer(a))] += t / batch;
  }
  for (int i = 0; i < 4; ++i) result.set(prefix + "." + kLayerTypes[i] + "_us", us[i]);
}

}  // namespace perfbench
