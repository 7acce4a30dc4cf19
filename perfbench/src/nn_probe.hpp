#pragma once
/// \file nn_probe.hpp
/// Isolated timings of the nn engine's public entry points, used by the
/// traced runs: whole-model passes at a fixed batch and the per-layer-type
/// profile (`run_range_into` one feasible layer range at a time).

#include <functional>
#include <string>

#include "nn/model.hpp"
#include "nn/qmodel.hpp"
#include "report.hpp"

namespace perfbench {

/// Median over five rounds of the mean wall time (µs) of one `fn` call;
/// each round lasts about budget_s / 5.
[[nodiscard]] double time_call_us(const std::function<void()>& fn, double budget_s);

/// Mean µs of one whole-model pass at `batch` (qm == nullptr runs f32).
[[nodiscard]] double model_pass_us(const iob::nn::Model& m, const iob::nn::QuantizedModel* qm,
                                   int batch, double budget_s);

/// Records `<prefix>.{conv,dwconv,dense,other}_us`: µs per item spent in
/// each layer type at `batch`, timing each feasible layer range on its own.
void record_layer_type_profile(const iob::nn::Model& m, const iob::nn::QuantizedModel* qm,
                               int batch, double budget_per_range_s, const std::string& prefix,
                               Result& result);

}  // namespace perfbench
