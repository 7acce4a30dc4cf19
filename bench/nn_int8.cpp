// Int8 quantized execution path benchmark (ISSUE 5): the quantized engine
// (`nn::QuantizedModel` — int8 im2col + pmaddwd GEMM with a fused
// requantize epilogue, runtime-dispatched SSE2/AVX2/AVX-512) against the
// f32 engine from PR 4 on all three zoo models, single-inference and
// batch-8. Reports throughput, the int8-vs-f32 speedups, accuracy deltas
// vs the f32 oracle (max logit error, top-1 agreement overall and on
// decision-margin-decisive inputs), and int8 weight footprints; verifies
// the zero-steady-state-allocation contract with the interposer. Emits
// BENCH_nn_int8.json; `nn_int8_batched_items_per_s_vww` is watched by
// scripts/collect_bench.py under the strict regression gate.
//
// Set IOB_NN_SMOKE=1 (CI) to shrink the measurement budgets.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/alloc_interposer.hpp"  // defines global operator new/delete
#include "common/expect.hpp"
#include "common/table.hpp"
#include "nn/gemm.hpp"
#include "nn/model_zoo.hpp"
#include "nn/qmodel.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace {

std::atomic<std::uint64_t>& g_alloc_count = iob::alloc_interposer::new_calls;

using namespace iob;

constexpr int kBatch = 8;
constexpr int kAccuracyInputs = 32;

struct ModelEntry {
  const char* key;
  nn::Model model;
};

void print_headline() {
  const bool smoke = std::getenv("IOB_NN_SMOKE") != nullptr;
  // The smoke budget still feeds the strict CI regression gate (the vww
  // int8 series is watched), so it stays large enough to tame
  // shared-runner noise at the 10% threshold.
  const double budget_s = smoke ? 0.5 : 1.0;

  common::print_banner(
      std::string("NN int8 engine — quantized execution path vs the f32 engine") +
      (smoke ? " [smoke]" : ""));

  ModelEntry entries[] = {{"kws", nn::make_kws_dscnn()},
                          {"ecg", nn::make_ecg_cnn1d()},
                          {"vww", nn::make_vww_micronet()}};

  bench::JsonReporter json("nn_int8");
  // Which kernel tier (0 SSE2, 1 AVX2, 2 AVX-512) produced these numbers.
  json.add("nn_dispatch_tier", nn::kernel_dispatch_tier());
  common::Table t({"model", "int8 single (inf/s)", "f32 single", "speedup",
                   "int8 batched (inf/s)", "f32 batched", "speedup", "top-1 agree",
                   "max |dlogit|", "weights"});

  for (ModelEntry& e : entries) {
    const nn::Model& m = e.model;
    const nn::QuantizedModel qm(m);
    const nn::Tensor x = nn::patterned_tensor(m.input_shape(), 1);
    std::vector<nn::Tensor> samples;
    for (int s = 0; s < kBatch; ++s) samples.push_back(nn::patterned_tensor(m.input_shape(), s));
    const nn::Tensor stacked = nn::stack_batch(samples);

    nn::Workspace wf, wq;
    wf.configure(m, kBatch);
    wq.configure(qm, kBatch);

    // Accuracy gate before timing anything: bounded logit error everywhere,
    // and top-1 agreement wherever the f32 decision margin exceeds TWICE
    // the measured per-logit error — at that margin a flip is
    // mathematically impossible, so the gate follows from the error bound
    // rather than adding an independent flakiness surface (coin-flip
    // inputs on random-weight models are not decidable at int8 resolution).
    int agree = 0, decisive = 0, decisive_agree = 0;
    double max_err = 0.0;
    std::vector<nn::Tensor> f32_out, int8_out;
    for (int s = 0; s < kAccuracyInputs; ++s) {
      const nn::Tensor in = nn::patterned_tensor(m.input_shape(), 100 + s);
      f32_out.push_back(m.forward(in));
      int8_out.push_back(qm.forward(in));
      max_err = std::max(max_err, f32_out.back().max_abs_diff(int8_out.back()));
    }
    for (int s = 0; s < kAccuracyInputs; ++s) {
      const nn::Tensor& f = f32_out[static_cast<std::size_t>(s)];
      const nn::Tensor& q = int8_out[static_cast<std::size_t>(s)];
      const int af = bench::argmax(f.data(), f.size());
      const bool same = bench::argmax(q.data(), q.size()) == af;
      if (same) ++agree;
      double runner_up = -1e30;
      for (std::int64_t i = 0; i < f.size(); ++i) {
        if (static_cast<int>(i) != af) runner_up = std::max(runner_up, double{f[i]});
      }
      if (f[af] - runner_up > 2.0 * max_err) {
        ++decisive;
        if (same) ++decisive_agree;
      }
    }
    IOB_ENSURES(max_err < 0.05, "int8 logit error exceeded the accuracy bound");
    IOB_ENSURES(decisive_agree == decisive,
                "int8 top-1 disagreed with f32 on a decisive input");

    const double q1 = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(qm.run_into(wq, x.data(), 1).data);
    });
    const double f1 = bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(wf, x.data(), 1).data);
    });
    const double q8 = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(qm.run_into(wq, stacked.data(), kBatch).data);
    });
    const double f8 = kBatch * bench::rate_per_s(budget_s, [&] {
      benchmark::DoNotOptimize(m.run_into(wf, stacked.data(), kBatch).data);
    });

    // Zero-allocation contract: after warm-up, the steady-state int8 loop
    // must never touch the heap. Hard failure, not a report.
    qm.run_into(wq, x.data(), 1);
    qm.run_into(wq, stacked.data(), kBatch);
    const std::uint64_t allocs_before = g_alloc_count;
    constexpr int kAllocReps = 50;
    for (int r = 0; r < kAllocReps; ++r) {
      benchmark::DoNotOptimize(qm.run_into(wq, x.data(), 1).data);
      benchmark::DoNotOptimize(qm.run_into(wq, stacked.data(), kBatch).data);
    }
    const double allocs_per_inf =
        static_cast<double>(g_alloc_count - allocs_before) / (2.0 * kAllocReps);
    IOB_ENSURES(allocs_per_inf == 0.0, "steady-state int8 inference loop allocated");

    const double agree_frac = static_cast<double>(agree) / kAccuracyInputs;
    t.add_row({e.key, common::si_format(q1, ""), common::si_format(f1, ""),
               common::fixed(q1 / f1, 2) + "x", common::si_format(q8, ""),
               common::si_format(f8, ""), common::fixed(q8 / f8, 2) + "x",
               std::to_string(agree) + "/" + std::to_string(kAccuracyInputs),
               common::fixed(max_err, 4), common::si_format(double(qm.weight_bytes()), "B")});

    const std::string key = e.key;
    json.add("nn_int8_single_infer_per_s_" + key, q1);
    json.add("nn_int8_batched_items_per_s_" + key, q8);
    json.add("nn_f32_single_infer_per_s_" + key, f1);
    json.add("nn_f32_batched_items_per_s_" + key, f8);
    json.add("nn_int8_single_speedup_vs_f32_" + key, q1 / f1);
    json.add("nn_int8_batched_speedup_vs_f32_" + key, q8 / f8);
    json.add("nn_int8_top1_agreement_" + key, agree_frac);
    json.add("nn_int8_decisive_top1_agreement_" + key,
             decisive > 0 ? static_cast<double>(decisive_agree) / decisive : 1.0);
    json.add("nn_int8_max_logit_err_" + key, max_err);
    json.add("nn_int8_weight_bytes_" + key, static_cast<double>(qm.weight_bytes()));
    json.add("nn_int8_steady_allocs_per_inference_" + key, allocs_per_inf);
  }

  std::printf("%s", t.to_string().c_str());
  common::print_note("single = run_into at batch 1; batched = batch " + std::to_string(kBatch) +
                     ", per-sample rate; f32 = the PR 4 lowered engine");
  common::print_note("accuracy gated before timing: bounded logit error on all " +
                     std::to_string(kAccuracyInputs) + " inputs, top-1 agreement on every");
  common::print_note("decision-margin-decisive input; allocs interposer-counted after warm-up");
  json.write();
}

// ---- microbenchmarks --------------------------------------------------------

struct QuantZoo {
  nn::Model models[3] = {nn::make_kws_dscnn(), nn::make_ecg_cnn1d(), nn::make_vww_micronet()};
  nn::QuantizedModel qms[3] = {nn::QuantizedModel(models[0]), nn::QuantizedModel(models[1]),
                               nn::QuantizedModel(models[2])};
};

QuantZoo& quant_zoo() {
  static QuantZoo zoo;
  return zoo;
}

void BM_Int8SingleInference(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const int idx = static_cast<int>(state.range(0));
  const nn::QuantizedModel& qm = zoo.qms[idx];
  const nn::Tensor x = nn::patterned_tensor(qm.input_shape(), 1);
  nn::Workspace ws;
  ws.configure(qm, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.run_into(ws, x.data(), 1).data);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Int8SingleInference)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_Int8BatchedInference(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const nn::QuantizedModel& qm = zoo.qms[2];  // vww
  const auto batch = static_cast<int>(state.range(0));
  std::vector<nn::Tensor> samples;
  for (int s = 0; s < batch; ++s) samples.push_back(nn::patterned_tensor(qm.input_shape(), s));
  const nn::Tensor stacked = nn::stack_batch(samples);
  nn::Workspace ws;
  ws.configure(qm, batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qm.run_into(ws, stacked.data(), batch).data);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Int8BatchedInference)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_QuantizeAtLoad(benchmark::State& state) {
  QuantZoo& zoo = quant_zoo();
  const nn::Model& m = zoo.models[static_cast<int>(state.range(0))];
  for (auto _ : state) {
    nn::QuantizedModel qm(m);
    benchmark::DoNotOptimize(qm.weight_bytes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizeAtLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_headline();
  return iob::bench::run_microbenchmarks(argc, argv);
}
