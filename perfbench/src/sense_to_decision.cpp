// sense_to_decision: sensed windows turned into decisions by four wearers'
// closed loops in parallel, each on its own thread and serving every window
// at batch 1. Three window types, generated from the seed before the timer
// starts:
//   * ECG 1 s:   BioCodec -> int8 ECG CNN1D split at a mid boundary, the
//                boundary activation shipped through the int8 wire format;
//   * audio 1 s: ADPCM -> MFCC spectrogram -> int8 KWS DS-CNN;
//   * camera:    MJPEG -> f32 VWW MicroNet.
// Each window's bus airtime comes from `comm::Link::frame_time_s` on the
// encoded bytes, fragmented into 240 B frames. The path composes public
// calls; `net::NetworkSim` frames carry byte counts, not payloads.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/wir_link.hpp"
#include "isa/adpcm.hpp"
#include "isa/bio_codec.hpp"
#include "isa/features.hpp"
#include "isa/mjpeg.hpp"
#include "nn/model_zoo.hpp"
#include "nn/qmodel.hpp"
#include "nn/quantize.hpp"
#include "nn/workspace.hpp"
#include "nn_probe.hpp"
#include "partition/partitioner.hpp"
#include "sim/rng.hpp"
#include "stats.hpp"
#include "workload/audio.hpp"
#include "workload/ecg.hpp"
#include "workload/video.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace iob;

namespace {

constexpr int kWindowsPerType = 334;  // 1002 windows: p99 has 10 beyond it
constexpr unsigned kWearerLoops = 4;  // parallel closed loops, one thread each
constexpr double kEcgFullScaleMv = 5.0;
constexpr std::uint32_t kBusMtu = 240;
constexpr int kMjpegQuality = 50;
constexpr int kMfccFrames = 49;
constexpr int kFrameSide = 96;  // VWW input is 96 x 96 x 3
// Venue powers for the cost-model check (leaf MCU prefix, hub suffix).
constexpr double kLeafPowerW = 5e-3;
constexpr double kHubPowerW = 40e-3;

enum class Kind { kEcg, kAudio, kCamera };

struct Window {
  Kind kind = Kind::kEcg;
  std::vector<std::int16_t> samples;  ///< ECG ADC codes or audio PCM
  isa::GrayFrame frame;               ///< camera frame
  int reference_top1 = -1;            ///< f32 model on the raw window
  std::vector<float> unsplit_logits;  ///< ECG: unsplit int8 pass
};

/// Models, codecs and workspace: everything built before the first window.
struct Pipeline {
  nn::Model ecg = nn::make_ecg_cnn1d();
  nn::Model kws = nn::make_kws_dscnn();
  nn::Model vww = nn::make_vww_micronet();
  std::unique_ptr<nn::QuantizedModel> qecg, qkws;
  std::size_t split_k = 0;
  isa::BioCodec bio;
  isa::MjpegCodec mjpeg{kMjpegQuality};
  isa::MelConfig mel;
  comm::WiRLink link;
};

std::unique_ptr<Pipeline> build_pipeline(Tracer& tr) {
  Tracer::Scope setup(tr, "bench.setup", 0);
  auto p = std::make_unique<Pipeline>();
  {
    Tracer::Scope s(tr, "nn.QuantizedModel.calibrate", 0);
    p->qecg = std::make_unique<nn::QuantizedModel>(p->ecg);
    p->qkws = std::make_unique<nn::QuantizedModel>(p->kws);
  }
  // Split the ECG model at the first feasible boundary past its middle that
  // still lies in the int8 span.
  const std::size_t n = p->ecg.layer_count();
  for (std::size_t k = n / 2; k < p->qecg->float_tail_start(); ++k) {
    if (p->qecg->feasible_boundary(k)) {
      p->split_k = k;
      break;
    }
  }
  return p;
}

/// Size a workspace for every model the windows run, at batch 1.
void configure(const Pipeline& p, nn::Workspace& ws, Tracer& tr) {
  Tracer::Scope s(tr, "nn.Workspace.configure", 0);
  ws.configure(p.vww, 1);
  ws.configure(*p.qecg, 1);
  ws.configure(*p.qkws, 1);
}

double airtime_s(const comm::Link& link, std::size_t bytes) {
  double t = 0.0;
  for (std::size_t left = bytes; left > 0;) {
    const std::size_t chunk = std::min<std::size_t>(left, kBusMtu);
    t += link.frame_time_s(static_cast<std::uint32_t>(chunk));
    left -= chunk;
  }
  return t;
}

std::vector<float> ecg_input(const std::vector<std::int16_t>& adc) {
  std::vector<float> x(adc.size());
  for (std::size_t i = 0; i < adc.size(); ++i) {
    x[i] = static_cast<float>(adc[i] * (kEcgFullScaleMv / 32767.0));
  }
  return x;
}

std::vector<float> audio_signal(const std::vector<std::int16_t>& pcm) {
  std::vector<float> x(pcm.size());
  for (std::size_t i = 0; i < pcm.size(); ++i) x[i] = static_cast<float>(pcm[i]) / 32768.0f;
  return x;
}

std::vector<float> camera_input(const isa::GrayFrame& f) {
  std::vector<float> x(f.pixels.size() * 3);
  for (std::size_t i = 0; i < f.pixels.size(); ++i) {
    const float v = static_cast<float>(f.pixels[i]) / 255.0f;
    x[3 * i] = x[3 * i + 1] = x[3 * i + 2] = v;
  }
  return x;
}

/// Top-1 class, or -1 when the logits are not all finite (no decision).
int top1(nn::ConstSpan logits) {
  if (logits.size <= 0) return -1;
  for (const float v : logits) {
    if (!std::isfinite(v)) return -1;
  }
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) - logits.begin());
}

/// Per-window accounting of one pass over the windows.
struct Pass {
  std::vector<double> best_ms;  ///< per window: fastest of its repeats
  double wall_s = 0.0;
  double airtime_s = 0.0;
  std::uint64_t windows = 0, failed = 0, agree = 0, split_mismatch = 0;
  double ratio_sum[3] = {0, 0, 0};
  std::size_t ratio_n[3] = {0, 0, 0};
  std::size_t wire_bytes = 0;
};

/// Serve one window; returns its decision (-1 on failure). Fills the
/// window's served logits into `logits`.
int serve(const Pipeline& p, nn::Workspace& ws, const Window& w, std::uint64_t id, Tracer& tr,
          Pass& pass, std::vector<float>& logits) {
  Tracer::Scope win(tr, "bench.window", id);
  const comm::Link& link = p.link;
  nn::ConstSpan out;
  switch (w.kind) {
    case Kind::kEcg: {
      isa::BioEncoded enc;
      {
        Tracer::Scope s(tr, "isa.BioCodec.encode", id);
        enc = p.bio.encode(w.samples);
      }
      {
        Tracer::Scope s(tr, "comm.Link.frame_time_s", id);
        pass.airtime_s += airtime_s(link, enc.size_bytes());
      }
      std::vector<std::int16_t> dec;
      {
        Tracer::Scope s(tr, "isa.BioCodec.decode", id);
        dec = p.bio.decode(enc);
      }
      if (dec.size() != w.samples.size()) return -1;
      pass.ratio_sum[0] +=
          static_cast<double>(w.samples.size() * 2) / static_cast<double>(enc.size_bytes());
      ++pass.ratio_n[0];
      const std::vector<float> x = ecg_input(dec);
      const std::size_t k = p.split_k, n = p.ecg.layer_count();
      const nn::Shape& shape = p.ecg.profiles()[k - 1].output_shape;
      std::vector<std::uint8_t> wire;
      {
        Tracer::Scope s(tr, "nn.QuantizedModel.run_range_into:prefix", id);
        const nn::ConstSpan pre = p.qecg->run_range_into(ws, x.data(), 1, 0, k);
        Tracer::Scope q(tr, "nn.serialize_activation", id);
        wire = nn::serialize_activation(
            nn::quantize(nn::Tensor::from_data(shape, pre.data), p.qecg->boundary_params(k)));
      }
      pass.wire_bytes = wire.size();
      {
        Tracer::Scope s(tr, "comm.Link.frame_time_s", id);
        pass.airtime_s += airtime_s(link, wire.size());
      }
      nn::Tensor boundary;
      {
        Tracer::Scope s(tr, "nn.deserialize_activation", id);
        boundary = nn::dequantize(nn::deserialize_activation(wire, shape));
      }
      Tracer::Scope s(tr, "nn.QuantizedModel.run_range_into:suffix", id);
      out = p.qecg->run_range_into(ws, boundary.data(), 1, k, n);
      break;
    }
    case Kind::kAudio: {
      isa::AdpcmEncoded enc;
      {
        Tracer::Scope s(tr, "isa.AdpcmCodec.encode", id);
        enc = isa::AdpcmCodec::encode(w.samples);
      }
      {
        Tracer::Scope s(tr, "comm.Link.frame_time_s", id);
        pass.airtime_s += airtime_s(link, enc.size_bytes());
      }
      std::vector<std::int16_t> dec;
      {
        Tracer::Scope s(tr, "isa.AdpcmCodec.decode", id);
        dec = isa::AdpcmCodec::decode(enc);
      }
      if (dec.size() != w.samples.size()) return -1;
      pass.ratio_sum[1] +=
          static_cast<double>(w.samples.size() * 2) / static_cast<double>(enc.size_bytes());
      ++pass.ratio_n[1];
      nn::Tensor features;
      {
        Tracer::Scope s(tr, "isa.mfcc_spectrogram", id);
        features = isa::mfcc_spectrogram(audio_signal(dec), p.mel, kMfccFrames);
      }
      Tracer::Scope s(tr, "nn.QuantizedModel.run_into", id);
      out = p.qkws->run_into(ws, features.data(), 1);
      break;
    }
    case Kind::kCamera: {
      isa::MjpegEncoded enc;
      {
        Tracer::Scope s(tr, "isa.MjpegCodec.encode", id);
        enc = p.mjpeg.encode(w.frame);
      }
      {
        Tracer::Scope s(tr, "comm.Link.frame_time_s", id);
        pass.airtime_s += airtime_s(link, enc.size_bytes());
      }
      isa::GrayFrame dec;
      {
        Tracer::Scope s(tr, "isa.MjpegCodec.decode", id);
        dec = p.mjpeg.decode(enc);
      }
      if (dec.width != w.frame.width || dec.height != w.frame.height ||
          dec.pixels.size() != w.frame.pixels.size()) {
        return -1;
      }
      pass.ratio_sum[2] +=
          static_cast<double>(w.frame.size_bytes()) / static_cast<double>(enc.size_bytes());
      ++pass.ratio_n[2];
      const std::vector<float> x = camera_input(dec);
      Tracer::Scope s(tr, "nn.Model.run_into", id);
      out = p.vww.run_into(ws, x.data(), 1);
      break;
    }
  }
  logits.assign(out.begin(), out.end());
  return top1(out);
}

/// One wearer's closed loop on the calling thread: passes over every window
/// until `seconds` have passed and `min_rounds` passes are made. Later passes
/// visit the windows in a fresh order, so a window's repeats land at
/// unrelated moments. Decisions are checked on the first pass.
Pass run_loop(const Pipeline& p, nn::Workspace& ws, const std::vector<Window>& windows,
              double seconds, std::uint64_t min_rounds, std::uint64_t salt, Tracer& tr) {
  Pass pass;
  pass.best_ms.assign(windows.size(), 1e300);
  std::vector<float> logits;
  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  sim::Rng shuffle(0x5eed + salt);
  const double start = now_s();
  for (std::uint64_t round = 0; round < min_rounds || now_s() - start < seconds; ++round) {
    if (round > 0) {
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        const auto j =
            static_cast<std::size_t>(shuffle.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(order[i], order[j]);
      }
    }
    for (const std::size_t i : order) {
      const Window& w = windows[i];
      const std::uint64_t id = round * windows.size() + i;  // span identifier
      const double t0 = now_s();
      int decision = -1;
      try {
        decision = serve(p, ws, w, id, tr, pass, logits);
      } catch (const std::exception&) {
        decision = -1;
      }
      pass.best_ms[i] = std::min(pass.best_ms[i], (now_s() - t0) * 1e3);
      ++pass.windows;
      if (decision < 0) ++pass.failed;
      if (round > 0) continue;
      if (decision == w.reference_top1) ++pass.agree;
      if (w.kind != Kind::kEcg) continue;
      const bool same = logits.size() == w.unsplit_logits.size() &&
                        std::memcmp(logits.data(), w.unsplit_logits.data(),
                                    logits.size() * sizeof(float)) == 0;
      if (!same) ++pass.split_mismatch;
    }
  }
  pass.wall_s = now_s() - start;
  return pass;
}

/// `loops` wearers' closed loops in parallel, one thread each, over the
/// same windows. A window's host time is the fastest of its repeats over
/// every loop: on a shared host each core's speed drifts by tens of percent
/// over seconds, independently of the others, and the minimum over repeats
/// spread across cores and moments removes that drift from a deterministic
/// computation. Counts sum over loops; agreement and the bus accounting
/// come from loop 0. The tracer is only used with a single loop.
Pass run_windows(const Pipeline& p, const std::vector<Window>& windows, unsigned loops,
                 double seconds, std::uint64_t min_rounds, Tracer& tr) {
  std::vector<nn::Workspace> ws(loops);
  for (nn::Workspace& w : ws) configure(p, w, tr);
  std::vector<Pass> passes(loops);
  const double start = now_s();
  if (loops == 1) {
    passes[0] = run_loop(p, ws[0], windows, seconds, min_rounds, 0, tr);
  } else {
    std::vector<std::exception_ptr> errors(loops);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < loops; ++t) {
      threads.emplace_back([&, t] {
        try {
          passes[t] = run_loop(p, ws[t], windows, seconds, min_rounds, t, tr);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  Pass merged = std::move(passes[0]);
  for (unsigned t = 1; t < loops; ++t) {
    const Pass& q = passes[t];
    for (std::size_t i = 0; i < merged.best_ms.size(); ++i) {
      merged.best_ms[i] = std::min(merged.best_ms[i], q.best_ms[i]);
    }
    merged.windows += q.windows;
    merged.failed += q.failed;
    merged.split_mismatch += q.split_mismatch;
  }
  merged.wall_s = now_s() - start;
  return merged;
}

struct Inputs {
  std::vector<Window> windows;
  double gen_us[3] = {0, 0, 0};  ///< mean generation time per window type
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  sim::Rng rng(seed);
  workload::VideoParams vp;
  vp.width = kFrameSide;
  vp.height = kFrameSide;
  workload::VideoGenerator video(vp, seed);
  const workload::AudioGenerator audio;
  for (int i = 0; i < 3 * kWindowsPerType; ++i) {
    Window w;
    w.kind = static_cast<Kind>(i % 3);
    const double t0 = now_s();
    switch (w.kind) {
      case Kind::kEcg: {
        workload::EcgParams ep;
        ep.heart_rate_bpm = rng.uniform(55.0, 110.0);
        w.samples = workload::EcgGenerator(ep).generate_adc(1.0, rng, kEcgFullScaleMv);
        break;
      }
      case Kind::kAudio:
        w.samples = audio.generate_pcm(1.0, rng);
        break;
      case Kind::kCamera:
        w.frame = video.next_frame(rng);
        break;
    }
    in.gen_us[i % 3] += (now_s() - t0) * 1e6 / kWindowsPerType;
    in.windows.push_back(std::move(w));
  }
  return in;
}

/// The clean-path decision of every window (f32 model on the raw window)
/// and, for ECG, the unsplit int8 logits the split pass must reproduce.
void reference_decisions(const Pipeline& p, std::vector<Window>& windows) {
  nn::Workspace ws;
  for (Window& w : windows) {
    switch (w.kind) {
      case Kind::kEcg: {
        const std::vector<float> x = ecg_input(w.samples);
        w.reference_top1 = top1(p.ecg.run_into(ws, x.data(), 1));
        const nn::ConstSpan q = p.qecg->run_into(ws, x.data(), 1);
        w.unsplit_logits.assign(q.begin(), q.end());
        break;
      }
      case Kind::kAudio: {
        const nn::Tensor f = isa::mfcc_spectrogram(audio_signal(w.samples), p.mel, kMfccFrames);
        w.reference_top1 = top1(p.kws.run_into(ws, f.data(), 1));
        break;
      }
      case Kind::kCamera: {
        const std::vector<float> x = camera_input(w.frame);
        w.reference_top1 = top1(p.vww.run_into(ws, x.data(), 1));
        break;
      }
    }
  }
}

}  // namespace

void run_sense_to_decision(const Options& o, Tracer& tr, Result& res) {
  const bool traced = tr.enabled();
  Inputs in = generate(o.seed);

  // Set-up: one untimed warm-up, then 15 timed builds (each ~10 ms, so the
  // median rides out the host's drift); the last pipeline serves the windows.
  tr.set_enabled(false);
  std::vector<double> setup;
  std::unique_ptr<Pipeline> p = build_pipeline(tr);
  for (int i = 0; i < 15; ++i) {
    p.reset();
    const double t0 = now_s();
    p = build_pipeline(tr);
    nn::Workspace ws;
    configure(*p, ws, tr);
    setup.push_back(now_s() - t0);
  }
  res.gate(p->split_k > 0, "sense_to_decision: the ECG model has no feasible mid boundary");
  reference_decisions(*p, in.windows);

  const unsigned loops = traced ? 1u : capped_threads(kWearerLoops);
  const Pass pass =
      run_windows(*p, in.windows, loops, traced ? 0.0 : o.seconds, traced ? 1 : 2, tr);
  res.gate(pass.split_mismatch == 0,
           "sense_to_decision: split int8 ECG logits differ from the unsplit pass");
  res.gate(pass.failed == 0, "sense_to_decision: every window decodes to a decision");
  res.count(pass.windows, pass.failed);
  const double first_pass = static_cast<double>(in.windows.size());
  res.set("setup_s", median(setup));
  double best_sum_ms = 0.0;
  for (const double ms : pass.best_ms) best_sum_ms += ms;
  res.set("items_per_s", first_pass / (best_sum_ms * 1e-3));
  res.set("latency_p50_ms", percentile(pass.best_ms, 50.0));
  res.set("latency_p99_ms", percentile(pass.best_ms, 99.0));
  res.set("useful_ratio", static_cast<double>(pass.agree) / first_pass);
  if (!traced) return;

  // Traced: one pass with spans (the pass above is its untraced twin).
  tr.set_enabled(true);
  p = build_pipeline(tr);
  const Pass t = run_windows(*p, in.windows, 1, 0.0, 1, tr);
  tr.set_enabled(false);
  res.gate(t.split_mismatch == 0 && t.failed == 0,
           "sense_to_decision: traced pass must match the untraced one");
  res.set("trace.overhead", t.wall_s / pass.wall_s - 1.0);

  const auto us = [&](const char* name) { return tr.mean_duration_s(name) * 1e6; };
  res.set("isa.bio.encode_us", us("isa.BioCodec.encode"));
  res.set("isa.bio.decode_us", us("isa.BioCodec.decode"));
  res.set("isa.adpcm.encode_us", us("isa.AdpcmCodec.encode"));
  res.set("isa.adpcm.decode_us", us("isa.AdpcmCodec.decode"));
  res.set("isa.mjpeg.encode_us", us("isa.MjpegCodec.encode"));
  res.set("isa.mjpeg.decode_us", us("isa.MjpegCodec.decode"));
  res.set("isa.mfcc_us", us("isa.mfcc_spectrogram"));
  const char* const kRatios[] = {"isa.bio.ratio", "isa.adpcm.ratio", "isa.mjpeg.ratio"};
  for (int k = 0; k < 3; ++k) {
    const auto n = static_cast<double>(std::max<std::size_t>(1, t.ratio_n[k]));
    res.set(kRatios[k], t.ratio_sum[k] / n);
  }
  res.set("comm.airtime_ms", t.airtime_s * 1e3 / first_pass);
  const double prefix_us =
      us("nn.QuantizedModel.run_range_into:prefix") - us("nn.serialize_activation");
  const double suffix_us = us("nn.QuantizedModel.run_range_into:suffix");
  res.set("nn.split.prefix_us", prefix_us);
  res.set("nn.split.suffix_us", suffix_us);
  res.set("nn.split.wire_us", us("nn.serialize_activation") + us("nn.deserialize_activation"));
  res.set("nn.split.wire_bytes", static_cast<double>(t.wire_bytes));
  res.set("workload.ecg.gen_us", in.gen_us[0]);
  res.set("workload.audio.gen_us", in.gen_us[1]);
  res.set("workload.video.gen_us", in.gen_us[2]);

  // Cost model against the measured split: both venues calibrated to the
  // engine's measured unsplit int8 rate, so the prediction is MAC-share x
  // unsplit time and the error is what a single rate per venue misses.
  const std::size_t n = p->ecg.layer_count();
  const double full_us = model_pass_us(p->ecg, p->qecg.get(), 1, 0.2);
  const double macs_per_s = static_cast<double>(p->ecg.total_macs()) / (full_us * 1e-6);
  partition::CostModel cost;
  cost.transport = nn::Precision::kInt8;
  cost.leaf = {"leaf (host-calibrated)", kLeafPowerW / macs_per_s, macs_per_s};
  cost.hub = {"hub (host-calibrated)", kHubPowerW / macs_per_s, macs_per_s};
  cost.leaf_hub = partition::CostModel::leg_from_link(p->link, 100e3, kBusMtu);
  const partition::PartitionPlan plan =
      partition::Partitioner(p->ecg, cost).evaluate(p->split_k, n);
  const double predicted_j = plan.leaf_compute_j + plan.hub_compute_j;
  const double measured_j = prefix_us * 1e-6 * kLeafPowerW + suffix_us * 1e-6 * kHubPowerW;
  res.set("partition.split_pred_rel_err", std::abs(predicted_j - measured_j) / measured_j);

  // Batch-1 engine passes and the per-layer-type profile, every model and
  // precision.
  const nn::QuantizedModel qvww(p->vww);
  const struct {
    const char* key;
    const nn::Model* m;
    const nn::QuantizedModel* qm;
  } variants[] = {{"kws.f32", &p->kws, nullptr}, {"kws.int8", &p->kws, p->qkws.get()},
                  {"ecg.f32", &p->ecg, nullptr}, {"ecg.int8", &p->ecg, p->qecg.get()},
                  {"vww.f32", &p->vww, nullptr}, {"vww.int8", &p->vww, &qvww}};
  for (const auto& v : variants) {
    res.set(std::string("nn.") + v.key + ".b1_us", model_pass_us(*v.m, v.qm, 1, 0.2));
    record_layer_type_profile(*v.m, v.qm, 1, 0.005, std::string("nn.") + v.key, res);
  }
}

}  // namespace perfbench
