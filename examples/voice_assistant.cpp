// Voice-assistant scenario (paper Sec. II-B): an audio-input AI pendant.
// Real synthetic speech is ADPCM-compressed (measured ratio), MFCCs are
// extracted, and the keyword-spotting DS-CNN runs — with the ISA chooser
// deciding between shipping raw PCM, ADPCM, MFCC features, or running the
// KWS locally, for both Wi-R and BLE. The winning configuration is then
// simulated end to end.
//
//   $ ./voice_assistant

#include <iostream>

#include "comm/ble_link.hpp"
#include "comm/wir_link.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/report.hpp"
#include "energy/lifetime.hpp"
#include "isa/adpcm.hpp"
#include "isa/features.hpp"
#include "net/network_sim.hpp"
#include "nn/model_zoo.hpp"
#include "partition/isa_chooser.hpp"
#include "sim/rng.hpp"
#include "workload/audio.hpp"

int main() {
  using namespace iob;
  using namespace iob::units;

  // --- Stage 1: the audio pipeline on real synthetic speech -------------------
  sim::Rng rng(5);
  workload::AudioGenerator mic;
  const auto pcm = mic.generate_pcm(2.0, rng);
  const double adpcm_snr = isa::AdpcmCodec::reconstruction_snr_db(pcm);
  const auto enc = isa::AdpcmCodec::encode(pcm);
  const double adpcm_bps = mic.data_rate_bps(16) * enc.size_bytes() / (pcm.size() * 2.0);

  const auto audio_f = mic.generate(1.1, rng);
  isa::MelConfig mel;
  const nn::Tensor spectrogram = isa::mfcc_spectrogram(audio_f, mel, 49);
  const nn::Model kws = nn::make_kws_dscnn();
  const nn::Tensor probs = kws.forward(spectrogram);
  int best_word = 0;
  for (int i = 1; i < 12; ++i) {
    if (probs[i] > probs[best_word]) best_word = i;
  }
  const double mfcc_bps = 49.0 * mel.n_mfcc * 8.0;  // int8 coefficients per 1 s window

  std::cout << "audio pipeline probe: ADPCM " << common::fixed(adpcm_snr, 1)
            << " dB SNR at " << common::si_format(adpcm_bps, "b/s") << "; MFCC window "
            << common::si_format(mfcc_bps, "b/s") << "; KWS top class " << best_word
            << " (p=" << common::fixed(probs[best_word], 3) << ")\n\n";

  // --- Stage 2: ISA operating-mode choice, per link ----------------------------
  const std::vector<partition::IsaMode> modes = {
      {"raw 16-bit PCM", 256.0 * kbps, 0.0},
      {"ADPCM 4:1", adpcm_bps, 0.5e6},
      {"MFCC features", mfcc_bps, 1.2e6},
      {"local KWS (results only)", 100.0, 1.2e6 + kws.total_macs()},
  };
  const double mic_power = 150.0 * uW;
  const energy::Battery coin = energy::Battery::coin_cell_1000mah();

  for (const bool use_wir : {true, false}) {
    comm::WiRLink wir;
    comm::BleLink ble;
    const comm::Link& link = use_wir ? static_cast<const comm::Link&>(wir)
                                     : static_cast<const comm::Link&>(ble);
    partition::IsaChooser chooser(link, 20e-12, mic_power);
    const auto evals = chooser.evaluate_all(modes);
    const std::size_t best = chooser.best_index(modes);
    std::cout << "[" << link.spec().name << "]\n";
    common::Table t({"mode", "traffic", "node total", "battery life", "chosen"});
    for (std::size_t i = 0; i < evals.size(); ++i) {
      t.add_row({evals[i].mode.name, common::si_format(evals[i].mode.output_rate_bps, "b/s"),
                 common::si_format(evals[i].total_power_w(), "W"),
                 common::fixed(energy::battery_life_days(coin, evals[i].total_power_w()), 1) +
                     " d",
                 i == best ? "<== best" : ""});
    }
    t.print();
    std::cout << "\n";
  }
  std::cout << "paper takeaway: on Wi-R the pendant ships (compressed) audio and lets the\n"
               "wearable brain listen; on BLE it is forced to compute locally.\n\n";

  // --- Stage 3: simulate the Wi-R pendant for 2 minutes -----------------------
  comm::WiRLink wir;
  net::NetworkSim network(wir, net::NetworkConfig{/*seed=*/6});
  net::NodeConfig pendant;
  pendant.name = "ai-pendant";
  pendant.stream = "audio";
  pendant.sense_power_w = mic_power;
  pendant.isa_power_w = 0.5e6 * 20e-12;  // ADPCM MACs at 20 pJ
  pendant.output_rate_bps = adpcm_bps;
  pendant.frame_bytes = 240;
  network.add_node(pendant);

  net::SessionConfig session;
  session.stream = "audio";
  session.macs_per_inference = kws.total_macs();
  session.bytes_per_inference = static_cast<std::uint64_t>(adpcm_bps / 8.0);  // 1 s windows
  network.add_session(session);

  const net::NetworkReport report = network.run(120.0);
  std::cout << "=== 120 s simulation: AI pendant -> wearable brain over Wi-R ===\n\n"
            << core::render_network_report(report);
  std::cout << "\nhub ran " << network.hub().session("audio").inferences
            << " KWS inferences (1 per second of audio)\n";
  return 0;
}
