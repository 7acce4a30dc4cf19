// Tests for the second extension wave: the delta-frame video codec and the
// CSMA/CA body-bus MAC.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/csma.hpp"
#include "comm/tdma.hpp"
#include "comm/wir_link.hpp"
#include "isa/metrics.hpp"
#include "isa/mjpeg.hpp"
#include "isa/mjpeg_delta.hpp"
#include "sim/simulator.hpp"
#include "workload/video.hpp"

namespace iob {
namespace {

// ---- MJPEG delta codec ---------------------------------------------------------

TEST(MjpegDelta, FirstFrameIsKeyAndRoundTrips) {
  workload::VideoGenerator gen;
  sim::Rng rng(1);
  const isa::GrayFrame f = gen.next_frame(rng);
  isa::MjpegDeltaEncoder enc(75);
  isa::MjpegDeltaDecoder dec(75);
  const isa::DeltaEncodedFrame e = enc.encode_next(f);
  EXPECT_TRUE(e.key);
  const isa::GrayFrame back = dec.decode_next(e);
  EXPECT_GT(isa::psnr_db(f, back), 28.0);
}

TEST(MjpegDelta, DeltaFramesTrackTheStreamWithoutDrift) {
  workload::VideoGenerator gen;
  sim::Rng rng(2);
  isa::MjpegDeltaEncoder enc(60, /*key_interval=*/1000);  // force long delta runs
  isa::MjpegDeltaDecoder dec(60);
  double worst_psnr = 1e9;
  for (int i = 0; i < 20; ++i) {
    const isa::GrayFrame f = gen.next_frame(rng);
    const isa::DeltaEncodedFrame e = enc.encode_next(f);
    EXPECT_EQ(e.key, i == 0);
    const isa::GrayFrame back = dec.decode_next(e);
    worst_psnr = std::min(worst_psnr, isa::psnr_db(f, back));
  }
  // Closed-loop prediction: quality must not degrade over a long delta run.
  EXPECT_GT(worst_psnr, 25.0);
}

TEST(MjpegDelta, DeltaFramesCrushIntraOnStaticTexturedScenes) {
  // The textbook inter-frame win: a detailed *static* background (expensive
  // to re-code intra every frame) with one small moving patch (the only
  // residual). Build frames directly so the texture is frame-static.
  const int w = 160, h = 120;
  sim::Rng tex_rng(42);
  std::vector<std::uint8_t> background(static_cast<std::size_t>(w) * h);
  for (auto& p : background) p = static_cast<std::uint8_t>(tex_rng.uniform_int(60, 200));

  auto make_frame = [&](int t) {
    isa::GrayFrame f;
    f.width = w;
    f.height = h;
    f.pixels = background;
    const int x0 = 10 + 4 * t, y0 = 40;  // 16x16 patch moving right
    for (int y = y0; y < y0 + 16; ++y) {
      for (int x = x0; x < x0 + 16; ++x) {
        f.pixels[static_cast<std::size_t>(y) * w + x] = 255;
      }
    }
    return f;
  };

  isa::MjpegCodec intra(60);
  isa::MjpegDeltaEncoder delta(60, 1000);
  isa::MjpegDeltaDecoder dec(60);
  (void)dec.decode_next(delta.encode_next(make_frame(0)));  // key frame

  std::size_t intra_bytes = 0, delta_bytes = 0;
  for (int t = 1; t <= 8; ++t) {
    const isa::GrayFrame f = make_frame(t);
    intra_bytes += intra.encode(f).size_bytes();
    const auto e = delta.encode_next(f);
    EXPECT_FALSE(e.key);
    delta_bytes += e.size_bytes();
    // And the stream still reconstructs faithfully (white-noise texture at
    // q60 codes at ~24.4 dB intra; delta must not degrade below that).
    EXPECT_GT(isa::psnr_db(f, dec.decode_next(e)), 23.0);
  }
  EXPECT_LT(static_cast<double>(delta_bytes), 0.25 * static_cast<double>(intra_bytes));
}

TEST(MjpegDelta, KeyIntervalForcesPeriodicKeys) {
  workload::VideoGenerator gen;
  sim::Rng rng(4);
  isa::MjpegDeltaEncoder enc(50, /*key_interval=*/4);
  int keys = 0;
  for (int i = 0; i < 12; ++i) {
    keys += enc.encode_next(gen.next_frame(rng)).key ? 1 : 0;
  }
  EXPECT_EQ(keys, 3);  // frames 0, 4, 8
}

TEST(MjpegDelta, DecoderRejectsDeltaBeforeKey) {
  isa::MjpegDeltaDecoder dec(50);
  isa::DeltaEncodedFrame bogus;
  bogus.key = false;
  bogus.width = 16;
  bogus.height = 16;
  bogus.quality = 50;
  EXPECT_THROW(dec.decode_next(bogus), std::invalid_argument);
}

TEST(MjpegDelta, DecoderRejectsSkipPastTheFrame) {
  isa::GrayFrame f;
  f.width = 16;
  f.height = 8;
  f.pixels.assign(128, 100);
  isa::MjpegDeltaEncoder enc(50);
  isa::MjpegDeltaDecoder dec(50);
  dec.decode_next(enc.encode_next(f));
  isa::DeltaEncodedFrame delta;
  delta.width = 16;
  delta.height = 8;
  delta.quality = 50;
  // Raw tokens: skip 0, one coded block (DC 1, EOB), then a skip of
  // INT32_MAX blocks, which must not wrap the block index.
  delta.payload = {0, 0x00, 0x02, 0x3f, 0xfe, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_THROW(dec.decode_next(delta), std::invalid_argument);
}

TEST(MjpegDelta, DecoderRejectsAStreamOfAnotherQuality) {
  workload::VideoGenerator gen;
  sim::Rng rng(6);
  isa::MjpegDeltaEncoder enc(75);
  const isa::DeltaEncodedFrame key = enc.encode_next(gen.next_frame(rng));
  const isa::DeltaEncodedFrame delta = enc.encode_next(gen.next_frame(rng));
  ASSERT_TRUE(key.key);
  ASSERT_FALSE(delta.key);
  // Both frame kinds dequantize with the decoder's matrix, so a q=75
  // stream must not reach a q=50 decoder.
  isa::MjpegDeltaDecoder other(50);
  EXPECT_THROW(static_cast<void>(other.decode_next(key)), std::invalid_argument);
  isa::MjpegDeltaDecoder matching(75);
  EXPECT_NO_THROW(static_cast<void>(matching.decode_next(key)));
  isa::DeltaEncodedFrame forged = delta;
  forged.quality = 50;
  EXPECT_THROW(static_cast<void>(matching.decode_next(forged)), std::invalid_argument);
  EXPECT_NO_THROW(static_cast<void>(matching.decode_next(delta)));
}

TEST(MjpegDelta, DecoderRejectsUnknownModeBytes) {
  isa::GrayFrame f;
  f.width = 16;
  f.height = 8;
  f.pixels.assign(128, 100);
  isa::MjpegDeltaEncoder enc(50);
  isa::MjpegDeltaDecoder dec(50);
  dec.decode_next(enc.encode_next(f));
  f.pixels[3] = 140;
  isa::DeltaEncodedFrame delta = enc.encode_next(f);
  ASSERT_FALSE(delta.key);
  ASSERT_EQ(delta.payload.at(0), 0);  // raw tokens
  for (const int mode : {2, 3, 0x80, 0xff}) {
    isa::MjpegDeltaDecoder d = dec;
    delta.payload[0] = static_cast<std::uint8_t>(mode);
    EXPECT_THROW(static_cast<void>(d.decode_next(delta)), std::invalid_argument) << mode;
  }
  delta.payload[0] = 0;
  EXPECT_NO_THROW(static_cast<void>(dec.decode_next(delta)));
}

// ---- CSMA MAC -------------------------------------------------------------------

TEST(Csma, SingleNodeDeliversWithoutCollisions) {
  sim::Simulator sim(10);
  comm::WiRLink wir;
  comm::CsmaBus bus(sim, wir);
  const comm::NodeId a = bus.add_node("a");
  int delivered = 0;
  bus.set_delivery_handler([&](const comm::Frame&, sim::Time) { ++delivered; });
  bus.start();
  for (int i = 0; i < 40; ++i) {
    comm::Frame f;
    f.payload_bytes = 200;
    bus.enqueue(a, f);
  }
  sim.run_until(1.0);
  bus.stop();
  EXPECT_EQ(delivered, 40);
  EXPECT_EQ(bus.collisions(), 0u);
  EXPECT_EQ(bus.stats().nodes[0].frames_dropped, 0u);
}

TEST(Csma, ContendingNodesAllGetThroughWithSomeCollisions) {
  sim::Simulator sim(11);
  comm::WiRLink wir;
  comm::CsmaBus bus(sim, wir);
  const int n_nodes = 6;
  std::vector<comm::NodeId> ids;
  for (int i = 0; i < n_nodes; ++i) ids.push_back(bus.add_node("n" + std::to_string(i)));
  bus.start();
  for (const auto id : ids) {
    for (int k = 0; k < 25; ++k) {
      comm::Frame f;
      f.payload_bytes = 150;
      bus.enqueue(id, f);
    }
  }
  sim.run_until(2.0);
  bus.stop();
  std::uint64_t delivered = 0;
  for (const auto& ns : bus.stats().nodes) delivered += ns.frames_delivered;
  EXPECT_EQ(delivered, 150u);  // retries absorb the collisions
  EXPECT_GT(bus.collisions(), 0u);  // simultaneous backlog must collide sometimes
}

TEST(Csma, ConservationUnderContention) {
  sim::Simulator sim(12);
  comm::WiRLink wir;
  comm::CsmaBus bus(sim, wir);
  const comm::NodeId a = bus.add_node("a");
  const comm::NodeId b = bus.add_node("b");
  std::uint64_t hub_bytes = 0;
  bus.set_delivery_handler([&](const comm::Frame& f, sim::Time) { hub_bytes += f.payload_bytes; });
  bus.start();
  for (int i = 0; i < 30; ++i) {
    comm::Frame f;
    f.payload_bytes = 100;
    bus.enqueue(a, f);
    bus.enqueue(b, f);
  }
  sim.run_until(2.0);
  EXPECT_EQ(hub_bytes, bus.stats().total_bytes_delivered());
  EXPECT_EQ(hub_bytes, 60u * 100u);
}

TEST(Csma, SensingEnergySitsBetweenTdmaAndAlwaysOn) {
  // The A2 energy ordering: TDMA < CSMA << polling-style always-listening.
  comm::WiRLink wir;

  auto leaf_energy_tdma = [&] {
    sim::Simulator sim(13);
    comm::TdmaBus bus(sim, wir, comm::TdmaConfig{});
    const comm::NodeId a = bus.add_node("a");
    bus.start();
    for (int i = 0; i < 20; ++i) {
      comm::Frame f;
      f.payload_bytes = 200;
      bus.enqueue(a, f);
    }
    sim.run_until(1.0);
    return bus.stats().nodes[0].tx_energy_j + bus.stats().nodes[0].rx_energy_j;
  }();

  auto leaf_energy_csma = [&] {
    sim::Simulator sim(13);
    comm::CsmaBus bus(sim, wir);
    const comm::NodeId a = bus.add_node("a");
    bus.start();
    for (int i = 0; i < 20; ++i) {
      comm::Frame f;
      f.payload_bytes = 200;
      bus.enqueue(a, f);
    }
    sim.run_until(1.0);
    return bus.stats().nodes[0].tx_energy_j + bus.stats().nodes[0].rx_energy_j;
  }();

  const double always_on = wir.spec().rx_power_w * 1.0;  // listen for the full second
  EXPECT_LT(leaf_energy_csma, always_on);
  // CSMA pays sensing only while backlogged; with a single node and short
  // backoffs it is close to TDMA but includes the contention sensing.
  EXPECT_LT(leaf_energy_tdma, always_on);
}

TEST(Csma, LateArrivalsWakeTheBus) {
  sim::Simulator sim(14);
  comm::WiRLink wir;
  comm::CsmaBus bus(sim, wir);
  const comm::NodeId a = bus.add_node("a");
  int delivered = 0;
  bus.set_delivery_handler([&](const comm::Frame&, sim::Time) { ++delivered; });
  bus.start();  // nothing queued yet
  sim.after(0.5, [&] {
    comm::Frame f;
    f.payload_bytes = 80;
    bus.enqueue(a, f);
  });
  sim.run_until(1.0);
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace iob
