#pragma once
/// \file hub.hpp
/// The on-body hub ("wearable brain", paper Fig. 1 right): terminates the
/// body bus, runs edge inference sessions over delivered streams, and
/// uplinks results to fog/cloud. The hub is the one device that keeps the
/// daily-charging battery; its energy ledger (bus RX/TX + compute + uplink)
/// is tracked so the architecture comparison can show the *system* cost,
/// not just the leaf savings.
///
/// Two inference paths:
///  * per-frame (`batch_window == 0`, the legacy default): every time a
///    stream's staged bytes cross its window, one inference runs
///    immediately, re-streaming the model weights each time.
///  * superframe-batched (`batch_window == K >= 1`): deliveries stage per
///    stream tag; every K TDMA superframes the hub folds all sessions
///    sharing a model into one batched pass (`nn::Model::run_batched` is
///    the executable counterpart), attributing per-session energy as
///    `weight_cost / batch + per_sample_cost` and recording the staging
///    delay in `SessionStats::queued_latency_s`.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/tdma.hpp"
#include "net/session.hpp"
#include "nn/qmodel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task_pool.hpp"

namespace iob::net {

struct HubConfig {
  /// Superframes staged per batched flush; 0 keeps the per-frame path.
  unsigned batch_window = 0;
  /// int8 weight-streaming cost per byte (DRAM-class), paid once per model
  /// pass. Only sessions with `weight_bytes > 0` are affected.
  double energy_per_weight_byte_j = 50e-12;
  /// Execute-and-meter mode: sessions carrying a `SessionConfig::net`
  /// actually run their staged inferences through the allocation-free nn
  /// engine (`nn::Model::run_range_into` on a thread-local workspace), and their
  /// `compute_energy_j` derives from measured kernel wall time x
  /// `Hub::kComputePowerW` instead of the analytic MAC/weight-byte counts (the
  /// analytic number keeps accruing alongside in
  /// `SessionStats::analytic_compute_energy_j`). Sessions without a model
  /// stay analytic. Off by default: measured wall time is inherently
  /// host-dependent, so deterministic sweeps must keep this disabled.
  bool execute_and_meter = false;
  /// Engine threads for execute-and-meter passes: a flush's metered
  /// sub-batches (`kMeterBatchCap` items each) fan out across a persistent
  /// `sim::TaskPool` owned by the hub, lazily spawned on the first pass
  /// that fans out. Every thread, the calling one included, runs on its own
  /// `nn::Workspace` + synth staging (both grow-only, so the
  /// zero-steady-state-allocation contract holds per thread), and
  /// per-sub-batch kernel times merge in sub-batch index order — logits and
  /// every non-wall-time stat are bit-identical at any thread count. 1
  /// (default) runs every sub-batch on the calling thread; 0 means hardware
  /// concurrency. Inside another pool's parallel region (a `SweepRunner`
  /// sweep) the hub also stays on the calling thread — fleet parallelism
  /// wins, thread counts never multiply.
  unsigned engine_threads = 1;
};

class Hub {
 public:
  /// Hub silicon efficiency (J per f32 MAC).
  static constexpr double kEnergyPerMacJ = 5e-12;
  /// Analytic MAC-energy discount for int8 sessions: an int8 MAC costs
  /// roughly a quarter of an f32 MAC in silicon (Horowitz, ISSCC'14 class
  /// numbers), so sessions with `SessionConfig::precision == kInt8` charge
  /// `macs * kEnergyPerMacJ * kInt8MacEnergyScale`. The weight term is
  /// untouched: `HubConfig::energy_per_weight_byte_j` already prices int8
  /// bytes. f32 sessions never consult this.
  static constexpr double kInt8MacEnergyScale = 0.25;
  /// Active power of the hub's inference engine while a metered kernel
  /// runs (W): a wearable-SoC NPU/DSP class figure.
  static constexpr double kComputePowerW = 0.25;
  /// Uplink cost per result bit (Wi-Fi class).
  static constexpr double kUplinkEnergyPerBitJ = 30e-9;
  /// SoC idle/display/OS floor (W), accrued while the hub is up.
  static constexpr double kBasePowerW = 50e-3;

  Hub(sim::Simulator& sim, comm::TdmaBus& bus, HubConfig config = {});

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  /// Register an inference session for a stream tag.
  void add_session(SessionConfig config);

  /// Fold any still-staged windows into a final (possibly smaller) batched
  /// pass. `NetworkSim::run` calls this once after the bus stops so work
  /// staged in the last incomplete batch window is measured, not dropped.
  /// No-op on the per-frame path or when nothing is staged.
  void flush_pending(sim::Time now);

  [[nodiscard]] const SessionStats& session(const std::string& stream) const;
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] const sim::Accumulator& delivery_latency_s() const { return latency_s_; }

  /// Batched model passes executed so far (0 on the per-frame path).
  [[nodiscard]] std::uint64_t batched_passes() const { return batched_passes_; }

  // --- Crash/restart lifecycle (driven by net::FaultInjector) ---

  /// Crash the hub at `now`: the bus stops issuing superframes, every
  /// session's staging buffer is discarded (attributed to
  /// `SessionStats::staged_frames_lost` / `staged_bytes_lost`), and the
  /// base-power ledger stops accruing. Session *configs* survive — that is
  /// the restore-on-restart contract.
  void on_hub_crash(sim::Time now);

  /// Restart the hub at `now`: sessions re-sync (counted in
  /// `SessionStats::fault_resyncs`) with empty staging state and the bus
  /// resumes beaconing on its preserved cadence.
  void on_hub_restart(sim::Time now);

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }

  // --- Split execution (docs/architecture.md) ---

  /// Re-sync a session after the leaf moved its split point to `split_at`
  /// (the `Node` adaptive-split resync callback lands here). Recomputes the
  /// session's hub-suffix MACs, boundary wire size, and weight footprint
  /// from its `net`, purges the now-uncompletable staged partial window
  /// (counted in `SessionStats::repartition_dropped_bytes`), and re-groups
  /// the session under the new split key. No-op for unknown streams or
  /// sessions without an executable model (nothing to recompute from).
  void on_repartition(const std::string& stream, std::size_t split_at);

  /// Credit the leaf-venue half of a split session's inferences into its
  /// `SessionStats` (the `leaf_*` / `activation_bytes_shipped` fields).
  /// `NetworkSim::run` calls this once per split node after the bus stops,
  /// so a finished run's stats expose both venues side by side. Unknown
  /// streams are ignored (a split node need not have a hub consumer).
  void credit_leaf_compute(const std::string& stream, double compute_energy_j,
                           std::uint64_t inferences, std::uint64_t activation_bytes);

  /// Credit a node's degradation-controller telemetry into its session's
  /// `SessionStats` (`degradation_*` / `frames_saved_by_shedding`). Same
  /// post-run crediting pattern as `credit_leaf_compute`; unknown streams
  /// are ignored.
  void credit_degradation(const std::string& stream, std::uint64_t transitions,
                          double time_degraded_s, std::uint64_t frames_shed);

  /// Accumulated crashed time up to `now`, including an open outage.
  [[nodiscard]] double downtime_s(sim::Time now) const;

  /// Fraction of [0, now] the hub was up. 1.0 on the clean path.
  [[nodiscard]] double availability(sim::Time now) const;

  /// Total hub energy (J) up to now: bus RX/TX + sessions + base floor.
  [[nodiscard]] double energy_j() const;

  /// Average hub power (W) over the run.
  [[nodiscard]] double average_power_w() const;

  [[nodiscard]] const HubConfig& config() const { return config_; }

 private:
  /// Per-stream staging state. `pending_bytes` is the not-yet-inferred
  /// carry on both paths; `frame_times` only fills when batching.
  struct Staged {
    std::uint64_t pending_bytes = 0;
    std::vector<sim::Time> frame_times;
  };

  /// One registered session, all hot-path state co-located in a single
  /// slot: the frame-delivery path does ONE hash lookup (stream -> slot)
  /// instead of the historical three map probes (config, stats, staging),
  /// and flush walks index a deque instead of re-hashing tags.
  struct Session {
    SessionConfig cfg;
    SessionStats stats;
    Staged staged;
  };

  void on_frame(const comm::Frame& frame, sim::Time delivered_at);
  void on_superframe_end(sim::Time boundary);
  void flush_batches(sim::Time boundary);

  /// Execute `count` inferences on `net` at `precision` (in sub-batches of
  /// at most kMeterBatchCap), resuming at `first_layer` (0 = whole model; a
  /// split session resumes at its boundary via `run_range_into`), and
  /// return the measured kernel wall time in seconds. Int8 sessions run the
  /// hub's `nn::QuantizedModel` lowering (built once at `add_session`).
  /// Sub-batch `s` covers items [s*kMeterBatchCap, ...) and runs on the
  /// thread-local workspace and synth staging of whichever thread owns its
  /// index chunk: the engine pool's workers when `engine_threads > 1`,
  /// there is more than one sub-batch and no enclosing TaskPool region,
  /// else the calling thread. Per-sub-batch wall times land in
  /// `subbatch_time_s_[s]` and are summed in index order.
  double execute_pass(const nn::Model& net, nn::Precision precision, std::uint64_t count,
                      std::size_t first_layer);

  /// Upper bound on one metered sub-batch, bounding workspace growth.
  static constexpr std::uint64_t kMeterBatchCap = 32;

  sim::Simulator& sim_;
  comm::TdmaBus& bus_;
  HubConfig config_;
  /// Registered sessions by slot. A deque so `session()` references stay
  /// valid across later `add_session` calls (no reallocation moves).
  std::deque<Session> sessions_;
  /// Stream tag -> slot. Reserved at add_session; the delivery hot path
  /// only probes (never inserts), so steady state does zero rehashing.
  std::unordered_map<std::string, std::size_t> session_index_;
  /// Model groups in insertion order: (group key, member session slots).
  /// Iterated at flush so energy accumulation order is deterministic and
  /// compiler-independent (never hash-map order).
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups_;
  unsigned superframes_since_flush_ = 0;
  std::uint64_t batched_passes_ = 0;
  bool up_ = true;
  std::uint64_t crashes_ = 0;
  double downtime_closed_s_ = 0.0;  ///< completed outages only
  double crashed_at_ = 0.0;         ///< start of the open outage
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  sim::Accumulator latency_s_;
  /// Persistent engine pool for parallel metered passes, spawned lazily on
  /// the first pass that actually fans out (engine_threads > 1, more than
  /// one sub-batch, not nested in another pool's region).
  std::unique_ptr<sim::TaskPool> engine_pool_;
  /// Per-sub-batch kernel times of the in-flight metered pass, merged in
  /// index order. Grow-only, reused across passes.
  std::vector<double> subbatch_time_s_;
  /// Quantize-at-load cache: one `nn::QuantizedModel` per distinct source
  /// model, built when an int8 session registers under execute-and-meter
  /// (never in the metered hot path).
  std::unordered_map<const nn::Model*, std::unique_ptr<nn::QuantizedModel>> qmodels_;
};

}  // namespace iob::net
