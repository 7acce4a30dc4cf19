#include "net/hub.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/expect.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"
#include "nn/workspace.hpp"

namespace iob::net {

namespace {

/// Classification result size uplinked per inference (bytes).
constexpr std::uint32_t kResultBytes = 16;

double wall_clock_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Analytic MAC-energy factor for a session's precision. 1.0 for f32 (the
/// multiply is exact, keeping the pre-precision ledger bit-identical).
double mac_scale(const SessionConfig& cfg) {
  return cfg.precision == nn::Precision::kInt8 ? Hub::kInt8MacEnergyScale : 1.0;
}

/// Index into the per-precision metering arrays.
std::size_t prec_idx(nn::Precision p) { return p == nn::Precision::kInt8 ? 1 : 0; }

/// Group key of a session: shared model tag, or a per-stream private
/// group. The "~" prefix keeps private keys out of any user model
/// namespace. Split sessions group per boundary — members of one batched
/// pass must resume at the same layer. Unsplit sessions keep the plain
/// model tag, byte-identical to the pre-split grouping.
std::string group_key(const SessionConfig& cfg) {
  if (cfg.model.empty()) return "~stream:" + cfg.stream;
  if (cfg.split_layers == 0) return cfg.model;
  return cfg.model + "~split:" + std::to_string(cfg.split_layers);
}

/// Per-sample element count of the tensor a session's metered pass feeds
/// in: the model input, or the boundary activation at `split_layers`.
std::int64_t pass_input_elems(const nn::Model& net, std::size_t first_layer) {
  return first_layer == 0 ? nn::shape_elems(net.input_shape())
                          : nn::shape_elems(net.profiles()[first_layer - 1].output_shape);
}

/// Synthetic input staging for metered passes: the frames' payload bytes
/// are window counters, not tensor payloads, so the hub feeds in patterned
/// activations (kernel time is data-independent; the pattern only needs to
/// be deterministic and non-degenerate). `sample_elems` is the per-sample
/// element count of the tensor fed in: the model input, or the boundary
/// activation of a split session. Each value is a pure function of its
/// position, so the prefix any sub-batch feeds in is bit-identical no
/// matter which thread staged it, or in what growth order. The buffer is
/// grow-only and thread-local, mirroring `nn::detail::thread_workspace()`:
/// once every thread hit its high-water batch shape, passes allocate
/// nothing.
float* thread_synth_input(std::int64_t sample_elems, int batch) {
  static thread_local std::vector<float> buf;
  const auto elems = static_cast<std::size_t>(sample_elems * batch);
  if (buf.size() < elems) {
    buf.reserve(elems);
    for (std::size_t i = buf.size(); i < elems; ++i) {
      const std::uint64_t h = (static_cast<std::uint64_t>(i) * 2654435761ULL) % 1024ULL;
      buf.push_back(static_cast<float>(h) / 512.0f - 1.0f);
    }
  }
  return buf.data();
}

}  // namespace

Hub::Hub(sim::Simulator& sim, comm::TdmaBus& bus, HubConfig config)
    : sim_(sim), bus_(bus), config_(config) {
  IOB_EXPECTS(config_.energy_per_weight_byte_j >= 0,
              "energy per weight byte must be non-negative");
  bus_.set_delivery_handler(
      [this](const comm::Frame& f, sim::Time t) { on_frame(f, t); });
  if (config_.batch_window > 0) {
    bus_.set_superframe_end_handler([this](sim::Time t) { on_superframe_end(t); });
  }
}

void Hub::add_session(SessionConfig config) {
  IOB_EXPECTS(!config.stream.empty(), "session stream tag must be non-empty");
  IOB_EXPECTS(config.bytes_per_inference > 0, "bytes per inference must be positive");
  // Quantize-at-load: int8 metered sessions get their QuantizedModel here,
  // never inside the timed execute path. Analytic-only runs (the
  // deterministic sweeps) skip the cost entirely.
  if (config_.execute_and_meter && config.net != nullptr &&
      config.precision == nn::Precision::kInt8 &&
      qmodels_.find(config.net) == qmodels_.end()) {
    qmodels_.emplace(config.net, std::make_unique<nn::QuantizedModel>(*config.net));
  }
  if (config.net != nullptr) {
    IOB_EXPECTS(config.split_layers <= config.net->layer_count(),
                "session split point out of range");
    // Int8 metered resumption requires a feasible boundary: the quantized
    // lowering cannot restart inside a fused conv+relu pair. Adaptive
    // deployments must restrict their candidate splits accordingly.
    if (config_.execute_and_meter && config.precision == nn::Precision::kInt8 &&
        config.split_layers > 0) {
      IOB_EXPECTS(qmodels_.at(config.net)->feasible_boundary(config.split_layers),
                  "int8 metered session split must be a feasible boundary");
    }
  }
  const std::string group = group_key(config);
  // Resolve (or create) the session slot. Stats and staging survive
  // re-registration — only the config is replaced, exactly the old
  // "default-construct absent map entries" contract.
  std::size_t slot;
  const auto idx_it = session_index_.find(config.stream);
  if (idx_it != session_index_.end()) {
    slot = idx_it->second;
    sessions_[slot].cfg = std::move(config);
  } else {
    // Reserve ahead of the insert: the delivery hot path only probes this
    // map, so growing it here keeps steady-state delivery rehash-free.
    session_index_.reserve(sessions_.size() + 1);
    slot = sessions_.size();
    Session s;
    s.cfg = std::move(config);
    session_index_.emplace(s.cfg.stream, slot);
    sessions_.push_back(std::move(s));
  }
  // Re-registering a stream (possibly under a new model tag) must leave it
  // in exactly one group, or flush/energy accounting would double-count.
  for (auto& [g, members] : groups_) {
    if (g == group) continue;
    members.erase(std::remove(members.begin(), members.end(), slot), members.end());
  }
  groups_.erase(std::remove_if(groups_.begin(), groups_.end(),
                               [](const auto& g) { return g.second.empty(); }),
                groups_.end());
  auto it = std::find_if(groups_.begin(), groups_.end(),
                         [&](const auto& g) { return g.first == group; });
  if (it == groups_.end()) {
    groups_.emplace_back(group, std::vector<std::size_t>{slot});
  } else if (std::find(it->second.begin(), it->second.end(), slot) == it->second.end()) {
    it->second.push_back(slot);
  }
}

void Hub::on_frame(const comm::Frame& frame, sim::Time delivered_at) {
  ++frames_received_;
  bytes_received_ += frame.payload_bytes;
  latency_s_.add(delivered_at - frame.created_s);

  // The one hash probe of the delivery hot path: stream tag -> slot. All
  // per-session state (config, stats, staging) is co-located in the slot.
  const auto idx_it = session_index_.find(frame.stream);
  if (idx_it == session_index_.end()) return;
  Session& sess = sessions_[idx_it->second];
  const SessionConfig& cfg = sess.cfg;
  SessionStats& st = sess.stats;
  st.bytes_in += frame.payload_bytes;

  Staged& staged = sess.staged;
  staged.pending_bytes += frame.payload_bytes;
  if (config_.batch_window > 0) {
    // Batched path: stage until the superframe flush.
    staged.frame_times.push_back(delivered_at);
    return;
  }

  // Per-frame path: run as soon as a window fills, re-streaming weights for
  // every inference (the cost batching amortizes).
  while (staged.pending_bytes >= cfg.bytes_per_inference) {
    staged.pending_bytes -= cfg.bytes_per_inference;
    ++st.inferences;
    // Single-expression add: with weight_bytes == 0 the sum is bit-identical
    // to the historical macs-only charge, and with batch_window == 1 a
    // one-inference flush accumulates the exact same double.
    const double analytic =
        static_cast<double>(cfg.macs_per_inference) * kEnergyPerMacJ * mac_scale(cfg) +
        static_cast<double>(cfg.weight_bytes) * config_.energy_per_weight_byte_j;
    st.analytic_compute_energy_j += analytic;
    const bool int8 = cfg.precision == nn::Precision::kInt8;
    if (config_.execute_and_meter && cfg.net != nullptr) {
      const double t = execute_pass(*cfg.net, cfg.precision, 1, cfg.split_layers);
      st.kernel_time_s += t;
      (int8 ? st.kernel_time_int8_s : st.kernel_time_f32_s) += t;
      ++st.executed_inferences;
      const double e = t * kComputePowerW;
      st.compute_energy_j += e;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += e;
    } else {
      st.compute_energy_j += analytic;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += analytic;
    }
    if (cfg.forward_to_cloud) {
      st.uplink_energy_j += static_cast<double>(kResultBytes) * 8.0 * kUplinkEnergyPerBitJ;
    }
  }
}

void Hub::flush_pending(sim::Time now) {
  if (config_.batch_window == 0) return;
  superframes_since_flush_ = 0;
  flush_batches(now);
}

void Hub::on_superframe_end(sim::Time boundary) {
  if (++superframes_since_flush_ < config_.batch_window) return;
  superframes_since_flush_ = 0;
  flush_batches(boundary);
}

void Hub::flush_batches(sim::Time boundary) {
  for (const auto& [group, members] : groups_) {
    (void)group;
    // Pass 1: staged inference count per member and the group's weight
    // footprint (members share a model; max() tolerates config drift).
    std::uint64_t total = 0;
    std::uint64_t weight_bytes = 0;
    for (const std::size_t slot : members) {
      const Session& sess = sessions_[slot];
      total += sess.staged.pending_bytes / sess.cfg.bytes_per_inference;
      weight_bytes = std::max(weight_bytes, sess.cfg.weight_bytes);
    }

    // Staging delay is charged at every flush: each staged frame waited
    // from delivery to this boundary whether or not its window filled. The
    // clamp covers the end-of-run flush, where the final superframe's
    // deliveries carry timestamps past the run horizon (zero wait, never
    // negative).
    for (const std::size_t slot : members) {
      Session& sess = sessions_[slot];
      if (sess.staged.frame_times.empty()) continue;
      for (const sim::Time t : sess.staged.frame_times) {
        sess.stats.queued_latency_s.add(std::max(0.0, boundary - t));
      }
      sess.staged.frame_times.clear();
    }

    if (total == 0) continue;
    ++batched_passes_;

    // Execute-and-meter: run the staged inferences of the members that
    // carry an executable model (the group shares one by construction)
    // through the nn engine once per precision, and attribute each measured
    // kernel time by share of its precision's metered batch. Members
    // without a model stay analytic, exactly as on the per-frame path.
    const nn::Model* net = nullptr;
    std::size_t split_first = 0;  // shared by construction: split is in the group key
    std::uint64_t metered_total[2] = {0, 0};  // [f32, int8]
    double pass_time_s[2] = {0.0, 0.0};
    if (config_.execute_and_meter) {
      for (const std::size_t slot : members) {
        const SessionConfig& cfg = sessions_[slot].cfg;
        if (cfg.net == nullptr) continue;
        IOB_EXPECTS(net == nullptr || net == cfg.net,
                    "sessions sharing a model tag must share one nn::Model instance");
        net = cfg.net;
        split_first = cfg.split_layers;
        metered_total[prec_idx(cfg.precision)] +=
            sessions_[slot].staged.pending_bytes / cfg.bytes_per_inference;
      }
      if (metered_total[0] > 0) {
        pass_time_s[0] = execute_pass(*net, nn::Precision::kF32, metered_total[0], split_first);
      }
      if (metered_total[1] > 0) {
        pass_time_s[1] = execute_pass(*net, nn::Precision::kInt8, metered_total[1], split_first);
      }
    }

    // Pass 2: one batched model pass of size `total`. Weights stream once;
    // each session pays its sample MACs plus its share of the weight cost.
    const double weight_energy_j =
        static_cast<double>(weight_bytes) * config_.energy_per_weight_byte_j;
    for (const std::size_t slot : members) {
      Session& sess = sessions_[slot];
      const SessionConfig& cfg = sess.cfg;
      Staged& staged = sess.staged;
      const std::uint64_t n = staged.pending_bytes / cfg.bytes_per_inference;
      if (n == 0) continue;
      staged.pending_bytes -= n * cfg.bytes_per_inference;
      SessionStats& st = sess.stats;
      st.inferences += n;
      st.batched_inferences += n;
      ++st.batched_passes;
      const double analytic =
          static_cast<double>(n * cfg.macs_per_inference) * kEnergyPerMacJ * mac_scale(cfg) +
          weight_energy_j * (static_cast<double>(n) / static_cast<double>(total));
      st.analytic_compute_energy_j += analytic;
      const bool int8 = cfg.precision == nn::Precision::kInt8;
      double charged = analytic;
      const std::size_t pi = prec_idx(cfg.precision);
      if (metered_total[pi] > 0 && cfg.net != nullptr) {
        const double time_share =
            pass_time_s[pi] * (static_cast<double>(n) / static_cast<double>(metered_total[pi]));
        st.kernel_time_s += time_share;
        (int8 ? st.kernel_time_int8_s : st.kernel_time_f32_s) += time_share;
        st.executed_inferences += n;
        charged = time_share * kComputePowerW;
      }
      st.compute_energy_j += charged;
      (int8 ? st.compute_energy_int8_j : st.compute_energy_f32_j) += charged;
      st.batched_compute_energy_j += charged;
      if (cfg.forward_to_cloud) {
        st.uplink_energy_j += static_cast<double>(n) * static_cast<double>(kResultBytes) *
                              8.0 * kUplinkEnergyPerBitJ;
      }
    }
  }
}

void Hub::on_hub_crash(sim::Time now) {
  if (!up_) return;
  up_ = false;
  ++crashes_;
  crashed_at_ = now;
  bus_.set_hub_up(false);
  // Staged work dies with the crash. Iterate groups_ (insertion order, like
  // flush_batches) so the attribution order is deterministic.
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) {
      Session& sess = sessions_[slot];
      sess.stats.staged_frames_lost += sess.staged.frame_times.size();
      sess.stats.staged_bytes_lost += sess.staged.pending_bytes;
      sess.staged.pending_bytes = 0;
      sess.staged.frame_times.clear();
    }
  }
  superframes_since_flush_ = 0;
}

void Hub::on_hub_restart(sim::Time now) {
  if (up_) return;
  up_ = true;
  downtime_closed_s_ += now - crashed_at_;
  bus_.set_hub_up(true);
  // Sessions restore from their surviving configs; each one re-syncs with
  // an empty staging buffer.
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) ++sessions_[slot].stats.fault_resyncs;
  }
}

double Hub::downtime_s(sim::Time now) const {
  return downtime_closed_s_ + (up_ ? 0.0 : now - crashed_at_);
}

double Hub::availability(sim::Time now) const {
  if (now <= 0.0) return 1.0;
  return 1.0 - downtime_s(now) / now;
}

double Hub::execute_pass(const nn::Model& net, nn::Precision precision, std::uint64_t count,
                         std::size_t first_layer) {
  const nn::QuantizedModel* qm = nullptr;
  if (precision == nn::Precision::kInt8) {
    const auto it = qmodels_.find(&net);
    IOB_EXPECTS(it != qmodels_.end(), "int8 metered session has no quantized model");
    qm = it->second.get();
  }
  const std::size_t last = net.layer_count();
  IOB_EXPECTS(first_layer <= last, "resume layer out of range");
  // Everything-on-leaf (k == n): the hub receives finished logits and has
  // no suffix to run — zero kernel time, by definition.
  if (first_layer == last) return 0.0;
  const std::int64_t sample_elems = pass_input_elems(net, first_layer);
  const std::size_t nsub =
      static_cast<std::size_t>((count + kMeterBatchCap - 1) / kMeterBatchCap);
  const std::size_t threads =
      config_.engine_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config_.engine_threads;
  if (subbatch_time_s_.size() < nsub) subbatch_time_s_.resize(nsub);
  // Everything the sub-batch body needs, reachable through ONE pointer: the
  // lambda capture stays within std::function's small-buffer size, so
  // handing it to the pool never allocates (the pass keeps the
  // zero-steady-state-heap contract even while fanning out).
  struct Ctx {
    const nn::Model* net;
    const nn::QuantizedModel* qm;
    std::uint64_t count;
    std::size_t first_layer;
    std::size_t last;
    std::int64_t sample_elems;
    double* times;
  } ctx{&net, qm, count, first_layer, last, sample_elems, subbatch_time_s_.data()};
  Ctx* const pc = &ctx;
  const auto run_subbatches = [pc](std::size_t sub0, std::size_t sub1) {
    // Index-ordered static chunks: sub-batch s always covers items
    // [s*cap, min((s+1)*cap, count)), no matter how many workers run.
    // Inputs are the position-based pattern, staged per thread; the model
    // and quantized lowering are shared read-only; all scratch is the
    // running thread's workspace. Logits are therefore bit-identical at
    // every thread count.
    nn::Workspace& ws = nn::detail::thread_workspace();
    for (std::size_t s = sub0; s < sub1; ++s) {
      const std::uint64_t done = static_cast<std::uint64_t>(s) * kMeterBatchCap;
      const int b = static_cast<int>(std::min(pc->count - done, kMeterBatchCap));
      float* in = thread_synth_input(pc->sample_elems, b);
      // Size the arena outside the timed region: one-time buffer growth is
      // setup cost, not kernel time, and would skew short metered runs.
      if (pc->qm != nullptr) {
        ws.configure(*pc->qm, b);
      } else {
        ws.configure(*pc->net, b);
      }
      const double t0 = wall_clock_s();
      // Split sessions resume at the boundary; first_layer == 0 runs the
      // whole model through the identical range engine.
      const nn::ConstSpan out =
          pc->qm != nullptr ? pc->qm->run_range_into(ws, in, b, pc->first_layer, pc->last)
                            : pc->net->run_range_into(ws, in, b, pc->first_layer, pc->last);
      pc->times[s] = wall_clock_s() - t0;
      // Touch the result so the pass is observably executed.
      IOB_ENSURES(out.size > 0, "metered pass produced no output");
    }
  };
  // Fan out only when it can pay off AND we are not already inside another
  // pool's parallel region (a fleet sweep runs many hubs concurrently; the
  // engine stays on the calling thread there so thread counts never
  // multiply). Otherwise the calling thread runs every sub-batch itself.
  if (threads > 1 && nsub > 1 && !sim::TaskPool::in_parallel_region()) {
    if (engine_pool_ == nullptr) engine_pool_ = std::make_unique<sim::TaskPool>(threads);
    engine_pool_->parallel_for(nsub, run_subbatches);
  } else {
    run_subbatches(0, nsub);
  }
  // Merge in sub-batch index order, independent of which worker finished
  // when.
  double elapsed = 0.0;
  for (std::size_t s = 0; s < nsub; ++s) elapsed += subbatch_time_s_[s];
  return elapsed;
}

void apply_split(SessionConfig& cfg, std::size_t k) {
  const nn::Model& net = *cfg.net;
  IOB_EXPECTS(k <= net.layer_count(), "split point out of range");
  const auto& profiles = net.profiles();
  std::uint64_t suffix_macs = 0;
  std::uint64_t suffix_params = 0;
  for (std::size_t i = k; i < net.layer_count(); ++i) {
    suffix_macs += profiles[i].macs;
    suffix_params += profiles[i].params;
  }
  cfg.split_layers = k;
  cfg.macs_per_inference = suffix_macs;
  cfg.bytes_per_inference = static_cast<std::uint64_t>(
      nn::activation_wire_bytes(pass_input_elems(net, k), cfg.precision));
  if (cfg.weight_bytes != 0) cfg.weight_bytes = suffix_params;
}

void Hub::on_repartition(const std::string& stream, std::size_t split_at) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  Session& sess = sessions_[it->second];
  SessionConfig cfg = sess.cfg;
  if (cfg.net == nullptr) return;  // nothing to recompute the suffix from
  apply_split(cfg, split_at);

  // A partial window staged at the old boundary size can never complete at
  // the new one — purge it and attribute the loss instead of silently
  // re-interpreting stale bytes as part of a differently-shaped activation.
  sess.stats.repartition_dropped_bytes += sess.staged.pending_bytes;
  sess.staged.pending_bytes = 0;
  sess.staged.frame_times.clear();
  ++sess.stats.repartitions;

  // Re-register: re-groups the session under the new split key (stats and
  // staging survive — add_session only replaces the config of a live slot).
  add_session(std::move(cfg));
}

void Hub::credit_leaf_compute(const std::string& stream, double compute_energy_j,
                              std::uint64_t inferences, std::uint64_t activation_bytes) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  SessionStats& st = sessions_[it->second].stats;
  st.leaf_compute_energy_j += compute_energy_j;
  st.leaf_inferences += inferences;
  st.activation_bytes_shipped += activation_bytes;
}

void Hub::credit_degradation(const std::string& stream, std::uint64_t transitions,
                             double time_degraded_s, std::uint64_t frames_shed) {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) return;
  SessionStats& st = sessions_[it->second].stats;
  st.degradation_transitions += transitions;
  st.degradation_time_s += time_degraded_s;
  st.frames_saved_by_shedding += frames_shed;
}

const SessionStats& Hub::session(const std::string& stream) const {
  const auto it = session_index_.find(stream);
  if (it == session_index_.end()) throw std::invalid_argument("unknown session: " + stream);
  return sessions_[it->second].stats;
}

double Hub::energy_j() const {
  // Base power accrues only while the hub is up. With zero downtime the
  // subtraction is exact, keeping the clean-path ledger bit-identical.
  double e = bus_.stats().hub_rx_energy_j + bus_.stats().hub_tx_energy_j +
             kBasePowerW * (sim_.now() - downtime_s(sim_.now()));
  for (const auto& [group, members] : groups_) {
    (void)group;
    for (const std::size_t slot : members) {
      e += sessions_[slot].stats.compute_energy_j + sessions_[slot].stats.uplink_energy_j;
    }
  }
  return e;
}

double Hub::average_power_w() const {
  const double t = sim_.now();
  return t > 0 ? energy_j() / t : 0.0;
}

}  // namespace iob::net
