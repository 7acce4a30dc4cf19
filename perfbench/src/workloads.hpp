#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads. Each generates its inputs from
/// `Options::seed` before any timer starts, measures for about
/// `Options::seconds`, checks its outputs (failed checks land in the
/// `Result` as gates), and records its metrics into the `Result`.

#include <algorithm>
#include <thread>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// `wanted` threads, capped at the host's CPU count.
[[nodiscard]] inline unsigned capped_threads(unsigned wanted) {
  return std::min(wanted, std::max(1u, std::thread::hardware_concurrency()));
}

/// One hub terminating ~1000 staged sessions at saturation; `nn` dominates.
void run_hub_saturation(const Options& options, Tracer& tracer, Result& result);

/// Thousands of 8-leaf wearers streamed through `core::Fleet`; `nn` idle.
void run_fleet_population(const Options& options, Tracer& tracer, Result& result);

/// One wearer's sensed windows turned into decisions; `isa` dominates.
void run_sense_to_decision(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench
