// End-to-end NTT-on-PIM runs: parameter generation, host data placement,
// mapping, simulation and verification against the reference transform.
// This is the C++ equivalent of the paper's front-end driver (Sec. VI.A),
// including its "verify the functionality of the NTT function as executed"
// role.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/energy.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "sim/engine.h"

namespace nttpim::sim {

struct NttRunConfig {
  std::size_t n = 1024;
  std::uint32_t q = 0;  ///< 0 = pick the largest 31-bit NTT-friendly prime
  std::size_t num_buffers = 2;  ///< Nb (1 selects the naive fallback mapper)
  bool pipelined = true;
  bool in_place = true;
  bool row_centric = true;  ///< false = stage-major division ablation
  bool enable_refresh = true;
  double freq_mhz = 1200.0;
  mapping::Direction direction = mapping::Direction::kForward;
  bool negacyclic = false;
  std::uint64_t seed = 42;
  dram::EnergyParams energy{};
  bool validate_trace = true;  ///< run the static trace checker first
};

struct NttRunResult {
  RunStats stats;
  mapping::TraceCounts trace_counts;
  bool verified = false;     ///< memory image == reference transform
  double latency_us = 0;
  double energy_nj = 0;
  std::uint32_t q = 0;
  std::size_t trace_length = 0;
};

/// Run one NTT through the mapped command trace on the simulated PIM and
/// check the result against the CPU reference transform.
NttRunResult run_ntt_on_pim(const NttRunConfig& config);

}  // namespace nttpim::sim
