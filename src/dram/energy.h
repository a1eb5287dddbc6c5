// DRAM + CU energy model.
//
// The paper reports NTT energy (Table III) from its HBM2E-based simulation.
// We charge per-event energies for row activation, column transfers and BU
// operations plus a background (standby/peripheral) power term. Constants
// are HBM2E-class values calibrated so the N=1024 / Nb=2 point lands in the
// ballpark of the paper's Table III; the *scaling shape* across N, Nb and
// designs is what the model reproduces. bench_paper's Table III energy
// group pins how far each point sits from the paper.
#pragma once

#include <cstdint>

namespace nttpim::dram {

struct EnergyParams {
  double act_pre_pj = 8000.0;   ///< one ACT+PRE pair (row activation energy)
  double column_pj = 400.0;     ///< one 32B column transfer (array <-> buffer)
  double bu_op_pj = 15.0;       ///< one butterfly (ModMult + ModAdd/Sub)
  double param_pj = 20.0;       ///< one parameter-register load
  double refresh_pj = 4000.0;   ///< one per-bank refresh cycle (tRFC)
  double background_mw = 200.0; ///< per-bank standby + peripheral power
};

/// Event counts accumulated by a simulation run.
struct EnergyCounts {
  std::uint64_t activations = 0;
  std::uint64_t column_transfers = 0;
  std::uint64_t butterflies = 0;
  std::uint64_t param_loads = 0;
  std::uint64_t refreshes = 0;
};

struct EnergyBreakdown {
  double activation_nj = 0;
  double column_nj = 0;
  double compute_nj = 0;
  double param_nj = 0;
  double refresh_nj = 0;
  double background_nj = 0;

  double total_nj() const noexcept {
    return activation_nj + column_nj + compute_nj + param_nj + refresh_nj +
           background_nj;
  }
};

/// Fold counts + elapsed time into an energy breakdown.
EnergyBreakdown compute_energy(const EnergyParams& params,
                               const EnergyCounts& counts,
                               double elapsed_ns);

}  // namespace nttpim::dram
