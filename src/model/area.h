// CU / atom-buffer area model (paper Table II).
//
// The paper synthesized its CU with Synopsys DC on a Samsung 65 nm library
// and sized buffers with CACTI 7.0; neither tool nor PDK is available here,
// so this is a component-level analytical model:
//   * logic blocks are gate-count estimates times a 65 nm NAND2-equivalent
//     cell area,
//   * atom buffers cost SRAM cells (6T + 2T inverters, Sec. IV.A) plus
//     crossbar port growth, with marginal costs calibrated to the paper's
//     published increments (synthesis shows decreasing marginal cost as the
//     tool shares decode/control logic).
// The Nb = 1 point and buffer increments reproduce Table II (bench_paper's
// Table II group checks it); other Nb values inter/extrapolate.
#pragma once

#include <cstddef>

namespace nttpim::model {

/// One DRAM bank, CACTI-3DD DDR4 model at 32 nm (paper Table II note 2).
inline constexpr double kBankAreaMm2 = 4.2208;

/// Newton's per-bank compute hardware (16 FP16 MACs), paper's synthesis.
inline constexpr double kNewtonAreaMm2 = 0.0474;

struct AreaBreakdown {
  double modmult_mm2 = 0;   ///< 32-bit Montgomery modular multiplier
  double modaddsub_mm2 = 0; ///< two modular adder/subtractors
  double tfg_mm2 = 0;       ///< twiddle factor generator (mult + registers)
  double lsu_ctrl_mm2 = 0;  ///< load/store unit, decode, base crossbar
  double buffers_mm2 = 0;   ///< secondary atom buffers + crossbar growth
  double total_mm2 = 0;
  double percent_of_bank = 0;
};

class AreaModel {
 public:
  /// Area of the NTT-PIM bank extension with `num_buffers` atom buffers
  /// (including the primary, which is the existing GSA and free).
  AreaBreakdown nttpim_area(std::size_t num_buffers) const;

  /// Newton's accelerator area for the same comparison row.
  double newton_area() const { return kNewtonAreaMm2; }

  double bank_area() const { return kBankAreaMm2; }
};

}  // namespace nttpim::model
