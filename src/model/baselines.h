// Related-work comparison data and scaling models (paper Table III).
//
// MeNTT (6T-SRAM PIM), CryptoPIM (ReRAM PIM), the paper's x86 measurement
// and the FPGA baseline are *quoted* numbers in the paper as well — no
// hardware exists to re-run them. They are encoded here as reference data.
//
// Unit note: the paper's Table III column headers say "ns"/"nJ", but the
// magnitudes (and Fig. 7's microsecond axis, which the NTT-PIM rows match
// exactly) show the values are in us/uJ; we store them as us/uJ.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace nttpim::model {

struct ReferencePoint {
  std::size_t n;
  std::optional<double> latency_us;
  std::optional<double> energy_uj;
};

struct ReferenceDesign {
  std::string name;
  std::string method;
  std::string bitwidth;
  std::vector<ReferencePoint> points;

  /// Reported latency at exactly n, if the paper lists it.
  std::optional<double> latency_at(std::size_t n) const;
  std::optional<double> energy_at(std::size_t n) const;
};

/// The comparison designs of Table III (excluding our simulated NTT-PIM).
const std::vector<ReferenceDesign>& table3_designs();

/// The paper's own reported NTT-PIM rows (for paper-vs-measured tables).
const ReferenceDesign& paper_nttpim(std::size_t num_buffers);

}  // namespace nttpim::model
