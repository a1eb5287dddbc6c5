// DRAM geometry and timing configuration (paper Table I, HBM2E-based).
//
// Timing values are specified in cycles at the nominal 1200 MHz clock. For
// the frequency-sensitivity experiment (paper Fig. 8) the *analog* DRAM
// timings are fixed in nanoseconds — at a lower clock they take fewer cycles
// — while CU compute latencies are fixed in cycles (digital logic scales with
// the clock). DramTiming::at_frequency performs that conversion.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nttpim::dram {

/// Nominal HBM2E clock used throughout the paper.
inline constexpr double kNominalFreqMhz = 1200.0;

/// Physical organization of one PIM-augmented DRAM device.
///
/// Banks are partitioned evenly across `num_channels` independent channels
/// (HBM/DDR-style): bank b belongs to channel b / banks_per_channel(), and
/// each channel drives its own command bus — commands serialize only
/// against commands of the *same* channel (see sim/engine.h). The paper's
/// Table-I device is the single-channel special case.
struct DramGeometry {
  std::size_t word_bytes = 4;       ///< NTT coefficient width (32-bit)
  std::size_t atom_bytes = 32;      ///< DRAM atom (HBM transaction unit)
  std::size_t atoms_per_row = 32;   ///< "# of columns per row" in Table I
  std::size_t rows_per_bank = 32768;
  std::size_t banks = 1;
  std::size_t num_channels = 1;     ///< independent command buses; banks
                                    ///< must divide evenly across them
  std::size_t ranks = 1;

  std::size_t words_per_atom() const noexcept {
    return atom_bytes / word_bytes;
  }
  std::size_t words_per_row() const noexcept {
    return atoms_per_row * words_per_atom();
  }
  std::size_t words_per_bank() const noexcept {
    return rows_per_bank * words_per_row();
  }
  std::size_t banks_per_channel() const noexcept {
    return banks / num_channels;
  }
  /// Channel whose command bus serves `bank`.
  std::size_t channel_of(std::size_t bank) const noexcept {
    return bank / banks_per_channel();
  }
};

/// Timing parameters resolved at a specific clock frequency.
///
/// DRAM-array timings (cl..twr) are ns-fixed; compute latencies
/// (c1_latency..) are cycle-fixed.
struct DramTiming {
  double freq_mhz = kNominalFreqMhz;

  // --- DRAM analog timings, in cycles at freq_mhz (Table I at 1200 MHz) ---
  unsigned cl = 14;     ///< column read latency (command -> data at GSA)
  unsigned cwl = 12;    ///< column write latency (command -> data at cells)
  unsigned tccd = 2;    ///< column-command to column-command
  unsigned trp = 14;    ///< precharge to activate
  unsigned tras = 34;   ///< activate to precharge (minimum row-open time)
  unsigned trcd = 14;   ///< activate to first column command
  unsigned twr = 16;    ///< end of write data to precharge
  unsigned burst = 2;   ///< data transfer beats per 32B atom
  unsigned trefi = 4680; ///< refresh interval (3.9 us at 1200 MHz)
  unsigned trfc = 420;  ///< refresh cycle time (350 ns at 1200 MHz)

  // --- CU (digital logic) latencies, cycle-fixed (paper Sec. VI.B) ---
  unsigned c1_latency = 15;        ///< C1 result latency
  unsigned c1_interval = 12;       ///< C1 initiation interval (12 BUs piped)
  unsigned c2_latency = 10;        ///< C2 result latency
  unsigned c2_interval = 8;        ///< C2 initiation interval (8 BUs piped)
  unsigned scalar_bu_latency = 10; ///< one scalar BU through the pipe
  unsigned param_latency = 4;      ///< PARAM: 16-bit chunks via global buffer
  unsigned param_bus_cycles = 2;   ///< bus occupancy of a PARAM command
  unsigned bufzero_latency = 1;    ///< clearing an atom buffer

  double ns_per_cycle() const noexcept { return 1e3 / freq_mhz; }
  double cycles_to_us(std::uint64_t cycles) const noexcept {
    return static_cast<double>(cycles) * ns_per_cycle() / 1e3;
  }

  /// Derive the timing set at a different clock: DRAM timings keep their
  /// absolute nanosecond values (rounded up to whole cycles), CU latencies
  /// keep their cycle counts.
  DramTiming at_frequency(double mhz) const;
};

/// The paper's Table I configuration at 1200 MHz.
DramTiming hbm2e_timing();

/// The paper's Table I geometry (single bank), scaled to `banks` banks
/// split across `channels` independent command buses (banks % channels
/// must be 0).
DramGeometry hbm2e_geometry(std::size_t banks = 1, std::size_t channels = 1);

}  // namespace nttpim::dram
