// Closed-form row-activation counts for the row-centric mapping
// (paper Sec. III.C's activation analysis, generalized to atom-granular
// buffers and pipelined grouping).
//
// These formulas are validated against the actual traces in the tests and
// used by benches to report the pipelining ACT reduction (Fig. 6c).
#pragma once

#include <cstdint>

#include "mapping/layout.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"

namespace nttpim::mapping {

struct ActModel {
  /// ACTs for the first log R stages: one per row block.
  static std::uint64_t row_blocks(const DataLayout& layout) {
    return layout.rows_used();
  }

  /// Number of intra-row stages for a size-n transform.
  static unsigned intra_row_stage_count(const DataLayout& layout) {
    const unsigned log_wpa = exact_log2(layout.words_per_atom());
    const unsigned log_wpr = exact_log2(layout.words_per_row());
    const unsigned last = std::min(layout.log2n(), log_wpr);
    return last > log_wpa ? last - log_wpa : 0;
  }

  /// ACTs for the first log R stages under the given division strategy:
  /// vertical row blocks open each row once; the stage-major strawman
  /// re-opens every row once per intra-row stage (when several rows exist).
  static std::uint64_t first_stages(const DataLayout& layout,
                                    const MapperConfig& config) {
    if (config.row_centric) return row_blocks(layout);
    const std::uint64_t rows = layout.rows_used();
    if (rows == 1) return 1;  // the single row simply stays open
    return rows * (1 + intra_row_stage_count(layout));
  }

  /// ACTs of one inter-row stage: every row pair costs one opening ACT plus
  /// two ACTs per round of g = c2_slots in-flight atom pairs.
  static std::uint64_t inter_row_stage(const DataLayout& layout,
                                       const MapperConfig& config) {
    const std::uint64_t pairs = layout.rows_used() / 2;
    const std::uint64_t atoms = layout.geometry().atoms_per_row;
    const std::uint64_t rounds = div_ceil(atoms, c2_slots(config));
    return pairs * (1 + 2 * rounds);
  }

  /// Number of inter-row stages for a size-n transform.
  static unsigned inter_row_stage_count(const DataLayout& layout) {
    const unsigned log_wpr = exact_log2(layout.words_per_row());
    return layout.log2n() > log_wpr ? layout.log2n() - log_wpr : 0;
  }

  /// ACTs of the INTT scaling pass: one per row.
  static std::uint64_t scale_pass(const DataLayout& layout) {
    return layout.rows_used();
  }

  /// Total ACTs of the in-place mapping (forward; add scale_pass for the
  /// inverse).
  static std::uint64_t total_forward(const DataLayout& layout,
                                     const MapperConfig& config) {
    std::uint64_t acts = first_stages(layout, config);
    const unsigned stages = inter_row_stage_count(layout);
    acts += stages * inter_row_stage(layout, config);
    return acts;
  }

  /// Closed-form price of one mapped trace in device cycles: every command
  /// class weighted by the timing it occupies the command bus / array for.
  /// This is a scheduling *estimate*, not the engine: it ignores overlap
  /// the engine's software pipelining wins and stalls it pays, but it is
  /// deterministic, O(1) from cached TraceCounts, and ranks plans the same
  /// way the simulator does — which is all a wave's price
  /// (fhe::PimBackend::estimate_wave_cycles) needs.
  /// (Validated against engine cycles in test_fhe; stays within a small
  /// constant factor across the paper's problem sizes.)
  static std::uint64_t estimate_pass_cycles(const TraceCounts& counts,
                                            const dram::DramTiming& t) {
    std::uint64_t cycles = 0;
    cycles += counts.acts * (t.trcd + t.trp);
    cycles += (counts.column_reads + counts.column_writes) * t.tccd;
    cycles += counts.c1_ops * t.c1_interval;
    cycles += counts.c2_ops * t.c2_interval;
    cycles += counts.scalar_bus * t.scalar_bu_latency;
    cycles += counts.params * t.param_bus_cycles;
    cycles += counts.buf_zeros * t.bufzero_latency;
    return cycles;
  }
};

}  // namespace nttpim::mapping
