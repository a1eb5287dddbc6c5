// Command trace: the mapper's output, consumed by the simulation engine.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dram/command.h"
#include "dram/config.h"

namespace nttpim::mapping {

struct TraceCounts {
  std::uint64_t acts = 0;
  std::uint64_t pres = 0;
  std::uint64_t column_reads = 0;
  std::uint64_t column_writes = 0;
  std::uint64_t c1_ops = 0;
  std::uint64_t c2_ops = 0;
  std::uint64_t scalar_bus = 0;
  std::uint64_t params = 0;
  std::uint64_t buf_zeros = 0;
  std::uint64_t total = 0;

  /// ACT count per mapping regime.
  std::map<dram::Regime, std::uint64_t> acts_by_regime;
};

/// Tally command kinds (and ACTs per regime) in a trace.
TraceCounts count_commands(std::span<const dram::Command> trace);

/// Static validity check of a mapped trace, independent of the timing
/// engine: tracks open-row state and buffer data-validity per bank and
/// throws std::logic_error on the first violation (column access to a
/// closed/mismatched row, compute on a never-loaded buffer, C2 with
/// identical operands, buffer index beyond Nb, scalar write without a
/// preceding GSA load of that atom, ...).
void validate_trace(std::span<const dram::Command> trace,
                    const dram::DramGeometry& geometry,
                    std::size_t num_buffers);

/// Result of mapping one NTT invocation.
struct MappedNtt {
  std::vector<dram::Command> trace;
  /// Where the result lives (== input base row unless the in-place-update
  /// ablation ping-pongs into a shadow region).
  std::uint32_t result_base_row = 0;
  /// Structural id a PlanCache assigns (0 until one does): two plans share
  /// it exactly when their traces are equal in every command field but
  /// `bank` and `param_value`, so they schedule identically on any bank.
  std::uint64_t shape_id = 0;
};

/// Copy of `mapped` with every command's bank id rewritten to `bank`. A
/// mapped trace is bank-relative apart from that field, so this replicates
/// one plan across banks without re-running the mapper (the batched
/// multi-bank backend and the PlanCache rely on this).
MappedNtt retarget_bank(const MappedNtt& mapped, std::uint16_t bank);

}  // namespace nttpim::mapping
