// Cycle-accurate timing + functional co-simulation of a PIM command trace.
//
// This replaces the paper's DRAMsim3 + Python front-end driver pair: one
// engine both enforces DRAM timing (per-bank FSM, shared command bus,
// single-ported buffers, pipelined CU) and executes the commands'
// functional effects, so the NTT result can be verified word-for-word
// against the reference transform while the cycle count is measured.
//
// Scheduling model. Each bank runs its own command program in order;
// across banks the engine each step picks the oldest-ready head (lowest
// earliest issue cycle; ties rotate round-robin, starting from the bank
// after the last committed command), which models a simple
// bank-round-robin memory controller. Each *channel* of the device
// geometry has its own command bus (one command per cycle; PARAM occupies
// two bus cycles for its 16-bit chunks): a command serializes only against
// commands of banks in the same channel, so channels progress on
// independent timelines and the device makespan is the max over them —
// the DRAMsim3-style per-channel command-stream model. A single-channel
// geometry reproduces the paper's shared-bus device exactly.
//
// Timing rules per command kind:
//   ACT      max(bus, tRP after PRE);            row opens, tRCD starts
//   PRE      max(bus, tRAS, write recovery, read-to-precharge)
//   CU_RD    max(bus, tRCD, tCCD, buffer free);  data lands CL+burst later
//   CU_WR    max(bus, tRCD, tCCD, buffer data ready); recovery tWR after data
//   C1/C2    max(bus, CU pipeline free, operand buffers ready);
//            buffers busy until the result latency elapses
//   PARAM    max(bus, last compute completed); CU stalls param_latency
//   scalar   column rules + scalar-register readiness through the BU pipe
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/command.h"
#include "dram/config.h"
#include "dram/energy.h"
#include "pim/device.h"

namespace nttpim::sim {

struct EngineConfig {
  dram::DramTiming timing = dram::hbm2e_timing();
  dram::EnergyParams energy{};
  /// Model periodic refresh (tREFI/tRFC): the engine transparently closes
  /// the open row, stalls tRFC and restores it — like a real MC.
  bool enable_refresh = true;
  /// Record one TimelineEvent per command (for the Fig. 5/6-style
  /// timing-diagram renderer). Off by default: costs memory.
  bool record_timeline = false;
};

/// One bank's command program: the commands it issues, in order, as
/// segments run back to back. A bank running several stacked items gets
/// one segment per item. The engine borrows the segments for the run.
using BankProgram = std::vector<std::span<const dram::Command>>;

/// One scheduled command instance (for timing-diagram rendering).
struct TimelineEvent {
  /// The command's position in the run's input: the index into the flat
  /// trace, or for the program entry the index into the bank-major
  /// concatenation of the programs (bank 0's segments in order, then bank
  /// 1's, ...). SIZE_MAX for engine-inserted refresh operations.
  std::size_t trace_index;
  dram::CmdKind kind;
  std::uint16_t bank;
  std::uint64_t issue;  ///< bus cycle the command issued
  std::uint64_t end;    ///< cycle its effect completed (data/result ready)
};

struct RunStats {
  std::uint64_t cycles = 0;  ///< makespan of the trace
  double ns = 0;             ///< cycles converted at the configured clock
  std::uint64_t activations = 0;
  std::uint64_t precharges = 0;
  std::uint64_t column_reads = 0;
  std::uint64_t column_writes = 0;
  std::uint64_t compute_ops = 0;  ///< C1 + C2 + scalar BU commands
  std::uint64_t butterflies = 0;  ///< individual BU operations executed
  std::uint64_t param_loads = 0;
  std::uint64_t refreshes = 0;    ///< engine-inserted refresh cycles
  std::uint64_t commands = 0;
  std::uint64_t bus_busy_cycles = 0;  ///< command-bus occupancy, all buses
  /// Per-channel makespans: the last completion cycle of any command on
  /// that channel's banks. `cycles` is their max (channels run on
  /// independent buses); a single-channel device has exactly one entry.
  std::vector<std::uint64_t> channel_makespans;
  dram::EnergyBreakdown energy;
  std::vector<TimelineEvent> timeline;  ///< filled when record_timeline

  double us() const noexcept { return ns / 1e3; }

  /// Fraction of the makespan the command buses were occupied, summed over
  /// channels (a C-channel device can exceed 1.0 only if C > 1).
  double bus_utilization() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(bus_busy_cycles) /
                             static_cast<double>(cycles);
  }

  /// Column accesses per activation — the row-buffer locality the
  /// row-centric mapping exists to maximize.
  double column_accesses_per_activation() const noexcept {
    return activations == 0
               ? 0.0
               : static_cast<double>(column_reads + column_writes) /
                     static_cast<double>(activations);
  }
};

class Engine {
 public:
  explicit Engine(EngineConfig config) : config_(config) {}

  const EngineConfig& config() const noexcept { return config_; }

  /// Execute per-bank command programs on `device` (functionally and
  /// temporally): programs[b] is bank b's program, and banks beyond
  /// programs.size() stay idle. Returns the run statistics including the
  /// energy estimate. Throws std::invalid_argument for more programs than
  /// banks, or when a command reaches the head of its bank's program while
  /// targeting another bank or a buffer beyond Nb.
  ///
  /// Uses the keyed scheduler: each bank keeps a bus-independent
  /// earliest-issue key, refreshed only when that bank commits, so
  /// BankTiming is queried O(commands) instead of O(commands x banks)
  /// times. Bit-identical to run_reference().
  RunStats run(pim::PimDevice& device,
               std::span<const BankProgram> programs) const;

  /// Flat-trace entry: commands for different banks may interleave in the
  /// span; per-bank order is preserved. Partitions the trace by bank into
  /// per-bank programs (no command is copied) and runs them; the result is
  /// independent of how the banks interleave in `trace`.
  RunStats run(pim::PimDevice& device,
               std::span<const dram::Command> trace) const;

  /// Reference scheduler: the original full-rescan loop that re-derives
  /// every bank's earliest issue cycle from live timing state on every
  /// step. Slower, retained as the golden model the keyed fast path is
  /// property-tested against (identical RunStats and functional output).
  RunStats run_reference(pim::PimDevice& device,
                         std::span<const BankProgram> programs) const;
  RunStats run_reference(pim::PimDevice& device,
                         std::span<const dram::Command> trace) const;

 private:
  EngineConfig config_;
};

}  // namespace nttpim::sim
