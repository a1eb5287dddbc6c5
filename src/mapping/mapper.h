// Row-centric NTT-to-DRAM-command mapping — the paper's core contribution
// (Sections III "Our Architecture and Mapping", IV.B "NTT Computation
// Mapping" and V "Pipelining Optimization").
//
// Given an NTT invocation, the memory controller divides the DIT dataflow
// graph into three regimes and emits one linear DRAM command trace:
//
//  1. Row blocks (first log R stages): the DFG is cut *vertically* into
//     N/R independent row-sized blocks; each row is activated exactly once
//     and processed fully: intra-atom stages via C1 per atom, then
//     intra-row stages via C2 on atom pairs (all row-buffer hits).
//  2. Inter-row stages: processed stage-by-stage; atom pairs come from two
//     rows m/R rows apart. Reads/writes are grouped by row so that with
//     g = floor(Nb/2) atom pairs in flight, a round costs only two row
//     activations (Fig. 6c) — the pipelining benefit that *reduces* ACTs.
//  3. In-place update: every BU's outputs return to its input locations
//     (Sec. III.C); with `in_place = false` the mapper instead ping-pongs
//     between the data region and a shadow region, reproducing the paper's
//     argument for why in-place matters (bench_paper's Sec. III.C group).
//
// Pipelining (Sec. V): with S buffer slots the emission is software
// pipelined — reads for op k+S are emitted while op k computes, and with
// S >= 3 writebacks are additionally delayed by one op so that buffer
// drain/refill of one slot overlaps compute of the others.
#pragma once

#include <cstdint>

#include "dram/config.h"
#include "mapping/layout.h"
#include "mapping/trace.h"
#include "ntt/params.h"

namespace nttpim::mapping {

enum class Direction : std::uint8_t { kForward, kInverse };

struct MapperConfig {
  std::size_t num_buffers = 2;  ///< Nb, including the primary (GSA)
  bool pipelined = true;        ///< exploit all buffers (false = Fig. 6 "w/o")
  bool in_place = true;         ///< in-place update (false = shadow ablation)
  /// Vertical (row-block) division of the first log R stages — the paper's
  /// choice. false = the stage-wise "horizontal" division it argues
  /// against: every intra-row stage re-activates every row (ablation).
  bool row_centric = true;
  std::uint16_t bank = 0;
};

struct NttJob {
  std::uint32_t base_row = 0;
  Direction direction = Direction::kForward;
  /// Inverse only: emit the N^{-1} scaling pass (zero-operand C2 trick).
  bool scale_output = true;
  /// Inverse only: fold the psi^{-i} negacyclic post-scale into the pass.
  bool negacyclic = false;
};

class RowCentricMapper {
 public:
  /// `params` must outlive the mapper. Requires num_buffers >= 2 when the
  /// transform has inter-atom stages (use NaiveMapper for Nb = 1).
  RowCentricMapper(const dram::DramGeometry& geometry,
                   const ntt::NttParams& params, MapperConfig config);

  MappedNtt map(const NttJob& job) const;

 private:
  const dram::DramGeometry* geometry_;
  const ntt::NttParams* params_;
  MapperConfig config_;
};

/// Pair-slot count available for C2 software pipelining under a config.
std::size_t c2_slots(const MapperConfig& config);
/// Buffer-slot count available for C1 software pipelining under a config.
std::size_t c1_slots(const MapperConfig& config);
/// Writeback delay used by the software-pipelined emission for S slots.
unsigned writeback_delay(std::size_t slots);

}  // namespace nttpim::mapping
