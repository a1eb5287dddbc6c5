// Old-vs-new scheduler equivalence: Engine::run (keyed, per-bank
// bus-independent earliest-issue keys) must be bit-identical to
// Engine::run_reference (the retained full-rescan golden model) — same
// cycles, same per-kind counters, same energy, same commit sequence, same
// memory image. The modeled hardware numbers are the paper-reproduction
// contract; a scheduler speedup must not move them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "mapping/mapper.h"
#include "ntt/params.h"
#include "ntt/reference.h"
#include "pim/host.h"
#include "sim/engine.h"

namespace nttpim::sim {
namespace {

using dram::Command;

struct Workload {
  dram::DramGeometry geometry;
  std::size_t num_buffers = 4;
  std::uint32_t rows_per_item = 0;
  /// items[b][k]: bank b's k-th stacked item, mapped at its own base rows.
  std::vector<std::vector<std::vector<Command>>> items;
  std::vector<std::vector<std::vector<std::uint32_t>>> inputs;  ///< [b][k]
  std::vector<Command> trace;  ///< every item, seeded random interleave

  /// One segment per stacked item: the program-entry form of the workload.
  std::vector<BankProgram> programs() const {
    std::vector<BankProgram> out(items.size());
    for (std::size_t b = 0; b < items.size(); ++b)
      for (const auto& item : items[b]) out[b].push_back(item);
    return out;
  }
};

/// Independent NTT traces, `stacked` per bank at disjoint base rows, merged
/// with a seeded random interleave (per-bank order preserved — the only
/// ordering the engine contract guarantees), so the schedulers face
/// arbitrary cross-bank arrival shapes.
Workload make_workload(std::size_t banks, std::size_t n,
                       std::size_t num_buffers, bool inverse, bool negacyclic,
                       std::uint64_t seed, std::size_t channels = 1,
                       std::size_t stacked = 1) {
  Workload w;
  w.geometry = dram::hbm2e_geometry(banks, channels);
  // Timing never depends on the row count; a short bank keeps each device
  // (and the memory-image comparison) small.
  w.geometry.rows_per_bank = 256;
  w.num_buffers = num_buffers;
  const ntt::NttParams params = ntt::NttParams::create(n);
  w.rows_per_item = static_cast<std::uint32_t>(
      (n + w.geometry.words_per_row() - 1) / w.geometry.words_per_row());

  Rng rng(seed);
  w.items.resize(banks);
  w.inputs.resize(banks);
  std::vector<std::vector<Command>> per_bank(banks);
  for (std::size_t b = 0; b < banks; ++b) {
    mapping::MapperConfig mc;
    mc.num_buffers = num_buffers;
    mc.bank = static_cast<std::uint16_t>(b);
    const mapping::RowCentricMapper mapper(w.geometry, params, mc);
    for (std::size_t k = 0; k < stacked; ++k) {
      w.inputs[b].push_back(rng.residues(n, params.q()));
      mapping::NttJob job;
      job.base_row = static_cast<std::uint32_t>(k) * w.rows_per_item;
      job.direction = inverse ? mapping::Direction::kInverse
                              : mapping::Direction::kForward;
      job.negacyclic = negacyclic && inverse;
      w.items[b].push_back(mapper.map(job).trace);
      per_bank[b].insert(per_bank[b].end(), w.items[b].back().begin(),
                         w.items[b].back().end());
    }
  }

  std::vector<std::size_t> heads(banks, 0);
  std::size_t remaining = 0;
  for (const auto& t : per_bank) remaining += t.size();
  while (remaining > 0) {
    const std::size_t pick = rng.next_below(banks);
    if (heads[pick] == per_bank[pick].size()) continue;
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.next_below(4),
                              per_bank[pick].size() - heads[pick]);
    for (std::size_t i = 0; i < chunk; ++i)
      w.trace.push_back(per_bank[pick][heads[pick]++]);
    remaining -= chunk;
  }
  return w;
}

pim::PimDevice make_device(const Workload& w) {
  pim::PimDevice device(w.geometry, w.num_buffers);
  for (std::size_t b = 0; b < w.inputs.size(); ++b)
    for (std::size_t k = 0; k < w.inputs[b].size(); ++k)
      pim::load_polynomial(device.bank(b),
                           static_cast<std::uint32_t>(k) * w.rows_per_item,
                           w.inputs[b][k]);
  return device;
}

void expect_identical(const RunStats& fast, const RunStats& ref) {
  EXPECT_EQ(fast.cycles, ref.cycles);
  EXPECT_EQ(fast.channel_makespans, ref.channel_makespans);
  EXPECT_EQ(fast.activations, ref.activations);
  EXPECT_EQ(fast.precharges, ref.precharges);
  EXPECT_EQ(fast.column_reads, ref.column_reads);
  EXPECT_EQ(fast.column_writes, ref.column_writes);
  EXPECT_EQ(fast.compute_ops, ref.compute_ops);
  EXPECT_EQ(fast.butterflies, ref.butterflies);
  EXPECT_EQ(fast.param_loads, ref.param_loads);
  EXPECT_EQ(fast.refreshes, ref.refreshes);
  EXPECT_EQ(fast.commands, ref.commands);
  EXPECT_EQ(fast.bus_busy_cycles, ref.bus_busy_cycles);
  // Identical integer inputs through identical arithmetic: bitwise equal.
  EXPECT_EQ(fast.ns, ref.ns);
  EXPECT_EQ(fast.energy.total_nj(), ref.energy.total_nj());

  ASSERT_EQ(fast.timeline.size(), ref.timeline.size());
  for (std::size_t i = 0; i < fast.timeline.size(); ++i) {
    EXPECT_EQ(fast.timeline[i].trace_index, ref.timeline[i].trace_index);
    EXPECT_EQ(fast.timeline[i].kind, ref.timeline[i].kind);
    EXPECT_EQ(fast.timeline[i].bank, ref.timeline[i].bank);
    EXPECT_EQ(fast.timeline[i].issue, ref.timeline[i].issue);
    EXPECT_EQ(fast.timeline[i].end, ref.timeline[i].end);
  }
}

/// Every word of every row the workload's items occupy.
void expect_same_memory(const Workload& w, const pim::PimDevice& fast,
                        const pim::PimDevice& ref) {
  for (std::size_t b = 0; b < w.inputs.size(); ++b) {
    const std::size_t words = w.inputs[b].size() * w.rows_per_item *
                              w.geometry.words_per_row();
    EXPECT_EQ(pim::read_result(fast.bank(b), 0, words),
              pim::read_result(ref.bank(b), 0, words))
        << "bank " << b;
  }
}

/// Keyed scheduler vs the reference, through both entries: the
/// interleaved flat trace and the per-bank programs.
void run_both_and_compare(const Workload& w, const EngineConfig& config) {
  const Engine engine(config);
  {
    pim::PimDevice fast_device = make_device(w);
    pim::PimDevice ref_device = make_device(w);
    const RunStats fast = engine.run(fast_device, w.trace);
    const RunStats ref = engine.run_reference(ref_device, w.trace);
    expect_identical(fast, ref);
    expect_same_memory(w, fast_device, ref_device);
  }
  const std::vector<BankProgram> programs = w.programs();
  pim::PimDevice fast_device = make_device(w);
  pim::PimDevice ref_device = make_device(w);
  const RunStats fast = engine.run(fast_device, programs);
  const RunStats ref = engine.run_reference(ref_device, programs);
  expect_identical(fast, ref);
  expect_same_memory(w, fast_device, ref_device);
}

TEST(SchedulerEquivalence, SingleBankWithRefresh) {
  // N = 4096 runs long enough to cross several tREFI deadlines.
  const Workload w = make_workload(1, 4096, 4, false, false, 1);
  EngineConfig config;  // refresh on by default
  config.record_timeline = true;
  run_both_and_compare(w, config);
}

TEST(SchedulerEquivalence, MultiBankInterleavedWithRefresh) {
  const Workload w = make_workload(4, 1024, 4, false, false, 2);
  EngineConfig config;
  config.record_timeline = true;
  run_both_and_compare(w, config);
}

TEST(SchedulerEquivalence, FunctionalOutputMatchesReferenceTransform) {
  const std::size_t n = 1024;
  const Workload w = make_workload(2, n, 4, false, false, 3);
  const Engine engine(EngineConfig{});
  pim::PimDevice device = make_device(w);
  engine.run(device, w.trace);
  const ntt::NttParams params = ntt::NttParams::create(n);
  for (std::size_t b = 0; b < 2; ++b) {
    auto expected = w.inputs[b][0];
    ntt::forward_ntt(expected, params);
    EXPECT_EQ(pim::read_result(device.bank(b), 0, n), expected);
  }
}

// Seeded sweep over bank counts, channel counts, sizes, buffer counts,
// directions, stacked items per bank, refresh settings and interleavings —
// timelines compared event by event. Any divergence in the per-bank key
// bookkeeping (a missed rekey, a non-separable constraint, a refresh flip
// against the wrong channel's bus) shows up as a cycle or commit mismatch.
TEST(SchedulerEquivalence, SeededPropertySweep) {
  struct Case {
    std::size_t banks, n, num_buffers;
    bool inverse, negacyclic;
    std::size_t channels = 1, stacked = 1;
    bool refresh = true;
  };
  const Case cases[] = {
      {1, 256, 2, false, false},  {2, 256, 4, true, true},
      {3, 512, 5, false, false},  {4, 512, 2, true, false},
      {2, 1024, 4, false, false}, {4, 1024, 6, true, true},
      {8, 256, 4, false, false},  {2, 2048, 4, false, false},
      // Per-channel buses: each channel's bus_free gates only its banks.
      {4, 1024, 4, false, false, 2},
      {8, 512, 4, true, true, 4},
      // Multi-channel refresh windows, and no refresh at all.
      {4, 1024, 4, false, false, 2, 1},
      {8, 1024, 4, true, false, 4, 1},
      {4, 512, 4, false, false, 2, 1, false},
      // Several stacked items (program segments) per bank.
      {2, 512, 4, false, false, 1, 3},
      {4, 256, 4, true, true, 2, 4},
      {8, 256, 2, false, false, 2, 2, false},
  };
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "banks=" << c.banks << " channels=" << c.channels
                 << " n=" << c.n << " nb=" << c.num_buffers
                 << " inverse=" << c.inverse << " negacyclic=" << c.negacyclic
                 << " stacked=" << c.stacked << " refresh=" << c.refresh
                 << " seed=" << seed);
    const Workload w = make_workload(c.banks, c.n, c.num_buffers, c.inverse,
                                     c.negacyclic, seed++, c.channels,
                                     c.stacked);
    EngineConfig config;
    config.record_timeline = true;
    config.enable_refresh = c.refresh;
    run_both_and_compare(w, config);
  }
}

// The program entry and the flat-trace entry are one scheduler: programs
// and their bank-major concatenation (the trace a recorded backend wave
// keeps) give identical RunStats, timelines — trace_index included — and
// memory images.
TEST(SchedulerEquivalence, ProgramEntryMatchesFlatTrace) {
  const Workload w = make_workload(4, 512, 4, false, false, 7, 2, 2);
  std::vector<Command> concatenated;
  for (const auto& bank_items : w.items)
    for (const auto& item : bank_items)
      concatenated.insert(concatenated.end(), item.begin(), item.end());

  EngineConfig config;
  config.record_timeline = true;
  const Engine engine(config);
  pim::PimDevice program_device = make_device(w);
  pim::PimDevice flat_device = make_device(w);
  const RunStats by_program = engine.run(program_device, w.programs());
  const RunStats by_trace = engine.run(flat_device, concatenated);
  expect_identical(by_program, by_trace);
  expect_same_memory(w, program_device, flat_device);

  // Interleaving the flat trace moves nothing but the trace indices.
  pim::PimDevice interleaved_device = make_device(w);
  const RunStats interleaved = engine.run(interleaved_device, w.trace);
  EXPECT_EQ(interleaved.cycles, by_program.cycles);
  EXPECT_EQ(interleaved.timeline.size(), by_program.timeline.size());
  expect_same_memory(w, program_device, interleaved_device);
}

}  // namespace
}  // namespace nttpim::sim
