#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "ntt/params.h"
#include "ntt/reference.h"
#include "pim/host.h"

namespace nttpim::sim {
namespace {

using dram::CmdKind;
using dram::Command;

mapping::MappedNtt map_ntt(const dram::DramGeometry& g,
                           const ntt::NttParams& params, std::size_t nb,
                           std::uint16_t bank = 0) {
  mapping::MapperConfig config;
  config.num_buffers = nb;
  config.bank = bank;
  const mapping::RowCentricMapper mapper(g, params, config);
  return mapper.map(mapping::NttJob{});
}

TEST(Engine, StatsMatchTraceCounts) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(512);
  const auto mapped = map_ntt(g, params, 4);

  pim::PimDevice device(g, 4);
  Rng rng(1);
  pim::load_polynomial(device.bank(0), 0, rng.residues(512, params.q()));

  const Engine engine(EngineConfig{});
  const RunStats stats = engine.run(device, mapped.trace);
  const auto counts = mapping::count_commands(mapped.trace);

  EXPECT_EQ(stats.commands, counts.total);
  EXPECT_EQ(stats.activations, counts.acts);
  EXPECT_EQ(stats.precharges, counts.pres);
  EXPECT_EQ(stats.column_reads, counts.column_reads);
  EXPECT_EQ(stats.column_writes, counts.column_writes);
  EXPECT_EQ(stats.compute_ops, counts.c1_ops + counts.c2_ops);
  EXPECT_EQ(stats.param_loads, counts.params);
  // C1 performs 12 butterflies, C2 performs 8.
  EXPECT_EQ(stats.butterflies, counts.c1_ops * 12 + counts.c2_ops * 8);
}

TEST(Engine, Deterministic) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(1024);
  const auto mapped = map_ntt(g, params, 4);

  std::uint64_t cycles[2];
  for (int i = 0; i < 2; ++i) {
    pim::PimDevice device(g, 4);
    Rng rng(7);
    pim::load_polynomial(device.bank(0), 0, rng.residues(1024, params.q()));
    const Engine engine(EngineConfig{});
    cycles[i] = engine.run(device, mapped.trace).cycles;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(Engine, MakespanDominatedByBusFloor) {
  // One command per bus cycle is a hard lower bound on the makespan.
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(256);
  const auto mapped = map_ntt(g, params, 6);

  pim::PimDevice device(g, 6);
  Rng rng(2);
  pim::load_polynomial(device.bank(0), 0, rng.residues(256, params.q()));
  const Engine engine(EngineConfig{});
  const RunStats stats = engine.run(device, mapped.trace);
  EXPECT_GE(stats.cycles, mapped.trace.size());
}

TEST(Engine, LowerFrequencyIncreasesWallClock) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(1024);
  const auto mapped = map_ntt(g, params, 2);

  double ns_at[2];
  const double freqs[2] = {1200.0, 300.0};
  for (int i = 0; i < 2; ++i) {
    pim::PimDevice device(g, 2);
    Rng rng(3);
    pim::load_polynomial(device.bank(0), 0, rng.residues(1024, params.q()));
    EngineConfig config;
    config.timing = dram::hbm2e_timing().at_frequency(freqs[i]);
    ns_at[i] = Engine(config).run(device, mapped.trace).ns;
  }
  EXPECT_GT(ns_at[1], ns_at[0]);
  // But nowhere near 4x: DRAM latencies are fixed in ns (paper Fig. 8).
  EXPECT_LT(ns_at[1] / ns_at[0], 4.0);
}

TEST(Engine, MultiBankSharesBusButOverlaps) {
  const dram::DramGeometry g = dram::hbm2e_geometry(2);
  const ntt::NttParams params = ntt::NttParams::create(512);

  pim::PimDevice device(g, 4);
  Rng rng(4);
  std::vector<Command> merged;
  for (std::uint16_t b = 0; b < 2; ++b) {
    pim::load_polynomial(device.bank(b), 0, rng.residues(512, params.q()));
    const auto mapped = map_ntt(g, params, 4, b);
    merged.insert(merged.end(), mapped.trace.begin(), mapped.trace.end());
  }

  const Engine engine(EngineConfig{});
  const std::uint64_t both = engine.run(device, merged).cycles;

  pim::PimDevice single(g, 4);
  Rng rng2(4);
  pim::load_polynomial(single.bank(0), 0, rng2.residues(512, params.q()));
  const std::uint64_t one =
      engine.run(single, map_ntt(g, params, 4, 0).trace).cycles;

  EXPECT_GT(both, one);           // sharing the bus costs something
  EXPECT_LT(both, 2 * one);       // but the banks overlap heavily
  EXPECT_LT(static_cast<double>(both), 1.25 * static_cast<double>(one));
}

TEST(Engine, TwoChannelsDoNotSerialize) {
  // The same two-bank workload as above, but with each bank on its own
  // channel: private command buses remove the sharing penalty entirely,
  // so the two-bank makespan equals a solo single-bank run — and both
  // stay functionally exact.
  const dram::DramGeometry g = dram::hbm2e_geometry(2, 2);
  const ntt::NttParams params = ntt::NttParams::create(512);

  pim::PimDevice device(g, 4);
  Rng rng(4);
  std::vector<std::vector<std::uint32_t>> inputs;
  std::vector<Command> merged;
  for (std::uint16_t b = 0; b < 2; ++b) {
    inputs.push_back(rng.residues(512, params.q()));
    pim::load_polynomial(device.bank(b), 0, inputs.back());
    const auto mapped = map_ntt(g, params, 4, b);
    merged.insert(merged.end(), mapped.trace.begin(), mapped.trace.end());
  }

  const Engine engine(EngineConfig{});
  const RunStats both = engine.run(device, merged);

  pim::PimDevice solo(g, 4);
  pim::load_polynomial(solo.bank(0), 0, inputs[0]);
  const RunStats one = engine.run(solo, map_ntt(g, params, 4, 0).trace);

  ASSERT_EQ(both.channel_makespans.size(), 2u);
  EXPECT_EQ(both.cycles,
            std::max(both.channel_makespans[0], both.channel_makespans[1]));
  EXPECT_GT(both.channel_makespans[0], 0u);
  EXPECT_GT(both.channel_makespans[1], 0u);
  // Neither channel ever waits on the other's bus.
  EXPECT_EQ(both.cycles, one.cycles);

  // The same merged trace on a single shared bus costs strictly more.
  const dram::DramGeometry shared_g = dram::hbm2e_geometry(2, 1);
  pim::PimDevice shared(shared_g, 4);
  for (std::uint16_t b = 0; b < 2; ++b)
    pim::load_polynomial(shared.bank(b), 0, inputs[b]);
  EXPECT_GT(engine.run(shared, merged).cycles, both.cycles);

  for (std::uint16_t b = 0; b < 2; ++b) {
    auto expected = inputs[b];
    ntt::forward_ntt(expected, params);
    EXPECT_EQ(pim::read_result(device.bank(b), 0, 512), expected);
  }
}

TEST(Engine, RejectsUnknownBank) {
  const dram::DramGeometry g = dram::hbm2e_geometry(1);
  pim::PimDevice device(g, 2);
  std::vector<Command> trace{{.kind = CmdKind::kAct, .bank = 3, .row = 0}};
  const Engine engine(EngineConfig{});
  EXPECT_THROW(engine.run(device, trace), std::invalid_argument);
}

TEST(Engine, RejectsBufferBeyondNb) {
  // Validated when the CU_RD becomes the bank's head — before the timing
  // model indexes its buffer.
  const dram::DramGeometry g = dram::hbm2e_geometry(1);
  pim::PimDevice device(g, 2);
  const Engine engine(EngineConfig{});
  const std::vector<Command> read{
      {.kind = CmdKind::kAct, .bank = 0, .row = 0},
      {.kind = CmdKind::kCuRead, .bank = 0, .row = 0, .buf = 2}};
  EXPECT_THROW(engine.run(device, read), std::invalid_argument);

  pim::PimDevice fresh(g, 2);
  const std::vector<Command> c2{
      {.kind = CmdKind::kC2, .bank = 0, .buf = 0, .buf2 = 7}};
  EXPECT_THROW(engine.run(fresh, c2), std::invalid_argument);
}

TEST(Engine, RejectsCommandInWrongBankProgram) {
  const dram::DramGeometry g = dram::hbm2e_geometry(2);
  pim::PimDevice device(g, 2);
  const Engine engine(EngineConfig{});
  const std::vector<Command> bank1{
      {.kind = CmdKind::kAct, .bank = 1, .row = 0}};
  const std::vector<BankProgram> programs{{bank1}};  // bank 0's program
  EXPECT_THROW(engine.run(device, programs), std::invalid_argument);

  const std::vector<BankProgram> too_many(3);
  EXPECT_THROW(engine.run(device, too_many), std::invalid_argument);
}

TEST(Engine, RefreshOccursAtTrefiRate) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(4096);
  const auto mapped = map_ntt(g, params, 2);

  pim::PimDevice device(g, 2);
  Rng rng(11);
  pim::load_polynomial(device.bank(0), 0, rng.residues(4096, params.q()));
  EngineConfig config;  // refresh on by default
  const RunStats stats = Engine(config).run(device, mapped.trace);

  EXPECT_GT(stats.refreshes, 0u);
  // One refresh per tREFI window (give or take deferral at the edges).
  const double windows = static_cast<double>(stats.cycles) /
                         static_cast<double>(config.timing.trefi);
  EXPECT_NEAR(static_cast<double>(stats.refreshes), windows, windows * 0.2);
}

TEST(Engine, RefreshCostIsBounded) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(4096);
  const auto mapped = map_ntt(g, params, 4);

  std::uint64_t cycles[2];
  const bool flags[2] = {false, true};
  for (int i = 0; i < 2; ++i) {
    pim::PimDevice device(g, 4);
    Rng rng(12);
    pim::load_polynomial(device.bank(0), 0, rng.residues(4096, params.q()));
    EngineConfig config;
    config.enable_refresh = flags[i];
    cycles[i] = Engine(config).run(device, mapped.trace).cycles;
  }
  EXPECT_GT(cycles[1], cycles[0]);  // refresh costs something…
  // …but roughly tRFC/tREFI ~ 9-10%, not more than ~15%.
  EXPECT_LT(static_cast<double>(cycles[1]),
            1.15 * static_cast<double>(cycles[0]));
}

TEST(Engine, RefreshPreservesFunctionalCorrectness) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(2048);
  const auto mapped = map_ntt(g, params, 4);

  pim::PimDevice device(g, 4);
  Rng rng(13);
  const auto input = rng.residues(2048, params.q());
  pim::load_polynomial(device.bank(0), 0, input);
  Engine(EngineConfig{}).run(device, mapped.trace);

  auto expected = input;
  ntt::forward_ntt(expected, params);
  EXPECT_EQ(pim::read_result(device.bank(0), 0, 2048), expected);
}

TEST(Engine, EnergyAccountingConsistent) {
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(512);
  const auto mapped = map_ntt(g, params, 2);

  pim::PimDevice device(g, 2);
  Rng rng(5);
  pim::load_polynomial(device.bank(0), 0, rng.residues(512, params.q()));

  EngineConfig config;
  config.energy.act_pre_pj = 1000;
  config.energy.column_pj = 0;
  config.energy.bu_op_pj = 0;
  config.energy.param_pj = 0;
  config.energy.refresh_pj = 0;
  config.energy.background_mw = 0;
  const RunStats stats = Engine(config).run(device, mapped.trace);
  EXPECT_DOUBLE_EQ(stats.energy.total_nj(),
                   static_cast<double>(stats.activations) * 1.0);
}

}  // namespace
}  // namespace nttpim::sim
