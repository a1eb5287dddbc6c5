// Randomized differential properties across the whole stack: for arbitrary
// seeds, sizes, moduli and mapper configurations, the PIM-simulated result
// must equal the reference transform, configurations must only differ in
// schedule (never in result), and conservation-style invariants must hold.
#include <gtest/gtest.h>

#include "common/random.h"
#include "mapping/act_model.h"
#include "mapping/mapper.h"
#include "mapping/trace.h"
#include "sim/runner.h"

namespace nttpim {
namespace {

TEST(PropertyFuzz, RandomConfigurationsAllVerify) {
  // 24 random draws over (n, Nb, pipelined, direction, seed); every one
  // must produce a bit-exact transform.
  Rng meta(0xfeed);
  const std::size_t sizes[] = {16, 64, 128, 256, 512, 1024, 2048};
  for (int trial = 0; trial < 24; ++trial) {
    sim::NttRunConfig config;
    config.n = sizes[meta.next_below(std::size(sizes))];
    config.num_buffers = 2 + meta.next_below(5);  // 2..6
    config.pipelined = meta.next_below(2) == 0;
    config.direction = meta.next_below(4) == 0
                           ? mapping::Direction::kInverse
                           : mapping::Direction::kForward;
    config.seed = meta.next_u64();
    const auto result = sim::run_ntt_on_pim(config);
    EXPECT_TRUE(result.verified)
        << "n=" << config.n << " nb=" << config.num_buffers
        << " pipelined=" << config.pipelined << " seed=" << config.seed;
  }
}

TEST(PropertyFuzz, ScheduleNeverChangesTheResult) {
  // All scheduling knobs produce identical memory images; only cycles and
  // activations differ. (The engine verifies each against the reference,
  // so pairwise equality follows — asserted here via the verified flags
  // plus explicit count relations.)
  for (const std::uint64_t seed : {1ULL, 99ULL, 12345ULL}) {
    sim::NttRunConfig config;
    config.n = 1024;
    config.num_buffers = 6;
    config.seed = seed;

    std::uint64_t prev_cycles = 0;
    for (const bool pipelined : {false, true}) {
      for (const bool in_place : {false, true}) {
        config.pipelined = pipelined;
        config.in_place = in_place;
        const auto r = sim::run_ntt_on_pim(config);
        EXPECT_TRUE(r.verified) << pipelined << in_place << seed;
        prev_cycles = r.stats.cycles;
        EXPECT_GT(prev_cycles, 0u);
      }
    }
  }
}

TEST(PropertyFuzz, TraceCountsAreConfigurationInvariants) {
  // Compute-command counts depend only on N (the DFG), never on the
  // buffer count or schedule.
  const dram::DramGeometry g = dram::hbm2e_geometry();
  const ntt::NttParams params = ntt::NttParams::create(512);
  std::uint64_t c1 = 0, c2 = 0;
  bool first = true;
  for (const std::size_t nb : {2u, 3u, 4u, 6u}) {
    for (const bool pipelined : {false, true}) {
      mapping::MapperConfig config;
      config.num_buffers = nb;
      config.pipelined = pipelined;
      const mapping::RowCentricMapper mapper(g, params, config);
      const auto counts =
          mapping::count_commands(mapper.map(mapping::NttJob{}).trace);
      if (first) {
        c1 = counts.c1_ops;
        c2 = counts.c2_ops;
        first = false;
      } else {
        EXPECT_EQ(counts.c1_ops, c1) << nb << pipelined;
        EXPECT_EQ(counts.c2_ops, c2) << nb << pipelined;
      }
      // Reads/writes balance: every atom loaded is written back exactly
      // once per pass over it (in-place property).
      EXPECT_EQ(counts.column_reads, counts.column_writes);
    }
  }
}

TEST(PropertyFuzz, ActModelHoldsAcrossRandomConfigs) {
  Rng meta(0xac7);
  const dram::DramGeometry g = dram::hbm2e_geometry();
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = std::size_t{256}
                          << meta.next_below(6);  // 256..8192
    const ntt::NttParams params = ntt::NttParams::create(n);
    mapping::MapperConfig config;
    config.num_buffers = 2 + meta.next_below(5);
    config.pipelined = meta.next_below(2) == 0;
    config.row_centric = meta.next_below(2) == 0;
    const mapping::RowCentricMapper mapper(g, params, config);
    const auto counts =
        mapping::count_commands(mapper.map(mapping::NttJob{}).trace);
    const mapping::DataLayout layout(g, 0, n);
    EXPECT_EQ(counts.acts, mapping::ActModel::total_forward(layout, config))
        << "n=" << n << " nb=" << config.num_buffers
        << " pipelined=" << config.pipelined
        << " row_centric=" << config.row_centric;
  }
}

TEST(PropertyFuzz, BusUtilizationIsSane) {
  sim::NttRunConfig config;
  config.n = 1024;
  config.num_buffers = 6;
  const auto r = sim::run_ntt_on_pim(config);
  EXPECT_GT(r.stats.bus_utilization(), 0.0);
  EXPECT_LE(r.stats.bus_utilization(), 1.0);
  // Row-centric locality: dozens of column accesses per activation.
  EXPECT_GT(r.stats.column_accesses_per_activation(), 10.0);
}

}  // namespace
}  // namespace nttpim
