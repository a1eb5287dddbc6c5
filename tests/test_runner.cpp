#include "sim/runner.h"

#include <gtest/gtest.h>

namespace nttpim::sim {
namespace {

TEST(Runner, ReportsConsistentMetrics) {
  NttRunConfig config;
  config.n = 512;
  config.num_buffers = 4;
  const auto r = run_ntt_on_pim(config);

  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.trace_length, r.trace_counts.total);
  EXPECT_EQ(r.stats.activations, r.trace_counts.acts);
  EXPECT_NEAR(r.latency_us, r.stats.us(), 1e-12);
  EXPECT_NEAR(r.energy_nj, r.stats.energy.total_nj(), 1e-9);
  EXPECT_GT(r.q, 0u);
}

TEST(Runner, FrequencySweepMatchesPaperShape) {
  // Fig. 8: quarter clock must cost well under 4x wall-clock, and large-N
  // runs (more inter-row / DRAM-bound) degrade less than small-N ones.
  auto slowdown = [](std::size_t n) {
    NttRunConfig config;
    config.n = n;
    config.num_buffers = 2;
    config.freq_mhz = 1200;
    const double fast = run_ntt_on_pim(config).latency_us;
    config.freq_mhz = 300;
    const double slow = run_ntt_on_pim(config).latency_us;
    return slow / fast;
  };

  const double small_n = slowdown(256);
  const double large_n = slowdown(4096);
  EXPECT_LT(large_n, small_n);
  EXPECT_LT(large_n, 2.5);   // paper reports ~1.65x at large N
  EXPECT_GT(large_n, 1.0);
  EXPECT_LT(small_n, 4.0);
}

TEST(Runner, RejectsDegenerateConfig) {
  NttRunConfig config;
  config.n = 1;
  EXPECT_THROW(run_ntt_on_pim(config), std::invalid_argument);
}

}  // namespace
}  // namespace nttpim::sim
