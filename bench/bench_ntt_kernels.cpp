// Modeled-hardware baseline: runs each kernel configuration through the
// cycle-accurate PIM simulation and writes the cycle / ACT / energy counts
// that BENCH_seed.json commits. Host-side speedups must leave the output
// byte-identical; ctest `seed_record` compares it with the committed file.
#include <iostream>

#include "bench_common.h"
#include "sim/runner.h"

namespace {

using namespace nttpim;

void write_kernels(bench::JsonWriter& json, bool& all_verified) {
  json.begin_array("kernels");
  for (const std::size_t n : {256, 1024, 4096, 16384}) {
    for (const std::size_t num_buffers : {2, 4}) {
      for (const bool negacyclic : {false, true}) {
        sim::NttRunConfig config;
        config.n = n;
        config.num_buffers = num_buffers;
        config.negacyclic = negacyclic;
        const sim::NttRunResult result = sim::run_ntt_on_pim(config);
        all_verified = all_verified && result.verified;

        json.begin_object();
        json.field("n", n);
        json.field("q", result.q);
        json.field("num_buffers", num_buffers);
        json.field("negacyclic", negacyclic);
        json.field("pipelined", config.pipelined);
        json.field("row_centric", config.row_centric);
        json.field("verified", result.verified);
        json.field("cycles", result.stats.cycles);
        json.field("latency_us", result.latency_us);
        json.field("energy_nj", result.energy_nj);
        json.field("activations", result.stats.activations);
        json.field("precharges", result.stats.precharges);
        json.field("column_reads", result.stats.column_reads);
        json.field("column_writes", result.stats.column_writes);
        json.field("compute_ops", result.stats.compute_ops);
        json.field("butterflies", result.stats.butterflies);
        json.field("commands", result.stats.commands);
        json.begin_object("acts_by_regime");
        for (const auto& [regime, acts] : result.trace_counts.acts_by_regime)
          json.field(dram::to_string(regime), acts);
        json.end_object();
        json.end_object();
      }
    }
  }
  json.end_array();
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_ntt_kernels [--json [path]]\n"
    "  Modeled-hardware baseline (cycle-accurate, deterministic): cycles,\n"
    "  ACTs and energy per kernel configuration, as in BENCH_seed.json.\n"
    "  --json [path]  write the report to path (\"-\"/no path/no flag =\n"
    "                 stdout)\n";

int main(int argc, char** argv) {
  const auto json_path = bench::consume_json_flag(argc, argv);
  bench::finish_flags(argc, argv, kUsage);
  bool all_verified = true;
  const std::string report = bench::render_report(
      "nttpim-bench-v1", "bench_ntt_kernels",
      [&](bench::JsonWriter& json) { write_kernels(json, all_verified); });
  if (!all_verified) {
    std::cerr << "baseline aborted: a simulated NTT failed functional "
                 "verification against the reference transform\n";
    return 1;
  }
  return bench::write_output(json_path.value_or("-"), report);
}
