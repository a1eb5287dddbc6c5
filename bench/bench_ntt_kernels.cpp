// Modeled-hardware baseline: runs each kernel configuration through the
// cycle-accurate PIM simulation and writes the cycle / ACT / energy counts
// that BENCH_seed.json commits. Host-side speedups must leave the output
// byte-identical; CI diffs it against the committed file.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "sim/runner.h"

namespace {

using namespace nttpim;

int run_json_baseline(const std::string& path) {
  // Buffer the report and only write the output file once every config has
  // verified, so a broken sim never leaves a plausible-looking baseline on
  // disk for a script that ignores the exit status.
  std::ostringstream os;
  bench::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "nttpim-bench-v1");
  json.field("bench", "bench_ntt_kernels");
  bench::write_architecture(json);
  json.begin_array("kernels");
  bool all_verified = true;
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
  json.end_object();
  if (!all_verified) {
    std::cerr << "baseline aborted: a simulated NTT failed functional "
                 "verification against the reference transform\n";
    return 1;
  }
  if (path == "-") {
    std::cout << os.str();
  } else {
    std::ofstream file(path);
    if (!(file << os.str())) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
  }
  return 0;
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
  return run_json_baseline(json_path.value_or("-"));
}
