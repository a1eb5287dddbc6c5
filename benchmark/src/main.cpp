// nttpim_bench: runs one benchmark workload and prints one JSON line with
// its counters and metrics (run.py builds, drives and validates it).
//
//   nttpim_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <path>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace nttpim::benchmark {

void report_end_to_end(const PassStats& pass, double setup_s,
                       double modeled_us_per_op, Result& result) {
  const Figures figures = best_slices(pass);
  result.set("setup_s", setup_s);
  result.set("ops_per_s", figures.ops_per_s);
  result.set("latency_p50_us", figures.p50_us);
  result.set("latency_p90_us", figures.p90_us);
  result.set("modeled_us_per_op", modeled_us_per_op);
}

double closed_loop_slo_rate(const PassStats& pass) {
  return percentile(pass.latency_us, 0.9) <= kSloP90Us ? pass.ops_per_s() : 0;
}

void report_loadgen(const PassStats& untraced, const PassStats& traced,
                    double slo_rate_ops, Result& result) {
  result.set("loadgen.samples", static_cast<double>(traced.latency_us.size()));
  result.set("loadgen.mean_us", traced.mean_latency_us());
  result.set("loadgen.p99_us", percentile(traced.latency_us, 0.99));
  result.set("loadgen.lag_p99_us", percentile(traced.lag_us, 0.99));
  result.set("loadgen.slo_rate_ops", slo_rate_ops);
  // Mean latency rather than throughput, so the ratio also means something
  // in the open loop, whose throughput is the offered rate; in a closed
  // loop the two ratios agree (Little's law at a fixed client count).
  result.set("telemetry.overhead_ratio",
             untraced.mean_latency_us() / traced.mean_latency_us());
}

}  // namespace nttpim::benchmark

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nttpim_bench: %s\nusage: nttpim_bench --workload "
               "<kernel|serve_small|serve_open|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nttpim::benchmark;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        config.workload = value;
      else if (flag == "--seed")
        config.seed = std::stoull(value);
      else if (flag == "--seconds")
        config.seconds = std::stod(value);
      else if (flag == "--trace")
        config.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out")
        config.trace_path = value;
      else
        usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  if (config.trace_path.empty())
    config.trace_path = "trace_" + config.workload + ".json";

  Result result;
  try {
    if (config.workload == "kernel")
      run_kernel(config, result);
    else
      run_serve(config, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nttpim_bench: %s\n", e.what());
    return 1;
  }
  if (!config.trace) result.set("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", result.json(config).c_str());
  return 0;
}
