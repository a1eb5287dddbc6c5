// Bank-level parallelism (paper Sec. VI.A and the future-work note in
// Sec. VII): independent NTTs in independent banks sharing one command bus.
//
// Every number is modeled hardware output of the cycle-accurate engine:
// deterministic, functionally verified, and byte-identical on every run.
// `--json` writes the BENCH_host.json object (schema, architecture and
// modeled_bank_scaling) that bench_rns_limbs and bench_service append to.
// Host speed is measured by the repo benchmark (benchmark/), not here.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/table.h"
#include "dram/config.h"
#include "fhe/pim_backend.h"
#include "ntt/negacyclic.h"

namespace {

using namespace nttpim;

constexpr std::size_t kN = 1024;
constexpr std::size_t kNumBuffers = 4;

struct ModeledPoint {
  std::size_t banks;
  std::uint64_t cycles;       ///< makespan of one wave, one item per bank
  double throughput_speedup;  ///< banks * (1-bank makespan) / makespan
};

/// Modeled bank-scaling sweep (deterministic): per point, one wave of
/// `banks` independent forward transforms on a `banks`-bank device, every
/// result checked against the reference transform. The first point is the
/// single bank every speedup is measured against.
std::vector<ModeledPoint> modeled_scaling(bool& all_verified) {
  const auto params = ntt::NttParams::create(kN);
  Rng rng(42);
  std::vector<ModeledPoint> points;
  for (const std::size_t banks : {1, 2, 4, 8, 16}) {
    fhe::PimBackend pim(kNumBuffers, 1200.0, dram::hbm2e_geometry(banks));
    std::vector<std::vector<std::uint32_t>> polys(banks);
    for (auto& poly : polys) poly = rng.residues(kN, params.q());
    auto expected = polys;
    for (auto& poly : expected) ntt::forward_negacyclic_ntt(poly, params);
    pim.transform_batch(polys, params);
    all_verified = all_verified && polys == expected;
    const std::uint64_t cycles = pim.total_cycles();
    const std::uint64_t single = points.empty() ? cycles : points[0].cycles;
    points.push_back({banks, cycles,
                      static_cast<double>(banks) *
                          static_cast<double>(single) /
                          static_cast<double>(cycles)});
  }
  return points;
}

int run_json(const std::string& path) {
  bool all_verified = true;
  const auto modeled = modeled_scaling(all_verified);

  std::ostringstream os;
  bench::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "nttpim-bench-host-v1");
  json.field("bench", "bench_bank_parallel");
  bench::write_architecture(json);

  json.begin_array("modeled_bank_scaling");
  for (const auto& p : modeled) {
    json.begin_object();
    json.field("banks", p.banks);
    json.field("n", kN);
    json.field("num_buffers", kNumBuffers);
    json.field("makespan_cycles", p.cycles);
    json.field("single_bank_cycles", modeled[0].cycles);
    json.field("throughput_speedup", p.throughput_speedup);
    json.field("verified", all_verified);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  if (!all_verified) {
    std::cerr << "bench aborted: a simulated NTT failed functional "
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
    "usage: bench_bank_parallel [--json [path]]\n"
    "  Bank-level parallelism: modeled bank-scaling sweep (cycle-accurate,\n"
    "  deterministic).\n"
    "  --json [path]  write the BENCH_host.json-style report to path\n"
    "                 (\"-\"/no path = stdout)\n";

int main(int argc, char** argv) {
  const auto json_path = bench::consume_json_flag(argc, argv);
  bench::finish_flags(argc, argv, kUsage);
  if (json_path) return run_json(*json_path);

  bench::print_table1_header(
      "Bank-level parallelism (N = 1024, Nb = 4, one NTT per bank)");

  bool all_verified = true;
  const auto modeled = modeled_scaling(all_verified);
  if (!all_verified) {
    std::cerr << "verification FAILED in the modeled scaling sweep\n";
    return EXIT_FAILURE;
  }
  TablePrinter table({"banks", "makespan (cycles)", "1-bank (cycles)",
                      "throughput speedup", "efficiency"});
  for (const auto& p : modeled) {
    table.add_row(
        {std::to_string(p.banks), std::to_string(p.cycles),
         std::to_string(modeled[0].cycles),
         TablePrinter::num(p.throughput_speedup),
         TablePrinter::num(p.throughput_speedup /
                           static_cast<double>(p.banks) * 100.0, 1) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nNear-linear until the shared one-command-per-cycle bus "
               "saturates during the command-dense row-block phase — the "
               "system-level effect the paper defers to future work.\n";
  return EXIT_SUCCESS;
}
